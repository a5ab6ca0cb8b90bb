"""Trials advanced together must equal trials run one at a time.

``run_trials`` advances a contiguous range of trials in lockstep, under
each policy of a sweep. Every result of a trial (its MSD rows, recovery
score, min-PSD eigenvalue and, for trial 0, the detail record) must come
out byte for byte as when the trial runs alone, whatever other trials
share its batch. A numerical failure in one trial of a batch names that
trial and the iteration.
"""

import dataclasses

import numpy as np
import pytest

import difftrack.engine
import difftrack.harness
import difftrack.topology
from difftrack.combiners import POLICIES
from difftrack.dynamics import initial_state
from difftrack.engine import DiffusionKalmanEngine, SharedStep
from difftrack.errors import NumericError
from difftrack.harness import ExperimentConfig, policy_sweep, run_trials
from difftrack.topology import generate_geometric, initial_partition, stack_scenes

# The default 30-node scene, cut short but long enough for links to be
# pruned (the prune window is 10 steps).
SHORT = dict(n_trials=4, n_iterations=40, seed=3)
STATIC = [p for p in POLICIES if p != "adaptive"]


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def trial(result, t):
    """Trial t's share of one policy's ``run_trials`` result, whose
    "detail" belongs to the first trial of a range that starts at 0."""
    share = {key: result[key][t] for key in ("msd", "recovery", "min_psd")}
    if t == 0 and "detail" in result:
        share["detail"] = result["detail"]
    return share


def assert_same_trial(got, want):
    assert got.keys() == want.keys()
    assert same_bytes(got["msd"], want["msd"])
    assert got["recovery"] == want["recovery"]
    assert same_bytes(got["min_psd"], want["min_psd"])
    if "detail" in want:
        got_d, want_d = got["detail"], want["detail"]
        assert got_d.keys() == want_d.keys()
        for key, value in want_d.items():
            if key == "snapshots":
                assert [it for it, _ in got_d[key]] == [it for it, _ in value]
                for (_, c_got), (_, c_want) in zip(got_d[key], value):
                    assert same_bytes(c_got, c_want)
            else:
                assert same_bytes(got_d[key], value), key


@pytest.mark.parametrize("policy", POLICIES)
def test_batch_equals_each_trial_alone(policy):
    cfg = ExperimentConfig(policy=policy, **SHORT)
    [batch] = run_trials([cfg], range(cfg.n_trials), weights_every=7)
    assert len(batch["recovery"]) == cfg.n_trials
    assert "detail" in batch
    detail = batch["detail"]
    if policy == "adaptive":
        assert detail["adjacency_final"].sum() < detail["adjacency_initial"].sum()
    else:
        # Static policies never prune, so the pruning switch changes nothing.
        assert same_bytes(detail["adjacency_final"], detail["adjacency_initial"])
        unpruned = dataclasses.replace(cfg, pruning_enabled=False)
        [again] = run_trials([unpruned], range(cfg.n_trials), weights_every=7)
        for t in range(cfg.n_trials):
            assert_same_trial(trial(batch, t), trial(again, t))
    for t in range(cfg.n_trials):
        [alone] = run_trials([cfg], range(t, t + 1), weights_every=7)
        assert_same_trial(trial(batch, t), trial(alone, 0))


@pytest.mark.parametrize("policy", STATIC)
def test_static_policy_keeps_dense_graph_and_weights(policy, monkeypatch):
    # A dense scene, where a static policy that pruned and rebuilt its
    # weights on the pruned graph would lose most of its edges.
    def no_prune(*args):
        raise AssertionError("a static policy pruned")

    monkeypatch.setattr(difftrack.engine, "prune_cross_links", no_prune)
    cfg = ExperimentConfig(policy=policy, n_nodes=120, n_trials=1, n_iterations=30)
    [result] = run_trials([cfg], range(1), weights_every=30)
    detail = result["detail"]
    assert detail["adjacency_initial"].sum() == 2 * 1917
    assert same_bytes(detail["adjacency_final"], detail["adjacency_initial"])
    # The snapshot at iteration 0 is the matrix built at construction.
    [(first, c0)] = detail["snapshots"]
    assert first == 0
    assert same_bytes(detail["final_C"], c0)


@pytest.mark.parametrize("policy", ["adaptive", "uniform"])
def test_run_path_inverts_no_matrix(policy, monkeypatch):
    # Adaptation is closed form; inverse_spd serves only the reference forms.
    def no_inverse(*args, **kwargs):
        raise AssertionError("the engine inverted a matrix")

    monkeypatch.setattr(difftrack.engine, "inverse_spd", no_inverse)
    cfg = ExperimentConfig(policy=policy, n_trials=2, n_iterations=15)
    assert len(run_trials([cfg], range(2))[0]["recovery"]) == 2


@pytest.mark.parametrize("policies", [["adaptive"], ["uniform"], list(POLICIES)])
def test_per_batch_work_does_not_grow_with_trials(policies, monkeypatch):
    # Pruning, static weights, MSD and the truth step each take one call
    # for the whole batch, so 1 trial and 4 make the same calls. A sweep
    # draws each trial and steps the truths once for all its policies, and
    # builds one edge list, which each prune filters. Its engines that
    # never prune share one SharedStep, whose halves run once per step for
    # all of them; a pruning adaptive engine runs both halves of its own,
    # and each cut re-adopts it in place. Every C is checked at
    # construction, and only the adaptive engine's again, once per step.
    calls = {}

    def counted(owner, name, key=None):
        original = getattr(owner, name)
        key = key or name
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(difftrack.engine, "prune_cross_links")
    counted(difftrack.engine, "static_weights")
    counted(difftrack.engine, "validate_combination_matrix")
    counted(difftrack.harness, "msd_accumulate")
    counted(difftrack.harness, "step_truth")
    counted(difftrack.harness, "trial_rng")
    counted(difftrack.topology.Edges, "__init__", "Edges")
    counted(SharedStep, "__init__", "SharedStep")
    counted(SharedStep, "adapt")
    counted(SharedStep, "predict")
    counted(SharedStep, "adopt")
    prunes = []
    prune = difftrack.engine.prune_cross_links

    def recording(net, *args):
        pruned = prune(net, *args)
        prunes.append(pruned is not net)
        return pruned

    monkeypatch.setattr(difftrack.engine, "prune_cross_links", recording)
    adaptive = policies.count("adaptive")
    for pruning in (True, False):
        for n_trials in (1, 4):
            cfg = ExperimentConfig(
                n_trials=n_trials, n_iterations=30, seed=3, pruning_enabled=pruning
            )
            calls.update(dict.fromkeys(calls, 0))
            prunes.clear()
            policy_sweep(cfg, policies)
            pruners = adaptive * pruning
            assert any(prunes) == bool(pruners), n_trials
            steps = pruners + (len(policies) > pruners)
            assert calls == {
                "prune_cross_links": pruners * (cfg.n_iterations - cfg.prune_window + 1),
                "static_weights": len(policies) - adaptive,
                "validate_combination_matrix": len(policies) + adaptive * cfg.n_iterations,
                "msd_accumulate": len(policies) * cfg.n_iterations,
                "step_truth": cfg.n_iterations - 1,
                "trial_rng": n_trials,
                "Edges": 1,
                "SharedStep": steps,
                "adapt": steps * cfg.n_iterations,
                "predict": steps * cfg.n_iterations,
                "adopt": steps + sum(prunes),
            }, (pruning, n_trials)


@pytest.mark.parametrize(
    "policies",
    [list(POLICIES), POLICIES[::-1], ["adaptive"], ["adaptive", "uniform"], STATIC],
)
@pytest.mark.parametrize("pruning", [True, False])
def test_only_engines_that_never_prune_share_a_step(policies, pruning):
    # Each pruning engine holds a step no other engine holds, and all the
    # others hold one; no engine's step is replaced as links are cut.
    engines, measure = cutting_sweep(policies, pruning_enabled=pruning)
    steps = [engine.shared for engine in engines]
    held = [sum(other is step for other in steps) for step in steps]
    alone = [engine.cfg.policy == "adaptive" and pruning for engine in engines]
    assert held == [1 if prunes else alone.count(False) for prunes in alone]
    edges = [len(engine.net.edges) for engine in engines]
    for _ in range(30):
        y = measure()
        for engine in engines:
            engine.run_step(y)
    assert all(engine.shared is step for engine, step in zip(engines, steps))
    cut = [len(engine.net.edges) < count for engine, count in zip(engines, edges)]
    assert cut == alone


@pytest.mark.parametrize("order", [POLICIES, POLICIES[::-1]])
def test_each_policy_of_a_sweep_equals_its_run_alone(order):
    # The static engines share one SharedStep, and the adaptive engine
    # runs its own, before or after the static engines run theirs.
    cfgs = [ExperimentConfig(policy=policy, **SHORT) for policy in order]
    trials = range(SHORT["n_trials"])
    sweep = run_trials(cfgs, trials, weights_every=7)
    for cfg, results in zip(cfgs, sweep):
        [alone] = run_trials([cfg], trials, weights_every=7)
        assert len(results["recovery"]) == len(alone["recovery"])
        for t in trials:
            assert_same_trial(trial(results, t), trial(alone, t))
        detail = results["detail"]
        cut = detail["adjacency_final"].sum() < detail["adjacency_initial"].sum()
        assert cut == (cfg.policy == "adaptive")


def test_batch_composition_does_not_matter():
    cfg = ExperimentConfig(**{**SHORT, "n_trials": 8})
    [alone] = run_trials([cfg], range(3, 4))
    assert "detail" not in alone
    alone = trial(alone, 0)
    assert_same_trial(trial(run_trials([cfg], range(8))[0], 3), alone)
    assert_same_trial(trial(run_trials([cfg], range(2, 5))[0], 1), alone)


# -- fault injection ----------------------------------------------------

def small_batch(n_trials, policy="adaptive", first_trial=0):
    """An engine over n_trials 8-node scenes, their assignment, the (T, 2, 4)
    launch states, and a function drawing one step's measurements of given
    truths from a stream per trial."""
    rng = np.random.default_rng(21)
    nets, parts = [], []
    for _ in range(n_trials):
        nets.append(generate_geometric(8, 0.6, 2, rng))
        parts.append(initial_partition(nets[-1], 0.4, rng))
    sigma2 = 0.01 + 0.5 * rng.random((n_trials, 8))
    net, part = stack_scenes(nets, parts)
    engine = DiffusionKalmanEngine(
        net, sigma2, ExperimentConfig(policy=policy), first_trial=first_trial
    )
    truths = np.stack(
        [initial_state(1.0, 30.0, 15.0, np.pi / 3), initial_state(1.0, 30.0, 15.0, np.pi / 4)]
    )
    rngs = [np.random.default_rng(100 + t) for t in range(n_trials)]
    targets = (np.arange(n_trials)[:, None], part.cluster_of - 1)

    def measure(truths):
        noise = np.stack([gen.standard_normal((8, 4)) for gen in rngs])
        return truths[targets] + np.sqrt(sigma2)[:, :, None] * noise

    return engine, part, np.broadcast_to(truths, (n_trials, 2, 4)), measure


def test_nan_covariance_names_trial_and_iteration():
    engine, _, truths, measure = small_batch(4)
    for _ in range(3):
        engine.run_step(measure(truths))
    engine.M_pred[2, 5] = np.nan
    with pytest.raises(NumericError, match=r"^trial 2: iteration 3: .*non-finite"):
        engine.run_step(measure(truths))


@pytest.mark.parametrize("policy", ["uniform", "adaptive"])
def test_nan_measurement_names_trial_iteration_and_node(policy):
    engine, part, truths, measure = small_batch(4, policy=policy)
    for _ in range(5):
        engine.run_step(measure(truths))
    truths = truths.copy()
    truths[1, 1, 0] = np.nan
    node = int(np.flatnonzero(part.cluster_of[1] == 2)[0])
    with pytest.raises(
        NumericError,
        match=rf"^trial 1: iteration 5: non-finite measurement at node {node}$",
    ):
        engine.run_step(measure(truths))


@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_infinite_measurement_names_trial_iteration_and_node(value):
    engine, _, truths, measure = small_batch(4)
    for _ in range(2):
        engine.run_step(measure(truths))
    y = measure(truths)
    y[2, 6, 3] = value
    with pytest.raises(
        NumericError, match=r"^trial 2: iteration 2: non-finite measurement at node 6$"
    ):
        engine.run_step(y)


def test_several_bad_measurements_name_the_lowest_trial_and_node():
    engine, _, truths, measure = small_batch(4)
    y = measure(truths)
    y[3, 0, 0] = np.nan
    y[1, 6, 1] = -np.inf
    y[1, 4, 2] = np.inf
    with pytest.raises(
        NumericError, match=r"^trial 1: iteration 0: non-finite measurement at node 4$"
    ):
        engine.run_step(y)


@pytest.mark.parametrize(
    "bad",
    [
        # An infinite variance passes the definiteness tests, and the
        # adapted covariance it gives is NaN: the prediction is named.
        {(2, 5): (np.inf, 0.0, 1.0)},
        {(2, 6): (np.inf, 0.0, 1.0), (2, 5): (1.0, -np.inf, 1.0), (3, 1): np.nan},
        {(2, 5): (1.0, 0.0, np.inf), (2, 7): (-1.0, 0.0, -1.0)},
    ],
)
def test_infinite_covariance_names_the_lowest_node_and_the_prediction(bad):
    engine, _, truths, measure = small_batch(4)
    engine.run_step(measure(truths))
    for node, value in bad.items():
        engine.M_pred[node] = value
    with pytest.raises(
        NumericError,
        match=r"^trial 2: iteration 1: predicted covariance at node 5 has non-finite entries$",
    ):
        engine.run_step(measure(truths))


def test_indefinite_covariance_names_trial_counted_from_first_trial():
    engine, _, truths, measure = small_batch(4, first_trial=40)
    engine.M_pred[1, 3] = (-1.0, 0.0, -1.0)
    with pytest.raises(NumericError, match=r"^trial 41: iteration 0: .*positive definite"):
        engine.run_step(measure(truths))


def test_lost_semidefiniteness_names_trial():
    # M + I/s stays positive definite, so the update succeeds, but the
    # updated covariance keeps the negative eigenvalue.
    engine, _, truths, measure = small_batch(4)
    engine.M_pred[3, 0] = (-1e-3, 0.0, 1.0)
    with pytest.raises(NumericError, match=r"^trial 3: iteration 0: .*semidefinite"):
        engine.run_step(measure(truths))


def entry(net, t, row, col):
    """The index in ``net.edges`` of entry [t, row, col] of the stack's C."""
    n = net.n_nodes
    return int(np.flatnonzero(net.edges.flat == (t * n + row) * n + col)[0])


def faulty_static_weights(monkeypatch, fault):
    """Have the engine build its static C through ``fault(w, net)``,
    which writes into the (E,) weights the policy builds on ``net.edges``;
    the check at construction then sees the fault."""
    build = difftrack.engine.static_weights

    def faulty(policy, net, sigma2):
        w = build(policy, net, sigma2)
        fault(w, net)
        return w

    monkeypatch.setattr(difftrack.engine, "static_weights", faulty)


def test_bad_static_weights_name_trial(monkeypatch):
    def fault(w, net):
        w[entry(net, 2, 0, 0)] = -1.0

    faulty_static_weights(monkeypatch, fault)
    with pytest.raises(NumericError, match=r"^trial 2: iteration 0: .*negative"):
        small_batch(4, policy="uniform")


def test_negative_weight_names_trial_and_column(monkeypatch):
    # Trial 1 of 3 moves a unit of weight within column 4, onto a
    # neighbor: the column still sums to 1, but its self-weight is negative.
    def fault(w, net):
        neighbor = np.flatnonzero(net.adjacency[1, :, 4])[0]
        w[entry(net, 1, neighbor, 4)] += 1.0
        w[entry(net, 1, 4, 4)] -= 1.0

    faulty_static_weights(monkeypatch, fault)
    with pytest.raises(
        NumericError,
        match=r"^trial 7: iteration 0: combination matrix has negative entries in column 4$",
    ):
        small_batch(3, policy="uniform", first_trial=6)


def test_off_stochastic_column_names_trial_and_column(monkeypatch):
    # Trial 1 of 3 adds weight to column 3: its entries stay nonnegative,
    # but the column no longer sums to 1.
    def fault(w, net):
        w[entry(net, 1, 3, 3)] += 0.1

    faulty_static_weights(monkeypatch, fault)
    with pytest.raises(
        NumericError,
        match=r"^trial 5: iteration 0: combination matrix column 3 off stochastic by 1\.000e-01$",
    ):
        small_batch(3, policy="metropolis", first_trial=4)


def test_bad_adaptive_weights_name_trial_and_column():
    # The step's weights are checked as they are made: a NaN estimate at
    # node 5 of trial 2 makes NaN weights in the columns of its
    # neighborhood, the lowest of which is named.
    engine, _, truths, measure = small_batch(4, first_trial=10)
    engine.x_pred[2, 5] = np.nan
    with pytest.raises(
        NumericError,
        match=r"^trial 12: iteration 0: combination matrix column 2 off stochastic by nan$",
    ):
        engine.run_step(measure(truths))


@pytest.mark.parametrize("policy", STATIC)
def test_static_combination_matrix_is_frozen(policy):
    engine, _, truths, measure = small_batch(3, policy=policy)
    with pytest.raises(ValueError, match="read-only"):
        engine.C[1, 0, 0] = 0.5
    for _ in range(12):
        engine.run_step(measure(truths))
    built = np.zeros(engine.C.shape)
    built.ravel()[engine.net.edges.flat] = difftrack.engine.static_weights(
        policy, engine.net, engine.sigma2
    )
    assert same_bytes(engine.C, built)


def test_non_finite_truth_names_the_lowest_failing_trial(monkeypatch):
    # Trials 2 and 3 of the batch get a non-finite truth-noise entry at
    # the fourth truth step.
    step_truth = difftrack.harness.step_truth
    calls = []

    def injected(states, model, w):
        calls.append(None)
        if len(calls) == 4:
            w = w.copy()
            w[2, 1, 0] = np.inf
            w[3, 0, 2] = np.nan
        with np.errstate(invalid="ignore"):
            return step_truth(states, model, w)

    monkeypatch.setattr(difftrack.harness, "step_truth", injected)
    cfg = ExperimentConfig(**SHORT)
    with pytest.raises(
        NumericError, match=r"^trial 2: step_truth produced a non-finite state$"
    ):
        run_trials([cfg], range(cfg.n_trials))
    assert len(calls) == 4


def test_several_failing_trials_name_the_lowest():
    engine, _, truths, measure = small_batch(4)
    engine.M_pred[3, 1] = np.nan
    engine.M_pred[1, 6] = (-1.0, 0.0, -1.0)
    with pytest.raises(NumericError, match=r"^trial 1: iteration 0: "):
        engine.run_step(measure(truths))


# -- the shared half -------------------------------------------------------

class Spiked:
    """A trial's stream whose measurement noise turns NaN at node ``node``
    on step ``step``, the step's noise being the block it draws into
    ``out``."""

    def __init__(self, rng, step, node):
        self._rng, self._step, self._node, self._drawn = rng, step, node, 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, *args, out=None, **kwargs):
        result = self._rng.standard_normal(*args, out=out, **kwargs)
        if out is not None:
            if self._drawn == self._step:
                out[self._node, 1] = np.nan
            self._drawn += 1
        return result


@pytest.mark.parametrize("trial, step, node", [(2, 0, 5), (1, 17, 0), (3, 39, 29)])
def test_nan_measurement_in_a_sweep_names_what_one_policy_names(trial, step, node, monkeypatch):
    trial_rng = difftrack.harness.trial_rng

    def spiked(seed, t):
        rng = trial_rng(seed, t)
        return Spiked(rng, step, node) if t == trial else rng

    monkeypatch.setattr(difftrack.harness, "trial_rng", spiked)
    want = rf"^trial {trial}: iteration {step}: non-finite measurement at node {node}$"
    messages = []
    for policies in (list(POLICIES), ["adaptive"], ["uniform"]):
        with pytest.raises(NumericError, match=want) as info:
            policy_sweep(ExperimentConfig(**SHORT), policies)
        messages.append(str(info.value))
    assert len(set(messages)) == 1


def cutting_sweep(policies, **changes):
    """Engines of the given policies built by ``sharing`` over four 8-node
    scenes, under a prune window and threshold that cut links within a
    few steps, and a function drawing one step's measurements."""
    engine, _, truths, measure = small_batch(4)
    cfg = ExperimentConfig(prune_window=2, prune_tau=0.3, **changes)
    cfgs = [dataclasses.replace(cfg, policy=policy) for policy in policies]
    engines = DiffusionKalmanEngine.sharing(engine.net, engine.sigma2, cfgs)
    return engines, lambda: measure(truths)


def cut_sweep():
    """A sweep of every policy, stepped until the adaptive engine's first
    cut; its engines, a function drawing one step's measurements, and the
    steps run."""
    engines, measure = cutting_sweep(POLICIES)
    net = engines[-1].net
    for step in range(30):
        y = measure()
        for engine in engines:
            engine.run_step(y)
        if engines[-1].net is not net:
            break
    assert engines[-1].net is not net
    return engines, measure, step + 1


def test_later_cuts_keep_the_adaptive_step():
    # Each later cut re-adopts the adaptive engine's own step in place,
    # and the static engines keep theirs.
    engines, measure, _ = cut_sweep()
    *static, adaptive = engines
    own, shared, edges = adaptive.shared, static[0].shared, {len(adaptive.net.edges)}
    for _ in range(30):
        y = measure()
        for engine in engines:
            engine.run_step(y)
        edges.add(len(adaptive.net.edges))
    assert len(edges) > 1
    assert adaptive.shared is own
    assert all(engine.shared is shared for engine in static)


@pytest.mark.parametrize(
    "bad, what",
    [
        (np.nan, "predicted covariance at node 5 has non-finite entries"),
        ((-1.0, 0.0, -1.0), "innovation covariance at node 5 is not positive definite"),
        ((-1e-3, 0.0, 1.0), r"adapted covariance at node 5 lost positive semidefiniteness .*"),
    ],
)
def test_adaptive_step_fails_alone(bad, what):
    engines, measure, steps = cut_sweep()
    *static, adaptive = engines
    shared = static[0].shared
    fields = ("M_pred", "M_psi", "min_psd_eigenvalue")
    before = [getattr(shared, name).copy() for name in fields]
    y = measure()
    adaptive.M_pred[1, 5] = bad
    with pytest.raises(NumericError, match=rf"^trial 1: iteration {steps}: {what}$"):
        adaptive.run_step(y)
    # What was written into the adaptive engine's covariances leaves the
    # static engines' covariances and record as they were, and the static
    # engines step on.
    for name, want in zip(fields, before):
        assert same_bytes(getattr(shared, name), want), name
    for engine in static:
        engine.run_step(y)
