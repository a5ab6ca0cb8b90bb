"""Tests for the diffusion Kalman filter engine."""

import itertools
import pickle
import warnings

import numpy as np
import pytest

import difftrack.engine
from difftrack.combiners import adaptive_weight_row, consistent_pairs
from difftrack.dynamics import MotionModel, initial_state, step_truth
from difftrack.engine import DiffusionKalmanEngine, adapt
from difftrack.errors import ConfigError, NumericError
from difftrack.harness import ExperimentConfig, run_experiment, run_trials
from difftrack.selftest import (
    determinism_check,
    reference_kf_predict,
    single_node_max_deviation,
)
from difftrack.topology import (
    ClusterAssignment,
    Network,
    generate_geometric,
    infer_clusters,
    initial_partition,
)

MODEL = ExperimentConfig().model


def two_target_truths(n_iterations, rng):
    truths = np.empty((n_iterations, 2, 4))
    truths[0, 0] = initial_state(1.0, 30.0, 15.0, np.pi / 3)
    truths[0, 1] = initial_state(1.0, 30.0, 15.0, np.pi / 4)
    w = rng.standard_normal((n_iterations - 1, 2, 4))
    for j in range(1, n_iterations):
        truths[j] = step_truth(truths[j - 1], MODEL, w[j - 1])
    return truths


def measure(truth, part, sigma2, rng):
    """One step's measurements for a one-trial engine: node m sees target
    cluster_of[m] with noise variance sigma2[m], one (n, 4) block from rng."""
    noise = rng.standard_normal((sigma2.size, 4))
    return (truth[part.cluster_of - 1] + np.sqrt(sigma2)[:, None] * noise)[None]


def full_cov(m):
    """The 4x4 covariance M kron I2 of a stored (a, b, c) triple."""
    a, b, c = m
    return np.kron(np.array([[a, b], [b, c]]), np.eye(2))


def information_sums(adjacency, sigma2, y):
    """One trial's information sums sum_n y_n / sigma2_n, one row per node,
    in the engine's arithmetic: the product of the trial's dense matrix of
    1/sigma2_n on its self-inclusive support with its measurements."""
    support = adjacency | np.eye(len(sigma2), dtype=bool)
    return np.where(support.T, 1.0 / sigma2, 0.0) @ y


def information_update(x_pred, m_pred, info, sigma2s):
    """One node's adaptation in information form, in the engine's
    arithmetic: the node's information sum ``info``, a row of
    ``information_sums``, and its neighbors' 1/sigma2 summed in the given
    order, then the closed-form 2x2 update."""
    s = 0.0
    for s2 in sigma2s:
        s = s + 1.0 / s2
    a, b, c = m_pred
    det = a * c - b * b
    den = 1.0 + s * (a + c) + s * s * det
    m_psi = np.array([(a + s * det) / den, b / den, (c + s * det) / den])
    r = info - s * x_pred
    a, b, c = m_psi
    psi = x_pred + np.concatenate([a * r[:2] + b * r[2:], b * r[:2] + c * r[2:]])
    return psi, m_psi


def max_relative(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def one_trial_engine(net, sigma2, policy, **settings):
    """An engine over a one-trial stack, under the default config with the
    given policy and settings; tests read trial 0 of its state."""
    stack = Network(net.positions[None], net.adjacency[None])
    return DiffusionKalmanEngine(stack, sigma2[None], [ExperimentConfig(policy=policy, **settings)])


def build_engine(n, seed, policy="adaptive", **kwargs):
    # A one-trial batch; tests read trial 0 of the engine state.
    rng = np.random.default_rng(seed)
    net = generate_geometric(n, 0.55, 2, rng)
    part = initial_partition(net, 0.3, rng)
    sigma2 = 0.01 + 0.5 * rng.random(n)
    engine = one_trial_engine(net, sigma2, policy, **kwargs)
    return engine, part, rng


# -- reference forms: engine.adapt and selftest.reference_kf_predict ---


def test_adapt_empty_messages_is_identity():
    x = np.arange(4.0)
    p = np.diag([1.0, 2.0, 3.0, 4.0])
    psi, p_out = adapt(x, p, [])
    assert np.array_equal(psi, x)
    assert np.array_equal(p_out, p)


def test_adapt_single_neighbor_scalar_gain():
    # H=I, R=r*I, P=p*I collapse to x + p/(p+r) * (y - x) per coordinate.
    x = np.zeros(4)
    p = 2.0 * np.eye(4)
    y = np.array([3.0, -3.0, 1.5, 0.0])
    psi, p_out = adapt(x, p, [(y, np.eye(4), 1.0 * np.eye(4))])
    assert np.allclose(psi, (2.0 / 3.0) * y, atol=1e-12)
    assert np.allclose(p_out, (2.0 / 3.0) * np.eye(4), atol=1e-12)


def test_adapt_never_inflates_covariance():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    p = (q * rng.uniform(0.5, 3.0, 4)) @ q.T
    p = 0.5 * (p + p.T)
    msgs = [
        (rng.standard_normal(4), rng.standard_normal((4, 4)), 0.5 * np.eye(4))
        for _ in range(4)
    ]
    _, p_out = adapt(np.zeros(4), p, msgs)
    gap_eigs = np.linalg.eigvalsh(p - p_out)
    assert gap_eigs.min() >= -1e-9


def test_reference_kf_predict_noiseless_constant_velocity():
    # Without gravity or noise only positions move, each by delta times
    # its velocity, and P becomes F P F^T.
    model = MotionModel(delta=0.5, g=0.0, g_scale=0.625, q_scale=0.0)
    x = np.arange(4.0)
    p = np.diag([1.0, 2.0, 3.0, 4.0])
    x2, p2 = reference_kf_predict(x, p, model, knows_gravity=True)
    assert np.array_equal(x2, [1.0, 2.5, 2.0, 3.0])
    assert np.array_equal(p2, model.F @ p @ model.F.T)
    assert np.array_equal(p2[[0, 1], [2, 3]], [1.5, 2.0])


def test_reference_kf_predict_noise_injection_value():
    # The noise alone: with P = 0 nothing else reaches P'.
    model = MotionModel(delta=0.1, g=0.0, g_scale=0.625, q_scale=0.001)
    _, p2 = reference_kf_predict(np.zeros(4), np.zeros((4, 4)), model, knows_gravity=True)
    assert np.allclose(p2, 0.000390625 * np.eye(4), atol=1e-18)


def test_reference_kf_predict_trace_grows_with_noise():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    p = (q * rng.uniform(0.5, 2.0, 4)) @ q.T
    _, p2 = reference_kf_predict(np.zeros(4), 0.5 * (p + p.T), MODEL, knows_gravity=True)
    fpf = MODEL.F @ (0.5 * (p + p.T)) @ MODEL.F.T
    assert np.trace(p2) >= np.trace(fpf) - 1e-12


def test_reference_kf_predict_gravity_flag():
    x = np.zeros(4)
    with_g, _ = reference_kf_predict(x, np.eye(4), MODEL, knows_gravity=True)
    without_g, _ = reference_kf_predict(x, np.eye(4), MODEL, knows_gravity=False)
    assert np.array_equal(with_g, MODEL.u_g)
    assert np.array_equal(without_g, np.zeros(4))


# -- engine vs reference operations ------------------------------------


def test_engine_step_matches_per_node_operations():
    engine, part, _ = build_engine(6, seed=10)
    sigma2 = engine.sigma2[0]
    truths = two_target_truths(1, np.random.default_rng(0))[0]
    y = measure(truths, part, sigma2, np.random.default_rng(77))[0]

    x_pred0 = engine.x_pred[0, 0].copy()
    m_pred0 = engine.M_pred[0].copy()
    with_self = engine.net.adjacency[0] | np.eye(6, dtype=bool)
    hoods = [np.flatnonzero(with_self[:, m]) for m in range(6)]

    info = information_sums(engine.net.adjacency[0], sigma2, y)

    engine.run_step(y[None])

    eye = np.eye(4)
    psi = np.empty((6, 4))
    m_psi = np.empty((6, 3))
    for m in range(6):
        hood = hoods[m]
        psi[m], m_psi[m] = information_update(x_pred0[m], m_pred0[m], info[m], sigma2[hood])
        # The general sequential update agrees with the information form.
        msgs = [(y[n], eye, sigma2[n] * eye) for n in hood]
        psi_seq, p_seq = adapt(x_pred0[m], full_cov(m_pred0[m]), msgs)
        assert max_relative(psi_seq, psi[m]) <= 1e-10
        assert max_relative(p_seq, full_cov(m_psi[m])) <= 1e-10
    assert np.array_equal(psi, engine.psi[0, 0])
    assert np.array_equal(m_psi, engine.M_psi[0])

    q = np.stack([y[m] - eye @ psi[m] for m in range(6)])
    assert np.array_equal(q, y - engine.psi[0, 0])

    # Neighbors whose measurements fail the consistency test get no weight;
    # in this scene that holds for both cross-task edges.
    consistent = consistent_pairs(y[:, None], y[None, :], sigma2[:, None], sigma2[None, :])
    assert not consistent[engine.net.adjacency[0]].all()
    c = np.zeros((6, 6))
    for m in range(6):
        hood = hoods[m][consistent[hoods[m], m]]
        c[:, m] = adaptive_weight_row(m, psi, y[m], hood, engine.cfg.eps)
    assert np.abs(c - engine.C[0, 0]).max() < 1e-14

    # gemv vs gemm accumulation differs at 1 ulp; equality is to tolerance.
    x_hat = np.stack([engine.C[0, 0][:, m] @ psi for m in range(6)])
    assert np.abs(x_hat - engine.x_hat[0, 0]).max() < 1e-12

    for m in range(6):
        xp, pp = reference_kf_predict(x_hat[m], full_cov(m_psi[m]), MODEL, knows_gravity=True)
        assert np.abs(xp - engine.x_pred[0, 0, m]).max() < 1e-12
        assert np.abs(pp - full_cov(engine.M_pred[0, m])).max() < 1e-12


def test_engine_residual_of_a_lone_node_is_the_shrunk_innovation():
    # Two unlinked nodes start from x_pred = 0 and M_pred = P0 I. Node 0
    # measures its prediction, so its residual is zero; node 1 measures
    # e1, so psi = P0 / (sigma2 + P0) e1 and q = sigma2 / (sigma2 + P0) e1.
    net = Network(np.array([[0.1, 0.1], [0.9, 0.9]]), np.zeros((2, 2), dtype=bool))
    sigma2 = np.array([0.2, 0.4])
    engine = one_trial_engine(net, sigma2, "uniform")
    p0 = engine.cfg.P0_scale
    y = np.zeros((1, 2, 4))
    y[0, 1, 0] = 1.0
    engine.run_step(y)
    q = y - engine.psi[0]
    assert np.array_equal(q[0, 0], np.zeros(4))
    assert np.array_equal(q[0, 1, 1:], np.zeros(3))
    assert abs(q[0, 1, 0] - 0.4 / (0.4 + p0)) <= 1e-15


def test_engine_combination_cases(monkeypatch):
    # Three linked nodes; phase 4 blends their intermediates with the C
    # the test has the static policy build.
    net = Network(np.array([[0.1, 0.1], [0.2, 0.1], [0.1, 0.2]]), ~np.eye(3, dtype=bool))

    def combined(c, y, sigma2):
        monkeypatch.setattr(
            difftrack.engine,
            "static_weights",
            lambda policy, net, sigma2: c.ravel()[net.edges.flat],
        )
        engine = one_trial_engine(net, sigma2, "uniform")
        engine.run_step(y[None])
        return engine.psi[0, 0], engine.x_hat[0, 0]

    rng = np.random.default_rng(2)
    y = rng.standard_normal((3, 4))
    sigma2 = np.array([0.2, 0.3, 0.5])
    # One-hot columns pick an intermediate exactly.
    psi, x_hat = combined(np.eye(3)[:, [1, 0, 0]], y, sigma2)
    assert np.array_equal(x_hat, psi[[1, 0, 0]])
    # An even split of two intermediates is their midpoint.
    c = np.array([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])
    psi, x_hat = combined(c, y, sigma2)
    assert np.allclose(x_hat, 0.5 * np.stack([psi[0] + psi[1], psi[0] + psi[2], psi[1] + psi[2]]))
    # Equal data give every node the same intermediate, which any
    # stochastic column gives back.
    psi, x_hat = combined(
        np.array([[0.2, 0.6, 0.1], [0.5, 0.3, 0.1], [0.3, 0.1, 0.8]]),
        np.tile(y[0], (3, 1)),
        np.full(3, 0.3),
    )
    assert (psi == psi[0]).all()
    assert np.allclose(x_hat, psi, atol=1e-15 * np.abs(psi).max())


@pytest.mark.parametrize("knows_gravity", [True, False])
def test_gravity_switch_decides_the_predicted_state(knows_gravity):
    engine, part, rng = build_engine(6, seed=10, filter_knows_gravity=knows_gravity)
    truths = two_target_truths(1, np.random.default_rng(0))[0]
    engine.run_step(measure(truths, part, engine.sigma2[0], rng))
    x_pred = engine.x_hat @ MODEL.F.T
    if knows_gravity:
        x_pred = x_pred + MODEL.u_g
    assert np.array_equal(engine.x_pred, x_pred)


def test_distance_floor_above_every_distance_gives_uniform_columns():
    # With eps far above every estimate distance each weight is eps^-2, so
    # each adaptive column is uniform over the neighbors whose measurements
    # pass the consistency test, the node itself included.
    engine, part, rng = build_engine(8, seed=10, eps=1e3)
    truths = two_target_truths(1, np.random.default_rng(0))[0]
    y = measure(truths, part, engine.sigma2[0], rng)[0]
    engine.run_step(y[None])
    sigma2 = engine.sigma2[0]
    support = engine.net.adjacency[0] | np.eye(8, dtype=bool)
    consistent = support & consistent_pairs(
        y[:, None], y[None, :], sigma2[:, None], sigma2[None, :]
    )
    sizes = []
    for m in range(8):
        column = engine.C[0, 0, :, m]
        hood = np.flatnonzero(consistent[:, m])
        assert np.array_equal(np.flatnonzero(column), hood)
        assert (column[hood] == column[hood[0]]).all()
        assert abs(column.sum() - 1.0) < 1e-15
        sizes.append(hood.size)
    assert max(sizes) >= 3


def test_single_node_matches_oracle_all_policies():
    for policy in ("uniform", "metropolis", "relvar", "adaptive"):
        worst = single_node_max_deviation(policy, n_iterations=40)
        assert worst <= 1e-10, f"{policy}: deviation {worst:.3e}"


def test_disconnected_nodes_run_independent_filters():
    net = Network(
        positions=np.array([[0.1, 0.1], [0.9, 0.9]]),
        adjacency=np.zeros((2, 2), dtype=bool),
    )
    part = ClusterAssignment(cluster_of=np.array([1, 1]), s=1)
    sigma2 = np.array([0.2, 0.4])
    engine = one_trial_engine(net, sigma2, "uniform")
    rng = np.random.default_rng(4)
    truth = initial_state(1.0, 30.0, 15.0, np.pi / 3)

    x = np.zeros((2, 4))
    p = np.stack([np.eye(4)] * 2)
    eye = np.eye(4)
    for _ in range(20):
        y = measure(truth[None], part, sigma2, rng)
        engine.run_step(y)
        for m in range(2):
            psi_m, p_m = adapt(x[m], p[m], [(y[0, m], eye, sigma2[m] * eye)])
            assert np.abs(psi_m - engine.x_hat[0, 0, m]).max() < 1e-12
            x[m], p[m] = reference_kf_predict(psi_m, p_m, MODEL, knows_gravity=True)
        truth = step_truth(truth, MODEL, rng.standard_normal(4))


def test_covariance_never_grows_during_adaptation():
    engine, part, rng = build_engine(10, seed=11)
    truths = two_target_truths(30, np.random.default_rng(5))
    for j in range(30):
        m_before = engine.M_pred[0].copy()
        engine.run_step(measure(truths[j], part, engine.sigma2[0], rng))
        gap = np.stack([full_cov(m) for m in m_before - engine.M_psi[0]])
        assert np.linalg.eigvalsh(gap).min() >= -1e-9


def test_psd_tracking_over_run():
    engine, part, rng = build_engine(12, seed=12)
    truths = two_target_truths(50, np.random.default_rng(6))
    for j in range(50):
        engine.run_step(measure(truths[j], part, engine.sigma2[0], rng))
    assert engine.min_psd_eigenvalue[0] >= -1e-9


def test_determinism_bitwise():
    assert determinism_check()


def test_determinism_check_runs_the_harness(monkeypatch):
    # Trial streams that change from call to call make the two harness runs
    # differ; a check with its own scene and engine would not see it. They
    # are seeded: about 1 in 70 unseeded 8-node scenes has no head ball
    # that splits it, and the draw is refused.
    from difftrack import harness

    calls = itertools.count(1)
    trial_rng = harness.trial_rng
    monkeypatch.setattr(
        harness, "trial_rng", lambda seed, trial: trial_rng(seed + next(calls), trial)
    )
    assert not determinism_check()


def paper_scale_engine(seed, **kwargs):
    # Separation needs geographically localized neighborhoods; small dense
    # graphs mix both targets into every neighborhood and never split.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=1, spawn_key=(seed,)))
    net = generate_geometric(30, 0.35, 4, rng)
    part = initial_partition(net, 0.35, rng)
    sigma2 = 0.01 + 0.5 * rng.random(30)
    engine = one_trial_engine(net, sigma2, "adaptive", **kwargs)
    return engine, part, rng


def test_adaptive_clustering_recovers_partition():
    engine, part, rng = paper_scale_engine(0)
    truths = two_target_truths(100, rng)
    for j in range(100):
        engine.run_step(measure(truths[j], part, engine.sigma2[0], rng))
    inferred = infer_clusters(engine.C[0, 0], engine.cfg.prune_tau)
    truth_labels = part.cluster_of
    # Same partition up to label swap.
    match = np.array_equal(inferred.cluster_of, truth_labels)
    swapped = np.array_equal(3 - inferred.cluster_of, truth_labels)
    assert inferred.s == 2 and (match or swapped)
    # Pruning must have cut every cross-cluster edge by now.
    cross = np.not_equal.outer(truth_labels, truth_labels)
    assert not (engine.net.adjacency[0] & cross).any()


def test_node_surrounded_by_other_task_is_not_captured():
    # One task-2 node whose four neighbors all measure task 1. Inverse-square
    # weights alone settle at 1/5 per neighbor once the node's estimate has
    # been dragged onto the other target, so the prune never fires.
    net = Network(
        positions=np.array([[0.5, 0.5], [0.4, 0.5], [0.6, 0.5], [0.5, 0.4], [0.5, 0.6]]),
        adjacency=~np.eye(5, dtype=bool),
    )
    part = ClusterAssignment(cluster_of=np.array([2, 1, 1, 1, 1]), s=2)
    sigma2 = np.array([0.3, 0.1, 0.2, 0.05, 0.15])
    engine = one_trial_engine(net, sigma2, "adaptive")
    rng = np.random.default_rng(0)
    truths = two_target_truths(60, rng)
    for j in range(60):
        engine.run_step(measure(truths[j], part, sigma2, rng))
    assert not engine.net.adjacency[0][0].any()
    assert np.linalg.norm(engine.x_hat[0, 0, 0] - truths[-1, 1]) < 2.0


def test_node_pruned_to_isolation_runs_its_own_filter():
    # The surrounded scene again: node 0 loses every link to pruning mid-run.
    # From then on its column is e_0, it filters its own measurement alone
    # with a finite, PSD prediction, and the readout makes it a singleton.
    net = Network(
        positions=np.array([[0.5, 0.5], [0.4, 0.5], [0.6, 0.5], [0.5, 0.4], [0.5, 0.6]]),
        adjacency=~np.eye(5, dtype=bool),
    )
    part = ClusterAssignment(cluster_of=np.array([2, 1, 1, 1, 1]), s=2)
    sigma2 = np.array([0.3, 0.1, 0.2, 0.05, 0.15])
    engine = one_trial_engine(net, sigma2, "adaptive")
    rng = np.random.default_rng(0)
    truths = two_target_truths(60, rng)
    isolated = []
    for j in range(60):
        adjacency = engine.net.adjacency[0]
        alone = not adjacency[0].any()
        x_pred, m_pred = engine.x_pred[0, 0, 0].copy(), engine.M_pred[0, 0].copy()
        y = measure(truths[j], part, sigma2, rng)
        engine.run_step(y)
        if alone:
            isolated.append(j)
            assert np.array_equal(engine.C[0, 0, :, 0], np.eye(5)[0])
            info = information_sums(adjacency, sigma2, y[0])[0]
            psi, m_psi = information_update(x_pred, m_pred, info, sigma2[:1])
            assert np.array_equal(engine.x_hat[0, 0, 0], psi)
            assert np.array_equal(engine.M_psi[0, 0], m_psi)
        a, b, c = engine.M_pred[0, 0]
        assert np.isfinite([a, b, c]).all() and a > 0 and a * c - b * b > 0
    assert isolated and engine.cfg.prune_window <= isolated[0] < 50
    assert isolated == list(range(isolated[0], 60))
    labels = infer_clusters(engine.C[0, 0], engine.cfg.prune_tau).cluster_of
    assert (labels == labels[0]).sum() == 1


def test_in_cluster_weights_dominate_after_burn_in():
    hits = 0
    trials = 10
    for seed in range(trials):
        engine, part, rng = paper_scale_engine(seed, pruning_enabled=False)
        truths = two_target_truths(60, rng)
        for j in range(60):
            engine.run_step(measure(truths[j], part, engine.sigma2[0], rng))
        labels = part.cluster_of
        support = engine.net.adjacency[0] | np.eye(30, dtype=bool)
        same = np.equal.outer(labels, labels) & support
        cross = ~np.equal.outer(labels, labels) & support
        if not cross.any():
            hits += 1
            continue
        if engine.C[0, 0][same].mean() > engine.C[0, 0][cross].mean():
            hits += 1
    assert hits >= int(np.ceil(0.95 * trials)), f"{hits}/{trials}"


def test_pruning_step_keeps_its_weights(monkeypatch):
    # At a threshold of 0.1 some links are cut while their weight is still
    # positive. The adaptive C is one buffer that each step overwrites, and
    # a cut link is zeroed by the next step's weight update, not by the
    # prune: the pruning step's snapshot keeps that step's weights.
    cuts = []
    prune = difftrack.engine.prune_cross_links

    def recording(net, *args):
        pruned = prune(net, *args)
        cuts.append(net.adjacency[0] & ~pruned.adjacency[0])
        return pruned

    monkeypatch.setattr(difftrack.engine, "prune_cross_links", recording)
    cfg = ExperimentConfig(n_trials=1, n_iterations=20, seed=3, prune_tau=0.1)
    [result] = run_trials([cfg], range(1), weights_every=1)
    snapshots = result["detail"]["snapshots"]
    assert [j for j, _ in snapshots] == list(range(cfg.n_iterations))
    held = 0
    # The first prune comes at the first step a count can reach the window.
    for j, cut in enumerate(cuts, start=cfg.prune_window - 1):
        if not cut.any():
            continue
        c = snapshots[j][1]
        held += (c[cut] > 0.0).sum()
        assert np.abs(c.sum(axis=0) - 1.0).max() < 1e-12
        for _, later in snapshots[j + 1 :]:
            assert not later[cut].any()
    assert held > 0


def test_engine_pickle_round_trip_continues_identically():
    engine, part, rng = build_engine(8, seed=14)
    truths = two_target_truths(30, np.random.default_rng(8))
    for j in range(10):
        engine.run_step(measure(truths[j], part, engine.sigma2[0], rng))
    clone = pickle.loads(pickle.dumps(engine))
    for j in range(10, 30):
        y = measure(truths[j], part, engine.sigma2[0], rng)
        engine.run_step(y)
        clone.run_step(y)
    assert np.array_equal(engine.x_hat, clone.x_hat)
    assert np.array_equal(engine.C, clone.C)


def test_engine_validates_inputs():
    engine, _, _ = build_engine(5, seed=15)
    with pytest.raises(ConfigError):
        engine.run_step(np.zeros((1, 1, 4)))  # one measurement for five nodes
    net = engine.net
    with pytest.raises(ConfigError, match="^the engine needs at least one policy$"):
        DiffusionKalmanEngine(net, engine.sigma2, [])
    with pytest.raises(ConfigError):
        DiffusionKalmanEngine(net, np.ones((1, 3)), [ExperimentConfig(policy="uniform")])
    with pytest.raises(ConfigError):
        DiffusionKalmanEngine(
            Network(net.positions[0], net.adjacency[0]), engine.sigma2, [ExperimentConfig()]
        )
    # The config refuses a bad policy or prior scale before any engine is built.
    with pytest.raises(ConfigError, match="policy must be one of"):
        ExperimentConfig(policy="nonsense")
    with pytest.raises(ConfigError, match="P0_scale must be positive"):
        ExperimentConfig(policy="uniform", P0_scale=0.0)


@pytest.mark.parametrize("value", [0.0, -0.5, np.nan])
def test_engine_names_trial_and_node_of_a_bad_variance(value):
    engine, _, _ = build_engine(5, seed=15)
    net = engine.net
    stack = Network(np.repeat(net.positions, 3, axis=0), np.repeat(net.adjacency, 3, axis=0))
    sigma2 = np.repeat(engine.sigma2, 3, axis=0)
    sigma2[1, 3] = value
    # The check comes before any edge weight 1/sigma2 is formed, so no
    # division warning precedes the error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ConfigError,
            match=rf"^trial 8: measurement variance at node 3 must be positive, got {value!r}$",
        ):
            DiffusionKalmanEngine(stack, sigma2, [ExperimentConfig()], first_trial=7)


def tiny_variance_run(sigma2, p0=1.0):
    cfg = ExperimentConfig(
        sigma_min=sigma2,
        sigma_span=0.0,
        P0_scale=p0,
        n_trials=2,
        n_iterations=10,
        policy="uniform",
    )
    return run_experiment(cfg)


@pytest.mark.parametrize("sigma2", [1e-160, 1e-200, 1e-310])
def test_variance_whose_squared_sum_overflows_is_refused(sigma2):
    # With s^2 infinite every M_psi would be 0 and no measurement fused.
    # The check names the overflow, so numpy does not warn first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            ConfigError,
            match=r"^trial 0: the sum of 1/sigma2 over node 0's neighborhood, "
            r"\S+, overflows when squared$",
        ):
            tiny_variance_run(sigma2)


def test_tiny_variance_whose_squared_sum_is_finite_still_filters():
    # Ignoring every measurement leaves the final MSD above 30 dB.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = tiny_variance_run(1e-150)
    assert result.series.msd_db[-1].max() < 10.0


def test_innovation_covariance_that_overflows_is_named():
    # s^2 is finite at sigma2 = 1e-150, but s^2 det(M_pred) is not once the
    # prior is 1e10 I: the innovation covariance's determinant overflows,
    # so every M_psi would round to 0 and the first step fuse nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            NumericError,
            match=r"^trial 0: iteration 0: innovation covariance at node 0 overflows$",
        ):
            tiny_variance_run(1e-150, p0=1e10)


@pytest.mark.parametrize("eps", [1e-200, 1e200])
def test_distance_floor_whose_square_leaves_the_floats_is_refused(eps):
    # 1e-200 squares to 0, so a weight 1 / max(d^2, eps^2) has no bound;
    # 1e200 squares to inf, so every weight would be 0 and every column NaN.
    with pytest.raises(
        ConfigError,
        match=r"^eps = \S+: eps\^2 and 1/eps\^2 must both be finite and positive$",
    ):
        ExperimentConfig(eps=eps)


@pytest.mark.parametrize("eps", [1e-150, 1e150])
def test_distance_floor_whose_square_is_finite_still_runs(eps):
    cfg = ExperimentConfig(eps=eps, n_trials=2, n_iterations=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(cfg)
    assert np.isfinite(result.series.msd_db).all()


@pytest.mark.parametrize("policy", ["uniform", "metropolis", "relvar", "adaptive"])
def test_information_sum_that_overflows_is_named(policy):
    # Each measurement is finite, but y / sigma2 is not once y0 = 1e308 and
    # sigma2 < 1: the information sum, and so psi, would be NaN.
    cfg = ExperimentConfig(y0=1e308, n_trials=2, n_iterations=10, policy=policy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(
            NumericError, match=r"^trial 0: iteration 0: information sum at node \d+ overflows$"
        ):
            run_experiment(cfg)


OVERFLOW_NAMED = {
    "uniform": r"MSD of cluster \d is not finite \(inf\)",
    "adaptive": r"every squared distance at node \d+ overflows, leaving it no weight",
}


@pytest.mark.parametrize("policy", list(OVERFLOW_NAMED))
@pytest.mark.parametrize("huge", [dict(x0=1e300), dict(v0=1e160)], ids=["x0", "v0"])
def test_squared_error_that_overflows_is_named(policy, huge):
    # The estimates are finite, but their squared distances from the truth
    # and from the measurements are not: a static policy would average inf
    # into the MSD, and the adaptive one would weigh every neighbor 0.
    cfg = ExperimentConfig(n_trials=2, n_iterations=10, policy=policy, **huge)
    what = OVERFLOW_NAMED[policy]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=rf"^trial 0: iteration 0: {what}$"):
            run_experiment(cfg)


@pytest.mark.parametrize("policy", ["uniform", "adaptive"])
def test_huge_state_whose_squared_errors_are_finite_still_runs(policy):
    # With a prior this wide every estimate starts at its measurement, so
    # the squared errors stay near 1e288.
    cfg = ExperimentConfig(x0=1e160, P0_scale=1e100, n_trials=2, n_iterations=10, policy=policy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_experiment(cfg)
    assert np.isfinite(result.series.msd_db).all()
