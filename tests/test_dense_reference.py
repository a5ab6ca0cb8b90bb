"""The engine's edge-list weights and phase 5 against a dense reference.

The reference is the (T, n, n) form the static weights, the engine's
adaptive weights and pruning once took: the static policies built on the
self-inclusive support, squared distances and the chi-square consistency
test over every pair of nodes, columns normalized by axis-1 sums, and
per-link below counts and prunes on whole n x n blocks. The static
weights on the edges, scattered into zeros, must give the dense
matrices bit for bit. Fed the engine's own psi and measurements step by
step, the reference must give the engine's combination matrices,
adjacency and below counts on alive links bit for bit. The engine's
consistency test, run on one direction of each link and mirrored, is
held to the same test run on every edge.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from difftrack.combiners import CONSISTENCY_CHI2, consistent_pairs, static_weights
from difftrack.dynamics import initial_state, step_truth
from difftrack.engine import DiffusionKalmanEngine
from difftrack.harness import ExperimentConfig, draw_scene, trial_rng
from difftrack.topology import Network, generate_geometric, stack_scenes

# A short prune window and a high threshold let links be cut within a
# dozen steps.
QUICK_PRUNE = ExperimentConfig(prune_window=2, prune_tau=0.3)


def pairwise_sq_dist(a, b):
    """[..., i, j] = ||a[..., i, :] - b[..., j, :]||^2, coordinates summed
    in order."""
    total = None
    for k in range(a.shape[-1]):
        diff = a[..., :, None, k] - b[..., None, :, k]
        diff *= diff
        if total is None:
            total = diff
        else:
            total += diff
    return total


def dense_support(net):
    return net.adjacency | np.eye(net.n_nodes, dtype=bool)


def uniform_weights(net):
    """c[n, m] = 1/|N_m| for every n in N_m."""
    sup = dense_support(net)
    return sup / sup.sum(axis=-2, keepdims=True)


def metropolis_weights(net):
    """Off-diagonal 1/max(|N_n|, |N_m|); diagonal takes the remainder."""
    sizes = dense_support(net).sum(axis=-2)
    c = np.where(net.adjacency, 1.0 / np.maximum(sizes[..., :, None], sizes[..., None, :]), 0.0)
    diag = np.arange(net.n_nodes)
    c[..., diag, diag] = 1.0 - c.sum(axis=-2)
    return c


def relative_variance_weights(net, sigma2):
    """Weight neighbors by inverse noise variance, normalized over N_m."""
    w = dense_support(net) * (1.0 / sigma2)[..., :, None]
    return w / w.sum(axis=-2, keepdims=True)


DENSE_STATIC = {
    "uniform": lambda net, sigma2: uniform_weights(net),
    "metropolis": lambda net, sigma2: metropolis_weights(net),
    "relvar": relative_variance_weights,
}


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def harness_stack(n_nodes, comm_radius, t_count, seed):
    """A stack of the harness' own scenes and their noise levels."""
    cfg = ExperimentConfig(n_nodes=n_nodes, comm_radius=comm_radius)
    rngs = [trial_rng(seed, t) for t in range(t_count)]
    net, _ = stack_scenes(*zip(*(draw_scene(cfg, rng) for rng in rngs)))
    sigma2 = np.stack([cfg.sigma_min + cfg.sigma_span * rng.random(n_nodes) for rng in rngs])
    return net, sigma2


@pytest.mark.parametrize("policy", list(DENSE_STATIC))
@pytest.mark.parametrize(
    "n_nodes, comm_radius, t_count", [(30, 0.35, 50), (200, 0.15, 4), (12, 0.5, 30)]
)
def test_static_weights_give_the_dense_matrices(policy, n_nodes, comm_radius, t_count):
    net, sigma2 = harness_stack(n_nodes, comm_radius, t_count, seed=t_count)
    c = np.zeros(net.adjacency.shape)
    c.ravel()[net.edges.flat] = static_weights(policy, net, sigma2)
    assert same_bytes(c, DENSE_STATIC[policy](net, sigma2))


@pytest.mark.parametrize("policy", list(DENSE_STATIC))
def test_static_weights_of_single_networks_give_the_dense_matrices(policy):
    rng = np.random.default_rng(9)
    for n in (2, 5, 12, 30):
        net = generate_geometric(n, 0.5, 1, rng)
        sigma2 = 0.01 + 0.5 * rng.random(n)
        c = np.zeros((n, n))
        c.ravel()[net.edges.flat] = static_weights(policy, net, sigma2)
        assert same_bytes(c, DENSE_STATIC[policy](net, sigma2)), n


def dense_weights(psi, y, sigma2, support, eps):
    """Phase 3 on (T, n, n): entry [t, n, m] scores neighbor n's estimate
    against node m's measurement y_m as 1 / max(d^2, eps^2), and each column
    is normalized."""
    d2 = np.maximum(pairwise_sq_dist(psi, y), eps * eps)
    bound = CONSISTENCY_CHI2 * (sigma2[..., :, None] + sigma2[..., None, :])
    usable = support & (pairwise_sq_dist(y, y) <= bound)
    w = np.where(usable, 1.0 / d2, 0.0)
    return w / w.sum(axis=1, keepdims=True)


def dense_count_below(counts, c, tau, window):
    return np.where(c < tau, np.minimum(counts, window - 1) + 1, 0)


def dense_prune(adjacency, below, window):
    reached = below >= window
    return adjacency & ~(reached & np.swapaxes(reached, -1, -2))


def lockstep_with_reference(engine, measurements):
    """Run the engine on each step's measurements and check phases 3 and 5
    against the reference after every step. Returns the number of nodes
    that lost their last link to a prune."""
    t_count, n = engine.sigma2.shape
    eye = np.eye(n, dtype=bool)
    adjacency = engine.net.adjacency.copy()
    below = np.zeros((t_count, n, n), dtype=np.int64)
    isolated = 0
    for y in measurements:
        support = adjacency | eye
        engine.run_step(y)
        c = dense_weights(engine.psi[0], y, engine.sigma2, support, engine.cfg.eps)
        assert np.array_equal(engine.C[0], c)
        below = dense_count_below(below, c, engine.cfg.prune_tau, engine.cfg.prune_window)
        pruned = dense_prune(adjacency, below, engine.cfg.prune_window)
        isolated += int((adjacency.any(axis=2) & ~pruned.any(axis=2)).sum())
        adjacency = pruned
        assert np.array_equal(engine.net.adjacency, adjacency)
        engine_below = np.zeros((t_count, n, n), dtype=np.int64)
        engine_below.ravel()[engine.net.edges.flat] = engine._below
        alive = adjacency | eye
        assert np.array_equal(engine_below[alive], below[alive])
    return isolated


def two_target_scene(seed, t_count, n, radius, n_iterations):
    """A stack of random geometric scenes, connected or not, whose nodes
    each measure one of two targets; their noise levels and one (T, n, 4)
    measurement block per step."""
    rng = np.random.default_rng(seed)
    pos = rng.random((t_count, n, 2))
    dist = np.sqrt(pairwise_sq_dist(pos, pos))
    net = Network(pos, (dist <= radius) & ~np.eye(n, dtype=bool))
    target = rng.integers(2, size=(t_count, n))
    sigma2 = 0.01 + 0.5 * rng.random((t_count, n))
    truth = np.stack([initial_state(1.0, 30.0, 15.0, a) for a in (np.pi / 3, np.pi / 4)])
    steps = []
    for _ in range(n_iterations):
        noise = rng.standard_normal((t_count, n, 4))
        steps.append(truth[target] + np.sqrt(sigma2)[:, :, None] * noise)
        truth = step_truth(truth, QUICK_PRUNE.model, rng.standard_normal((2, 4)))
    return net, sigma2, steps


@given(
    seed=st.integers(0, 2**32 - 1),
    t_count=st.integers(1, 3),
    n=st.integers(2, 12),
    radius=st.floats(0.2, 1.0),
)
@example(seed=3, t_count=2, n=10, radius=0.6)
@settings(max_examples=60, deadline=None)
def test_edge_phases_equal_the_dense_reference(seed, t_count, n, radius):
    net, sigma2, steps = two_target_scene(seed, t_count, n, radius, 12)
    engine = DiffusionKalmanEngine(net, sigma2, [QUICK_PRUNE])
    lockstep_with_reference(engine, steps)


def test_reference_covers_a_node_pruned_to_isolation():
    # The property's explicit example: within its 12 steps some node loses
    # every link, and the engine still matches the reference after that.
    net, sigma2, steps = two_target_scene(3, 2, 10, 0.6, 12)
    engine = DiffusionKalmanEngine(net, sigma2, [QUICK_PRUNE])
    assert lockstep_with_reference(engine, steps) > 0


def test_one_direction_consistency_test_equals_the_test_on_every_edge(monkeypatch):
    # The engine tests each link one way (edges.half) and mirrors the
    # result; on a stack that loses links, and a node every link, the
    # mirrored mask must be the test run on every edge.
    import difftrack.engine

    calls = []

    def recording(*args):
        calls.append(consistent_pairs(*args))
        return calls[-1]

    monkeypatch.setattr(difftrack.engine, "consistent_pairs", recording)
    net, sigma2, steps = two_target_scene(3, 2, 10, 0.6, 12)
    engine = DiffusionKalmanEngine(net, sigma2, [QUICK_PRUNE])
    s2 = sigma2.ravel()
    for j, y in enumerate(steps):
        edges = engine.net.edges
        engine.run_step(y)
        assert len(calls) == j + 1
        mirrored = edges.is_self.copy()
        mirrored[edges.half] = calls[-1]
        mirrored[edges.reverse[edges.half]] = calls[-1]
        y2d = y.reshape(-1, 4)
        n, m = edges.source, edges.key
        assert np.array_equal(mirrored, consistent_pairs(y2d[n], y2d[m], s2[n], s2[m]))
        # A weight is zero exactly where the test fails.
        weights = np.swapaxes(engine.C[0], -1, -2).ravel()[edges.flat_t]
        assert np.array_equal(weights > 0.0, mirrored)
    pruned = engine.net.adjacency
    assert pruned.sum() < net.adjacency.sum()
    assert (net.adjacency.any(axis=2) & ~pruned.any(axis=2)).any()


def test_large_scene_equals_the_dense_reference():
    # Two 200-node, r = 0.15 trials of the harness' own scenes, 30 steps at
    # the default prune threshold and window.
    cfg = ExperimentConfig(n_nodes=200, comm_radius=0.15, n_trials=2, n_iterations=30)
    rngs = [trial_rng(11, t) for t in range(cfg.n_trials)]
    net, part = stack_scenes(*zip(*(draw_scene(cfg, rng) for rng in rngs)))
    sigma2 = np.stack([cfg.sigma_min + cfg.sigma_span * rng.random(cfg.n_nodes) for rng in rngs])
    engine = DiffusionKalmanEngine(net, sigma2, [cfg])
    truth = np.stack([initial_state(cfg.x0, cfg.y0, cfg.v0, a) for a in cfg.angles])
    steps = []
    for _ in range(cfg.n_iterations):
        noise = np.stack([rng.standard_normal((cfg.n_nodes, 4)) for rng in rngs])
        steps.append(truth[part.cluster_of - 1] + np.sqrt(sigma2)[:, :, None] * noise)
        truth = step_truth(truth, cfg.model, rngs[0].standard_normal((2, 4)))
    lockstep_with_reference(engine, steps)
    assert engine.net.adjacency.sum() < net.adjacency.sum()
