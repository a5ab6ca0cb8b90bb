"""Property tests of the engine over random small scenes.

Hypothesis draws the networks, noise levels, predicted covariances M
(stored as (a, b, c), the 4x4 covariance being M kron I2), predicted
states, truths and measurement streams. One step of the engine's
closed-form information update must match the general sequential update
``adapt`` at every node, keep every combination matrix column-stochastic
on its neighborhoods, combine within the convex hull of each
neighborhood's intermediate estimates, and leave each covariance positive
semidefinite and no larger than its prediction. A batch of trials run
over a few steps must give each trial the bits it gets in an engine of
its own, and the blend that forms psi gives the bits of its half-by-half
form on any finite inputs. Over a run in which the adaptive engine of a
sweep cuts links and the static policies' engine does not, the covariances, the min-PSD record
and the information sums give the bits of their (T, n, 3) closed forms
and of each trial's own support matrix times its measurements.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from difftrack.combiners import POLICIES
from difftrack.engine import DiffusionKalmanEngine, adapt
from difftrack.harness import ExperimentConfig
from difftrack.topology import ClusterAssignment, Network


def full_cov(m):
    a, b, c = m
    return np.kron(np.array([[a, b], [b, c]]), np.eye(2))


def min_eig(m):
    """Smallest eigenvalue of the 2x2 symmetric matrices in a (..., 3) stack."""
    a, b, c = np.moveaxis(m, -1, 0)
    return np.linalg.eigvalsh(np.stack([a, b, b, c], axis=-1).reshape(a.shape + (2, 2))).min()


def network(draw, n):
    upper = draw(arrays(bool, (n, n)))
    adjacency = np.triu(upper, 1)
    adjacency = adjacency | adjacency.T
    positions = draw(arrays(float, (n, 2), elements=st.floats(0.0, 1.0)))
    return Network(positions, adjacency)


def stacked(nets):
    return Network(np.stack([n.positions for n in nets]), np.stack([n.adjacency for n in nets]))


def covariances(draw, shape):
    """SPD M of the given stack shape, (a, b, c) on a last axis, from two
    eigenvalues and the angle of the eigenvectors."""
    lam = draw(arrays(float, shape + (2,), elements=st.floats(1e-3, 10.0)))
    angle = draw(arrays(float, shape, elements=st.floats(0.0, np.pi)))
    cos, sin = np.cos(angle), np.sin(angle)
    return np.stack(
        [
            lam[..., 0] * cos**2 + lam[..., 1] * sin**2,
            (lam[..., 0] - lam[..., 1]) * sin * cos,
            lam[..., 0] * sin**2 + lam[..., 1] * cos**2,
        ],
        axis=-1,
    )


@st.composite
def scenes(draw):
    t_count = draw(st.integers(1, 3))
    n = draw(st.integers(1, 7))
    # Each trial's labels use clusters 1..s, each cluster nonempty.
    s = draw(st.integers(1, min(n, 2)))
    nets, parts = [], []
    for _ in range(t_count):
        nets.append(network(draw, n))
        labels = 1 + draw(arrays(np.int64, n, elements=st.integers(0, s - 1)))
        labels[:s] = np.arange(1, s + 1)
        parts.append(ClusterAssignment(labels, s))
    sigma2 = draw(arrays(float, (t_count, n), elements=st.floats(0.01, 1.0)))
    m_pred = covariances(draw, (t_count, n))
    coords = st.floats(-50.0, 50.0)
    x_pred = draw(arrays(float, (t_count, n, 4), elements=coords))
    truths = draw(arrays(float, (t_count, 2, 4), elements=coords))
    seed = draw(st.integers(0, 2**32 - 1))
    policy = draw(st.sampled_from(POLICIES))
    return nets, parts, sigma2, m_pred, x_pred, truths, seed, policy


@settings(max_examples=60, deadline=None)
@given(scenes())
def test_one_step_matches_sequential_update_and_keeps_invariants(scene):
    nets, parts, sigma2, m_pred, x_pred, truths, seed, policy = scene
    t_count, n = sigma2.shape
    y = np.stack(
        [
            truths[t, parts[t].cluster_of - 1]
            + np.sqrt(sigma2[t])[:, None] * np.random.default_rng(seed + t).standard_normal((n, 4))
            for t in range(t_count)
        ]
    )
    engine = DiffusionKalmanEngine(stacked(nets), sigma2, [ExperimentConfig(policy=policy)])
    engine.M_pred[...] = m_pred
    engine.x_pred[0] = x_pred
    engine.run_step(y)

    eye = np.eye(4)
    for t in range(t_count):
        support = nets[t].adjacency | np.eye(n, dtype=bool)
        for m in range(n):
            msgs = [(y[t, k], eye, sigma2[t, k] * eye) for k in np.flatnonzero(support[:, m])]
            psi, p = adapt(x_pred[t, m], full_cov(m_pred[t, m]), msgs)
            assert np.abs(engine.psi[0, t, m] - psi).max() <= 1e-10 * np.abs(psi).max()
            assert np.abs(full_cov(engine.M_psi[t, m]) - p).max() <= 1e-10 * np.abs(p).max()

        c = engine.C[0, t]
        assert (c >= 0.0).all()
        assert not c[~support].any()
        assert np.abs(c.sum(axis=0) - 1.0).max() <= 1e-12

        # Each combined estimate lies in the box spanned by the
        # intermediate estimates of its node's neighborhood.
        for m in range(n):
            hood = engine.psi[0, t, support[:, m]]
            slack = 1e-12 * np.abs(hood).max()
            assert (engine.x_hat[0, t, m] <= hood.max(axis=0) + slack).all()
            assert (engine.x_hat[0, t, m] >= hood.min(axis=0) - slack).all()

    scale = np.abs(m_pred).max()
    assert min_eig(engine.M_psi) >= -1e-12 * scale
    assert min_eig(m_pred - engine.M_psi) >= -1e-12 * scale


@st.composite
def batches(draw):
    t_count = draw(st.integers(2, 4))
    n = draw(st.integers(2, 6))
    nets = [network(draw, n) for _ in range(t_count)]
    sigma2 = draw(arrays(float, (t_count, n), elements=st.floats(0.01, 1.0)))
    steps = draw(st.integers(2, 5))
    y = draw(arrays(float, (steps, t_count, n, 4), elements=st.floats(-50.0, 50.0)))
    return nets, sigma2, y


@pytest.mark.parametrize("policy", POLICIES)
@settings(max_examples=30, deadline=None)
@given(batch=batches())
def test_batch_equals_each_trial_alone(policy, batch):
    nets, sigma2, y = batch
    # A short prune window and a high threshold let the adaptive policy
    # cut links within the few steps drawn.
    cfg = ExperimentConfig(policy=policy, prune_window=2, prune_tau=0.3)
    together = DiffusionKalmanEngine(stacked(nets), sigma2, [cfg])
    alone = [
        DiffusionKalmanEngine(stacked([net]), sigma2[t : t + 1], [cfg])
        for t, net in enumerate(nets)
    ]
    for y_j in y:
        together.run_step(y_j)
        for t, engine in enumerate(alone):
            engine.run_step(y_j[t : t + 1])
    for t, engine in enumerate(alone):
        assert np.array_equal(together.x_hat[0, t], engine.x_hat[0, 0])
        assert np.array_equal(together.M_pred[t], engine.M_pred[0])
        assert np.array_equal(together.C[0, t], engine.C[0, 0])
        assert np.array_equal(together.net.adjacency[t], engine.net.adjacency[0])


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Finite doubles from every range the blend's products can meet: signed
# zeros, subnormals, and magnitudes whose products overflow.
EXTREME = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e300]),
)


@st.composite
def blends(draw):
    t_count = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    nets = [network(draw, n) for _ in range(t_count)]
    sigma2 = draw(arrays(float, (t_count, n), elements=st.floats(0.01, 1.0)))
    m_pred = covariances(draw, (t_count, n))
    x_pred = draw(arrays(float, (t_count, n, 4), elements=EXTREME))
    y = draw(arrays(float, (t_count, n, 4), elements=EXTREME))
    return nets, sigma2, m_pred, x_pred, y


@settings(max_examples=200, deadline=None)
@given(blends())
def test_blend_gives_the_bits_of_the_half_by_half_form(blend):
    # psi = x_pred + (M_psi kron I2) r, r = info - s x_pred, written half
    # by half: a r_pos + b r_vel, then b r_pos + c r_vel.
    nets, sigma2, m_pred, x_pred, y = blend
    engine = DiffusionKalmanEngine(stacked(nets), sigma2, [ExperimentConfig(policy="uniform")])
    engine.M_pred[...] = m_pred
    engine.x_pred[0] = x_pred
    with np.errstate(all="ignore"):
        engine.run_step(y)
        r = engine.info - engine.s[:, :, None] * x_pred
        r_pos, r_vel = r[..., :2], r[..., 2:]
        a, b, c = (engine.M_psi[..., k, None] for k in range(3))
        want = x_pred + np.concatenate([a * r_pos + b * r_vel, b * r_pos + c * r_vel], axis=-1)
    assert same_bytes(engine.psi[0], want)


# A prune window and threshold under which a link whose ends disagree is
# cut within two steps.
CUT = ExperimentConfig(prune_window=2, prune_tau=0.3)


def cov_adapt(m_pred, s):
    """Phase 2's covariance update, closed form on (T, n, 3) stacks."""
    a, b, c = m_pred[..., 0], m_pred[..., 1], m_pred[..., 2]
    det = a * c - b * b
    den = 1.0 + s * (a + c) + s * s * det
    return np.stack([(a + s * det) / den, b / den, (c + s * det) / den], axis=-1)


def cov_predict(m_psi, model):
    """Phase 7's covariance update, closed form on (T, n, 3) stacks."""
    a, b, c = m_psi[..., 0], m_psi[..., 1], m_psi[..., 2]
    d, q = model.delta, model.process_noise_var
    return np.stack([a + d * (2.0 * b + d * c) + q, b + d * c, c + q], axis=-1)


def low_eigenvalue(cov):
    """The lower eigenvalue of each 2x2 M in a (T, n, 3) stack."""
    a, b, c = cov[..., 0], cov[..., 1], cov[..., 2]
    return 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)


def support_matrix(adjacency, sigma2):
    """One trial's dense n x n matrix of 1/sigma2_n at [m, n] for each
    neighbor n of node m, itself included, and 0 elsewhere, built from its
    (n, n) adjacency alone."""
    support = adjacency | np.eye(len(sigma2), dtype=bool)
    return np.where(support.T, 1.0 / sigma2, 0.0)


@st.composite
def linked_sweeps(draw):
    """A network stack in which nodes 0 and 1 are linked in every trial,
    with noise levels, predicted covariances and a measurement seed."""
    t_count = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6))
    nets = []
    for _ in range(t_count):
        net = network(draw, n)
        adjacency = net.adjacency.copy()
        adjacency[0, 1] = adjacency[1, 0] = True
        nets.append(Network(net.positions, adjacency))
    sigma2 = draw(arrays(float, (t_count, n), elements=st.floats(0.01, 1.0)))
    m_pred = covariances(draw, (t_count, n))
    return stacked(nets), sigma2, m_pred, draw(st.integers(0, 2**32 - 1))


def linked_measurements(rng, sigma2):
    """One step's measurements about the origin, with node 1's moved far
    off: its link to node 0 fails the consistency test, so the adaptive
    policy cuts it at the second step."""
    y = np.sqrt(sigma2)[..., None] * rng.standard_normal(sigma2.shape + (4,))
    y[:, 1] += 1e3
    return y


def sweep_engines(net, sigma2):
    """The engines of a sweep of every policy, as ``run_trials`` builds
    them: one for the static policies, then the adaptive policy's own."""
    cfgs = [dataclasses.replace(CUT, policy=policy) for policy in POLICIES]
    return [
        DiffusionKalmanEngine(net, sigma2, [cfg for cfg in cfgs if cfg.policy != "adaptive"]),
        DiffusionKalmanEngine(net, sigma2, [cfg for cfg in cfgs if cfg.policy == "adaptive"]),
    ]


@settings(max_examples=25, deadline=None)
@given(linked_sweeps())
def test_covariances_give_the_bits_of_the_closed_form(sweep):
    net, sigma2, m_pred, seed = sweep
    engines = sweep_engines(net, sigma2)
    static, adaptive = engines
    for engine in (static, adaptive):
        engine.M_pred[...] = m_pred
    want = [m_pred.copy() for _ in engines]
    record = [np.full(len(sigma2), np.inf) for _ in engines]
    rng = np.random.default_rng(seed)
    written = False
    for _ in range(50):
        y = linked_measurements(rng, sigma2)
        s = [engine.s for engine in engines]
        for engine in engines:
            engine.run_step(y)
        for k, engine in enumerate(engines):
            m_psi = cov_adapt(want[k], s[k])
            want[k] = cov_predict(m_psi, CUT.model)
            for cov in (m_psi, want[k]):
                np.fmin(record[k], low_eigenvalue(cov).min(axis=1), out=record[k])
            assert same_bytes(engine.M_psi, m_psi)
            assert same_bytes(engine.M_pred, want[k])
            assert same_bytes(engine.min_psd_eigenvalue, record[k])
        if adaptive.net is not net and not written:
            # A cut re-adopted the adaptive engine's topology: a write into
            # its covariances lands there, and the static engine's stay as
            # they were.
            before = static.M_pred.copy(), static.M_psi.copy()
            adaptive.M_pred[0, 0] = (2.0, 0.5, 1.0)
            want[-1][0, 0] = (2.0, 0.5, 1.0)
            assert same_bytes(static.M_pred, before[0])
            assert same_bytes(static.M_psi, before[1])
            written = True
    assert written


@settings(max_examples=25, deadline=None)
@given(linked_sweeps())
def test_information_sums_give_the_bits_of_each_trials_own_product(sweep):
    net, sigma2, _, seed = sweep
    engines = sweep_engines(net, sigma2)
    alone = DiffusionKalmanEngine(net, sigma2, [dataclasses.replace(CUT, policy="adaptive")])
    rng = np.random.default_rng(seed)
    for _ in range(6):
        y = linked_measurements(rng, sigma2)
        for engine in (*engines, alone):
            before = engine.net
            engine.run_step(y)
            for t in range(len(sigma2)):
                want = support_matrix(before.adjacency[t], sigma2[t]) @ y[t]
                assert same_bytes(engine.info[t], want)
    # The static engine kept the fresh stack; the sweep's adaptive engine
    # and the standalone one cut links.
    assert engines[0].net is net
    assert len(engines[-1].net.edges) < len(net.edges) > len(alone.net.edges)


@settings(max_examples=25, deadline=None)
@given(linked_sweeps())
def test_a_cut_refills_the_support_matrix_in_place(sweep):
    net, sigma2, _, seed = sweep
    engine = DiffusionKalmanEngine(net, sigma2, [dataclasses.replace(CUT, policy="adaptive")])
    w = engine.W
    rng = np.random.default_rng(seed)
    for _ in range(3):
        engine.run_step(linked_measurements(rng, sigma2))
    assert engine.net is not net
    assert engine.W is w
    for t in range(len(sigma2)):
        assert not engine.net.adjacency[t, 0, 1]
        assert same_bytes(w[t], support_matrix(engine.net.adjacency[t], sigma2[t]))
