"""Tests for combination weight policies."""

import numpy as np
import pytest

from difftrack.combiners import (
    CONSISTENCY_CHI2,
    CombinationError,
    adaptive_weight_row,
    consistent_pairs,
    static_weights,
    validate_combination_matrix,
)
from difftrack.errors import ConfigError, NumericError
from difftrack.topology import Network, generate_geometric


def neighborhoods(net):
    """Self-inclusive neighborhoods N_m, ascending, read off the adjacency."""
    with_self = net.adjacency | np.eye(net.n_nodes, dtype=bool)
    return [np.flatnonzero(with_self[:, m]) for m in range(net.n_nodes)]


def dense(net, w):
    """The (..., n, n) combination matrices of the (E,) weights ``w`` on
    ``net.edges``, zero off the support."""
    c = np.zeros(net.adjacency.shape)
    c.ravel()[net.edges.flat] = w
    return c


def weights(policy, net, sigma2=None):
    """A static policy's weights on ``net`` as dense matrices; every
    variance is 1 unless ``sigma2`` is given."""
    if sigma2 is None:
        sigma2 = np.ones(net.adjacency.shape[:-1])
    return dense(net, static_weights(policy, net, sigma2))


def path3():
    adj = np.array(
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
        dtype=bool,
    )
    pos = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
    return Network(positions=pos, adjacency=adj)


def clique2():
    return Network(
        positions=np.array([[0.0, 0.0], [0.1, 0.0]]),
        adjacency=np.array([[False, True], [True, False]]),
    )


def test_uniform_path_column():
    c = weights("uniform", path3())
    assert np.allclose(c[:, 1], [1 / 3, 1 / 3, 1 / 3])
    assert np.allclose(c[:, 0], [0.5, 0.5, 0.0])


def test_uniform_matches_neighborhood_size():
    net = generate_geometric(12, 0.5, 2, np.random.default_rng(0))
    c = weights("uniform", net)
    for m, nb in enumerate(neighborhoods(net)):
        assert np.allclose(c[nb, m], 1.0 / len(nb))


def test_metropolis_path_columns():
    c = weights("metropolis", path3())
    assert np.allclose(c[:, 0], [2 / 3, 1 / 3, 0.0])
    assert np.allclose(c[:, 1], [1 / 3, 1 / 3, 1 / 3])


def test_metropolis_two_clique():
    c = weights("metropolis", clique2())
    assert np.allclose(c, [[0.5, 0.5], [0.5, 0.5]])


def test_relative_variance_two_clique():
    c = weights("relvar", clique2(), np.array([1.0, 4.0]))
    assert np.allclose(c[:, 0], [0.8, 0.2])
    assert np.allclose(c[:, 1], [0.8, 0.2])


def test_relative_variance_equal_noise_is_uniform():
    net = generate_geometric(10, 0.5, 2, np.random.default_rng(1))
    c = weights("relvar", net, np.full(10, 0.3))
    assert np.allclose(c, weights("uniform", net), atol=1e-14)


def test_relative_variance_rejects_bad_sigma():
    with pytest.raises(ConfigError):
        static_weights("relvar", clique2(), np.array([1.0, 0.0]))
    with pytest.raises(ConfigError):
        static_weights("relvar", clique2(), np.array([1.0]))


def test_adaptive_self_and_one_neighbor():
    # The self estimate sits at distance 1 from the target and the
    # neighbor's at distance 2, so inverse-square weights are (1, 1/4) ->
    # (0.8, 0.2).
    psi = np.zeros((2, 4))
    psi[1] = [3.0, 0.0, 0.0, 0.0]
    target = np.array([1.0, 0.0, 0.0, 0.0])
    col = adaptive_weight_row(0, psi, target, np.array([0, 1]))
    assert np.allclose(col, [0.8, 0.2])


def test_adaptive_single_node():
    col = adaptive_weight_row(0, np.zeros((1, 4)), np.ones(4), np.array([0]))
    assert np.allclose(col, [1.0])


def test_adaptive_equal_distances_uniform():
    psi = np.zeros((3, 4))
    col = adaptive_weight_row(1, psi, np.zeros(4), np.array([0, 1, 2]))
    assert np.allclose(col, [1 / 3, 1 / 3, 1 / 3])


def test_adaptive_scale_invariance():
    rng = np.random.default_rng(2)
    psi = rng.standard_normal((5, 4))
    q = rng.standard_normal(4)
    nb = np.array([0, 2, 3])
    base = adaptive_weight_row(0, psi, psi[0] + q, nb)
    scaled = adaptive_weight_row(0, psi[0] + 7.0 * (psi - psi[0]), psi[0] + 7.0 * q, nb)
    assert np.allclose(base, scaled, atol=1e-12)


def test_adaptive_monotone_in_distance():
    psi = np.zeros((3, 4))
    psi[1, 0] = 2.0
    psi[2, 0] = -3.0
    target = np.array([1.0, 0.0, 0.0, 0.0])
    nb = np.array([0, 1, 2])
    before = adaptive_weight_row(0, psi, target, nb)
    psi[1, 0] = 1.5  # neighbor 1 moves closer to the target
    after = adaptive_weight_row(0, psi, target, nb)
    assert after[1] > before[1]


def test_consistency_bound_is_chi2_quantile():
    from scipy.stats import chi2

    assert CONSISTENCY_CHI2 == chi2.ppf(0.999, df=4)


def test_adaptive_rejects_bad_eps():
    with pytest.raises(ConfigError):
        adaptive_weight_row(0, np.zeros((1, 4)), np.zeros(4), np.array([0]), eps=0.0)


def test_all_policies_satisfy_invariants():
    rng = np.random.default_rng(5)
    for trial in range(20):
        net = generate_geometric(20, 0.45, 3, rng)
        sigma2 = 0.01 + 0.5 * rng.random(20)
        for policy in ("uniform", "metropolis", "relvar"):
            validate_combination_matrix(static_weights(policy, net, sigma2), net.edges)
        psi = rng.standard_normal((20, 4))
        c = np.zeros((20, 20))
        hoods = neighborhoods(net)
        for m in range(20):
            c[:, m] = adaptive_weight_row(m, psi, psi[m] + rng.standard_normal(4), hoods[m])
        validate_combination_matrix(c, net)


def test_static_builders_on_a_stack_equal_each_network_alone():
    rng = np.random.default_rng(6)
    nets = [generate_geometric(20, 0.45, 3, rng) for _ in range(2)]
    sigma2 = 0.01 + 0.5 * rng.random((2, 20))
    stack = Network(np.stack([n.positions for n in nets]), np.stack([n.adjacency for n in nets]))
    trial = stack.edges.trial
    for policy in ("uniform", "metropolis", "relvar"):
        w = static_weights(policy, stack, sigma2)
        assert w.shape == (len(stack.edges),)
        for t, net in enumerate(nets):
            assert np.array_equal(w[trial == t], static_weights(policy, net, sigma2[t])), policy
        validate_combination_matrix(w, stack.edges)


def test_validate_rejects_bad_matrices():
    net = clique2()
    with pytest.raises(NumericError, match="negative"):
        validate_combination_matrix(np.array([[1.5, 0.0], [-0.5, 1.0]]), net)
    with pytest.raises(NumericError, match="stochastic"):
        validate_combination_matrix(np.array([[0.6, 0.0], [0.6, 1.0]]), net)
    with pytest.raises(NumericError, match="shape"):
        validate_combination_matrix(np.eye(3), net)
    lone = Network(
        positions=np.array([[0.0, 0.0], [0.9, 0.9]]),
        adjacency=np.zeros((2, 2), dtype=bool),
    )
    with pytest.raises(NumericError, match="neighborhood"):
        validate_combination_matrix(np.array([[0.5, 0.0], [0.5, 1.0]]), lone)


def test_validate_rejects_nan_column():
    net = clique2()
    c = weights("uniform", net)
    c[:, 1] = np.nan
    with pytest.raises(NumericError, match="stochastic"):
        validate_combination_matrix(c, net)


def test_static_weights_rejects_unknown_policy():
    with pytest.raises(ConfigError):
        static_weights("adaptive", clique2(), np.ones(2))


def test_consistent_pairs_per_edge_equal_all_pairs():
    rng = np.random.default_rng(7)
    net = generate_geometric(20, 0.45, 3, rng)
    y = rng.standard_normal((20, 4))
    sigma2 = 0.01 + 0.5 * rng.random(20)
    every = consistent_pairs(y[:, None], y[None, :], sigma2[:, None], sigma2[None, :])
    assert every.shape == (20, 20)
    assert np.array_equal(every, every.T) and every.diagonal().all()
    d2 = ((y[:, None] - y[None, :]) ** 2).sum(axis=-1)
    assert np.array_equal(every, d2 <= CONSISTENCY_CHI2 * (sigma2[:, None] + sigma2[None, :]))
    assert not every.all()
    e = net.edges
    per_edge = consistent_pairs(y[e.row], y[e.col], sigma2[e.row], sigma2[e.col])
    assert np.array_equal(per_edge, every[e.row, e.col])


@pytest.mark.filterwarnings("error")
def test_consistency_bound_past_the_float_range_agrees_without_a_warning():
    # At sigma2 >= about 5e306 the bound CONSISTENCY_CHI2 * (sigma2_a +
    # sigma2_b) overflows, in the product or already in the sum; an
    # infinite bound takes every finite pair, and a distance that
    # overflows too still agrees with it.
    a = np.array([[0.0, 0.0, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0], [3.0, 4.0, 0.0, 0.0]])
    b = np.array([[1e150, 0.0, 0.0, 0.0], [-1e200, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    for s2 in (1e307, 1e308, np.finfo(float).max):
        sigma2 = np.full(3, s2)
        assert consistent_pairs(a, b, sigma2, sigma2).all()
    # Below the overflow the bound is the finite product.
    sigma2 = np.full(3, 1.0)
    assert consistent_pairs(a, b, sigma2, sigma2).tolist() == [False, False, True]


def test_validate_edge_weights_names_trial_and_column():
    rng = np.random.default_rng(8)
    nets = [generate_geometric(12, 0.5, 2, rng) for _ in range(3)]
    stack = Network(np.stack([n.positions for n in nets]), np.stack([n.adjacency for n in nets]))
    c = weights("uniform", stack)
    validate_combination_matrix(c.ravel()[stack.edges.flat], stack.edges)
    with pytest.raises(NumericError, match="shape"):
        validate_combination_matrix(c, stack.edges)
    # Column 5 of trial 2 off stochastic, column 3 of trial 1 negative:
    # the lowest failing trial is named.
    c[2, 5, 5] += 0.1
    c[1, 3, 3] = -c[1, 3, 3]
    for bad, support in ((c, stack), (c.ravel()[stack.edges.flat], stack.edges)):
        with pytest.raises(CombinationError, match="negative entries in column 3$") as info:
            validate_combination_matrix(bad, support)
        assert info.value.trial == 1
    c[1, 3, 3] = -c[1, 3, 3]
    with pytest.raises(CombinationError, match="column 5 off stochastic by 1.000e-01$") as info:
        validate_combination_matrix(c, stack)
    assert info.value.trial == 2
