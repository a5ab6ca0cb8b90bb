"""Tests for the dense linear algebra kernels."""

import numpy as np
import pytest

from difftrack.errors import NumericError
from difftrack.numerics import inverse_spd, symmetrize


def random_spd(rng, n, cond):
    """Random SPD matrix with the given condition number."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (q * eigs) @ q.T


def test_inverse_identity():
    assert np.abs(inverse_spd(np.eye(4)) - np.eye(4)).max() < 1e-15


def test_inverse_diagonal():
    inv = inverse_spd(np.diag([2.0, 4.0]))
    assert np.allclose(inv, np.diag([0.5, 0.25]), rtol=0.0, atol=1e-15)


def test_inverse_one_by_one():
    assert np.allclose(inverse_spd(np.array([[4.0]])), [[0.25]], atol=1e-15)


def test_inverse_round_trip_well_conditioned():
    rng = np.random.default_rng(11)
    for _ in range(200):
        cond = 10.0 ** rng.uniform(0.0, 6.0)
        a = random_spd(rng, 4, cond)
        err = np.abs(a @ inverse_spd(a) - np.eye(4)).max()
        assert err <= 1e-10, f"round-trip error {err:.3e} at cond {cond:.3e}"


def test_inverse_round_trip_at_condition_limit():
    # Hardest allowed case: condition number pinned at 1e6.
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        a = random_spd(rng, 4, 1e6)
        worst = max(worst, np.abs(a @ inverse_spd(a) - np.eye(4)).max())
    assert worst <= 1e-10, f"worst round-trip error {worst:.3e}"


def test_inverse_of_inverse_recovers_original():
    rng = np.random.default_rng(17)
    a = random_spd(rng, 4, 1e3)
    back = inverse_spd(inverse_spd(a))
    assert np.abs(back - a).max() / np.abs(a).max() < 1e-9


def test_inverse_batched_matches_loop():
    rng = np.random.default_rng(19)
    stack = np.stack([random_spd(rng, 4, 10.0**k) for k in range(6)])
    batched = inverse_spd(stack)
    for i in range(stack.shape[0]):
        assert np.array_equal(batched[i], inverse_spd(stack[i]))


def test_inverse_rejects_asymmetric():
    a = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NumericError, match="not symmetric"):
        inverse_spd(a)


def test_inverse_rejects_indefinite():
    with pytest.raises(NumericError, match="positive definite"):
        inverse_spd(np.diag([1.0, -1.0]))


def test_inverse_rejects_near_singular():
    with pytest.raises(NumericError, match="singular"):
        inverse_spd(np.diag([1.0, 1e-14]))


def test_inverse_rejects_nan():
    a = np.eye(2)
    a[0, 1] = a[1, 0] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        inverse_spd(a)


def test_inverse_error_names_role():
    with pytest.raises(NumericError, match="innovation covariance"):
        inverse_spd(np.diag([1.0, -1.0]), role="innovation covariance")


def test_symmetrize_known_value():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.array_equal(symmetrize(a), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_symmetrize_fixed_point_on_symmetric():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((4, 4))
    sym = a + a.T
    assert np.array_equal(symmetrize(sym), sym)
    assert np.array_equal(symmetrize(np.eye(3)), np.eye(3))


def test_symmetrize_idempotent_bitwise():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((5, 4, 4))
    once = symmetrize(a)
    assert np.array_equal(symmetrize(once), once)


def test_symmetrize_rejects_non_square():
    with pytest.raises(NumericError):
        symmetrize(np.ones((2, 3)))
