"""Tests for the projectile truth model."""

import dataclasses
import warnings

import numpy as np
import pytest

from difftrack.dynamics import MotionModel, initial_state, step_truth
from difftrack.errors import ConfigError
from difftrack.harness import ExperimentConfig

DEFAULT = ExperimentConfig().model


def model(**changes):
    """The default run's motion model with some of its four numbers changed."""
    return dataclasses.replace(DEFAULT, **changes)


def noiseless_model(delta=0.1, g=10.0):
    return model(delta=delta, g=g, q_scale=0.0)


def test_transition_matrix_structure():
    m = DEFAULT
    f = m.F
    assert f[0, 2] == 0.1 and f[1, 3] == 0.1
    assert np.array_equal(np.diag(f), np.ones(4))
    off = f - np.diag(np.diag(f))
    off[0, 2] = off[1, 3] = 0.0
    assert not off.any()


def test_gravity_input_value():
    m = DEFAULT
    assert np.allclose(m.u_g, [0.0, -0.05, 0.0, -1.0], atol=1e-15)


def test_gravity_input_zero_without_gravity():
    m = model(g=0.0)
    assert not m.u_g.any()


def test_transition_determinant_is_one():
    for delta in (0.01, 0.1, 2.0):
        m = model(delta=delta, g=9.81)
        assert abs(np.linalg.det(m.F) - 1.0) < 1e-12


def test_config_model_holds_the_config_values():
    m = ExperimentConfig().model
    assert (m.delta, m.g, m.g_scale, m.q_scale) == (0.1, 10.0, 0.625, 0.001)
    assert m.process_noise_var == 0.625 * 0.001 * 0.625
    assert np.allclose(m.process_noise_var * np.eye(4), 0.625**2 * 0.001 * np.eye(4))


def test_initial_state_values():
    s = initial_state(1.0, 30.0, 15.0, np.pi / 3)
    assert np.array_equal(s[:2], [1.0, 30.0])
    assert abs(s[2] - 7.5) < 1e-12
    assert abs(s[3] - 12.99038105676658) < 1e-11
    assert np.allclose(initial_state(2.0, 3.0, 5.0, 0.0), [2.0, 3.0, 5.0, 0.0])
    assert np.allclose(initial_state(2.0, 3.0, 0.0, 1.0), [2.0, 3.0, 0.0, 0.0])


def test_step_truth_constant_velocity_without_noise():
    m = model(g=0.0, q_scale=0.0)
    out = step_truth(np.array([0.0, 0.0, 1.0, 1.0]), m, np.ones(4))
    assert np.allclose(out, [0.1, 0.1, 1.0, 1.0], atol=1e-15)


def test_step_truth_projectile_step_without_noise():
    m = noiseless_model()
    out = step_truth(np.array([1.0, 30.0, 7.5, 12.99]), m, np.ones(4))
    assert np.allclose(out, [1.75, 31.249, 7.5, 11.99], atol=1e-12)


def test_step_truth_noise_covariance_matches_model():
    m = DEFAULT
    rng = np.random.default_rng(42)
    s = np.array([1.0, 30.0, 7.5, 12.99])
    mean = m.F @ s + m.u_g
    states = np.broadcast_to(s, (100_000, 4))
    draws = step_truth(states, m, rng.standard_normal((100_000, 4))) - mean
    sample_cov = np.cov(draws.T)
    target = m.process_noise_var * np.eye(4)
    err = np.linalg.norm(sample_cov - target) / np.linalg.norm(target)
    assert err < 0.05


def test_step_truth_bit_reproducible():
    m = DEFAULT
    s = np.array([1.0, 30.0, 7.5, 12.99])
    a = step_truth(s, m, np.random.default_rng(7).standard_normal(4))
    b = step_truth(s, m, np.random.default_rng(7).standard_normal(4))
    assert np.array_equal(a, b)


def test_step_truth_stack_equals_each_state_alone():
    # One call over a (T, targets, 4) stack gives every state the bits it
    # gets alone, and the bits of the per-state matrix-vector form.
    m = DEFAULT
    rng = np.random.default_rng(8)
    states = 30.0 * rng.standard_normal((5, 2, 4))
    w = rng.standard_normal((5, 2, 4))
    out = step_truth(states, m, w)
    assert out.shape == states.shape
    for t in range(5):
        for i in range(2):
            alone = step_truth(states[t, i], m, w[t, i])
            assert np.array_equal(out[t, i], alone)
            noise = m.g_scale * (np.sqrt(m.q_scale) * w[t, i])
            assert np.array_equal(alone, m.F @ states[t, i] + m.u_g + noise)


def test_vertical_position_matches_closed_form():
    # The discretization is exact: y_k = y0 + vy0*(k*delta) - g*(k*delta)^2/2.
    m = noiseless_model()
    rng = np.random.default_rng(0)
    s = initial_state(1.0, 30.0, 15.0, np.pi / 3)
    y0, vy0 = s[1], s[3]
    state = s
    for k in range(1, 101):
        state = step_truth(state, m, rng.standard_normal(4))
        t = k * m.delta
        assert abs(state[1] - (y0 + vy0 * t - 0.5 * 10.0 * t * t)) < 1e-9


@pytest.mark.parametrize(
    "fields,message",
    [
        ((0.0, 10.0, 0.625, 0.001), "time step must be positive"),
        ((-0.1, 10.0, 0.625, 0.001), "time step must be positive"),
        ((0.1, -1.0, 0.625, 0.001), "gravitational acceleration must be >= 0"),
        ((0.1, 10.0, 0.625, -1e-3), "process noise scale must be >= 0"),
        ((np.float64(1e200), 10.0, 0.625, 0.001), "delta = .* gives a non-finite motion model"),
        ((0.1, np.nan, 0.625, 0.001), "non-finite motion model"),
        ((0.1, 10.0, np.float64(10.0), np.float64(1e308)), "G_scale = .* and Q_scale = .*"),
        ((0.1, 10.0, np.inf, 0.0), "non-finite process noise variance"),
        ((0.1, 10.0, 0.625, np.nan), "non-finite process noise variance"),
    ],
    ids=[
        "zero-delta", "negative-delta", "negative-g", "negative-q", "overflowing-delta", "nan-g",
        "overflowing-noise", "infinite-g-scale", "nan-q",
    ],
)
def test_motion_model_validation(fields, message):
    # numpy scalars would warn on overflow; the refusal comes first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=message):
            MotionModel(*fields)


def test_motion_model_computes_its_matrices_once():
    m = DEFAULT
    assert m.F is m.F and m.u_g is m.u_g
