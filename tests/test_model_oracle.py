"""The four-number motion model against the 4x4 matrix form.

The reference is the form the model once took: F and u_g built from theta
and n, a noise shaping matrix G = g_scale*I and covariance Q = q_scale*I,
Q's symmetric square root taken by ``eigh``, and a truth step
F x + u_g + G (Q^1/2 w). The model's derived matrices and ``step_truth``
must give its bits.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from difftrack.dynamics import MotionModel, step_truth


def reference_model(delta, g, g_scale, q_scale):
    """(F, u_g, G, Q, Q^1/2) in 4x4 matrices."""
    theta = np.zeros((4, 4))
    theta[0, 2] = theta[1, 3] = 1.0
    n = np.array([0.0, 0.0, 0.0, -g])
    f = np.eye(4) + delta * theta
    u_g = (delta * np.eye(4) + 0.5 * delta * delta * theta) @ n
    g_mat, q_mat = g_scale * np.eye(4), q_scale * np.eye(4)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (q_mat + q_mat.T))
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return f, u_g, g_mat, q_mat, root @ eigvecs.T


def reference_step(states, f, u_g, g_mat, q_sqrt, w):
    noise = g_mat @ (q_sqrt @ w[..., None])
    return (f @ states[..., None])[..., 0] + u_g + noise[..., 0]


# Above q_scale of about 1e146 LAPACK scales Q inside eigh, and the
# reference root is then off in the last bit; the model's sqrt is exact.
@settings(max_examples=200, deadline=None)
@given(
    delta=st.floats(1e-3, 1.0),
    g=st.floats(0.0, 20.0),
    g_scale=st.floats(-1e3, 1e3),
    q_scale=st.floats(0.0, 1e100),
    seed=st.integers(0, 2**32 - 1),
)
@example(delta=0.1, g=10.0, g_scale=0.625, q_scale=0.001, seed=0)
@example(delta=0.1, g=10.0, g_scale=1.0, q_scale=0.05, seed=1)
@example(delta=0.1, g=10.0, g_scale=0.3, q_scale=0.0, seed=2)
def test_model_matches_matrix_form(delta, g, g_scale, q_scale, seed):
    model = MotionModel(delta, g, g_scale, q_scale)
    f, u_g, g_mat, q_mat, q_sqrt = reference_model(delta, g, g_scale, q_scale)
    gqg = g_mat @ q_mat @ g_mat.T
    assert np.array_equal(model.F, f)
    assert np.array_equal(model.u_g, u_g)
    assert np.array_equal(model.process_noise_var * np.eye(4), gqg)
    assert model.process_noise_var == gqg[0, 0]

    rng = np.random.default_rng(seed)
    states = 30.0 * rng.standard_normal((5, 2, 4))
    w = rng.standard_normal((5, 2, 4))
    want = reference_step(states, f, u_g, g_mat, q_sqrt, w)
    assert np.array_equal(step_truth(states, model, w), want)
