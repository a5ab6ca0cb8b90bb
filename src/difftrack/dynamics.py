"""Projectile truth model.

State vectors are float64 arrays [x, y, vx, vy] (meters, meters/second).
The continuous dynamics are a point mass under constant gravity; the
discretization below is exact for that system, not an Euler approximation,
so noiseless trajectories reproduce the closed-form parabola to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError
from .numerics import symmetrize

STATE_DIM = 4


def _psd_sqrt(q: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix; tolerates zero eigenvalues."""
    eigvals, eigvecs = np.linalg.eigh(symmetrize(q))
    if eigvals.min() < -1e-10:
        raise NumericError(
            f"process noise covariance not PSD (min eigenvalue {eigvals.min():.3e})"
        )
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    return root @ eigvecs.T


@dataclass(frozen=True)
class MotionModel:
    """Discrete-time target motion x' = F x + u_g + G w, w ~ N(0, Q)."""

    F: np.ndarray
    G: np.ndarray
    Q: np.ndarray
    u_g: np.ndarray
    delta: float
    g: float
    q_sqrt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("F", "G", "Q"):
            if getattr(self, name).shape != (STATE_DIM, STATE_DIM):
                raise ConfigError(f"motion model {name} must be 4x4")
        if self.u_g.shape != (STATE_DIM,):
            raise ConfigError("motion model u_g must be a 4-vector")
        object.__setattr__(self, "q_sqrt", _psd_sqrt(self.Q))

    @property
    def process_noise_cov(self) -> np.ndarray:
        """Covariance G Q G^T actually injected into the state."""
        return self.G @ self.Q @ self.G.T


def discretize_projectile(
    delta: float,
    g: float,
    *,
    g_scale: float = 0.625,
    q_scale: float = 0.001,
) -> MotionModel:
    """Exact one-step discretization of projectile motion.

    The continuous system is dx/dt = theta x + n with theta holding an
    identity block coupling positions to velocities and n = [0, 0, 0, -g].
    Because theta is nilpotent (theta^2 = 0) the matrix exponential
    truncates, giving F = I + delta*theta exactly, and integrating the
    constant forcing over one step gives u_g = (delta*I + delta^2/2 * theta) n.

    ``g_scale`` and ``q_scale`` fill the noise shaping matrix G = g_scale*I
    and process noise covariance Q = q_scale*I. A delta so large that F or
    u_g overflows is refused as bad input.
    """
    if delta <= 0.0:
        raise ConfigError(f"time step must be positive, got {delta}")
    if g < 0.0:
        raise ConfigError(f"gravitational acceleration must be >= 0, got {g}")
    theta = np.zeros((STATE_DIM, STATE_DIM))
    theta[0, 2] = theta[1, 3] = 1.0
    n = np.array([0.0, 0.0, 0.0, -g])
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.eye(STATE_DIM) + delta * theta
        u_g = (delta * np.eye(STATE_DIM) + 0.5 * delta * delta * theta) @ n
    if not (np.isfinite(f).all() and np.isfinite(u_g).all()):
        raise ConfigError(f"delta = {delta!r} gives a non-finite motion model (F or u_g)")
    return MotionModel(
        F=f,
        G=g_scale * np.eye(STATE_DIM),
        Q=q_scale * np.eye(STATE_DIM),
        u_g=u_g,
        delta=delta,
        g=g,
    )


def initial_state(x0: float, y0: float, v0: float, angle: float) -> np.ndarray:
    """Launch state [x0, y0, v0*cos(angle), v0*sin(angle)]."""
    return np.array([x0, y0, v0 * np.cos(angle), v0 * np.sin(angle)])


def step_truth(states: np.ndarray, model: MotionModel, w: np.ndarray) -> np.ndarray:
    """Advance truths one step: F x + u_g + G q_sqrt w.

    ``states`` is (..., 4) and ``w`` the matching (..., 4) standard normal
    draws, which the caller takes from its stream whatever Q is. Each
    product is a stacked matrix-vector product, so a state's result has the
    same bits however many states share the call.
    """
    x = np.asarray(states, dtype=np.float64)[..., None]
    noise = model.G @ (model.q_sqrt @ np.asarray(w, dtype=np.float64)[..., None])
    return (model.F @ x)[..., 0] + model.u_g + noise[..., 0]
