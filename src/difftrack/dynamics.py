"""Projectile truth model.

State vectors are float64 arrays [x, y, vx, vy] (meters, meters/second).
The continuous dynamics are a point mass under constant gravity; the
discretization below is exact for that system, not an Euler approximation,
so noiseless trajectories reproduce the closed-form parabola to rounding.
The process noise is isotropic, so the model is four numbers; a run takes
them from its config as ``ExperimentConfig.model``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .numerics import symmetrize  # noqa: F401  traced by benchmark/spans.py

STATE_DIM = 4

# dx/dt = THETA x + n: the identity block couples positions to velocities.
_THETA = np.zeros((STATE_DIM, STATE_DIM))
_THETA[0, 2] = _THETA[1, 3] = 1.0


@dataclass(frozen=True)
class MotionModel:
    """Discrete-time target motion x' = F x + u_g + G w, w ~ N(0, Q), with
    G = g_scale*I and Q = q_scale*I: the exact one-step discretization of
    projectile motion.

    The continuous system is dx/dt = theta x + n with theta holding an
    identity block coupling positions to velocities and n = [0, 0, 0, -g].
    Because theta is nilpotent (theta^2 = 0) the matrix exponential
    truncates, giving F = I + delta*theta exactly, and integrating the
    constant forcing over one step gives u_g = (delta*I + delta^2/2 * theta) n.

    F, u_g and the noise variance are computed once; values that make one
    of them non-finite, such as a delta so large that F or u_g overflows,
    are refused as bad input. A run's model is ``ExperimentConfig.model``,
    which holds the defaults.
    """

    delta: float
    g: float
    g_scale: float
    q_scale: float

    def __post_init__(self) -> None:
        if self.delta <= 0.0:
            raise ConfigError(f"time step must be positive, got {self.delta}")
        if self.g < 0.0:
            raise ConfigError(f"gravitational acceleration must be >= 0, got {self.g}")
        if self.q_scale < 0.0:
            raise ConfigError(f"process noise scale must be >= 0, got {self.q_scale}")
        if not (np.isfinite(self.F).all() and np.isfinite(self.u_g).all()):
            raise ConfigError(f"delta = {self.delta!r} gives a non-finite motion model (F or u_g)")
        if not np.isfinite(self.process_noise_var):
            raise ConfigError(
                f"G_scale = {self.g_scale!r} and Q_scale = {self.q_scale!r} "
                f"give a non-finite process noise variance"
            )

    @cached_property
    def F(self) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.eye(STATE_DIM) + self.delta * _THETA

    @cached_property
    def u_g(self) -> np.ndarray:
        n = np.array([0.0, 0.0, 0.0, -self.g])
        with np.errstate(over="ignore", invalid="ignore"):
            return (self.delta * np.eye(STATE_DIM) + 0.5 * self.delta * self.delta * _THETA) @ n

    @cached_property
    def process_noise_var(self) -> float:
        """g_scale^2 * q_scale, multiplied in the order of (G Q G^T)[0, 0]."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.g_scale * self.q_scale * self.g_scale


def initial_state(x0: float, y0: float, v0: float, angle: float) -> np.ndarray:
    """Launch state [x0, y0, v0*cos(angle), v0*sin(angle)]."""
    return np.array([x0, y0, v0 * np.cos(angle), v0 * np.sin(angle)])


def step_truth(states: np.ndarray, model: MotionModel, w: np.ndarray) -> np.ndarray:
    """Advance truths one step: F x + u_g + g_scale sqrt(q_scale) w.

    ``states`` is (..., 4) and ``w`` the matching (..., 4) standard normal
    draws, which the caller takes from its stream whatever q_scale is. The
    transition is a stacked matrix-vector product and the noise is
    elementwise, so a state's result has the same bits however many states
    share the call.
    """
    x = np.asarray(states, dtype=np.float64)[..., None]
    noise = model.g_scale * (np.sqrt(model.q_scale) * np.asarray(w, dtype=np.float64))
    return (model.F @ x)[..., 0] + model.u_g + noise
