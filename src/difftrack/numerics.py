"""Small dense linear algebra kernels for the reference filter forms.

Everything here operates on float64 ndarrays and supports a leading batch
dimension. The engine's run path carries each covariance in closed 2x2
form and calls none of this, nor does ``dynamics``; the single-node
reference form ``engine.adapt``, which gate c2 and the tests hold the
engine to, does. Inversion is restricted to symmetric positive definite
matrices because that is the only kind the reference filter inverts.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError

# Cholesky pivots below this (squared) threshold are treated as a loss of
# positive definiteness rather than rounding noise.
PIVOT_TOL = 1e-12

# Allowed relative asymmetry of an inverse_spd input.
SYMMETRY_TOL = 1e-8


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T) / 2, batched over leading dimensions."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NumericError(f"symmetrize: matrix not square, shape {a.shape}")
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def inverse_spd(a: np.ndarray, *, role: str = "matrix") -> np.ndarray:
    """Invert a symmetric positive definite matrix (or stack of them).

    Uses a Cholesky factorization plus one Newton correction whose residual
    I - AX is evaluated in extended precision. The residual is where the
    cancellation happens: with it computed in float64 the round-trip error
    at condition number 1e6 can exceed 1e-10, while this scheme stays near
    the float64 representability floor (~5e-11). ``role`` names the matrix
    in error messages so a failure deep inside a run points at the
    quantity that went bad.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NumericError(f"inverse_spd: {role} not square, shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericError(f"inverse_spd: {role} has non-finite entries")
    scale = np.abs(a).max() if a.size else 0.0
    asym = np.abs(a - np.swapaxes(a, -1, -2)).max() if a.size else 0.0
    if asym > SYMMETRY_TOL * max(1.0, scale):
        raise NumericError(
            f"inverse_spd: {role} is not symmetric (max asymmetry {asym:.3e})"
        )
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"inverse_spd: {role} is not positive definite") from exc
    diag = np.diagonal(chol, axis1=-2, axis2=-1)
    if (diag * diag <= PIVOT_TOL).any():
        raise NumericError(
            f"inverse_spd: {role} is numerically singular "
            f"(pivot below {PIVOT_TOL:g})"
        )
    linv = np.linalg.inv(chol)
    x = np.swapaxes(linv, -1, -2) @ linv
    # Newton correction. Only the residual needs extra precision; the
    # correction product itself is small and safe in float64. The result is
    # not re-symmetrized: x is symmetric to rounding already, and forcing
    # exact symmetry here perturbs it along directions an ill-conditioned
    # input amplifies far above the round-trip tolerance.
    eye = np.eye(a.shape[-1], dtype=np.longdouble)
    resid = (eye - a.astype(np.longdouble) @ x.astype(np.longdouble)).astype(np.float64)
    x = x + x @ resid
    if not np.isfinite(x).all():
        raise NumericError(f"inverse_spd: non-finite entries inverting {role}")
    return x
