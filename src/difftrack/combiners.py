"""Combination weight policies.

A combination matrix C is left-stochastic with c[n, m] being the weight
node m assigns to neighbor n; support is restricted to the self-inclusive
neighborhood N_m, so the combination step blends estimates as C^T psi.
Static policies depend only on the topology (and noise levels), and build
one matrix per network of a Network stack; the adaptive rule re-derives
every column each iteration from how far each neighbor's intermediate
estimate sits from the node's own data.

The adaptive policy also screens each neighbor's measurement against the
node's own with ``consistent_pairs``: two measurements of one target differ
by zero-mean Gaussian noise of covariance (sigma2_n + sigma2_m) I_4, so
||y_n - y_m||^2 / (sigma2_n + sigma2_m) is chi-square with 4 degrees of
freedom. A pair beyond the 0.999 quantile (``CONSISTENCY_CHI2``, about
18.47) is taken to measure different targets. A same-target pair fails one
step in a thousand, far too rarely to hold its weight under the prune
threshold for a whole window.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NumericError
from .topology import Network

POLICIES = ("uniform", "metropolis", "relvar", "adaptive")

# Stochasticity slack for validation at construction time.
COLUMN_SUM_TOL = 1e-12

# Squared-distance bound of the measurement consistency test: the 0.999
# quantile of chi-square with 4 degrees of freedom (one per state coordinate):
# twice the inverse regularized incomplete gamma function at (2, 0.999),
# written out as the float that scipy.stats.chi2.ppf(0.999, 4) returns.
CONSISTENCY_CHI2 = 18.46682695290317


def _support(net: Network) -> np.ndarray:
    return net.adjacency | np.eye(net.n_nodes, dtype=bool)


def uniform_weights(net: Network) -> np.ndarray:
    """c[n, m] = 1/|N_m| for every n in N_m."""
    sup = _support(net)
    return sup / sup.sum(axis=-2, keepdims=True)


def metropolis_weights(net: Network) -> np.ndarray:
    """Off-diagonal 1/max(|N_n|, |N_m|); diagonal takes the remainder."""
    sizes = _support(net).sum(axis=-2)
    c = np.where(net.adjacency, 1.0 / np.maximum(sizes[..., :, None], sizes[..., None, :]), 0.0)
    diag = np.arange(net.n_nodes)
    c[..., diag, diag] = 1.0 - c.sum(axis=-2)
    return c


def relative_variance_weights(net: Network, sigma2: np.ndarray) -> np.ndarray:
    """Weight neighbors by inverse noise variance, normalized over N_m."""
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if sigma2.shape != net.adjacency.shape[:-1]:
        raise ConfigError(
            f"sigma2 must have one entry per node, got shape {sigma2.shape}"
        )
    if (sigma2 <= 0.0).any():
        raise ConfigError("all measurement variances must be positive")
    w = _support(net) * (1.0 / sigma2)[..., :, None]
    return w / w.sum(axis=-2, keepdims=True)


def adaptive_weight_row(
    m: int,
    psi: np.ndarray,
    q_m: np.ndarray,
    neighborhood: np.ndarray,
    eps: float = 1e-12,
) -> np.ndarray:
    """Weight column for node m from current intermediate estimates.

    Each neighbor n in N_m is scored by the distance between its estimate
    psi[n] and the node's own data point psi[m] + q_m; weights are inverse
    squared distances normalized over the neighborhood. The self term's
    distance is just ||q_m||. Returns a full length-N column, zero outside
    N_m.
    """
    if eps <= 0.0:
        raise ConfigError(f"eps must be positive, got {eps}")
    psi = np.asarray(psi, dtype=np.float64)
    target = psi[m] + np.asarray(q_m, dtype=np.float64)
    d = np.linalg.norm(target - psi[neighborhood], axis=1)
    inv_sq = np.maximum(d, eps) ** -2.0
    col = np.zeros(psi.shape[0])
    col[neighborhood] = inv_sq / inv_sq.sum()
    return col


def pairwise_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between point sets, batched over leading axes.

    ``a`` and ``b`` are (..., N, d); entry [..., i, j] of the result is
    ||a[..., i, :] - b[..., j, :]||^2. The squared coordinate differences
    are summed in coordinate order, which is what numpy's reduction does
    over an axis shorter than 8, so for d = 4 the bits equal those of
    ``((a[:, None] - b[None]) ** 2).sum(axis=-1)`` without building that
    (..., N, N, d) temporary.
    """
    total = None
    for k in range(a.shape[-1]):
        diff = a[..., :, None, k] - b[..., None, :, k]
        diff *= diff
        if total is None:
            total = diff
        else:
            total += diff
    return total


def consistent_pairs(points: np.ndarray, sigma2: np.ndarray) -> np.ndarray:
    """Which pairs of 4-d points agree within their noise levels.

    ``points`` is (..., N, 4) and ``sigma2`` the matching (..., N) per-node
    noise variances. Entry [..., n, m] is True when
    ||points[n] - points[m]||^2 <= CONSISTENCY_CHI2 * (sigma2[n] + sigma2[m]).
    The result is symmetric with a true diagonal.
    """
    points = np.asarray(points, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    bound = CONSISTENCY_CHI2 * (sigma2[..., :, None] + sigma2[..., None, :])
    return pairwise_sq_dist(points, points) <= bound


def static_weights(policy: str, net: Network, sigma2: np.ndarray) -> np.ndarray:
    """Build the combination matrix (stack) for a static policy by name."""
    if policy == "uniform":
        return uniform_weights(net)
    if policy == "metropolis":
        return metropolis_weights(net)
    if policy == "relvar":
        return relative_variance_weights(net, sigma2)
    raise ConfigError(f"unknown static policy '{policy}'")


def validate_combination_matrix(
    c: np.ndarray,
    support,
    col_tol: float = COLUMN_SUM_TOL,
) -> None:
    """Raise unless C is nonnegative, column-stochastic, and supported.

    ``support`` is the Network C belongs to, or, for a stack of matrices
    (..., n, n), the matching stack of self-inclusive neighborhood masks.
    Used both by tests and by the engine each iteration; a violation at
    runtime means a weight policy produced garbage, which is a numeric
    failure rather than a configuration problem.
    """
    c = np.asarray(c)
    if isinstance(support, Network):
        support = _support(support)
    if c.shape != np.shape(support):
        raise NumericError(f"combination matrix shape {c.shape} wrong")
    if (c < 0.0).any():
        raise NumericError("combination matrix has negative entries")
    col_err = np.abs(c.sum(axis=-2) - 1.0).max()
    # Written so that a NaN column sum fails: every comparison with NaN is
    # False.
    if not col_err <= col_tol:
        raise NumericError(
            f"combination matrix columns off stochastic by {col_err:.3e}"
        )
    if c[~support].any():
        raise NumericError("combination matrix leaks outside neighborhoods")
