"""Combination weight policies.

A combination matrix C is left-stochastic with c[n, m] being the weight
node m assigns to neighbor n; support is restricted to the self-inclusive
neighborhood N_m, so the combination step blends estimates as C^T psi.
Every policy gives C as (E,) weights on the edge list of a Network stack
(``Network.edges``), which the engine checks with
``validate_combination_matrix`` and scatters into its matrices. The
static policies depend only on the topology (and noise levels), so
``static_weights`` makes their weights once; the adaptive rule re-derives
every column each iteration from how far each neighbor's intermediate
estimate sits from the node's own measurement, as 1 / max(d^2, eps^2)
(Zhao & Sayed, 2012). The engine applies that rule per edge, with
``sum_squares`` scoring each edge's difference of points, and checks each
iteration's weights as it makes them; ``adaptive_weight_row`` is the
single-node reference form.

The adaptive policy also screens each neighbor's measurement against the
node's own with ``consistent_pairs``, one pair per edge of the network.
Two measurements of one target differ by zero-mean Gaussian noise of
covariance (sigma2_n + sigma2_m) I_4, so ||y_n - y_m||^2 / (sigma2_n +
sigma2_m) is chi-square with 4 degrees of freedom. A pair beyond the 0.999
quantile (``CONSISTENCY_CHI2``, about 18.47) is taken to measure different
targets. A same-target pair fails one step in a thousand, far too rarely
to hold its weight under the prune threshold for a whole window.
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


def adaptive_weight_row(
    m: int,
    psi: np.ndarray,
    target: np.ndarray,
    neighborhood: np.ndarray,
    eps: float = 1e-12,
) -> np.ndarray:
    """Weight column for node m from current intermediate estimates.

    Each neighbor n in N_m, m itself included, is scored by the squared
    distance d^2 between its estimate psi[n] and the node's own point
    ``target``, its measurement y_m in the engine; the weights
    1 / max(d^2, eps^2) are normalized over the neighborhood. Returns a
    full length-N column, zero outside N_m.
    """
    if eps <= 0.0:
        raise ConfigError(f"eps must be positive, got {eps}")
    psi = np.asarray(psi, dtype=np.float64)
    diff = np.asarray(target, dtype=np.float64) - psi[neighborhood]
    w = 1.0 / np.maximum((diff * diff).sum(axis=1), eps * eps)
    col = np.zeros(psi.shape[0])
    col[neighborhood] = w / w.sum()
    return col


def sum_squares(diff: np.ndarray) -> np.ndarray:
    """||diff||^2 over the last axis, of two or more coordinates, squaring
    ``diff`` in place.

    The squares are summed in coordinate order, which is what numpy's
    reduction does over an axis shorter than 8, so for 4-d rows the bits
    equal those of ``(diff ** 2).sum(axis=-1)``: the sum starts as the
    first two coordinates' ``np.add`` and takes the rest in place. A sum
    past the float range is inf, which every caller reads as far, so numpy
    is kept from warning of it.
    """
    with np.errstate(over="ignore"):
        diff *= diff
        total = np.add(diff[..., 0], diff[..., 1])
        for k in range(2, diff.shape[-1]):
            total += diff[..., k]
    return total


def consistent_pairs(
    a: np.ndarray, b: np.ndarray, sigma2_a: np.ndarray, sigma2_b: np.ndarray
) -> np.ndarray:
    """Which pairs of 4-d points agree within their noise levels.

    Points ``a`` and ``b`` (..., 4), with per-point noise variances
    ``sigma2_a`` and ``sigma2_b`` (...), are paired elementwise under
    broadcasting: one pair per edge from gathered rows, or all pairs of a
    point set p with ``p[:, None]``, ``p[None, :]``. A pair agrees when
    ||a - b||^2 <= CONSISTENCY_CHI2 * (sigma2_a + sigma2_b), so the test is
    symmetric and a point always agrees with itself. The squared distance
    is ``sum_squares`` of the difference, the one temporary the size of
    the points. A distance or a bound past the float range is inf: an
    infinite distance disagrees with a finite bound, and under an infinite
    bound every pair agrees, so numpy is kept from warning of either.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    sigma2_a = np.asarray(sigma2_a, dtype=np.float64)
    sigma2_b = np.asarray(sigma2_b, dtype=np.float64)
    with np.errstate(over="ignore"):
        bound = CONSISTENCY_CHI2 * (sigma2_a + sigma2_b)
        return sum_squares(np.subtract(a, b)) <= bound


def static_weights(policy: str, net: Network, sigma2: np.ndarray) -> np.ndarray:
    """The (E,) weights of a static policy by name, on ``net.edges``.

    With |N_m| the size of node m's neighborhood, edge (n, m) weighs
    1/|N_m| under "uniform"; 1/max(|N_n|, |N_m|) off the self-edges under
    "metropolis", each self-edge taking what its column leaves; and
    (1/sigma2_n) / sum over N_m of 1/sigma2 under "relvar" (Cattivelli &
    Sayed, IEEE TAC 2010). Every column sum adds its terms in ascending
    row, so the weights carry the bits of the dense (..., n, n) forms.
    """
    edges = net.edges
    n, m = edges.source, edges.key
    size = np.bincount(m)
    if policy == "uniform":
        return 1.0 / np.take(size, m)
    if policy == "metropolis":
        w = np.where(edges.is_self, 0.0, 1.0 / np.maximum(np.take(size, n), np.take(size, m)))
        w[edges.is_self] = 1.0 - np.bincount(m, w)
        return w
    if policy == "relvar":
        sigma2 = np.asarray(sigma2, dtype=np.float64)
        if sigma2.shape != net.adjacency.shape[:-1]:
            raise ConfigError(
                f"sigma2 must have one entry per node, got shape {sigma2.shape}"
            )
        if (sigma2 <= 0.0).any():
            raise ConfigError("all measurement variances must be positive")
        w = np.take((1.0 / sigma2).ravel(), n)
        return w / np.take(np.bincount(m, w), m)
    raise ConfigError(f"unknown static policy '{policy}'")


class CombinationError(NumericError):
    """A combination matrix that failed validation; ``trial`` is the index
    of the failing matrix in its stack, leading axes flattened."""

    def __init__(self, what: str, trial: int) -> None:
        super().__init__(what)
        self.trial = trial


def validate_combination_matrix(
    c: np.ndarray,
    support,
    col_tol: float = COLUMN_SUM_TOL,
) -> None:
    """Raise unless C is nonnegative, column-stochastic, and supported.

    ``support`` is the Network C belongs to, with C dense in the shape of
    its adjacency, or that network's ``edges``, with C the (E,) weights on
    them, which lie on the support by construction. The engine checks every
    C it builds, and the adaptive weights of each iteration; a violation
    at runtime means a weight policy produced garbage, which is a numeric
    failure rather than a configuration problem. The ``CombinationError``
    raised names the first failing column of the lowest failing matrix.
    """
    c = np.asarray(c)
    if isinstance(support, Network):
        if c.shape != support.adjacency.shape:
            raise NumericError(f"combination matrix shape {c.shape} wrong")
        edges = support.edges
        if np.delete(c.ravel(), edges.flat).any():
            raise NumericError("combination matrix leaks outside neighborhoods")
        c = c.ravel()[edges.flat]
    else:
        edges = support
        if c.shape != (len(edges),):
            raise NumericError(f"combination weights shape {c.shape} wrong")
    col_err = np.bincount(edges.key, c)
    col_err -= 1.0
    np.abs(col_err, out=col_err)
    # The whole array is tested first, and the failing column sought only
    # when a test fails. Written so that a NaN column sum fails: every
    # comparison with NaN is False.
    if (c < 0.0).any() or not (col_err <= col_tol).all():
        negative = np.zeros(col_err.shape, dtype=bool)
        negative[edges.key[c < 0.0]] = True
        bad = np.flatnonzero(negative | ~(col_err <= col_tol))[0]
        trial, m = divmod(int(bad), edges.n_nodes)
        if negative[bad]:
            what = f"combination matrix has negative entries in column {m}"
        else:
            what = f"combination matrix column {m} off stochastic by {col_err[bad]:.3e}"
        raise CombinationError(what, trial)
