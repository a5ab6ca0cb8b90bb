"""Mean-square-deviation series, convergence detection, cluster readout and
recovery scoring."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .combiners import consistent_pairs
from .topology import ClusterAssignment, component_roots, root_labels, weight_components

DB_FLOOR = 1e-30

# Shortest dB series convergence_iteration accepts: its steady-state level is
# the mean over the final fifth, which needs at least two points.
MIN_SERIES_LENGTH = 10

# Half-width of the band about the steady-state level within which
# convergence_iteration calls a series settled.
CONVERGENCE_BAND_DB = 3.0


def to_db(linear):
    """Convert linear MSD to decibels, flooring at DB_FLOOR to keep log finite."""
    arr = np.asarray(linear, dtype=np.float64)
    if np.any(arr < 0):
        raise ValueError("MSD values must be nonnegative")
    out = 10.0 * np.log10(np.maximum(arr, DB_FLOOR))
    return float(out) if np.isscalar(linear) or arr.ndim == 0 else out


@dataclass(frozen=True)
class MsdSeries:
    """Per-iteration, per-cluster mean squared deviation averaged over trials."""

    msd_linear: np.ndarray  # (n_iterations, n_clusters)
    msd_db: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        linear = np.asarray(self.msd_linear, dtype=np.float64)
        if linear.ndim != 2:
            raise ValueError("msd_linear must be (n_iterations, n_clusters)")
        if np.any(linear < 0):
            raise ValueError("MSD values must be nonnegative")
        linear = linear.copy()
        linear.setflags(write=False)
        object.__setattr__(self, "msd_linear", linear)
        db = to_db(linear)
        db.setflags(write=False)
        object.__setattr__(self, "msd_db", db)

    @property
    def n_iterations(self) -> int:
        return self.msd_linear.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.msd_linear.shape[1]


def msd_accumulate(
    rows: np.ndarray, estimates: np.ndarray, assignment: ClusterAssignment
) -> np.ndarray:
    """Per-cluster mean of ||row - estimate||^2 over the cluster's nodes.

    rows and estimates have one row per node: node m's estimate is scored
    against rows[..., m, :], the true state of the target it tracks.
    Leading batch axes, shared by all three, give a (..., s) result whose
    entries equal those of one call per batch entry.
    """
    rows = np.asarray(rows, dtype=np.float64)
    estimates = np.asarray(estimates, dtype=np.float64)
    if rows.shape != estimates.shape or estimates.shape[:-1] != assignment.cluster_of.shape:
        raise ValueError("one truth row and one estimate row per node required")
    err = estimates - rows
    sq = np.einsum("...j,...j->...", err, err)
    sums = np.bincount(assignment.bins, sq.ravel(), minlength=assignment.sizes.size)
    return sums.reshape(assignment.sizes.shape) / assignment.sizes


def steady_state_db(series_db: np.ndarray) -> float:
    """Steady-state level of a 1-D dB series: the mean of its final fifth."""
    n = series_db.shape[0]
    return series_db[n - max(1, n // 5) :].mean()


def convergence_iteration(series_db: np.ndarray):
    """First iteration from which the dB series stays within
    +/- ``CONVERGENCE_BAND_DB`` of its steady-state level
    (``steady_state_db``).

    Returns None if the series never settles into the band.
    """
    db = np.asarray(series_db, dtype=np.float64)
    if db.ndim != 1:
        raise ValueError("expected a 1-D dB series")
    n = db.shape[0]
    if n < MIN_SERIES_LENGTH:
        raise ValueError("series too short for steady-state detection")
    inside = np.abs(db - steady_state_db(db)) <= CONVERGENCE_BAND_DB
    # first index where every later value is also inside the band
    outside = np.flatnonzero(~inside)
    if outside.size == 0:
        return 0
    first = int(outside[-1]) + 1
    return first if first < n else None


def read_clusters(
    c: np.ndarray,
    threshold: float,
    estimates: np.ndarray,
    sigma2: np.ndarray,
) -> np.ndarray:
    """Read the node clustering out of a finished run, for every matrix
    of the stack at once.

    ``c`` is (..., n, n), ``estimates`` (..., n, 4) and ``sigma2`` (..., n),
    one leading entry per matrix of the stack (in a run, one per policy and
    trial); the result is (..., n) labels. Two nodes belong together when
    either direction of their weight in ``c`` reaches ``threshold``
    (``weight_components``), or when their final estimates pass
    ``consistent_pairs`` at the nodes' measurement variances, the same
    chi-square test the adaptive policy applies to measurements; clusters
    are the components of that relation. A filtered estimate errs less than
    a raw measurement, so same-target pieces that the network never
    connected pass easily, while pieces tracking different targets sit far
    outside the bound. Only pairs in different weight components are tested,
    and each agreeing pair links the two components' roots. Each matrix's
    clusters are labeled 1, 2, ... in order of their lowest node, so an
    entry's labels are those it would get read out alone.
    """
    roots = weight_components(c, threshold)
    shape = roots.shape
    n = shape[-1]
    roots = roots.reshape(-1, n)
    estimates = np.asarray(estimates, dtype=np.float64).reshape(len(roots), n, -1)
    sigma2 = np.asarray(sigma2, dtype=np.float64).reshape(roots.shape)
    upper = np.arange(n)[:, None] < np.arange(n)
    t, i, j = np.nonzero((roots[:, :, None] != roots[:, None, :]) & upper)
    agree = consistent_pairs(estimates[t, i], estimates[t, j], sigma2[t, i], sigma2[t, j])
    t, i, j = t[agree], roots[t[agree], i[agree]], roots[t[agree], j[agree]]
    joined = np.zeros(roots.shape + (n,), dtype=bool)
    joined[t, i, j] = joined[t, j, i] = True
    roots = np.take_along_axis(component_roots(joined), roots, axis=-1)
    return root_labels(roots).reshape(shape)


def cluster_recovery_score(inferred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Best-matching agreement between two labelings of each entry of a
    stack, in [0, 1].

    ``inferred`` and ``truth`` are (..., n) cluster labels from 1, one
    leading entry per labeling of the stack (in a run, one per policy and
    trial); the result is (...). Every entry's confusion counts come from
    one ``np.bincount`` over (entry, inferred, true), sized by the stack's
    largest label on each side; an entry with fewer clusters has zero rows
    there, which change no maximum, so its score is the one it would get
    scored alone. An entry's score is the largest total over every
    injective map of the side with fewer clusters into the other, over n.
    Some optimal map sends each of those k clusters to one of its k best
    partners: if one goes elsewhere, the others hold at most k - 1 of its
    best, and moving it to a free one loses nothing. So the maximum runs
    over the k^k choices of best partners, 4 for the two-target truths a
    config can reach, whatever the other side's count.
    """
    inferred = np.asarray(inferred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if inferred.shape != truth.shape:
        raise ValueError("assignments must cover the same nodes")
    shape, n = inferred.shape[:-1], inferred.shape[-1]
    inferred = inferred.reshape(-1, n) - 1
    truth = truth.reshape(-1, n) - 1
    trials = len(inferred)
    a, b = int(inferred.max()) + 1, int(truth.max()) + 1
    bins = (a * np.arange(trials)[:, None] + inferred) * b + truth
    confusion = np.bincount(bins.ravel(), minlength=trials * a * b).reshape(trials, a, b)
    if a < b:
        confusion = confusion.swapaxes(1, 2)
    k = confusion.shape[2]
    # best[t, r, col]: the row of column col's (r + 1)-th largest count.
    best = np.empty((trials, k, k), dtype=np.int64)
    left = confusion.copy()
    for r in range(k):
        best[:, r] = left.argmax(axis=1)
        np.put_along_axis(left, best[:, r, None], -1, axis=1)
    choices = np.array(list(itertools.product(range(k), repeat=k)))
    rows = best[:, choices, np.arange(k)]
    totals = confusion[np.arange(trials)[:, None, None], rows, np.arange(k)].sum(axis=-1)
    injective = (rows[..., :, None] != rows[..., None, :]).sum(axis=(-2, -1)) == k * (k - 1)
    return (np.where(injective, totals, -1).max(axis=-1) / n).reshape(shape)
