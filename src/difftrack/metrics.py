"""Mean-square-deviation series, convergence detection, cluster readout and
recovery scoring."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .combiners import consistent_pairs
from .topology import ClusterAssignment, infer_clusters

DB_FLOOR = 1e-30

# Shortest dB series convergence_iteration accepts: its steady-state level is
# the mean over the final fifth, which needs at least two points.
MIN_SERIES_LENGTH = 10


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


def convergence_iteration(series_db: np.ndarray, band_db: float = 3.0):
    """First iteration from which the dB series stays within +/- band_db of
    its steady-state level (``steady_state_db``).

    Returns None if the series never settles into the band.
    """
    db = np.asarray(series_db, dtype=np.float64)
    if db.ndim != 1:
        raise ValueError("expected a 1-D dB series")
    n = db.shape[0]
    if n < MIN_SERIES_LENGTH:
        raise ValueError("series too short for steady-state detection")
    inside = np.abs(db - steady_state_db(db)) <= band_db
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
) -> ClusterAssignment:
    """Read the node clustering out of a finished run.

    Two nodes belong together when either direction of their weight in
    ``c`` reaches ``threshold`` (the links of ``infer_clusters``), or when
    their final estimates pass ``consistent_pairs`` at the nodes'
    measurement variances, the same chi-square test the adaptive policy
    applies to measurements; clusters are the components of that relation.
    A filtered estimate errs less than a raw measurement, so same-target
    pieces that the network never connected pass easily, while pieces
    tracking different targets sit far outside the bound. Labels follow
    each cluster's lowest node index.
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    agree = consistent_pairs(
        estimates[:, None], estimates[None, :], sigma2[:, None], sigma2[None, :]
    )
    # An agreeing pair gets a weight no threshold can miss.
    return infer_clusters(np.where(agree, np.inf, c), threshold)


def cluster_recovery_score(
    inferred: ClusterAssignment, truth: ClusterAssignment
) -> float:
    """Best-permutation agreement between two assignments, in [0, 1].

    The exact maximum over every injective map of the side with fewer
    clusters into the other; with k <= l clusters that is l!/(l-k)! maps,
    at most l(l-1) for the two-target truths a config can reach.
    """
    ci = inferred.cluster_of
    ct = truth.cluster_of
    if ci.shape[0] != ct.shape[0]:
        raise ValueError("assignments must cover the same nodes")
    confusion = np.zeros((inferred.s, truth.s))
    np.add.at(confusion, (ci - 1, ct - 1), 1.0)
    if inferred.s > truth.s:
        confusion = confusion.T
    small, large = confusion.shape
    maps = np.array(list(itertools.permutations(range(large), small)))
    best = confusion[np.arange(small), maps].sum(axis=-1).max()
    return float(best / ci.shape[0])
