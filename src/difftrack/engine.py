"""Adapt-then-combine diffusion Kalman filter engine.

One engine advances a batch of T independent Monte Carlo trials in
lockstep. Its state carries a leading trial axis: estimates are (T, n, 4),
covariances (T, n, 4, 4) and combination matrices (T, n, n). The trials of
a batch share the node count, the motion model and the policy; each has
its own network, task assignment, noise levels and random stream. Every
iteration is a synchronous bulk step over all nodes of all trials:

1. each node measures the target its task tracks, and a non-finite
   measurement stops the run, naming the node;
2. adaptation: incremental information updates over the node's
   neighborhood, neighbors processed in ascending node index;
3. residuals q = y - psi;
4. adaptive policy only: recompute all combination weight columns from the
   fresh psi snapshot. A neighbor whose measurement fails the chi-square
   consistency test against the node's own (see
   ``combiners.consistent_pairs``) gets zero weight at that step. The test
   is symmetric, so both directions of such a link drop below the prune
   threshold together, and once phase 6 cuts the link phase 2 stops fusing
   that neighbor's measurement;
5. combination: convex blend of neighbor intermediates (covariance is NOT
   blended; each node keeps its own);
6. adaptive policy only: link pruning, a per-link count of consecutive
   steps with weight below the threshold; a link is cut once both
   directions reach the window. A static policy keeps its initial graph
   and the combination matrix built for it at construction;
7. time update through the motion model.

Phases read only the previous phase's snapshot, so per-node work inside a
phase is order-free. Phase 2 is batched over all T*n nodes rank by rank:
every node's first neighbor at once, then every second neighbor, and so
on, one ``inverse_spd`` call per rank. Each matrix and each weight column
goes through the same arithmetic whatever else shares its batch, so a
trial's results are byte-identical whether it runs alone or with others.

A step that fails raises ``NumericError`` naming the trial and the
iteration. When several trials fail in the same phase of the same step,
the lowest-numbered one is named.

The module-level functions adapt/residual/combine/time_update are the
single-node reference forms of the same arithmetic; tests hold the engine
to them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .combiners import (
    COLUMN_SUM_TOL,
    POLICIES,
    consistent_pairs,
    pairwise_sq_dist,
    static_weights,
    validate_combination_matrix,
)
from .dynamics import STATE_DIM, MotionModel
from .errors import ConfigError, NumericError
from .numerics import inverse_spd, symmetrize
from .topology import ClusterAssignment, Network, count_below, prune_cross_links

# Column-stochasticity slack tolerated at combine time (looser than the
# construction-time tolerance; rounding accumulates over a run).
COMBINE_COL_TOL = 1e-9

# PSD slack: covariance eigenvalues may dip this far below zero before the
# engine calls it a failure.
PSD_TOL = -1e-9


def adapt(
    x_pred: np.ndarray,
    p_pred: np.ndarray,
    messages: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential measurement updates for one node.

    ``messages`` holds (y, H, R) triples; the engine supplies them in
    ascending neighbor index and this function processes them in the given
    order. An empty sequence returns the prediction unchanged.
    """
    psi = np.array(x_pred, dtype=np.float64)
    p = np.array(p_pred, dtype=np.float64)
    for y, h, r in messages:
        hp = h @ p
        r_e = hp @ h.T + r
        gain = hp.T @ inverse_spd(r_e, role="innovation covariance")
        psi = psi + gain @ (y - h @ psi)
        p = symmetrize(p - gain @ hp)
    return psi, p


def residual(y: np.ndarray, h: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Post-adaptation innovation q = y - H psi."""
    return y - h @ psi


def combine(psi_all: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Convex combination of intermediate estimates.

    ``psi_all`` is (k, 4) and ``weights`` the matching column slice of C.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if abs(weights.sum() - 1.0) > COMBINE_COL_TOL:
        raise NumericError(
            f"combination weights sum to {weights.sum()!r}, not 1"
        )
    if (weights < 0.0).any():
        raise NumericError("combination weights must be nonnegative")
    return weights @ psi_all


def time_update(
    x_hat: np.ndarray,
    p: np.ndarray,
    model: MotionModel,
    knows_gravity: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate one node's estimate through the motion model."""
    x_pred = model.F @ x_hat
    if knows_gravity:
        x_pred = x_pred + model.u_g
    p_pred = symmetrize(model.F @ p @ model.F.T + model.process_noise_cov)
    return x_pred, p_pred


class DiffusionKalmanEngine:
    """Synchronous multi-node filter over T trials, each on its own
    network.

    ``nets`` and ``assignments`` hold one entry per trial, all over the
    same n nodes, and ``sigma2`` is (T, n). ``first_trial`` is the number
    of the batch's first trial; errors name trials counting from it.
    ``pruning_enabled`` only affects the adaptive policy: static policies
    never prune.
    """

    def __init__(
        self,
        nets: Sequence[Network],
        assignments: Sequence[ClusterAssignment],
        model: MotionModel,
        sigma2: np.ndarray,
        policy: str,
        *,
        first_trial: int = 0,
        eps: float = 1e-12,
        prune_tau: float = 0.05,
        prune_window: int = 10,
        pruning_enabled: bool = True,
        filter_knows_gravity: bool = True,
        p0_scale: float = 1.0,
    ) -> None:
        if policy not in POLICIES:
            raise ConfigError(f"unknown policy '{policy}', expected one of {POLICIES}")
        nets = list(nets)
        assignments = list(assignments)
        if not nets:
            raise ConfigError("the engine needs at least one trial")
        t_count, n = len(nets), nets[0].n_nodes
        if any(net.n_nodes != n for net in nets):
            raise ConfigError("all trials of a batch need the same node count")
        sigma2 = np.asarray(sigma2, dtype=np.float64)
        if sigma2.shape != (t_count, n):
            raise ConfigError(
                f"sigma2 must have shape ({t_count}, {n}), got {sigma2.shape}"
            )
        if (sigma2 <= 0.0).any():
            raise ConfigError("all measurement variances must be positive")
        if len(assignments) != t_count or any(a.n_nodes != n for a in assignments):
            raise ConfigError("cluster assignments do not match the networks")
        if p0_scale <= 0.0:
            raise ConfigError(f"initial covariance scale must be positive, got {p0_scale}")

        self.nets = nets
        self.assignments = assignments
        self.model = model
        self.sigma2 = sigma2
        self.policy = policy
        self.first_trial = int(first_trial)
        self.eps = float(eps)
        self.prune_tau = float(prune_tau)
        self.prune_window = int(prune_window)
        self.prunes = policy == "adaptive" and bool(pruning_enabled)
        self.filter_knows_gravity = bool(filter_knows_gravity)
        self._targets = np.stack([a.cluster_of - 1 for a in assignments])

        shape = (t_count, n, STATE_DIM)
        self.x_pred = np.zeros(shape)
        self.P_pred = np.broadcast_to(
            p0_scale * np.eye(STATE_DIM), shape + (STATE_DIM,)
        ).copy()
        self.psi = self.x_pred.copy()
        self.P_psi = self.P_pred.copy()
        self.q = np.zeros(shape)
        self.x_hat = np.zeros(shape)

        self.iteration = 0
        self.min_psd_eigenvalue = np.full(t_count, np.inf)
        # Counts never exceed the window, so the smallest type holding it
        # will do.
        self._below = np.zeros(
            (t_count, n, n), dtype=np.min_scalar_type(self.prune_window)
        )
        self._support = np.stack([net.adjacency for net in nets]) | np.eye(n, dtype=bool)
        self._rebuild_ranks()
        self._gqg = model.process_noise_cov

        if policy == "adaptive":
            self.C = np.broadcast_to(np.eye(n), (t_count, n, n)).copy()
        else:
            self.C = np.stack(
                [static_weights(policy, net, s2) for net, s2 in zip(nets, sigma2)]
            )
        self._validate(COLUMN_SUM_TOL)

    # -- topology-dependent caches ------------------------------------

    def _rebuild_ranks(self) -> None:
        """Rank table of all T*n nodes: entry r pairs every node that has
        an r-th neighbor (ascending index, self included) with that
        neighbor, both as flat t*n + m indices."""
        t_count, n = self._support.shape[:2]
        hoods = np.swapaxes(self._support, 1, 2).reshape(t_count * n, n)
        nodes, nbrs = np.nonzero(hoods)  # row-major: neighbors ascending
        rank = (np.cumsum(hoods, axis=1) - 1)[nodes, nbrs]
        flat_nbrs = nbrs + (nodes // n) * n
        self._ranks = [
            (nodes[rank == r], flat_nbrs[rank == r]) for r in range(rank.max() + 1)
        ]

    # -- errors -------------------------------------------------------

    def _trial_error(self, t: int, what) -> NumericError:
        return NumericError(
            f"trial {self.first_trial + t}: iteration {self.iteration}: {what}"
        )

    def _blame(self, exc: NumericError, check, trials) -> None:
        """Re-run a batched check that failed one trial at a time, in
        ascending order, and raise the first trial's error by name."""
        for t in trials:
            try:
                check(t)
            except NumericError as sub:
                raise self._trial_error(t, sub) from exc
        raise exc

    def _validate(self, col_tol: float) -> None:
        try:
            validate_combination_matrix(self.C, self._support, col_tol)
        except NumericError as exc:
            self._blame(
                exc,
                lambda t: validate_combination_matrix(self.C[t], self._support[t], col_tol),
                range(len(self.nets)),
            )

    # -- the synchronous step -------------------------------------------

    def run_step(
        self, truths: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> "DiffusionKalmanEngine":
        """Advance every node of every trial one iteration.

        ``truths`` is (T, n_targets, 4); node m of trial t measures target
        cluster_of[m] of trial t. ``rngs`` holds one generator per trial,
        and each gives exactly one (n_nodes, 4) standard normal block per
        step regardless of policy or topology, which keeps
        common-random-number comparisons across policies honest.
        """
        truths = np.asarray(truths, dtype=np.float64)
        t_count, n = self.x_hat.shape[:2]
        if (
            truths.ndim != 3
            or truths.shape[0] != t_count
            or truths.shape[2] != STATE_DIM
            or self._targets.max() >= truths.shape[1]
        ):
            raise ConfigError(
                f"need one 4-state truth per cluster label and trial, got {truths.shape}"
            )
        if len(rngs) != t_count:
            raise ConfigError(f"need one random stream per trial, got {len(rngs)}")

        # Phase 1: measurements.
        noise = np.stack([rng.standard_normal((n, STATE_DIM)) for rng in rngs])
        target_states = truths[np.arange(t_count)[:, None], self._targets]
        y = target_states + np.sqrt(self.sigma2)[:, :, None] * noise
        bad = np.argwhere(~np.isfinite(y).all(axis=2))
        if bad.size:
            t, m = bad[0]
            raise self._trial_error(t, f"non-finite measurement at node {m}")

        # Phase 2: adaptation, batched across all nodes rank by rank.
        psi, p = self._adapt_all(y)
        self.psi, self.P_psi = psi, p
        self._track_psd(p)

        # Phase 3: residuals.
        self.q = y - psi

        # Phase 4: weight update (adaptive policy only).
        if self.policy == "adaptive":
            self.C = self._adaptive_weights(psi, self.q, y)

        # Phase 5: combination. Covariance is intentionally left alone.
        self._validate(COMBINE_COL_TOL)
        # x_hat = C^T psi. The product is taken with C^T copied to
        # contiguous memory: on a transposed view matmul rounds differently.
        self.x_hat = np.swapaxes(self.C, -1, -2).copy() @ psi

        # Phase 6: pruning (adaptive policy only). No count can reach the
        # window before that many steps have run.
        if self.prunes:
            self._below = count_below(self._below, self.C, self.prune_tau, self.prune_window)
            if self.iteration + 1 >= self.prune_window:
                self._prune()

        # Phase 7: time update.
        self.x_pred = self.x_hat @ self.model.F.T
        if self.filter_knows_gravity:
            self.x_pred = self.x_pred + self.model.u_g
        self.P_pred = symmetrize(
            self.model.F @ self.P_psi @ self.model.F.T + self._gqg
        )
        self._track_psd(self.P_pred)

        self.iteration += 1
        return self

    # -- internals --------------------------------------------------------

    def _adapt_all(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t_count, n = y.shape[:2]
        psi = self.x_pred.reshape(t_count * n, STATE_DIM).copy()
        p = self.P_pred.reshape(t_count * n, STATE_DIM, STATE_DIM).copy()
        y = y.reshape(t_count * n, STATE_DIM)
        sigma2 = self.sigma2.reshape(t_count * n)
        diag = np.arange(STATE_DIM)
        for m_idx, n_idx in self._ranks:
            p_v = p[m_idx]
            psi_v = psi[m_idx]
            r_e = p_v.copy()
            r_e[:, diag, diag] += sigma2[n_idx][:, None]
            try:
                r_inv = inverse_spd(r_e, role="innovation covariance")
            except NumericError as exc:
                trial_of = m_idx // n
                self._blame(
                    exc,
                    lambda t: inverse_spd(r_e[trial_of == t], role="innovation covariance"),
                    np.unique(trial_of),
                )
            innov = y[n_idx] - psi_v
            gain = np.swapaxes(p_v, -1, -2) @ r_inv
            psi[m_idx] = psi_v + (gain @ innov[:, :, None])[:, :, 0]
            p[m_idx] = symmetrize(p_v - gain @ p_v)
        return (
            psi.reshape(t_count, n, STATE_DIM),
            p.reshape(t_count, n, STATE_DIM, STATE_DIM),
        )

    def _adaptive_weights(
        self, psi: np.ndarray, q: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        # Entry [t, n, m] scores neighbor n's estimate against node m's own
        # data point psi_m + q_m; each column m is then normalized.
        d = np.maximum(np.sqrt(pairwise_sq_dist(psi, psi + q)), self.eps)
        usable = self._support & consistent_pairs(y, self.sigma2)
        w = np.where(usable, d**-2.0, 0.0)
        return w / w.sum(axis=1, keepdims=True)

    def _prune(self) -> None:
        changed = False
        for t, net in enumerate(self.nets):
            pruned = prune_cross_links(net, self._below[t], self.prune_window)
            if pruned is not net:
                self.nets[t] = pruned
                self._support[t] = pruned.adjacency | np.eye(net.n_nodes, dtype=bool)
                changed = True
        if changed:
            self._rebuild_ranks()

    def _track_psd(self, covs: np.ndarray) -> None:
        eigs = np.linalg.eigvalsh(symmetrize(covs))
        low = eigs.min(axis=(1, 2))
        # fmin skips a NaN minimum, as a plain comparison would.
        np.fmin(self.min_psd_eigenvalue, low, out=self.min_psd_eigenvalue)
        bad = np.flatnonzero(low < PSD_TOL)
        if bad.size:
            t = int(bad[0])
            raise self._trial_error(
                t,
                f"covariance lost positive semidefiniteness "
                f"(min eigenvalue {low[t]:.3e})",
            )
