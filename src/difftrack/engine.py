"""Adapt-then-combine diffusion Kalman filter engine.

One engine advances a batch of T independent Monte Carlo trials in
lockstep. Its state carries a leading trial axis: estimates are (T, n, 4),
covariances (T, n, 3) and combination matrices (T, n, n). The trials of a
batch share the node count, the motion model and the policy; each has its
own network and noise levels. The networks are one stacked ``Network``,
so static weights and each prune take one call for the whole batch. The
engine filters the measurements it is given; simulating the targets and
the sensors that produce them is the caller's job.

Each node talks only to its neighbors, so everything per link runs over
the stack's self-inclusive support as one edge list (``Network.edges``,
E edges, in order of trial, column node, row node) rather than over
(T, n, n) blocks: phase 2's neighborhood sums, phase 4's weights and
phase 6's counts and prune are (E,) arrays. A column sum is one
``np.bincount`` keyed by the column node, which adds each column's terms
in ascending row, the order in which an axis-1 sum of the dense stack
adds them, so the edge form gives the dense form's bits. Only C itself
stays (T, n, n): phase 5's product and the caller's snapshots read it.

Each node observes the full state with noise sigma2 * I, the model has
F = I + delta*theta and process noise q * I, and the prior is p0 * I, so
every covariance is M kron I2 for one 2x2 matrix M = [[a, b], [b, c]] over
(position, velocity); the engine stores (a, b, c). Every iteration is a
synchronous bulk step over all nodes of all trials:

1. measurements: the step receives every node's measurement y, and a
   non-finite one stops the run, naming the node;
2. adaptation in information form (Cattivelli & Sayed, IEEE TAC 2010),
   in closed form: M_psi^-1 = M_pred^-1 + s I, with s the sum of 1/sigma2
   over the neighborhood (self included), and
   psi = x_pred + (M_psi kron I2)(sum_n y_n / sigma2_n - s x_pred);
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
   directions reach the window, in one ``prune_cross_links`` call over the
   network stack, and the surviving links keep their counts. A static
   policy keeps its initial graph and the combination matrix built for it
   at construction;
7. time update: M becomes (a + delta(2b + delta c) + q, b + delta c, c + q).

Phases read only the previous phase's snapshot. Each sum over a
neighborhood adds its terms in ascending neighbor index, so a trial's
results are byte-identical whether it runs alone or with others. A step
that fails raises ``NumericError`` naming the trial and the iteration;
when several trials fail in the same phase of the same step, the
lowest-numbered one is named.

The module-level functions adapt/residual/combine/time_update are the
single-node reference forms in general 4x4 matrices; tests hold the engine
to them.
"""

from __future__ import annotations

import numpy as np

from .combiners import (
    COLUMN_SUM_TOL,
    POLICIES,
    CombinationError,
    consistent_pairs,
    sq_dist,
    static_weights,
    validate_combination_matrix,
)
from .dynamics import STATE_DIM, MotionModel
from .errors import ConfigError, NumericError
from .numerics import inverse_spd, symmetrize
from .topology import Network, count_below, prune_cross_links

# Column-stochasticity slack tolerated at combine time (looser than the
# construction-time tolerance; rounding accumulates over a run).
COMBINE_COL_TOL = 1e-9

# PSD slack: covariance eigenvalues may dip this far below zero before the
# engine calls it a failure.
PSD_TOL = -1e-9


def adapt(
    x_pred: np.ndarray,
    p_pred: np.ndarray,
    messages: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
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

    ``net`` is a Network stack with (T, n, n) adjacency (see
    ``stack_scenes``) and ``sigma2`` (T, n). ``first_trial`` is the number
    of the batch's first trial; errors name trials counting from it.
    ``pruning_enabled`` only affects the adaptive policy: static policies
    never prune.
    """

    def __init__(
        self,
        net: Network,
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
        if net.adjacency.ndim != 3 or not net.adjacency.shape[0]:
            raise ConfigError("the engine needs a stack of networks, one per trial")
        t_count, n = net.adjacency.shape[:2]
        sigma2 = np.asarray(sigma2, dtype=np.float64)
        if sigma2.shape != (t_count, n):
            raise ConfigError(
                f"sigma2 must have shape ({t_count}, {n}), got {sigma2.shape}"
            )
        self.first_trial = int(first_trial)
        # Every edge weight is formed from 1/sigma2, so this comes first.
        bad = np.argwhere(~(sigma2 > 0.0))
        if bad.size:
            t, m = bad[0]
            raise ConfigError(
                f"trial {self.first_trial + t}: measurement variance at node {m} "
                f"must be positive, got {float(sigma2[t, m])!r}"
            )
        if p0_scale <= 0.0:
            raise ConfigError(f"initial covariance scale must be positive, got {p0_scale}")
        self.model = model
        self.sigma2 = sigma2
        self.policy = policy
        self.eps = float(eps)
        self.prune_tau = float(prune_tau)
        self.prune_window = int(prune_window)
        self.prunes = policy == "adaptive" and bool(pruning_enabled)
        self.filter_knows_gravity = bool(filter_knows_gravity)

        shape = (t_count, n, STATE_DIM)
        self.x_pred = np.zeros(shape)
        # Covariances M kron I2, stored as (a, b, c) = (m_pp, m_pv, m_vv).
        self.M_pred = np.zeros((t_count, n, 3))
        self.M_pred[..., 0] = self.M_pred[..., 2] = p0_scale
        self.psi = self.x_pred.copy()
        self.M_psi = self.M_pred.copy()
        self.q = np.zeros(shape)
        self.x_hat = np.zeros(shape)

        self.iteration = 0
        self.min_psd_eigenvalue = np.full(t_count, np.inf)
        self._adopt(net)
        # One count per edge. Counts never exceed the window, so the
        # smallest type holding it will do.
        self._below = np.zeros(len(net.edges), dtype=np.min_scalar_type(self.prune_window))

        if policy == "adaptive":
            c = np.broadcast_to(np.eye(n), (t_count, n, n))
        else:
            c = static_weights(policy, net, sigma2)
        # C is held as the transposed view of a contiguous C^T, the operand
        # of phase 5's product. The support is checked here, once: every
        # later C is built on the edges.
        self.C = np.swapaxes(np.swapaxes(c, -1, -2).copy(), -1, -2)
        self._validate(self.C, net, COLUMN_SUM_TOL)

    # -- topology-dependent caches ------------------------------------

    def _adopt(self, net: Network) -> None:
        """Make ``net`` the topology: ``_w`` holds 1/sigma2_n on each edge
        (n, m) of ``net.edges``, ``_s`` [t, m] its sum over node m's
        neighborhood, and ``_info_key`` keys the information sums, one bin
        per node and coordinate."""
        self.net = net
        edges = net.edges
        self._w = (1.0 / self.sigma2).ravel()[edges.source]
        self._s = np.bincount(edges.key, self._w).reshape(self.sigma2.shape)
        self._info_key = (STATE_DIM * edges.key[:, None] + np.arange(STATE_DIM)).ravel()

    # -- errors -------------------------------------------------------

    def _trial_error(self, t: int, what) -> NumericError:
        return NumericError(
            f"trial {self.first_trial + t}: iteration {self.iteration}: {what}"
        )

    def _validate(self, c: np.ndarray, support, col_tol: float) -> None:
        try:
            validate_combination_matrix(c, support, col_tol)
        except CombinationError as exc:
            raise self._trial_error(exc.trial, exc) from None

    # -- the synchronous step -------------------------------------------

    def run_step(self, y: np.ndarray) -> "DiffusionKalmanEngine":
        """Advance every node of every trial one iteration on the step's
        measurements ``y``, (T, n, 4): node m of trial t measured y[t, m].
        """
        # Phase 1: measurements, one finite 4-vector per node.
        y = np.asarray(y, dtype=np.float64)
        if y.shape != self.x_hat.shape:
            raise ConfigError(
                f"measurements must have shape {self.x_hat.shape}, got {y.shape}"
            )
        bad = np.argwhere(~np.isfinite(y).all(axis=2))
        if bad.size:
            t, m = bad[0]
            raise self._trial_error(t, f"non-finite measurement at node {m}")

        # Phase 2: adaptation, in closed information form.
        psi, self.M_psi = self._adapt_all(y)
        self.psi = psi
        self._track_psd(self.M_psi, "adapted covariance")

        # Phase 3: residuals.
        self.q = y - psi

        # Phase 4: weight update (adaptive policy only).
        if self.policy == "adaptive":
            self.C = self._adaptive_weights(psi, self.q, y)

        # Phase 5: combination. Covariance is intentionally left alone.
        # x_hat = C^T psi, the product taken with C^T in contiguous memory:
        # on a transposed view matmul rounds differently. The engine's own
        # C is a view of such a C^T, so nothing is copied.
        c_t = np.ascontiguousarray(np.swapaxes(self.C, -1, -2))
        weights = c_t.ravel()[self.net.edges.flat_t]
        self._validate(weights, self.net.edges, COMBINE_COL_TOL)
        self.x_hat = c_t @ psi

        # Phase 6: pruning (adaptive policy only). No count can reach the
        # window before that many steps have run.
        if self.prunes:
            self._below = count_below(self._below, weights, self.prune_tau, self.prune_window)
            if self.iteration + 1 >= self.prune_window:
                self._prune()

        # Phase 7: time update.
        self.x_pred = self.x_hat @ self.model.F.T
        if self.filter_knows_gravity:
            self.x_pred = self.x_pred + self.model.u_g
        a, b, c = np.moveaxis(self.M_psi, -1, 0)
        d, q = self.model.delta, self.model.process_noise_var
        self.M_pred = np.stack([a + d * (2.0 * b + d * c) + q, b + d * c, c + q], axis=-1)
        self._track_psd(self.M_pred, "predicted covariance")

        self.iteration += 1
        return self

    # -- internals --------------------------------------------------------

    def _adapt_all(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s, x_pred = self._s, self.x_pred
        a, b, c = np.moveaxis(self.M_pred, -1, 0)
        # A huge covariance overflows here; the check below names it, so
        # numpy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            det = a * c - b * b
            # s^2 det(M_pred + I/s): with 1 + s*a > 0, the innovation covariance
            # M_pred + I/s is positive definite exactly when this is positive.
            den = 1.0 + s * (a + c) + s * s * det
            ok = np.isfinite(self.M_pred).all(axis=2) & (1.0 + s * a > 0.0) & (den > 0.0)
            m_psi = np.stack([(a + s * det) / den, b / den, (c + s * det) / den], axis=-1)
        if not ok.all():
            t, m = np.argwhere(~ok)[0]
            if np.isfinite(self.M_pred[t, m]).all():
                what = f"innovation covariance at node {m} is not positive definite"
            else:
                what = f"predicted covariance at node {m} has non-finite entries"
            raise self._trial_error(t, what)

        # Information vector sum_n y_n / sigma2_n over each neighborhood,
        # less s * x_pred.
        terms = self._w[:, None] * y.reshape(-1, STATE_DIM)[self.net.edges.source]
        info = np.bincount(self._info_key, terms.ravel()).reshape(x_pred.shape)
        r = info - s[:, :, None] * x_pred
        r_pos, r_vel = r[..., :2], r[..., 2:]
        a, b, c = (m_psi[..., k, None] for k in range(3))
        psi = x_pred + np.concatenate([a * r_pos + b * r_vel, b * r_pos + c * r_vel], axis=-1)
        return psi, m_psi

    def _adaptive_weights(
        self, psi: np.ndarray, q: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        # Edge (n, m) scores neighbor n's estimate against node m's own
        # data point psi_m + q_m; each column m is then normalized. The
        # weights go into a fresh C^T, and C is its transposed view.
        edges = self.net.edges
        n, m = edges.source, edges.key
        psi, own = psi.reshape(-1, STATE_DIM), (psi + q).reshape(-1, STATE_DIM)
        d = np.maximum(np.sqrt(sq_dist(psi[n], own[m])), self.eps)
        y, sigma2 = y.reshape(-1, STATE_DIM), self.sigma2.ravel()
        w = np.where(consistent_pairs(y[n], y[m], sigma2[n], sigma2[m]), d**-2.0, 0.0)
        c_t = np.zeros(self.C.shape)
        c_t.ravel()[edges.flat_t] = w / np.bincount(m, w)[m]
        return np.swapaxes(c_t, -1, -2)

    def _prune(self) -> None:
        edges = self.net.edges
        pruned = prune_cross_links(self.net, self._below, self.prune_window)
        if pruned is not self.net:
            # A prune only removes edges, and both lists keep one order, so
            # the survivors' counts carry over in place.
            kept = pruned.adjacency.ravel()[edges.flat] | edges.is_self
            self._below = self._below[kept]
            self._adopt(pruned)

    def _track_psd(self, cov: np.ndarray, name: str) -> None:
        a, b, c = np.moveaxis(cov, -1, 0)
        low = 0.5 * (a + c) - np.hypot(0.5 * (a - c), b)
        low_t = low.min(axis=1)
        # The record skips a NaN minimum; the check below does not.
        np.fmin(self.min_psd_eigenvalue, low_t, out=self.min_psd_eigenvalue)
        bad = np.flatnonzero(~(low_t >= PSD_TOL))
        if bad.size:
            t = int(bad[0])
            m = int(np.flatnonzero(~(low[t] >= PSD_TOL))[0])
            if np.isnan(low[t, m]):
                what = f"{name} at node {m} has non-finite entries"
            else:
                what = (
                    f"{name} at node {m} lost positive semidefiniteness "
                    f"(min eigenvalue {low[t, m]:.3e})"
                )
            raise self._trial_error(t, what)
