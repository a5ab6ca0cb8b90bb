"""Adapt-then-combine diffusion Kalman filter engine.

One engine advances a batch of T independent Monte Carlo trials in
lockstep under one policy. Its state carries a leading trial axis:
estimates are (T, n, 4), covariances (T, n, 3), views of three planar
(T, n) rows, and combination matrices (T, n, n). The trials of a batch
share the node count and one ``ExperimentConfig``, from which the engine
reads the policy, the motion model and every filter setting; each trial
has its own network and noise levels. The networks are one stacked
``Network``, so static weights and each prune take one call for the
whole batch. The engine filters the measurements it is given; simulating
the targets and the sensors that produce them is the caller's job.

Each node talks only to its neighbors, so everything per link runs over
the stack's self-inclusive support as one edge list (``Network.edges``,
E edges, in order of trial, column node, row node) rather than over
(T, n, n) blocks: phase 2's neighborhood sums, phase 4's weights and
phase 6's counts and prune are (E,) arrays. A column sum is one
``np.bincount`` keyed by the column node, which adds each column's terms
in ascending row, the order in which an axis-1 sum of the dense stack
adds them, so the edge form gives the dense form's bits. Only C itself
stays (T, n, n): phase 5's product and the caller's snapshots read it.
Per-edge rows are gathered with ``np.take``, which gives the same array
as fancy indexing at about an eighth of its cost in numpy 2: phase 2
gathers the measurements y_n / sigma2_n per edge for the information
sums, and phase 4 gathers y at the two ends of each half edge.

What changes only with the topology is built once per topology, not per
step: a prune filters the edge list (``prune_cross_links``), and the
neighborhood sums of 1/sigma2 and the half edges' reverses and variances
are then gathered once. The adaptive policy writes each step's C^T into
one buffer the engine owns, so ``C`` holds the latest step's weights only.

Each product of a step runs at the width of the quantity it makes: a
per-node factor is applied once per node, not once per edge copy, and a
per-node product runs as one contiguous pass at the state width of 4,
not as a broadcast over a size-1 axis, which numpy runs as one short
inner loop per node. So each node's measurement is scaled by its
1/sigma2 once per step, before the per-edge gather, and each node's
1/sigma2 and neighborhood sum s and, once per step, M_psi's coefficients
are laid out 4 wide before the products that read them. The covariance
recursion runs on planar rows: a, b and c are each one contiguous (T, n)
row of a (3, T, n) array, updated in place, one pass per term. The
finiteness and PSD checks test the whole array at once and seek the
failing node only when one fails.

Each step has a half per topology and a half per policy. In information
form the covariance recursion never reads a measurement, and the
information sum reads only the measurements and the edge list, so on one
topology both are the same under every policy. They are held, with the
topology's edge arrays, the covariances' PSD checks and the min-PSD
record, by a ``SharedStep``, and engines of several policies on one
topology hold one between them (see ``DiffusionKalmanEngine.sharing``):
each step the first engine to reach a shared phase runs it and the
others read its result, so it runs once per step and fails, if it does,
in the same engine and phase as when each engine ran its own. A
standalone engine owns its ``SharedStep``. The static policies never
prune and share theirs for the whole run; the adaptive engine forks its
own copy at its first prune that cuts a link, the covariances and the
min-PSD record copied and the edge arrays gathered for the pruned
network, and from then on runs both halves alone. A later cut, like any
cut of a step one engine holds, gathers the edge arrays again in place.

Each node observes the full state with noise sigma2 * I, the model has
F = I + delta*theta and process noise q * I, and the prior is p0 * I, so
every covariance is M kron I2 for one 2x2 matrix M = [[a, b], [b, c]] over
(position, velocity); (a, b, c) is what is stored. Every iteration is a
synchronous bulk step over all nodes of all trials; each phase is marked
with the half it belongs to, and each covariance the step forms is checked
for positive semidefiniteness in the topology's half:

1. [topology] measurements: the step receives every node's measurement
   y, and a non-finite one stops the run, naming the node;
2. adaptation in information form (Cattivelli & Sayed, IEEE TAC 2010),
   in closed form. [topology] M_psi^-1 = M_pred^-1 + s I, with s the sum
   of 1/sigma2 over the neighborhood (self included), and the information
   sum sum_n y_n / sigma2_n; [policy]
   psi = x_pred + (M_psi kron I2)(sum_n y_n / sigma2_n - s x_pred);
3. [policy] residuals q = y - psi;
4. [policy] adaptive policy only: recompute all combination weight
   columns from the fresh psi snapshot. A neighbor whose measurement fails
   the chi-square consistency test against the node's own (see
   ``combiners.consistent_pairs``) gets zero weight at that step. The test
   is symmetric to the bit, so it runs on one direction of each link and
   is mirrored onto the other; both directions of such a link drop below
   the prune threshold together, and once phase 6 cuts the link phase 2
   stops fusing that neighbor's measurement. The weights are checked as
   they are made;
5. [policy] combination: convex blend of neighbor intermediates
   (covariance is NOT blended; each node keeps its own). A static C is
   checked at construction and then frozen, so no step checks it again;
6. [policy] adaptive policy only: link pruning, a per-link count of
   consecutive steps with weight below the threshold; a link is cut once
   both directions reach the window, in one ``prune_cross_links`` call
   over the network stack, and the surviving links keep their counts. A
   static policy keeps its initial graph. The first prune that cuts a
   link forks the adaptive engine's ``SharedStep`` when other engines
   hold it too;
7. time update: [policy] x_pred = F x_hat (plus gravity when the filter
   knows it); [topology] M becomes
   (a + delta(2b + delta c) + q, b + delta c, c + q).

Phases read only the previous phase's snapshot. Each sum over a
neighborhood adds its terms in ascending neighbor index, so a trial's
results are byte-identical whether it runs alone or with others. A step
that fails raises ``NumericError`` naming the trial and the iteration;
when several trials fail in the same phase of the same step, the
lowest-numbered one is named.

The module-level function ``adapt`` is the single-node reference form of
phase 2 in general 4x4 matrices; gate c2 and the tests hold the engine to
it.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

import numpy as np

from .combiners import (
    COLUMN_SUM_TOL,
    CombinationError,
    consistent_pairs,
    sq_dist,
    static_weights,
    validate_combination_matrix,
)
from .dynamics import STATE_DIM
from .errors import ConfigError, NumericError
from .numerics import inverse_spd, symmetrize
from .topology import Network, count_below, prune_cross_links

if TYPE_CHECKING:  # harness imports this module
    from .harness import ExperimentConfig

# Column-stochasticity slack tolerated at combine time (looser than the
# construction-time tolerance; rounding accumulates over a run).
COMBINE_COL_TOL = 1e-9

# PSD slack: covariance eigenvalues may dip this far below zero before the
# engine calls it a failure.
PSD_TOL = -1e-9

# A state's coordinates with its position and velocity halves swapped.
_HALVES_SWAPPED = np.array([2, 3, 0, 1])


def adapt(
    x_pred: np.ndarray,
    p_pred: np.ndarray,
    messages: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Sequential measurement updates for one node.

    ``messages`` holds (y, H, R) triples, which callers give in ascending
    neighbor index, the order of the engine's sums; this function processes
    them in the given order. An empty sequence returns the prediction unchanged.
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


class SharedStep:
    """The policy-independent half of every step on one network stack.

    ``net`` is a Network stack with (T, n, n) adjacency (see
    ``stack_scenes``) and ``sigma2`` (T, n); of ``cfg`` it reads the prior
    scale ``P0_scale`` and the motion model ``cfg.model``. It holds the
    topology's edge arrays, the covariances ``M_pred`` and ``M_psi``, the
    latest step's measurements ``y``, information sums ``info`` and blend
    coefficients ``k_own`` and ``k_cross``, and ``min_psd_eigenvalue``, the
    lowest covariance eigenvalue seen per trial. Each covariance is stored
    planar, its rows (a, b, c) one (3, T, n) array that each step updates
    in place; ``M_pred`` and ``M_psi`` are (T, n, 3) views of it, through
    which a write lands in the stored rows. ``done`` counts the halves run,
    two per step: ``adapt`` runs phases 1 and 2's shared part, and
    ``predict`` phase 7's. ``first_trial`` is the number of the batch's
    first trial; errors name trials counting from it.
    """

    def __init__(
        self, net: Network, sigma2: np.ndarray, cfg: ExperimentConfig, *, first_trial: int = 0
    ) -> None:
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
        self.sigma2 = sigma2
        # Each node's 1/sigma2 at the state width, which scales its
        # measurement once for every information sum it enters.
        self._inv4 = np.repeat((1.0 / sigma2)[..., None], STATE_DIM, axis=2)
        self.cfg = cfg
        # Covariances M kron I2, stored as the rows (a, b, c) = (m_pp, m_pv, m_vv).
        self._pred = np.zeros((3, t_count, n))
        self._pred[0] = self._pred[2] = cfg.P0_scale
        self._psi = self._pred.copy()
        self.min_psd_eigenvalue = np.full(t_count, np.inf)
        self.done = 0
        # The engines on this step.
        self.holders = 0
        self._adopt(net)

    @property
    def M_pred(self) -> np.ndarray:
        return self._pred.transpose(1, 2, 0)

    @M_pred.setter
    def M_pred(self, value: np.ndarray) -> None:
        self.M_pred[...] = value

    @property
    def M_psi(self) -> np.ndarray:
        return self._psi.transpose(1, 2, 0)

    def _adopt(self, net: Network) -> None:
        """Make ``net`` the topology: ``s`` [t, m] holds the sum of
        1/sigma2_n over node m's neighborhood, ``s2`` its square and ``s4``
        ``s`` repeated over the state's coordinates, (T, n, 4).
        ``_info_key`` keys the information sums, one bin per node and
        coordinate, for each coordinate of each edge (n, m) of
        ``net.edges``, edge after edge. For phase 4, ``back`` lists the
        reverses of the half edges, ``half_n`` and ``half_m`` number the
        nodes at their two ends over the stack, and ``sigma2_n`` and
        ``sigma2_m`` hold those nodes' variances."""
        self.net = net
        edges = net.edges
        w = np.take((1.0 / self.sigma2).ravel(), edges.source)
        self.s = np.bincount(edges.key, w).reshape(self.sigma2.shape)
        self.s2 = self.s * self.s
        self.s4 = np.repeat(self.s[..., None], STATE_DIM, axis=2)
        self._info_key = (STATE_DIM * edges.key[:, None] + np.arange(STATE_DIM)).ravel()
        self.back = np.take(edges.reverse, edges.half)
        sigma2 = self.sigma2.ravel()
        self.half_n = np.take(edges.source, edges.half)
        self.half_m = np.take(edges.key, edges.half)
        self.sigma2_n = np.take(sigma2, self.half_n)
        self.sigma2_m = np.take(sigma2, self.half_m)

    def cut_to(self, net: Network) -> SharedStep:
        """The shared step of an engine whose prune cut its topology to
        ``net``. Held by that engine alone, it is this one, with its edge
        arrays gathered for ``net``. Otherwise it is a copy on ``net``,
        which that engine holds in place of this one and which moves on
        apart: the covariances, which each step updates in place, and the
        min-PSD record are copied."""
        step = self
        if self.holders > 1:
            self.holders -= 1
            step = copy.copy(self)
            step.holders = 1
            step._pred, step._psi = self._pred.copy(), self._psi.copy()
            step.min_psd_eigenvalue = self.min_psd_eigenvalue.copy()
        step._adopt(net)
        return step

    def error(self, t: int, iteration: int, what) -> NumericError:
        return NumericError(f"trial {self.first_trial + t}: iteration {iteration}: {what}")

    def adapt(self, y: np.ndarray) -> None:
        """Phase 1 and phase 2's covariance update and information sums,
        on the step's measurements ``y``, (T, n, 4): node m of trial t
        measured y[t, m]."""
        # Phase 1: measurements, one finite 4-vector per node.
        y = np.asarray(y, dtype=np.float64)
        shape = self.sigma2.shape + (STATE_DIM,)
        if y.shape != shape:
            raise ConfigError(f"measurements must have shape {shape}, got {y.shape}")
        if not np.isfinite(y).all():
            t, m = np.argwhere(~np.isfinite(y).all(axis=2))[0]
            raise self.error(t, self.done // 2, f"non-finite measurement at node {m}")
        self.y = y

        # Phase 2, in closed information form, row by row of the planar
        # covariances.
        s, s2, m_pred = self.s, self.s2, self._pred
        a, b, c = m_pred
        # A huge covariance overflows here; the check below names it, so
        # numpy need not warn first.
        with np.errstate(over="ignore", invalid="ignore"):
            det = a * c
            det -= b * b
            # s^2 det(M_pred + I/s): with 1 + s*a > 0, the innovation covariance
            # M_pred + I/s is positive definite exactly when this is positive.
            den = a + c
            den *= s
            den += 1.0
            den += s2 * det
            ok = s * a
            ok += 1.0
            ok = ok > 0.0
            ok &= den > 0.0
            # An infinite entry can pass the tests of ok, so finiteness is
            # checked apart, flat; the node is sought only once a check fails.
            if not (ok.all() and np.isfinite(m_pred).all()):
                t, m = np.argwhere(~(ok & np.isfinite(m_pred).all(axis=0)))[0]
                if np.isfinite(m_pred[:, t, m]).all():
                    what = f"innovation covariance at node {m} is not positive definite"
                else:
                    what = f"predicted covariance at node {m} has non-finite entries"
                raise self.error(t, self.done // 2, what)
            m_psi = self._psi
            # s det, which a and c both take.
            s_det = np.multiply(det, s, out=det)
            np.add(a, s_det, out=m_psi[0])
            m_psi[0] /= den
            np.divide(b, den, out=m_psi[1])
            np.add(c, s_det, out=m_psi[2])
            m_psi[2] /= den
        # The coefficients of every engine's blend at the state width:
        # (a, a, c, c) on each coordinate of r and b on its partner in the
        # other half.
        self.k_own = self.M_psi[..., [0, 0, 2, 2]]
        self.k_cross = np.repeat(m_psi[1][..., None], STATE_DIM, axis=2)
        # Information vector sum_n y_n / sigma2_n over each neighborhood:
        # each node's scaled measurement, gathered per edge by its source.
        y_w = (y * self._inv4).reshape(-1, STATE_DIM)
        y_src = np.take(y_w, self.net.edges.source, axis=0)
        self.info = np.bincount(self._info_key, y_src.ravel()).reshape(y.shape)
        self._track_psd(m_psi, "adapted covariance")
        self.done += 1

    def predict(self) -> None:
        """Phase 7's covariance time update."""
        a, b, c = self._psi
        model = self.cfg.model
        d, q = model.delta, model.process_noise_var
        # M_pred = (a + delta(2b + delta c) + q, b + delta c, c + q).
        m_pred = self._pred
        d_c = d * c
        row = np.multiply(b, 2.0, out=m_pred[0])
        row += d_c
        row *= d
        np.add(a, row, out=row)
        row += q
        np.add(b, d_c, out=m_pred[1])
        np.add(c, q, out=m_pred[2])
        self._track_psd(m_pred, "predicted covariance")
        self.done += 1

    def _track_psd(self, cov: np.ndarray, name: str) -> None:
        # The lower eigenvalue 0.5 (a + c) - hypot(0.5 (a - c), b) of each
        # node's M, from the planar rows ``cov``.
        a, b, c = cov
        low = a + c
        low *= 0.5
        gap = a - c
        gap *= 0.5
        low -= np.hypot(gap, b, out=gap)
        low_t = low.min(axis=1)
        # The record skips a NaN minimum; the check below does not.
        np.fmin(self.min_psd_eigenvalue, low_t, out=self.min_psd_eigenvalue)
        if not (low_t >= PSD_TOL).all():
            t = int(np.flatnonzero(~(low_t >= PSD_TOL))[0])
            m = int(np.flatnonzero(~(low[t] >= PSD_TOL))[0])
            if np.isnan(low[t, m]):
                what = f"{name} at node {m} has non-finite entries"
            else:
                what = (
                    f"{name} at node {m} lost positive semidefiniteness "
                    f"(min eigenvalue {low[t, m]:.3e})"
                )
            raise self.error(t, self.done // 2, what)


class DiffusionKalmanEngine:
    """Synchronous multi-node filter over T trials, each on its own
    network.

    ``net`` is a Network stack with (T, n, n) adjacency (see
    ``stack_scenes``) and ``sigma2`` (T, n). Every other setting comes
    from ``cfg``, a ``harness.ExperimentConfig``, which has checked it:
    the policy, the prior scale ``P0_scale``, the distance floor ``eps``,
    the prune threshold, window and switch, the gravity switch and the
    motion model ``cfg.model``. ``pruning_enabled`` only affects the
    adaptive policy: static policies never prune. ``first_trial`` is the
    number of the batch's first trial; errors name trials counting from it.
    The engine owns the ``SharedStep`` it builds from these; ``sharing``
    builds the engines of several policies on one.

    Under the adaptive policy ``C`` is a view of one buffer that each
    ``run_step`` overwrites with that step's weights; a caller that keeps
    a step's C must copy it. A static policy's C is checked at
    construction and then read-only, so it may be kept as it is.
    """

    def __init__(
        self, net: Network, sigma2: np.ndarray, cfg: ExperimentConfig, *, first_trial: int = 0
    ) -> None:
        self._join(SharedStep(net, sigma2, cfg, first_trial=first_trial), cfg)

    @classmethod
    def sharing(
        cls, net: Network, sigma2: np.ndarray, cfgs, *, first_trial: int = 0
    ) -> list[DiffusionKalmanEngine]:
        """One engine per config of ``cfgs``, configs that differ in the
        policy alone, all on one ``SharedStep`` built from ``cfgs[0]``.
        They step in lockstep: each is given the same measurements each
        step. Only the engines hold the shared step, so it is freed once
        none of them does."""
        shared = SharedStep(net, sigma2, cfgs[0], first_trial=first_trial)
        engines = [cls.__new__(cls) for _ in cfgs]
        for engine, cfg in zip(engines, cfgs):
            engine._join(shared, cfg)
        return engines

    def _join(self, shared: SharedStep, cfg: ExperimentConfig) -> None:
        self.shared = shared
        shared.holders += 1
        self.cfg = cfg
        net = shared.net
        t_count, n = shared.sigma2.shape
        self.x_pred = np.zeros((t_count, n, STATE_DIM))
        self.psi = self.x_pred.copy()
        self.q = self.x_pred.copy()
        self.x_hat = self.x_pred.copy()
        self.iteration = 0
        # One count per edge. Counts never exceed the window, so the
        # smallest type holding it will do.
        self._below = np.zeros(len(net.edges), dtype=np.min_scalar_type(cfg.prune_window))

        if cfg.policy == "adaptive":
            c = np.broadcast_to(np.eye(n), (t_count, n, n))
        else:
            c = static_weights(cfg.policy, net, shared.sigma2)
        # The support is checked here, once: every later C is built on the
        # edges. A static C is then frozen, so no step need check it again.
        self._c_t = np.swapaxes(c, -1, -2).copy()
        self._validate(self.C, net, COLUMN_SUM_TOL)
        self._c_t.flags.writeable = cfg.policy == "adaptive"
        # Flat indices into C^T of the links the last prune cut, which the
        # next weight update zeroes.
        self._cut = np.empty(0, dtype=np.intp)

    @property
    def C(self) -> np.ndarray:
        """The combination matrices, (T, n, n): the transposed view of a
        contiguous C^T, the operand of phase 5's product, which the
        adaptive policy overwrites each step and a static policy freezes."""
        return np.swapaxes(self._c_t, -1, -2)

    # -- the shared half, as the engine sees it --------------------------

    @property
    def net(self) -> Network:
        return self.shared.net

    @property
    def sigma2(self) -> np.ndarray:
        return self.shared.sigma2

    @property
    def M_pred(self) -> np.ndarray:
        return self.shared.M_pred

    @M_pred.setter
    def M_pred(self, value: np.ndarray) -> None:
        self.shared.M_pred = value

    @property
    def M_psi(self) -> np.ndarray:
        return self.shared.M_psi

    @property
    def min_psd_eigenvalue(self) -> np.ndarray:
        return self.shared.min_psd_eigenvalue

    def _validate(self, c: np.ndarray, support, col_tol: float) -> None:
        try:
            validate_combination_matrix(c, support, col_tol)
        except CombinationError as exc:
            raise self.shared.error(exc.trial, self.iteration, exc) from None

    # -- the synchronous step -------------------------------------------

    def run_step(self, y: np.ndarray) -> "DiffusionKalmanEngine":
        """Advance every node of every trial one iteration on the step's
        measurements ``y``, (T, n, 4): node m of trial t measured y[t, m].
        """
        # Phases 1 and 2, per topology: run by the first engine on the
        # shared half to reach them this step.
        shared, j = self.shared, self.iteration
        if shared.done == 2 * j:
            shared.adapt(y)

        # Phase 2, per policy: psi = x_pred + (M_psi kron I2) r, with
        # r = info - s x_pred, as products at the state width: the
        # position half is a r_pos + b r_vel and the velocity half
        # c r_vel + b r_pos, which rounds as b r_pos + c r_vel does, IEEE
        # addition being commutative.
        x_pred = self.x_pred
        r = shared.info - shared.s4 * x_pred
        psi = x_pred + (shared.k_own * r + shared.k_cross * r[..., _HALVES_SWAPPED])
        self.psi = psi

        # Phase 3: residuals.
        self.q = shared.y - psi

        # Phase 4: weight update (adaptive policy only), checked as made.
        cfg = self.cfg
        if cfg.policy == "adaptive":
            weights = self._adaptive_weights(psi, self.q)
            self._validate(weights, shared.net.edges, COMBINE_COL_TOL)

        # Phase 5: combination. Covariance is intentionally left alone.
        # x_hat = C^T psi, the product taken with C^T in contiguous memory:
        # on a transposed view matmul rounds differently. The engine holds
        # C as a view of such a C^T, so nothing is copied.
        self.x_hat = self._c_t @ psi

        # Phase 6: pruning (adaptive policy only). No count can reach the
        # window before that many steps have run.
        if cfg.policy == "adaptive" and cfg.pruning_enabled:
            self._below = count_below(self._below, weights, cfg.prune_tau, cfg.prune_window)
            if j + 1 >= cfg.prune_window:
                self._prune()

        # Phase 7: time update, the estimate per policy and the covariance
        # per topology. A prune may have forked the shared half.
        model = cfg.model
        self.x_pred = self.x_hat @ model.F.T
        if cfg.filter_knows_gravity:
            self.x_pred = self.x_pred + model.u_g
        if self.shared.done == 2 * j + 1:
            self.shared.predict()

        self.iteration += 1
        return self

    # -- internals --------------------------------------------------------

    def _adaptive_weights(self, psi: np.ndarray, q: np.ndarray) -> np.ndarray:
        # Edge (n, m) scores neighbor n's estimate against node m's own
        # data point psi_m + q_m; each column m is then normalized. The
        # (E,) weights are returned, and overwrite the edges' entries of
        # the engine's C^T buffer, of which C is the transposed view. Its other entries are zero
        # once the links of the last prune are: they are zeroed here, not
        # at the prune, so that the pruning step's C keeps its weights.
        c_t = self._c_t.reshape(-1)
        c_t[self._cut] = 0.0
        self._cut = self._cut[:0]
        shared = self.shared
        edges = shared.net.edges
        n, m = edges.source, edges.key
        psi, own = psi.reshape(-1, STATE_DIM), (psi + q).reshape(-1, STATE_DIM)
        d = np.sqrt(sq_dist(np.take(psi, n, axis=0), np.take(own, m, axis=0)))
        d = np.maximum(d, self.cfg.eps)
        # The consistency test is symmetric to the bit, so it runs on one
        # direction of each link, on the measurements y_n and y_m at its
        # two ends, and is mirrored onto the other. A self-edge passes,
        # its measurement being finite.
        half, back, y = edges.half, shared.back, shared.y.reshape(-1, STATE_DIM)
        agree = consistent_pairs(
            np.take(y, shared.half_n, axis=0),
            np.take(y, shared.half_m, axis=0),
            shared.sigma2_n,
            shared.sigma2_m,
        )
        usable = edges.is_self.copy()
        usable[half] = agree
        usable[back] = agree
        w = np.where(usable, d**-2.0, 0.0)
        w /= np.take(np.bincount(m, w), m)
        c_t[edges.flat_t] = w
        return w

    def _prune(self) -> None:
        shared = self.shared
        pruned = prune_cross_links(shared.net, self._below, self.cfg.prune_window)
        if pruned is not shared.net:
            # A prune only removes edges, and both lists keep one order, so
            # the survivors' counts carry over in place.
            keep = pruned.edges.keep
            self._below = self._below[keep]
            self._cut = shared.net.edges.flat_t[~keep]
            self.shared = shared.cut_to(pruned)
