"""Adapt-then-combine diffusion Kalman filter engine.

One engine advances a batch of T independent Monte Carlo trials in
lockstep under P policies. What depends on the policy carries a leading
policy axis and then a trial axis: estimates are (P, T, n, 4) and
combination matrices (P, T, n, n). What does not carries the trial axis
alone: covariances are (T, n, 3), views of three planar (T, n) rows. The
trials of a batch share the node count, and the policies one
``ExperimentConfig`` but for the policy, from which the engine reads the
motion model and every filter setting; each trial has its own network
and noise levels. The networks are one stacked ``Network``, so a static
policy's weights and each prune take one call for the whole batch. The
engine filters the measurements it is given; simulating the targets and
the sensors that produce them is the caller's job.

Each node talks only to its neighbors, so everything per link runs over
the stack's self-inclusive support as one edge list (``Network.edges``,
E edges, in order of trial, column node, row node) rather than over
(T, n, n) blocks: phase 2's sums of 1/sigma2, phase 3's weights and
phase 5's counts and prune are (E,) arrays. A column sum is one
``np.bincount`` keyed by the column node, which adds each column's terms
in ascending row, the order in which an axis-1 sum of the dense stack
adds them, so the edge form gives the dense form's bits. Two operands
stay dense, each read by one batched product: C^T, (P, T, n, n), by
phase 4's C^T @ psi and the caller's snapshots, and W, (T, n, n),
1/sigma2_n on the support, by phase 2's information sums W @ y. Both are scattered from (E,)
weights on the edges into a zeroed buffer, so they lie on the support by
construction. A static policy's C comes from ``combiners.static_weights``
and the adaptive policy's starts as the identity, each checked in edge
form. Per-edge rows are gathered with ``np.take``, which gives the same
array as fancy indexing at about an eighth of its cost in numpy 2:
phase 3 gathers psi_n and y_m for each edge (n, m) and y at the two ends
of each half edge.

What changes only with the topology is built once per topology, not per
step: a prune filters the edge list (``prune_cross_links``), and the
neighborhood sums of 1/sigma2, W and the half edges' reverses and
variances are then formed once, W in its own buffer. The adaptive policy
writes each step's C^T into one buffer the engine owns, so ``C`` holds
the latest step's weights only.

A per-node product runs as one contiguous pass at the state width of 4,
not as a broadcast over a size-1 axis, which numpy runs as one short
inner loop per node: each node's neighborhood sum s and, once per step,
M_psi's coefficients are laid out 4 wide before the products that read
them. The covariance recursion runs on planar rows: a, b and c are each
one contiguous (T, n) row of a (3, T, n) array, updated in place, one
pass per term. The finiteness and PSD checks test the whole array at
once and seek the failing node only when one fails.

Each step has a half per topology and a half per policy. In information
form the covariance recursion never reads a measurement, and the
information sum reads only the measurements and W, so on one topology
both are the same under every policy: the engine runs them, with the
covariances' PSD checks and the min-PSD record, once per step for all its
policies, and the half per policy runs over the policy axis. Only the
adaptive policy changes its C each step and cuts links, so it has an
engine of its own (P = 1), whether it prunes or not; the static policies
of a sweep share one, whose C is frozen. A cut gathers the engine's edge
arrays again and refills its W in place.

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
   sum sum_n y_n / sigma2_n, a non-finite one stopping the run; [policy]
   psi = x_pred + (M_psi kron I2)(sum_n y_n / sigma2_n - s x_pred);
3. [policy] adaptive policy only: recompute all combination weight
   columns from the fresh psi snapshot. Node m weighs neighbor n (itself
   included) by 1 / max(||psi_n - y_m||^2, eps^2), the inverse squared
   distance from n's intermediate estimate to m's own measurement, and
   each column is normalized (Zhao & Sayed, "Clustering via diffusion
   adaptation over networks", 2012). A neighbor whose measurement fails
   the chi-square consistency test against the node's own (see
   ``combiners.consistent_pairs``) gets zero weight at that step. The test
   is symmetric to the bit, so it runs on one direction of each link and
   is mirrored onto the other; both directions of such a link drop below
   the prune threshold together, and once phase 5 cuts the link phase 2
   stops fusing that neighbor's measurement. A squared distance that
   overflows gives weight 0, and a column left with no weight at all
   stops the run, naming the node. Each edge's difference psi_n - y_m is
   formed and squared in the gather of psi_n, the weights are formed in
   place on the squared distances, and the few links that fail the test
   are zeroed by index, so the step builds no full-length mask. The
   weights are checked as made, the whole array at once, the failing
   column sought only when a check fails;
4. [policy] combination: convex blend of neighbor intermediates
   (covariance is NOT blended; each node keeps its own). A static C is
   checked at construction and then frozen, so no step checks it again;
5. [policy] adaptive policy only: link pruning, a per-link count of
   consecutive steps with weight below the threshold; a link is cut once
   both directions reach the window, in one ``prune_cross_links`` call
   over the network stack, and the surviving links keep their counts.
   The counts advance in place, and the prune reads the reverses of only
   the edges whose count reached the window. A static policy keeps its
   initial graph. A cut re-gathers the edge arrays and refills W;
6. time update: [policy] x_pred = F x_hat (plus gravity when the filter
   knows it); [topology] M becomes
   (a + delta(2b + delta c) + q, b + delta c, c + q).

Phases read only the previous phase's snapshot. Each bincount sum over a
neighborhood adds its terms in ascending neighbor index, and each batched
product computes the matrix of every policy and trial on its own, so a
trial's results are byte-identical whether it runs alone or with others,
and a policy's whether it runs alone or beside other policies. A step
that fails raises ``NumericError`` naming the trial and the iteration;
when several trials fail in the same phase of the same step, the
lowest-numbered one is named.

The module-level function ``adapt`` is the single-node reference form of
phase 2 in general 4x4 matrices; gate c2 and the tests hold the engine to
it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .combiners import (
    COLUMN_SUM_TOL,
    CombinationError,
    consistent_pairs,
    static_weights,
    sum_squares,
    validate_combination_matrix,
)
from .dynamics import STATE_DIM
from .errors import ConfigError, NumericError
from .numerics import inverse_spd, symmetrize
from .topology import Network, count_below, prune_cross_links

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


def policy_configs(cfgs) -> tuple:
    """``cfgs`` as a tuple, refused with a ``ConfigError`` when it is empty
    or when two configs differ in anything but the policy, naming the first
    differing key in field order."""
    cfgs = tuple(cfgs)
    if not cfgs:
        raise ConfigError("the engine needs at least one policy")
    for other in cfgs[1:]:
        for key in dataclasses.fields(cfgs[0]):
            if key.name != "policy" and getattr(other, key.name) != getattr(cfgs[0], key.name):
                raise ConfigError(
                    f"the engine's configs may differ only in the policy, "
                    f"but they differ in key '{key.name}'"
                )
    return cfgs


class DiffusionKalmanEngine:
    """Synchronous multi-node filter over T trials, each on its own
    network, under P policies.

    ``net`` is a Network stack with (T, n, n) adjacency (see
    ``stack_scenes``) and ``sigma2`` (T, n). ``cfgs`` lists one
    ``harness.ExperimentConfig`` per policy, in the order of the policy
    axis, which ``policies`` names. The configs may differ in the policy
    alone, and the adaptive policy stands alone (``adaptive``); anything
    else is refused with a ``ConfigError``. Every other setting comes from
    ``cfg``, the first of them, which has checked it: the prior scale ``P0_scale``, the distance
    floor ``eps``, the prune threshold, window and switch, the gravity
    switch and the motion model ``cfg.model``. ``pruning_enabled`` only
    affects the adaptive policy: static policies never prune.
    ``first_trial`` is the number of the batch's first trial; errors name
    trials counting from it.

    Of the topology the engine holds ``net``, its edge arrays and its
    (T, n, n) matrix ``W`` of 1/sigma2 on the support (see ``_adopt``).
    Each step it holds the measurements ``y``, the information sums
    ``info`` and the blend coefficients ``k_own`` and ``k_cross``, and it
    keeps ``min_psd_eigenvalue``, the lowest covariance eigenvalue seen
    per trial. Each covariance is stored planar, its rows (a, b, c) one
    (3, T, n) array that each step updates in place; ``M_pred`` and
    ``M_psi`` are (T, n, 3) views of it, through which a write lands in
    the stored rows.

    Under the adaptive policy ``C`` is a view of one buffer that each
    ``run_step`` overwrites with that step's weights; a caller that keeps
    a step's C must copy it. A static policy's C is checked at
    construction and then read-only, so it may be kept as it is.
    """

    def __init__(self, net: Network, sigma2: np.ndarray, cfgs, *, first_trial: int = 0) -> None:
        cfgs = policy_configs(cfgs)
        cfg = cfgs[0]
        self.policies = tuple(c.policy for c in cfgs)
        if "adaptive" in self.policies and len(cfgs) > 1:
            raise ConfigError("the adaptive policy needs an engine of its own")
        if net.adjacency.ndim != 3 or not net.adjacency.shape[0]:
            raise ConfigError("the engine needs a stack of networks, one per trial")
        t_count, n = net.adjacency.shape[:2]
        sigma2 = np.asarray(sigma2, dtype=np.float64)
        if sigma2.shape != (t_count, n):
            raise ConfigError(
                f"sigma2 must have shape ({t_count}, {n}), got {sigma2.shape}"
            )
        self.cfg = cfg
        self.adaptive = cfg.policy == "adaptive"
        self.first_trial = int(first_trial)
        self.iteration = 0
        # Every edge weight is formed from 1/sigma2, so this comes first.
        bad = np.argwhere(~(sigma2 > 0.0))
        if bad.size:
            t, m = bad[0]
            raise ConfigError(
                f"trial {self.first_trial + t}: measurement variance at node {m} "
                f"must be positive, got {float(sigma2[t, m])!r}"
            )
        self.sigma2 = sigma2
        # A variance so small that 1/sigma2 or s^2 overflows is named
        # below, so numpy need not warn first.
        self.W = np.zeros((t_count, n, n))
        with np.errstate(over="ignore"):
            self._adopt(net)
        # An infinite s^2 would make every M_psi 0, so that no step fused a
        # measurement. Each node's s holds its own 1/sigma2, and a cut only
        # shrinks s, so this check covers every later topology too.
        bad = np.argwhere(~np.isfinite(self.s2))
        if bad.size:
            t, m = bad[0]
            raise ConfigError(
                f"trial {self.first_trial + t}: the sum of 1/sigma2 over node {m}'s "
                f"neighborhood, {float(self.s[t, m])!r}, overflows when squared"
            )
        # Covariances M kron I2, stored as the rows (a, b, c) = (m_pp, m_pv, m_vv).
        self._pred = np.zeros((3, t_count, n))
        self._pred[0] = self._pred[2] = cfg.P0_scale
        self._psi = self._pred.copy()
        self.min_psd_eigenvalue = np.full(t_count, np.inf)

        self.x_pred = np.zeros((len(cfgs), t_count, n, STATE_DIM))
        self.psi = self.x_pred.copy()
        self.x_hat = self.x_pred.copy()
        edges = net.edges
        # One count per edge. Counts never exceed the window, so the
        # smallest type holding it will do.
        self._below = np.zeros(len(edges), dtype=np.min_scalar_type(cfg.prune_window))
        # Every C is checked as (E,) weights on the edges and scattered
        # into a zeroed C^T, so it lies on the support. A static C is then
        # frozen, so no step need check it again.
        self._c_t = np.zeros((len(cfgs), t_count, n, n))
        for c_t, policy in zip(self._c_t, self.policies):
            if self.adaptive:
                weights = edges.is_self.astype(np.float64)
            else:
                weights = static_weights(policy, net, sigma2)
            self._validate(weights, edges, COLUMN_SUM_TOL)
            c_t.reshape(-1)[edges.flat_t] = weights
        self._c_t.flags.writeable = self.adaptive
        # Flat indices into C^T of the links the last prune cut, which the
        # next weight update zeroes.
        self._cut = np.empty(0, dtype=np.intp)

    @property
    def C(self) -> np.ndarray:
        """The combination matrices, (P, T, n, n): the transposed view of
        a contiguous C^T, the operand of phase 4's product, which the
        adaptive policy overwrites each step and a static policy freezes."""
        return np.swapaxes(self._c_t, -1, -2)

    @property
    def M_pred(self) -> np.ndarray:
        return self._pred.transpose(1, 2, 0)

    @property
    def M_psi(self) -> np.ndarray:
        return self._psi.transpose(1, 2, 0)

    def _adopt(self, net: Network) -> None:
        """Make ``net`` the topology: ``s`` [t, m] holds the sum of
        1/sigma2_n over node m's neighborhood, ``s2`` its square and ``s4``
        ``s`` repeated over the state's coordinates, (T, n, 4). ``W``
        [t, m, n] holds 1/sigma2_n for each edge (n, m) of ``net.edges``
        and 0 elsewhere, refilled in place, so that node m's information
        sum is row m of W @ y. For phase 3, ``back`` lists the reverses of
        the half edges, ``half_n`` and ``half_m`` number the nodes at their
        two ends over the stack, and ``sigma2_n`` and ``sigma2_m`` hold
        those nodes' variances. The covariances and the min-PSD record are
        left as they are."""
        self.net = net
        edges = net.edges
        w = np.take((1.0 / self.sigma2).ravel(), edges.source)
        self.s = np.bincount(edges.key, w).reshape(self.sigma2.shape)
        self.s2 = self.s * self.s
        self.s4 = np.repeat(self.s[..., None], STATE_DIM, axis=2)
        self.W.fill(0.0)
        self.W.reshape(-1)[edges.flat_t] = w
        self.back = np.take(edges.reverse, edges.half)
        sigma2 = self.sigma2.ravel()
        self.half_n = np.take(edges.source, edges.half)
        self.half_m = np.take(edges.key, edges.half)
        self.sigma2_n = np.take(sigma2, self.half_n)
        self.sigma2_m = np.take(sigma2, self.half_m)

    def _error(self, t: int, what) -> NumericError:
        return NumericError(f"trial {self.first_trial + t}: iteration {self.iteration}: {what}")

    def _validate(self, c: np.ndarray, support, col_tol: float) -> None:
        try:
            validate_combination_matrix(c, support, col_tol)
        except CombinationError as exc:
            raise self._error(exc.trial, exc) from None

    # -- the synchronous step -------------------------------------------

    def run_step(self, y: np.ndarray) -> "DiffusionKalmanEngine":
        """Advance every node of every trial one iteration under every
        policy on the step's measurements ``y``, (T, n, 4): node m of trial
        t measured y[t, m]. The half per topology runs once, and the half
        per policy over the policy axis.
        """
        # Phase 1 [topology]: measurements, one finite 4-vector per node.
        y = np.asarray(y, dtype=np.float64)
        shape = self.sigma2.shape + (STATE_DIM,)
        if y.shape != shape:
            raise ConfigError(f"measurements must have shape {shape}, got {y.shape}")
        if not np.isfinite(y).all():
            t, m = np.argwhere(~np.isfinite(y).all(axis=2))[0]
            raise self._error(t, f"non-finite measurement at node {m}")
        self.y = y

        # Phase 2 [topology], in closed information form, row by row of the
        # planar covariances.
        s, s2, m_pred = self.s, self.s2, self._pred
        a, b, c = m_pred
        # A huge covariance or measurement overflows here; the checks
        # below name it, so numpy need not warn first.
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
            # An overflowing den can pass the tests of ok, and would round
            # M_psi to 0, fusing no measurement, so its finiteness is checked
            # apart, flat; the node is sought only once a check fails. With
            # s finite and positive, den is finite only where M_pred is, so
            # this check covers a non-finite M_pred as well.
            if not (ok.all() and np.isfinite(den).all()):
                t, m = np.argwhere(~(ok & np.isfinite(den)))[0]
                if not np.isfinite(self.M_pred[t, m]).all():
                    what = f"predicted covariance at node {m} has non-finite entries"
                elif not ok[t, m]:
                    what = f"innovation covariance at node {m} is not positive definite"
                else:
                    what = f"innovation covariance at node {m} overflows"
                raise self._error(t, what)
            m_psi = self._psi
            # s det, which a and c both take.
            s_det = np.multiply(det, s, out=det)
            np.add(a, s_det, out=m_psi[0])
            m_psi[0] /= den
            np.divide(b, den, out=m_psi[1])
            np.add(c, s_det, out=m_psi[2])
            m_psi[2] /= den
            # Information sums sum_n y_n / sigma2_n, one product per trial. A
            # huge measurement overflows here, and is named below.
            self.info = self.W @ y
        # The coefficients of every policy's blend at the state width:
        # (a, a, c, c) on each coordinate of r and b on its partner in the
        # other half.
        self.k_own = self.M_psi[..., [0, 0, 2, 2]]
        self.k_cross = np.repeat(m_psi[1][..., None], STATE_DIM, axis=2)
        self._track_psd(m_psi, "adapted covariance")
        if not np.isfinite(self.info).all():
            t, m = np.argwhere(~np.isfinite(self.info).all(axis=2))[0]
            raise self._error(t, f"information sum at node {m} overflows")

        # Phase 2 [policy]: psi = x_pred + (M_psi kron I2) r, with
        # r = info - s x_pred, as products at the state width: the
        # position half is a r_pos + b r_vel and the velocity half
        # c r_vel + b r_pos, which rounds as b r_pos + c r_vel does, IEEE
        # addition being commutative.
        x_pred = self.x_pred
        r = self.info - self.s4 * x_pred
        psi = x_pred + (self.k_own * r + self.k_cross * r[..., _HALVES_SWAPPED])
        self.psi = psi

        # Phase 3 [policy]: weight update (adaptive policy only), checked
        # as made.
        cfg = self.cfg
        if self.adaptive:
            weights = self._adaptive_weights(psi[0])
            self._validate(weights, self.net.edges, COMBINE_COL_TOL)

        # Phase 4 [policy]: combination. Covariance is intentionally left
        # alone. x_hat = C^T psi, the product taken with C^T in contiguous
        # memory: on a transposed view matmul rounds differently. The
        # engine holds C as a view of such a C^T, so nothing is copied.
        self.x_hat = self._c_t @ psi

        # Phase 5 [policy]: pruning (adaptive policy only). No count can
        # reach the window before that many steps have run.
        if self.adaptive and cfg.pruning_enabled:
            self._below = count_below(self._below, weights, cfg.prune_tau, cfg.prune_window)
            if self.iteration + 1 >= cfg.prune_window:
                self._prune()

        # Phase 6: time update, [policy] the estimate and [topology] the
        # covariance, M_pred = (a + delta(2b + delta c) + q, b + delta c, c + q).
        model = cfg.model
        self.x_pred = self.x_hat @ model.F.T
        if cfg.filter_knows_gravity:
            self.x_pred = self.x_pred + model.u_g
        a, b, c = self._psi
        d, q = model.delta, model.process_noise_var
        d_c = d * c
        row = np.multiply(b, 2.0, out=m_pred[0])
        row += d_c
        row *= d
        np.add(a, row, out=row)
        row += q
        np.add(b, d_c, out=m_pred[1])
        np.add(c, q, out=m_pred[2])
        self._track_psd(m_pred, "predicted covariance")

        self.iteration += 1
        return self

    # -- internals --------------------------------------------------------

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
            raise self._error(t, what)

    def _adaptive_weights(self, psi: np.ndarray) -> np.ndarray:
        # The adaptive policy stands alone, so ``psi`` is its (T, n, 4)
        # and C^T its (1, T, n, n) buffer. Edge (n, m) scores neighbor n's
        # estimate against node m's own measurement y_m as
        # 1 / max(d^2, eps^2), formed in place on d^2; the few links that
        # fail the consistency test are zeroed by index, so no full-length
        # mask is built, and each column m is then normalized. The (E,)
        # weights are returned, and overwrite the edges' entries of the
        # engine's C^T buffer, of which C is the transposed view. Its other
        # entries are zero once the links of the last prune are: they are
        # zeroed here, not at the prune, so that the pruning step's C keeps
        # its weights.
        c_t = self._c_t.reshape(-1)
        c_t[self._cut] = 0.0
        self._cut = self._cut[:0]
        edges = self.net.edges
        n, m = edges.source, edges.key
        psi, y = psi.reshape(-1, STATE_DIM), self.y.reshape(-1, STATE_DIM)
        # The difference psi_n - y_m is formed in the gather of psi_n, and
        # squared there. A difference past the float range is inf, read as
        # far.
        diff = np.take(psi, n, axis=0)
        with np.errstate(over="ignore"):
            np.subtract(diff, np.take(y, m, axis=0), out=diff)
        w = sum_squares(diff)
        eps = self.cfg.eps
        np.maximum(w, eps * eps, out=w)
        np.divide(1.0, w, out=w)
        # The consistency test is symmetric to the bit, so it runs on one
        # direction of each link, on the measurements y_n and y_m at its
        # two ends, and is mirrored onto the other: both directions of a
        # link that fails are zeroed. A self-edge passes, its measurement
        # being finite.
        agree = consistent_pairs(
            np.take(y, self.half_n, axis=0),
            np.take(y, self.half_m, axis=0),
            self.sigma2_n,
            self.sigma2_m,
        )
        failed = np.flatnonzero(~agree)
        w[np.take(edges.half, failed)] = 0.0
        w[np.take(self.back, failed)] = 0.0
        # A column is left no weight only when every usable distance, its
        # own included, overflowed.
        total = np.bincount(m, w)
        if (total == 0.0).any():
            t, node = divmod(int(np.flatnonzero(total == 0.0)[0]), edges.n_nodes)
            what = f"every squared distance at node {node} overflows, leaving it no weight"
            raise self._error(t, what)
        w /= np.take(total, m)
        c_t[edges.flat_t] = w
        return w

    def _prune(self) -> None:
        pruned = prune_cross_links(self.net, self._below, self.cfg.prune_window)
        if pruned is not self.net:
            # A prune only removes edges, and both lists keep one order, so
            # the survivors' counts carry over in place.
            keep = pruned.edges.keep
            self._below = self._below[keep]
            self._cut = self.net.edges.flat_t[~keep]
            self._adopt(pruned)
