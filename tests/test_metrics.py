"""Metrics: MSD accumulation, dB conversion, convergence, recovery score."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftrack.combiners import consistent_pairs
from difftrack.metrics import (
    MsdSeries,
    cluster_recovery_score,
    convergence_iteration,
    msd_accumulate,
    read_clusters,
    steady_state_db,
    to_db,
)
from difftrack.topology import ClusterAssignment, infer_clusters


def assignment(labels):
    labels = np.asarray(labels, dtype=np.int64)
    return ClusterAssignment(labels, int(labels.max()))


class TestToDb:
    def test_unit_value_is_zero_db(self):
        assert to_db(1.0) == 0.0

    def test_hundred_is_twenty_db(self):
        assert to_db(100.0) == pytest.approx(20.0)

    def test_zero_is_floored(self):
        assert to_db(0.0) == pytest.approx(-300.0)

    def test_monotone_on_random_values(self):
        rng = np.random.default_rng(7)
        vals = np.sort(rng.random(100))
        db = to_db(vals)
        assert np.all(np.diff(db) >= 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            to_db(-1e-9)

    def test_array_shape_preserved(self):
        out = to_db(np.ones((3, 2)))
        assert out.shape == (3, 2)
        assert np.all(out == 0.0)


def per_node(truths, labels):
    """Each node's row of its cluster's truth, for ``msd_accumulate``."""
    return np.take_along_axis(truths, np.asarray(labels)[..., None] - 1, axis=-2)


class TestMsdAccumulate:
    def test_perfect_estimates_give_zero(self):
        truths = np.array([[1.0, 2.0, 3.0, 4.0]])
        estimates = np.tile(truths, (5, 1))
        out = msd_accumulate(per_node(truths, [1] * 5), estimates, assignment([1] * 5))
        assert out.shape == (1,)
        assert out[0] == 0.0

    def test_single_node_unit_error_vector(self):
        truths = np.zeros((1, 4))
        estimates = np.ones((1, 4))
        out = msd_accumulate(per_node(truths, [1]), estimates, assignment([1]))
        assert out[0] == pytest.approx(4.0)

    def test_two_node_cluster_mean(self):
        truths = np.zeros((1, 4))
        estimates = np.array(
            [[1.0, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]
        )
        out = msd_accumulate(per_node(truths, [1, 1]), estimates, assignment([1, 1]))
        assert out[0] == pytest.approx(3.0)

    def test_two_clusters_score_against_own_targets(self):
        truths = np.array([[0.0, 0.0, 0.0, 0.0], [10.0, 0.0, 0.0, 0.0]])
        estimates = np.array(
            [[1.0, 0.0, 0.0, 0.0], [10.0, 2.0, 0.0, 0.0]]
        )
        out = msd_accumulate(per_node(truths, [1, 2]), estimates, assignment([1, 2]))
        assert out == pytest.approx([1.0, 4.0])

    def test_node_order_invariance(self):
        rng = np.random.default_rng(3)
        truths = rng.normal(size=(2, 4))
        estimates = rng.normal(size=(6, 4))
        labels = np.array([1, 2, 1, 2, 1, 2])
        base = msd_accumulate(per_node(truths, labels), estimates, assignment(labels))
        perm = rng.permutation(6)
        shuffled = msd_accumulate(
            per_node(truths, labels[perm]), estimates[perm], assignment(labels[perm])
        )
        assert shuffled == pytest.approx(base, rel=1e-12)

    def test_stack_equals_each_trial_alone(self):
        rng = np.random.default_rng(4)
        truths = rng.normal(size=(2, 2, 4))
        estimates = rng.normal(size=(2, 7, 4))
        labels = np.array([[1, 2, 1, 2, 2, 1, 1], [2, 2, 2, 1, 2, 2, 2]])
        rows = per_node(truths, labels)
        out = msd_accumulate(rows, estimates, ClusterAssignment(labels, 2))
        assert out.shape == (2, 2)
        for t in range(2):
            alone = msd_accumulate(rows[t], estimates[t], assignment(labels[t]))
            assert np.array_equal(out[t], alone)

    def test_one_cluster_stack_equals_each_trial_alone(self):
        # Each node is scored against its own row, so a stack of
        # one-cluster entries needs no truth row per cluster.
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(3, 1, 4))
        estimates = rng.normal(size=(3, 1, 4))
        labels = np.ones((3, 1), dtype=np.int64)
        out = msd_accumulate(rows, estimates, ClusterAssignment(labels, 1))
        for t in range(3):
            alone = msd_accumulate(rows[t], estimates[t], assignment(labels[t]))
            assert np.array_equal(out[t], alone)
        err = estimates - rows
        assert np.array_equal(out, np.einsum("...j,...j->...", err, err))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            msd_accumulate(np.zeros((1, 4)), np.zeros((3, 4)), assignment([1, 1, 1]))
        # One estimate row per node of the assignment.
        with pytest.raises(ValueError):
            msd_accumulate(np.zeros((3, 4)), np.zeros((3, 4)), assignment([1, 1]))
        # One truth row per node, in every batch entry.
        labels = ClusterAssignment(np.ones((3, 1), dtype=np.int64), 1)
        with pytest.raises(ValueError):
            msd_accumulate(np.zeros((2, 1, 4)), np.zeros((3, 1, 4)), labels)


class TestMsdSeries:
    def test_db_channel_matches_formula(self):
        linear = np.array([[1.0, 100.0], [0.0, 4.0]])
        series = MsdSeries(linear)
        assert series.msd_db[0, 1] == pytest.approx(20.0)
        assert series.msd_db[1, 0] == pytest.approx(-300.0)
        assert series.n_iterations == 2
        assert series.n_clusters == 2

    def test_negative_linear_rejected(self):
        with pytest.raises(ValueError):
            MsdSeries(np.array([[-1.0]]))

    def test_db_channel_is_not_an_argument(self):
        with pytest.raises(TypeError):
            MsdSeries(np.ones((3, 1)), msd_db=np.zeros((3, 1)))

    def test_arrays_frozen(self):
        series = MsdSeries(np.ones((3, 1)))
        with pytest.raises(ValueError):
            series.msd_linear[0, 0] = 2.0


class TestSteadyStateDb:
    def test_mean_of_the_final_fifth(self):
        assert steady_state_db(np.arange(23.0)) == np.mean([19.0, 20.0, 21.0, 22.0])

    def test_short_series_keeps_its_last_point(self):
        assert steady_state_db(np.array([3.0, 5.0, 8.0])) == 8.0


class TestConvergenceIteration:
    def test_constant_series_converges_at_zero(self):
        assert convergence_iteration(np.full(50, -12.0)) == 0

    def test_plateau_entry_detected(self):
        series = np.concatenate([np.linspace(40.0, -20.0, 41), np.full(59, -20.0)])
        it = convergence_iteration(series, band_db=3.0)
        assert it is not None
        assert it <= 40
        # the series is 3 dB above the plateau at the returned index
        assert abs(series[it] - series[-12:].mean()) <= 3.0

    def test_diverging_series_returns_none(self):
        series = np.linspace(0.0, 80.0, 100)
        assert convergence_iteration(series) is None

    def test_late_spike_pushes_convergence_after_spike(self):
        series = np.full(100, -10.0)
        series[70] = 30.0
        assert convergence_iteration(series) == 71

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            convergence_iteration(np.zeros(5))

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            convergence_iteration(np.zeros((20, 2)))


class TestClusterRecoveryScore:
    def test_identical_assignments(self):
        a = [1, 1, 2, 2]
        assert cluster_recovery_score(a, a) == 1.0

    def test_global_label_swap_scores_one(self):
        assert cluster_recovery_score([1, 1, 2, 2], [2, 2, 1, 1]) == 1.0

    def test_one_of_thirty_misassigned(self):
        labels = np.ones(30, dtype=np.int64)
        labels[15:] = 2
        wrong = labels.copy()
        wrong[0] = 2
        score = cluster_recovery_score(wrong, labels)
        assert score == pytest.approx(29 / 30)

    def test_symmetry_under_argument_order(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.integers(1, 4, size=12)
            b = rng.integers(1, 3, size=12)
            assert cluster_recovery_score(a, b) == pytest.approx(
                cluster_recovery_score(b, a)
            )

    def test_fragmented_cluster_scores_partial(self):
        truth = [1, 1, 1, 2, 2, 2]
        split = [1, 1, 3, 2, 2, 2]
        assert cluster_recovery_score(split, truth) == pytest.approx(5 / 6)

    def test_node_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cluster_recovery_score([1, 2], [1, 2, 2])

    def test_a_stack_scores_each_trial(self):
        inferred = [[1, 1, 2, 2], [1, 2, 3, 4], [1, 1, 1, 1]]
        truth = [[2, 2, 1, 1], [1, 1, 2, 2], [1, 1, 2, 2]]
        assert cluster_recovery_score(inferred, truth).tolist() == [1.0, 0.5, 0.5]
        assert cluster_recovery_score(inferred[0], truth[0]).shape == ()


@st.composite
def assignment_pairs(draw):
    """Two labelings of one node set, each using every label from 1 to its
    cluster count, one of them with at most two clusters, in either order."""
    n = draw(st.integers(2, 30))
    pair = []
    for s in (draw(st.integers(1, 2)), draw(st.integers(1, min(n, 6)))):
        labels = np.array(draw(st.lists(st.integers(1, s), min_size=n, max_size=n)))
        labels[:s] = np.arange(1, s + 1)
        pair.append(np.array(draw(st.permutations(labels))))
    return pair if draw(st.booleans()) else pair[::-1]


@settings(max_examples=300, deadline=None)
@given(assignment_pairs())
def test_recovery_score_equals_the_assignment_optimum(pair):
    from scipy.optimize import linear_sum_assignment

    a, b = pair
    for inferred, truth in ((a, b), (b, a)):
        confusion = np.zeros((inferred.max(), truth.max()))
        np.add.at(confusion, (inferred - 1, truth - 1), 1.0)
        rows, cols = linear_sum_assignment(-confusion)
        want = float(confusion[rows, cols].sum() / inferred.size)
        assert cluster_recovery_score(inferred, truth) == want


class TestReadClusters:
    # Noiseless states of the two default targets after 99 steps, rounded.
    TARGETS = np.array([[75.3, -331.4, 7.5, -86.0], [106.0, -355.0, 10.6, -88.4]])

    def scene(self, task_of, seed=0):
        rng = np.random.default_rng(seed)
        task_of = np.asarray(task_of)
        sigma2 = 0.01 + 0.5 * rng.random(task_of.size)
        noise = np.sqrt(sigma2)[:, None] * rng.standard_normal((task_of.size, 4))
        return self.TARGETS[task_of - 1] + noise, sigma2

    def test_same_task_pieces_without_a_path_read_back_whole(self):
        # Task 2 split into {0, 1} and {5, 6}; task 1 is {2, 3, 4}. No weight
        # joins the three groups, so the weight components alone give 3.
        task_of = [2, 2, 1, 1, 1, 2, 2]
        c = np.zeros((7, 7))
        for group in ([0, 1], [2, 3, 4], [5, 6]):
            c[np.ix_(group, group)] = 1.0 / len(group)
        estimates, sigma2 = self.scene(task_of)
        inferred = read_clusters(c, 0.05, estimates, sigma2)
        assert list(inferred) == [1, 1, 2, 2, 2, 1, 1]
        assert cluster_recovery_score(inferred, task_of) == 1.0

    def test_groups_on_different_targets_never_merge(self):
        c = np.eye(6)
        for seed in range(20):
            estimates, sigma2 = self.scene([1, 2, 1, 2, 1, 2], seed)
            assert list(read_clusters(c, 0.05, estimates, sigma2)) == [
                1, 2, 1, 2, 1, 2
            ]

    def test_weight_components_are_never_split(self):
        estimates, sigma2 = self.scene([1, 2, 2])
        c = np.full((3, 3), 1.0 / 3.0)
        assert list(read_clusters(c, 0.05, estimates, sigma2)) == [1, 1, 1]

    @staticmethod
    def two_pass(c, threshold, estimates, sigma2):
        """The reference readout: the weight components first, then the
        components of "same weight component or agreeing estimates"."""
        weight = infer_clusters(c, threshold).cluster_of
        linked = np.equal.outer(weight, weight) | consistent_pairs(
            estimates[:, None], estimates[None, :], sigma2[:, None], sigma2[None, :]
        )
        return infer_clusters(linked.astype(np.float64), 1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        threshold=st.floats(0.0, 1.0),
        spread=st.sampled_from([0.1, 1.0, 3.0]),
    )
    def test_one_pass_equals_the_two_pass_reference(self, seed, n, threshold, spread):
        # Sparse random weights, and estimates spread from well inside to
        # well outside the consistency bound, so weight links and agreeing
        # estimates both occur and overlap.
        rng = np.random.default_rng(seed)
        c = np.where(rng.random((n, n)) < 0.3, rng.random((n, n)), 0.0)
        estimates = spread * rng.standard_normal((n, 4))
        sigma2 = 0.01 + 0.5 * rng.random(n)
        got = read_clusters(c, threshold, estimates, sigma2)
        want = self.two_pass(c, threshold, estimates, sigma2)
        assert np.array_equal(got, want.cluster_of)
