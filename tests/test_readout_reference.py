"""The stack readout and scorer against their per-trial reference forms.

The references are the forms the run path once took, one trial at a
time: ``read_clusters`` tested every pair of final estimates, gave each
agreeing pair an infinite weight and took the weight components of the
result, labeled through ``np.unique``; ``cluster_recovery_score`` built a
float confusion matrix with ``np.add.at`` and took the maximum over every
injective map of the side with fewer clusters into the other. The stack
forms must give the same labels and the same score, bit for bit, for
every trial of the runs below, whose inputs are the ones the harness
passes, and for random stacks.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftrack import harness
from difftrack.combiners import POLICIES, consistent_pairs
from difftrack.harness import ExperimentConfig, policy_sweep
from difftrack.metrics import cluster_recovery_score, read_clusters
from difftrack.topology import ClusterAssignment, component_roots


def read_clusters_reference(c, threshold, estimates, sigma2) -> ClusterAssignment:
    """One trial's readout over every pair of its nodes."""
    agree = consistent_pairs(
        estimates[:, None], estimates[None, :], sigma2[:, None], sigma2[None, :]
    )
    # An agreeing pair gets a weight no threshold can miss.
    c = np.where(agree, np.inf, c)
    linked = np.maximum(c, c.T) >= threshold
    roots, labels = np.unique(component_roots(linked), return_inverse=True)
    return ClusterAssignment(cluster_of=labels + 1, s=roots.size)


def recovery_score_reference(inferred: ClusterAssignment, truth: ClusterAssignment) -> float:
    """The exact maximum over every injective map of the side with fewer
    clusters into the other."""
    ci, ct = inferred.cluster_of, truth.cluster_of
    confusion = np.zeros((inferred.s, truth.s))
    np.add.at(confusion, (ci - 1, ct - 1), 1.0)
    if inferred.s > truth.s:
        confusion = confusion.T
    small, large = confusion.shape
    maps = np.array(list(itertools.permutations(range(large), small)))
    best = confusion[np.arange(small), maps].sum(axis=-1).max()
    return float(best / ci.shape[0])


def assert_stack_equals_reference(c, threshold, estimates, sigma2, truth, s):
    labels = read_clusters(c, threshold, estimates, sigma2)
    scores = cluster_recovery_score(labels, truth)
    assert labels.shape == truth.shape and scores.shape == truth.shape[:-1]
    for t in range(len(truth)):
        want = read_clusters_reference(c[t], threshold, estimates[t], sigma2[t])
        assert np.array_equal(labels[t], want.cluster_of), t
        score = recovery_score_reference(want, ClusterAssignment(truth[t], s))
        assert scores[t] == score, t
    return labels, scores


# The scenarios the readout meets off the default: targets launched
# almost together, runs too short to prune, no pruning, a lone node and
# the 200-node scene.
RUNS = {
    "close-angles": dict(angles=(1.0, 1.05), n_trials=100),
    "short": dict(n_iterations=20, n_trials=60),
    "unpruned": dict(pruning_enabled=False, n_trials=40),
    "one-node": dict(n_nodes=1, n_trials=20),
    "large": dict(n_nodes=200, comm_radius=0.15, n_trials=4),
}


@pytest.fixture(scope="module")
def readouts():
    """Per scenario, each engine's readout inputs as the harness passed
    them, and the labels and scores it got back."""
    recorded = {}
    read, score = harness.read_clusters, harness.cluster_recovery_score
    for name, overrides in RUNS.items():
        calls = recorded[name] = []

        def recording_read(*args):
            calls.append({"read": args, "labels": read(*args)})
            return calls[-1]["labels"]

        def recording_score(inferred, truth):
            calls[-1].update(inferred=inferred, truth=truth, scores=score(inferred, truth))
            return calls[-1]["scores"]

        harness.read_clusters = recording_read
        harness.cluster_recovery_score = recording_score
        try:
            policy_sweep(ExperimentConfig(**overrides), POLICIES)
        finally:
            harness.read_clusters, harness.cluster_recovery_score = read, score
    return recorded


@pytest.mark.parametrize("name", RUNS)
def test_each_engine_reads_and_scores_its_trials_once(readouts, name):
    calls = readouts[name]
    assert len(calls) == len(POLICIES)
    n_trials = RUNS[name]["n_trials"]
    for call in calls:
        assert call["inferred"] is call["labels"]
        assert call["scores"].shape == (n_trials,)


@pytest.mark.parametrize("name", RUNS)
def test_stack_readout_equals_the_per_trial_reference(readouts, name):
    s = 1 if RUNS[name].get("n_nodes") == 1 else 2
    for call in readouts[name]:
        labels, scores = assert_stack_equals_reference(*call["read"], call["truth"], s)
        assert np.array_equal(labels, call["labels"])
        assert np.array_equal(scores, call["scores"])


def test_the_scenarios_reach_imperfect_readouts(readouts):
    # The comparison above meets imperfect two-target trials, merged into
    # one cluster and split into more than two, not only perfect ones.
    calls = [call for name in RUNS if name != "one-node" for call in readouts[name]]
    scores = np.concatenate([call["scores"] for call in calls])
    counts = np.concatenate([call["labels"].max(axis=-1) for call in calls])
    assert (scores < 1.0).any()
    assert (counts == 1).any() and (counts > 2).any()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t_count=st.integers(1, 5),
    n=st.integers(1, 12),
    threshold=st.floats(0.0, 1.0),
    spread=st.sampled_from([0.1, 1.0, 3.0]),
    s=st.integers(1, 3),
)
def test_random_stacks_equal_the_per_trial_reference(seed, t_count, n, threshold, spread, s):
    # Sparse random weights, and estimates spread from well inside to well
    # outside the consistency bound, so weight links and agreeing
    # estimates both occur and overlap; truths with every label present.
    rng = np.random.default_rng(seed)
    shape = (t_count, n, n)
    c = np.where(rng.random(shape) < 0.3, rng.random(shape), 0.0)
    estimates = spread * rng.standard_normal((t_count, n, 4))
    sigma2 = 0.01 + 0.5 * rng.random((t_count, n))
    s = min(s, n)
    truth = rng.integers(1, s + 1, size=(t_count, n))
    truth[:, :s] = np.arange(1, s + 1)
    truth = rng.permuted(truth, axis=1)
    assert_stack_equals_reference(c, threshold, estimates, sigma2, truth, s)
