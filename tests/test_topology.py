"""Tests for network generation, partitioning, and pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import difftrack.topology
from difftrack.errors import ConfigError
from difftrack.harness import trial_rng
from difftrack.topology import (
    MAX_ATTEMPTS,
    ClusterAssignment,
    Edges,
    Network,
    component_roots,
    count_below,
    generate_geometric,
    infer_clusters,
    initial_partition,
    prune_cross_links,
    stack_scenes,
)


def line_network(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    pos = np.column_stack([np.linspace(0.0, 1.0, n), np.zeros(n)])
    return Network(positions=pos, adjacency=adj)


def neighborhoods(net):
    """Self-inclusive neighborhoods N_m, ascending, read off the adjacency."""
    with_self = net.adjacency | np.eye(net.n_nodes, dtype=bool)
    return [np.flatnonzero(with_self[:, m]) for m in range(net.n_nodes)]


def test_generate_default_scenario():
    rng = np.random.default_rng(1)
    net = generate_geometric(30, 0.35, 4, rng)
    assert net.n_nodes == 30
    assert net.adjacency.sum(axis=0).min() >= 4
    assert all(len(nb) >= 5 for nb in neighborhoods(net))
    assert net.is_connected()
    assert np.array_equal(net.adjacency, net.adjacency.T)
    assert not net.adjacency.diagonal().any()


def test_generate_two_nodes_full_radius():
    net = generate_geometric(2, np.sqrt(2.0), 1, np.random.default_rng(0))
    assert net.adjacency[0, 1] and net.adjacency[1, 0]
    assert list(net.adjacency.sum(axis=0)) == [1, 1]


def test_generate_deterministic():
    a = generate_geometric(30, 0.35, 4, np.random.default_rng(5))
    b = generate_geometric(30, 0.35, 4, np.random.default_rng(5))
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.adjacency, b.adjacency)


def test_generate_rejects_impossible_setup(monkeypatch):
    monkeypatch.setattr(difftrack.topology, "MAX_ATTEMPTS", 50)
    with pytest.raises(ConfigError, match=r"^could not draw .* in 50 attempts; "):
        generate_geometric(30, 0.01, 4, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        generate_geometric(1, 0.35, 0, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        generate_geometric(5, 2.0, 1, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        generate_geometric(5, 0.5, 5, np.random.default_rng(0))


def test_neighborhoods_include_self():
    net = generate_geometric(10, 0.5, 2, np.random.default_rng(2))
    for m, nb in enumerate(neighborhoods(net)):
        assert m in nb
        assert np.array_equal(nb, np.unique(nb))
        assert set(nb) == {m} | set(np.flatnonzero(net.adjacency[:, m]))


def test_network_validation():
    pos = np.zeros((3, 2))
    bad_diag = np.eye(3, dtype=bool)
    with pytest.raises(ConfigError, match="self-loops"):
        Network(positions=pos, adjacency=bad_diag)
    asym = np.zeros((3, 3), dtype=bool)
    asym[0, 1] = True
    with pytest.raises(ConfigError, match="symmetric"):
        Network(positions=pos, adjacency=asym)
    # In a stack, one bad trial fails the whole stack.
    good = line_network(3).adjacency
    with pytest.raises(ConfigError, match="self-loops"):
        Network(positions=np.stack([pos, pos]), adjacency=np.stack([good, good | bad_diag]))
    one_way = good.copy()
    one_way[0, 2] = True
    with pytest.raises(ConfigError, match="symmetric"):
        Network(positions=np.stack([pos, pos]), adjacency=np.stack([good, one_way]))
    with pytest.raises(ConfigError, match="adjacency must be"):
        Network(positions=np.stack([pos, pos]), adjacency=good)


def test_partition_covers_all_nodes():
    rng = np.random.default_rng(3)
    net = generate_geometric(30, 0.35, 4, rng)
    part = initial_partition(net, 0.35, rng)
    assert part.s == 2
    assert part.cluster_of.size == 30
    assert part.sizes.sum() == 30
    assert (part.sizes > 0).all()


def test_partition_zero_radius_gives_singleton_cluster():
    rng = np.random.default_rng(4)
    net = generate_geometric(10, 0.6, 2, rng)
    part = initial_partition(net, 0.0, rng)
    assert part.sizes[0] == 1


def test_partition_full_radius_errors(monkeypatch):
    rng = np.random.default_rng(5)
    net = generate_geometric(10, 0.6, 2, rng)
    monkeypatch.setattr(difftrack.topology, "MAX_ATTEMPTS", 20)
    with pytest.raises(ConfigError, match=r"never split the network in 20 attempts$"):
        initial_partition(net, np.sqrt(2.0), rng)


def test_cluster_assignment_validation():
    with pytest.raises(ConfigError, match="empty"):
        ClusterAssignment(cluster_of=np.array([1, 1, 1]), s=2)
    with pytest.raises(ConfigError, match="labels"):
        ClusterAssignment(cluster_of=np.array([0, 1]), s=2)
    # Clusters are counted per trial of a stack: trial 1 leaves cluster 2
    # empty although trial 0 fills it.
    with pytest.raises(ConfigError, match="^cluster 2 is empty$"):
        ClusterAssignment(cluster_of=np.array([[1, 2, 3], [1, 3, 1]]), s=3)



def test_stack_scenes():
    nets = [line_network(3), Network(np.ones((3, 2)), np.zeros((3, 3), dtype=bool))]
    parts = [ClusterAssignment(np.array([1, 2, 2]), 2), ClusterAssignment(np.array([2, 1, 1]), 2)]
    net, part = stack_scenes(nets, parts)
    assert net.n_nodes == 3
    for t in range(2):
        assert np.array_equal(net.positions[t], nets[t].positions)
        assert np.array_equal(net.adjacency[t], nets[t].adjacency)
        assert np.array_equal(part.cluster_of[t], parts[t].cluster_of)
    assert part.s == 2
    assert part.sizes.tolist() == [[1, 2], [2, 1]]
    # Counted once per assignment, and read-only like its labels.
    assert part.sizes is part.sizes
    assert not part.sizes.flags.writeable


def lowest_node_labels(adjacency):
    """scipy's component labels, renamed to each component's lowest node."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    _, comp = connected_components(csr_matrix(adjacency), directed=False)
    return np.unique(comp, return_index=True)[1][comp]


@st.composite
def adjacency_stacks(draw):
    """(T, n, n) symmetric adjacencies: random edges, at times none, plus at
    times a path through every node in a random order, the graph of longest
    diameter."""
    t_count = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    stack = []
    for _ in range(t_count):
        upper = np.triu(draw(arrays(bool, (n, n))), 1)
        if draw(st.booleans()):
            upper[:] = False
        if draw(st.booleans()):
            order = draw(st.permutations(range(n)))
            upper[order[:-1], order[1:]] = True
        stack.append(upper | upper.T)
    return np.stack(stack)


@settings(max_examples=200, deadline=None)
@given(adjacency_stacks())
def test_component_roots_match_scipy(adjacency):
    want = np.stack([lowest_node_labels(a) for a in adjacency])
    assert np.array_equal(component_roots(adjacency), want)
    assert np.array_equal(component_roots(adjacency[0]), want[0])
    assert Network(np.zeros(adjacency.shape[:-1] + (2,)), adjacency).is_connected() == (
        not want.any()
    )


def test_component_roots_match_scipy_on_a_large_scene():
    rng = np.random.default_rng(8)
    adj = generate_geometric(200, 0.15, 1, rng).adjacency
    assert np.array_equal(component_roots(adj), lowest_node_labels(adj))
    # Half the edges gone leaves many components.
    keep = np.triu(rng.random(adj.shape) < 0.5, 1)
    cut = adj & (keep | keep.T)
    want = lowest_node_labels(cut)
    assert np.unique(want).size > 1
    assert np.array_equal(component_roots(cut), want)


def test_component_roots_of_no_nodes():
    assert component_roots(np.zeros((2, 0, 0), dtype=bool)).shape == (2, 0)


def test_infer_clusters_identity_gives_singletons():
    part = infer_clusters(np.eye(5), 0.05)
    assert part.s == 5
    assert sorted(part.cluster_of) == [1, 2, 3, 4, 5]


def test_infer_clusters_block_diagonal():
    c = np.zeros((5, 5))
    c[:3, :3] = 1.0 / 3.0
    c[3:, 3:] = 0.5
    part = infer_clusters(c, 0.05)
    assert part.s == 2
    assert list(part.cluster_of) == [1, 1, 1, 2, 2]


def test_infer_clusters_uses_either_direction():
    c = np.eye(3)
    c[0, 1] = 0.2  # weight 1->2 only; reverse is zero
    part = infer_clusters(c, 0.1)
    assert part.cluster_of[0] == part.cluster_of[1]
    assert part.cluster_of[2] != part.cluster_of[0]


def steps_below(net, history, tau, window):
    """Feed a history of weight matrices, each in the shape of the
    network's adjacency, through count_below: one count per edge of
    ``net.edges``, fed the weight on that edge."""
    counts = np.zeros(len(net.edges), dtype=np.int16)
    for c in history:
        counts = count_below(counts, np.ravel(c)[net.edges.flat], tau, window)
    return counts


def dense_support(adjacency):
    return adjacency | np.eye(adjacency.shape[-1], dtype=bool)


@given(
    adjacency=st.integers(1, 3).flatmap(
        lambda t: st.integers(1, 9).flatmap(
            lambda n: arrays(bool, (t, n, n)).map(
                lambda a: np.triu(a, 1) | np.triu(a, 1).swapaxes(1, 2)
            )
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_edges_list_the_support_in_column_order(adjacency):
    t_count, n = adjacency.shape[:2]
    edges = Network(np.zeros((t_count, n, 2)), adjacency).edges
    support = dense_support(adjacency)
    assert len(edges) == support.sum()
    assert support[edges.trial, edges.row, edges.col].all()
    # Sorted by (trial, col, row), with the flat indices and keys to match.
    order = np.lexsort((edges.row, edges.col, edges.trial))
    assert np.array_equal(order, np.arange(len(edges)))
    assert np.array_equal(edges.key, edges.trial * n + edges.col)
    assert np.array_equal(edges.source, edges.trial * n + edges.row)
    flat = np.ravel_multi_index((edges.trial, edges.row, edges.col), support.shape)
    flat_t = np.ravel_multi_index((edges.trial, edges.col, edges.row), support.shape)
    assert np.array_equal(edges.flat, flat)
    assert np.array_equal(edges.flat_t, flat_t)
    rev = edges.reverse
    assert np.array_equal(edges.trial[rev], edges.trial)
    assert np.array_equal(edges.row[rev], edges.col)
    assert np.array_equal(edges.col[rev], edges.row)
    assert np.array_equal(edges.is_self, edges.row == edges.col)
    # A stack's list is its networks' lists, one after another.
    for t in range(t_count):
        alone = Network(np.zeros((n, 2)), adjacency[t]).edges
        assert np.array_equal(edges.flat[edges.trial == t] - t * n * n, alone.flat)


@settings(max_examples=200, deadline=None)
@given(adjacency_stacks())
def test_half_is_one_direction_of_each_link(adjacency):
    for adj in (adjacency, adjacency[0]):
        edges = Network(np.zeros(adj.shape[:-1] + (2,)), adj).edges
        half = edges.half
        assert np.all(np.diff(half) > 0)
        assert np.all(edges.row[half] < edges.col[half])
        # The links one way, their reverses and the self-edges are every
        # edge, each once.
        parts = np.concatenate([half, edges.reverse[half], np.flatnonzero(edges.is_self)])
        assert np.array_equal(np.sort(parts), np.arange(len(edges)))


EDGE_FIELDS = (
    "trial", "col", "row", "source", "key", "flat", "flat_t", "reverse", "is_self", "half"
)


@st.composite
def stacks_and_cuts(draw):
    """An adjacency stack and a symmetric set of its links to cut: random
    links, at times every link of one node, at times every link."""
    adjacency = draw(adjacency_stacks())
    t_count, n = adjacency.shape[:2]
    upper = np.triu(draw(arrays(bool, adjacency.shape)), 1)
    cut = adjacency & (upper | upper.swapaxes(1, 2))
    if draw(st.booleans()):
        t, k = draw(st.integers(0, t_count - 1)), draw(st.integers(0, n - 1))
        cut[t, k] = adjacency[t, k]
        cut[t, :, k] = adjacency[t, :, k]
    if draw(st.booleans()):
        cut = adjacency.copy()
    return adjacency, cut


@settings(max_examples=200, deadline=None)
@given(stacks_and_cuts())
def test_prune_filters_the_edge_list(case):
    # The pruned network's list is its parent's, filtered; it must equal
    # the list built from the pruned adjacency, field by field. A second
    # prune, of every link left, filters the filtered list.
    adjacency, cut = case
    net = Network(np.zeros(adjacency.shape[:-1] + (2,)), adjacency)
    for links in (cut, adjacency & ~cut):
        # Self-edges reach the window too, and are kept.
        below = np.take(links.ravel(), net.edges.flat) | net.edges.is_self
        pruned = prune_cross_links(net, below, 1)
        if not links.any():
            assert pruned is net
            continue
        assert np.array_equal(pruned.adjacency, net.adjacency & ~links)
        want = Edges(pruned.adjacency)
        assert pruned.edges.n_nodes == want.n_nodes
        for name in EDGE_FIELDS:
            got = getattr(pruned.edges, name)
            assert got.dtype == getattr(want, name).dtype, name
            assert np.array_equal(got, getattr(want, name)), name
        net = pruned


@settings(max_examples=100, deadline=None)
@given(stacks_and_cuts())
def test_pruned_network_equals_one_built_through_the_checks(case):
    # A prune builds its network without the checks of a new one; it must
    # equal the network the checks build from the same arrays, and its
    # list must record which of the parent's edges it kept.
    adjacency, cut = case
    positions = np.random.default_rng(0).random(adjacency.shape[:-1] + (2,))
    net = Network(positions, adjacency)
    below = np.take(cut.ravel(), net.edges.flat) | net.edges.is_self
    pruned = prune_cross_links(net, below, 1)
    if not cut.any():
        assert pruned is net
        return
    checked = Network(positions, adjacency & ~cut)
    for name in ("positions", "adjacency"):
        got, want = getattr(pruned, name), getattr(checked, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert not got.flags.writeable, name
    want = Edges(checked.adjacency)
    assert pruned.edges.n_nodes == want.n_nodes
    for name in EDGE_FIELDS:
        got = getattr(pruned.edges, name)
        assert got.dtype == getattr(want, name).dtype, name
        assert np.array_equal(got, getattr(want, name)), name
    assert want.keep is None
    assert np.array_equal(pruned.edges.keep, ~np.take(cut.ravel(), net.edges.flat))


def old_form_sq_dist(pos):
    """The scene draw's squared distances in their former (n, n, 2) form."""
    return ((pos[:, None] - pos[None]) ** 2).sum(2)


@pytest.mark.parametrize("n, radius, min_degree", [(2, 1.0, 1), (30, 0.35, 4), (200, 0.15, 1)])
@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_draw_distances_equal_the_old_form_bit_for_bit(monkeypatch, n, radius, min_degree, seed):
    # Every square root the draw takes of an (n, n) array is of one
    # attempt's squared distances; record them.
    seen = []
    sqrt = np.sqrt

    def recording_sqrt(x, *args, **kwargs):
        if np.ndim(x) == 2:
            seen.append(np.array(x))
        return sqrt(x, *args, **kwargs)

    monkeypatch.setattr(np, "sqrt", recording_sqrt)
    net = generate_geometric(n, radius, min_degree, np.random.default_rng(seed))
    monkeypatch.undo()
    # The same stream replays each attempt's positions.
    rng = np.random.default_rng(seed)
    assert seen
    for got in seen:
        pos = rng.random((n, 2))
        assert np.array_equal(got.view(np.uint64), old_form_sq_dist(pos).view(np.uint64))
    assert np.array_equal(net.positions, pos)
    want = (np.sqrt(old_form_sq_dist(pos)) <= radius) & ~np.eye(n, dtype=bool)
    assert np.array_equal(net.adjacency, want)


def parent_draw(n, radius, min_degree, rng):
    """The scene draw as it was: each attempt's full distance and
    adjacency matrices, then the degree and connectivity checks; the
    network and the number of attempts made."""
    for attempt in range(1, MAX_ATTEMPTS + 1):
        pos = rng.random((n, 2))
        dx = pos[:, None, 0] - pos[None, :, 0]
        dy = pos[:, None, 1] - pos[None, :, 1]
        dist = np.sqrt(dx * dx + dy * dy)
        adj = (dist <= radius) & ~np.eye(n, dtype=bool)
        if adj.sum(axis=0).min() < min_degree:
            continue
        net = Network(positions=pos, adjacency=adj)
        if net.is_connected():
            return net, attempt
    raise AssertionError("no draw")


def test_rejected_attempts_leave_the_stream_where_the_parent_loop_does():
    # The large-network scene: these four trials' draws reject 7, 16, 2
    # and 13 attempts before one passes.
    attempts = []
    for trial in range(4):
        rng, replay = trial_rng(11, trial), trial_rng(11, trial)
        net = generate_geometric(200, 0.15, 4, rng)
        want, made = parent_draw(200, 0.15, 4, replay)
        attempts.append(made)
        assert rng.bit_generator.state == replay.bit_generator.state
        assert np.array_equal(net.positions, want.positions)
        assert np.array_equal(net.adjacency, want.adjacency)
    assert attempts == [8, 17, 3, 14]


def test_prune_zero_tau_removes_nothing():
    net = line_network(4)
    history = [np.zeros((4, 4)) for _ in range(10)]
    assert prune_cross_links(net, steps_below(net, history, 0.0, 10), 10) is net


def test_prune_uniform_weights_survive_sane_tau():
    net = line_network(4)
    from difftrack.combiners import static_weights

    c = np.zeros((4, 4))
    c.ravel()[net.edges.flat] = static_weights("uniform", net, np.ones(4))
    history = [c] * 10
    # Largest neighborhood has 3 members, so weights are >= 1/3.
    assert prune_cross_links(net, steps_below(net, history, 1.0 / 3.0, 10), 10) is net


def test_prune_requires_full_window():
    net = line_network(3)
    low = [np.zeros((3, 3))] * 4
    assert prune_cross_links(net, steps_below(net, low, 0.5, 5), 5) is net
    pruned = prune_cross_links(net, steps_below(net, low + [np.zeros((3, 3))], 0.5, 5), 5)
    assert pruned.adjacency.sum() == 0


def test_prune_requires_consecutive_steps():
    net = line_network(2)
    low, high = np.zeros((2, 2)), np.ones((2, 2))
    history = [low] * 4 + [high] + [low] * 4
    assert prune_cross_links(net, steps_below(net, history, 0.5, 5), 5) is net
    pruned = prune_cross_links(net, steps_below(net, history + [low], 0.5, 5), 5)
    assert pruned.adjacency.sum() == 0


def test_prune_requires_both_directions_low():
    net = line_network(2)
    c = np.array([[0.9, 0.5], [0.1, 0.5]])  # c_01 stays high
    assert prune_cross_links(net, steps_below(net, [c] * 3, 0.3, 3), 3) is net


def test_prune_is_monotone_and_keeps_positions():
    rng = np.random.default_rng(8)
    net = generate_geometric(12, 0.5, 2, rng)
    history = [rng.random((12, 12)) * 0.1 for _ in range(5)]
    pruned = prune_cross_links(net, steps_below(net, history, 0.05, 5), 5)
    assert np.array_equal(pruned.positions, net.positions)
    assert not (pruned.adjacency & ~net.adjacency).any()


def test_prune_stack_equals_each_network_alone():
    rng = np.random.default_rng(9)
    nets = [generate_geometric(12, 0.5, 2, rng) for _ in range(2)]
    history = [rng.random((2, 12, 12)) * 0.06 for _ in range(5)]
    stack = Network(np.stack([n.positions for n in nets]), np.stack([n.adjacency for n in nets]))
    below = steps_below(stack, history, 0.05, 5)
    pruned = prune_cross_links(stack, below, 5)
    assert pruned.adjacency.sum() < stack.adjacency.sum()
    for t, net in enumerate(nets):
        alone = prune_cross_links(net, below[stack.edges.trial == t], 5)
        assert np.array_equal(pruned.adjacency[t], alone.adjacency)
        assert np.array_equal(pruned.positions[t], net.positions)
    # Nothing to cut in any trial returns the stack itself.
    assert prune_cross_links(stack, np.zeros(len(stack.edges)), 5) is stack


def test_prune_window_validation():
    net = line_network(2)
    with pytest.raises(ConfigError, match="window"):
        prune_cross_links(net, np.zeros(len(net.edges)), 0)


def test_prune_needs_one_count_per_edge():
    with pytest.raises(ConfigError, match="one count per edge"):
        prune_cross_links(line_network(2), np.zeros((2, 2)), 5)


def test_below_counts_saturate_at_window():
    # 300 steps below tau would wrap a uint8 count without saturation.
    counts = np.zeros((2, 2), dtype=np.uint8)
    for _ in range(300):
        counts = count_below(counts, np.zeros((2, 2)), 0.5, 10)
    assert counts.dtype == np.uint8
    assert (counts == 10).all()
    counts = count_below(counts, np.array([[0.0, 0.7], [0.2, 0.9]]), 0.5, 10)
    assert counts.tolist() == [[10, 0], [10, 0]]
