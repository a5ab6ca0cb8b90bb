"""Random geometric sensor networks and cluster bookkeeping.

Nodes live in the unit square and communicate within a fixed radius.
Neighborhoods are self-inclusive: N_m always contains m, so a node's own
measurement flows through the same code path as a neighbor's. Networks are
immutable; pruning produces a new Network rather than mutating one, so
pruning is trivially monotone. Both types also hold a stack of scenes
over leading batch axes, checked and pruned by the same code as one.

A network's self-inclusive support is also kept as one ``Edges`` list for
the whole stack, which is what the engine's per-link work, the prune and
the combination-matrix check run over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

# Draws a rejection loop makes before it gives up; each loop reads it when
# called.
MAX_ATTEMPTS = 10_000


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Network:
    """Undirected geometric graph with self-inclusive neighborhoods."""

    positions: np.ndarray
    adjacency: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        adj = np.asarray(self.adjacency, dtype=bool)
        if pos.ndim < 2 or pos.shape[-1] != 2:
            raise ConfigError(f"positions must be (..., n, 2), got {pos.shape}")
        shape = pos.shape[:-1] + (pos.shape[-2],)
        if adj.shape != shape:
            raise ConfigError(f"adjacency must be {shape}, got {adj.shape}")
        if np.diagonal(adj, 0, -2, -1).any():
            raise ConfigError("adjacency must not contain self-loops")
        if not np.array_equal(adj, np.swapaxes(adj, -1, -2)):
            raise ConfigError("adjacency must be symmetric")
        object.__setattr__(self, "positions", _freeze(pos.copy()))
        object.__setattr__(self, "adjacency", _freeze(adj.copy()))

    @property
    def n_nodes(self) -> int:
        return self.positions.shape[-2]

    def is_connected(self) -> bool:
        """True when every network of the stack is one component."""
        return not component_roots(self.adjacency).any()

    @cached_property
    def edges(self) -> Edges:
        """The self-inclusive support of every network of the stack."""
        return Edges(self.adjacency)


class Edges:
    """The self-inclusive support of a (..., n, n) adjacency stack as one
    edge list, the leading axes flattened to one matrix index t.

    Edge e links row node ``row[e]`` to column node ``col[e]`` of matrix
    ``trial[e]`` (the entry c[t, row, col] of a combination matrix, the
    weight node col gives node row) and runs in order of (t, col, row), so
    each column's edges are contiguous and ascend in row. ``source`` and
    ``key`` number the row and column node over the whole stack (t*n + row,
    t*n + col): a ``np.bincount`` keyed by ``key`` sums each column in
    ascending row, as an axis -2 sum of the dense stack does. ``flat``
    indexes entry [t, row, col] of the flattened (..., n, n) stack and
    ``flat_t`` entry [t, col, row], which ascends. ``reverse[e]`` is the
    edge from col to row and ``is_self`` marks the n self-edges. ``half``
    lists, ascending, the edges with row < col: one direction of each
    link, whose reverses are the other.

    A list is built from an adjacency once per stack; the list of a pruned
    stack is filtered from its parent's by ``kept``, never rebuilt, and
    its ``keep`` is the mask over the parent's edges it was filtered by
    (None on a built list).
    """

    def __init__(self, adjacency: np.ndarray) -> None:
        n = adjacency.shape[-1]
        support = adjacency.reshape(math.prod(adjacency.shape[:-2]), n, n) | np.eye(n, dtype=bool)
        # The support is symmetric, so its nonzeros in (t, i, j) order are
        # the edges (row j, col i) in (t, col, row) order.
        self.trial, self.col, self.row = np.nonzero(support)
        self.n_nodes = n
        self.source = self.trial * n + self.row
        self.key = self.trial * n + self.col
        self.flat = self.source * n + self.col
        self.flat_t = self.key * n + self.row
        self.reverse = np.searchsorted(self.flat_t, self.flat)
        self.is_self = self.row == self.col
        self.half = np.flatnonzero(self.row < self.col)
        self.keep = None

    def __len__(self) -> int:
        return self.key.size

    def kept(self, keep: np.ndarray) -> Edges:
        """The list of the edges where the (E,) mask ``keep`` holds, in the
        same order: the list of the support that is left when the others
        go. ``keep`` must hold every self-edge and, with an edge, its
        reverse."""
        sub = object.__new__(Edges)
        sub.n_nodes = self.n_nodes
        for name in ("trial", "col", "row", "source", "key", "flat", "flat_t", "is_self"):
            setattr(sub, name, getattr(self, name)[keep])
        # Old edge e is new edge cumsum(keep)[e] - 1.
        sub.reverse = np.take(np.cumsum(keep) - 1, self.reverse[keep])
        sub.half = np.flatnonzero(sub.row < sub.col)
        sub.keep = keep
        return sub


@dataclass(frozen=True)
class ClusterAssignment:
    """Partition of nodes into clusters labeled 1..s (one s for a stack)."""

    cluster_of: np.ndarray
    s: int

    def __post_init__(self) -> None:
        labels = np.asarray(self.cluster_of, dtype=np.int64)
        if labels.ndim < 1:
            raise ConfigError("cluster_of must be a label vector")
        if self.s < 1:
            raise ConfigError(f"cluster count must be >= 1, got {self.s}")
        if labels.size and (labels.min() < 1 or labels.max() > self.s):
            raise ConfigError(f"cluster labels must lie in 1..{self.s}")
        object.__setattr__(self, "cluster_of", _freeze(labels.copy()))
        empty = np.argwhere(self.sizes == 0)
        if empty.size:
            raise ConfigError(f"cluster {empty[0, -1] + 1} is empty")

    @cached_property
    def sizes(self) -> np.ndarray:
        """Node count per cluster, (..., s), index 0 holding cluster 1."""
        return _freeze((self.cluster_of[..., None] == np.arange(1, self.s + 1)).sum(axis=-2))

    @cached_property
    def bins(self) -> np.ndarray:
        """Each node's cluster as a bin over the stack: entry b's are b*s to b*s + s - 1."""
        labels = self.cluster_of.reshape(-1, self.cluster_of.shape[-1]) - 1
        return _freeze((self.s * np.arange(len(labels))[:, None] + labels).ravel())


def component_roots(adjacency: np.ndarray) -> np.ndarray:
    """Label each node with the lowest node index in its connected component.

    ``adjacency`` is a symmetric (..., n, n) boolean stack; the result is
    (..., n). Min-label hooking with pointer jumping (Shiloach & Vishkin,
    J. Algorithms 1982) over one edge list for the whole stack, graph g's
    nodes numbered g*n to g*n + n - 1: each round a node takes the smallest
    label in its closed neighborhood, the root its old label points to
    takes it too, and every label then jumps to its root's. Labels only
    fall and always name a node of the same component, and a round that
    changes nothing leaves every edge's ends with one label, so the fixed
    point is each component's lowest node.
    """
    adj = np.asarray(adjacency, dtype=bool)
    n = adj.shape[-1]
    base = n * np.arange(math.prod(adj.shape[:-2]))
    graph, u, v = np.nonzero(adj.reshape(base.size, n, n))
    node, nbr = base[graph] + u, base[graph] + v
    roots = np.arange(base.size * n)
    while True:
        lowest = roots.copy()
        np.minimum.at(lowest, node, roots[nbr])
        new = lowest.copy()
        np.minimum.at(new, roots, lowest)
        jumped = new[new]
        while not np.array_equal(jumped, new):
            new, jumped = jumped, jumped[jumped]
        if np.array_equal(new, roots):
            return (roots.reshape(base.size, n) - base[:, None]).reshape(adj.shape[:-1])
        roots = new


def stack_scenes(nets, parts) -> tuple[Network, ClusterAssignment]:
    """Same-size scenes, one per trial, as a Network and a ClusterAssignment
    stack along a new leading trial axis; the first part's s holds for all."""
    net = Network(np.stack([n.positions for n in nets]), np.stack([n.adjacency for n in nets]))
    return net, ClusterAssignment(np.stack([p.cluster_of for p in parts]), parts[0].s)


def generate_geometric(
    n: int,
    comm_radius: float,
    min_degree: int,
    rng: np.random.Generator,
) -> Network:
    """Sample a connected random geometric graph in the unit square.

    Nodes are drawn uniformly; an edge joins every pair within
    ``comm_radius``. Draws are rejected until the graph is connected and
    every node has at least ``min_degree`` neighbors (excluding itself),
    at most ``MAX_ATTEMPTS`` times.
    """
    if n < 2:
        raise ConfigError(f"network needs at least 2 nodes, got {n}")
    if not 0.0 < comm_radius <= np.sqrt(2.0):
        raise ConfigError(
            f"comm_radius must lie in (0, sqrt(2)], got {comm_radius}"
        )
    if min_degree > n - 1:
        raise ConfigError(
            f"min_degree {min_degree} impossible with {n} nodes"
        )
    for _ in range(MAX_ATTEMPTS):
        pos = rng.random((n, 2))
        dx = pos[:, None, 0] - pos[None, :, 0]
        dy = pos[:, None, 1] - pos[None, :, 1]
        dx *= dx
        dy *= dy
        dx += dy
        within = np.sqrt(dx, out=dx) <= comm_radius
        # Each node lies within range of itself, at distance 0.
        if np.count_nonzero(within, axis=0).min() - 1 < min_degree:
            continue
        np.fill_diagonal(within, False)
        net = Network(positions=pos, adjacency=within)
        if net.is_connected():
            return net
    raise ConfigError(
        f"could not draw a connected network with min degree {min_degree} "
        f"in {MAX_ATTEMPTS} attempts; increase comm_radius ({comm_radius})"
    )


def initial_partition(
    net: Network,
    radius: float,
    rng: np.random.Generator,
) -> ClusterAssignment:
    """Split nodes into two clusters around a random cluster head.

    A head node is drawn uniformly; nodes within ``radius`` of it form
    cluster 1 and the rest form cluster 2. Redraws the head until both
    clusters are non-empty, at most ``MAX_ATTEMPTS`` times.
    """
    if net.n_nodes < 2:
        raise ConfigError("partition needs at least 2 nodes")
    for _ in range(MAX_ATTEMPTS):
        head = int(rng.integers(net.n_nodes))
        dist = np.linalg.norm(net.positions - net.positions[head], axis=1)
        labels = np.where(dist <= radius, 1, 2)
        if (labels == 1).any() and (labels == 2).any():
            return ClusterAssignment(cluster_of=labels, s=2)
    raise ConfigError(
        f"head ball of radius {radius} never split the network in "
        f"{MAX_ATTEMPTS} attempts"
    )


def weight_components(c: np.ndarray, threshold: float) -> np.ndarray:
    """The ``component_roots`` of a (..., n, n) stack of combination
    matrices under the weight relation: two nodes are linked when either
    direction of their mutual weight reaches ``threshold``."""
    c = np.asarray(c, dtype=np.float64)
    return component_roots(np.maximum(c, np.swapaxes(c, -1, -2)) >= threshold)


def root_labels(roots: np.ndarray) -> np.ndarray:
    """Number each graph's components 1, 2, ... in order of their roots.

    ``roots`` is a (..., n) ``component_roots`` result: a node is its
    component's root when it labels itself, so a root's rank among its
    graph's roots is the running count of such nodes up to it.
    """
    rank = np.cumsum(roots == np.arange(roots.shape[-1]), axis=-1)
    return np.take_along_axis(rank, roots, axis=-1)


def infer_clusters(c: np.ndarray, threshold: float) -> ClusterAssignment:
    """Read cluster structure out of one combination matrix: the
    components of ``weight_components``, labeled in order of each
    component's lowest node index so the result is deterministic.
    """
    c = np.asarray(c, dtype=np.float64)
    n = c.shape[0]
    if c.shape != (n, n):
        raise ConfigError(f"combination matrix must be square, got {c.shape}")
    labels = root_labels(weight_components(c, threshold))
    return ClusterAssignment(cluster_of=labels, s=int(labels.max(initial=0)))


def count_below(
    counts: np.ndarray, c: np.ndarray, tau: float, window: int
) -> np.ndarray:
    """Advance per-link counts of consecutive steps with weight below tau,
    in place.

    ``counts``, an integer array, and the weights ``c`` match in shape:
    one entry per link, such as one per edge of a network's ``edges``. An
    entry grows by one while its weight stays below tau and restarts at 0
    when it does not. Counts saturate at ``window``, which their type must
    hold: a link is judged only on whether its count reached the window,
    and a narrow integer type cannot wrap. ``counts`` itself is returned,
    its type unchanged.
    """
    np.minimum(counts, window - 1, out=counts)
    counts += 1
    counts *= np.asarray(c) < tau
    return counts


def prune_cross_links(net: Network, below_steps: np.ndarray, window: int) -> Network:
    """Drop edges whose weights stayed below the threshold in both directions.

    ``below_steps[e]`` is the number of consecutive latest steps on which
    the weight on edge e of ``net.edges`` stayed below the prune threshold
    (see ``count_below``), so one call prunes a whole stack. An edge (n, m)
    is removed only when both directions reached ``window``; self-edges
    never are. One pass over the counts finds the edges that reached the
    window, and only their reverses' counts are read. Returns ``net``
    unchanged (same object) when nothing qualifies; otherwise the pruned
    network's ``edges`` is ``net.edges`` filtered to the survivors, whose
    ``keep`` marks them.
    """
    if window < 1:
        raise ConfigError(f"prune window must be >= 1, got {window}")
    edges = net.edges
    below_steps = np.asarray(below_steps)
    if below_steps.shape != (len(edges),):
        raise ConfigError(f"need one count per edge, {len(edges)}, got shape {below_steps.shape}")
    reached = np.flatnonzero(below_steps >= window)
    reverse = np.take(edges.reverse, reached)
    # A self-edge is its own reverse.
    kill = reached[(np.take(below_steps, reverse) >= window) & (reverse != reached)]
    if not kill.size:
        return net
    keep = np.ones(len(edges), dtype=bool)
    keep[kill] = False
    adjacency = net.adjacency.copy()
    adjacency.reshape(-1)[np.take(edges.flat, kill)] = False
    # Cutting both directions of off-diagonal links leaves a checked
    # adjacency symmetric and free of self-loops, so the pruned network
    # skips the checks and shares its parent's frozen positions. Filling
    # the cached ``edges`` keeps the list from being rebuilt.
    pruned = object.__new__(Network)
    pruned.__dict__.update(
        positions=net.positions, adjacency=_freeze(adjacency), edges=edges.kept(keep)
    )
    return pruned
