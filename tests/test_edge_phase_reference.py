"""The adaptive step's per-edge checks and prune against their earlier forms.

The references are the forms the edge-form weight check, ``count_below``
and ``prune_cross_links`` took before they stopped making full-length
masks: the check marked every column with a negative weight and tested
every column before looking for a failing one, the counts were a new
array from one ``np.where``, and the prune built its cut mask from three
full (E,) masks. The current forms must agree with them everywhere: the
same exception and message, or none, on weights with injected faults;
the same counts in the same integer type, updated in place; and the same
surviving edges, or the network itself when nothing is cut.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from difftrack.combiners import CombinationError, static_weights, validate_combination_matrix
from difftrack.errors import NumericError
from difftrack.topology import Network, count_below, prune_cross_links


def reference_validate(c, edges, col_tol):
    """The edge-form weight check as it was: every column's negative flag
    and column-sum error first, then the first failing column."""
    if c.shape != (len(edges),):
        raise NumericError(f"combination weights shape {c.shape} wrong")
    col_err = np.abs(np.bincount(edges.key, c) - 1.0)
    negative = np.zeros(col_err.shape, dtype=bool)
    negative[edges.key[c < 0.0]] = True
    bad = np.flatnonzero(negative | ~(col_err <= col_tol))
    if bad.size:
        trial, m = divmod(int(bad[0]), edges.n_nodes)
        if negative[bad[0]]:
            what = f"combination matrix has negative entries in column {m}"
        else:
            what = f"combination matrix column {m} off stochastic by {col_err[bad[0]]:.3e}"
        raise CombinationError(what, trial)


def reference_count_below(counts, c, tau, window):
    return np.where(np.asarray(c) < tau, np.minimum(counts, window - 1) + 1, 0)


def reference_cut(net, below_steps, window):
    """The (E,) mask of the edges the prune cuts, from three full masks."""
    edges = net.edges
    reached = np.asarray(below_steps) >= window
    return reached & np.take(reached, edges.reverse) & ~edges.is_self


def random_stack(seed, t_count, n, density):
    """A stack of random symmetric adjacencies, and the generator that drew it."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((t_count, n, n)) < density, 1)
    net = Network(np.zeros((t_count, n, 2)), upper | upper.swapaxes(1, 2))
    return net, rng


def outcome(check, *args):
    """What a check does with its arguments: None, or the type, the
    message and the failing trial of what it raises."""
    try:
        check(*args)
    except NumericError as exc:
        return type(exc), str(exc), getattr(exc, "trial", None)
    return None


# Values that break a weight (negative, NaN, infinite, off by more than the
# tolerance) and values that do not (zero, a signed zero, off by less).
FAULTS = st.sampled_from(
    [-1e-300, -0.5, -0.0, 0.0, np.nan, np.inf, -np.inf, 1e-13, 1e-8, -1e-13, 2.0]
)


@given(
    seed=st.integers(0, 2**32 - 1),
    t_count=st.integers(1, 4),
    n=st.integers(1, 10),
    density=st.floats(0.0, 1.0),
    faults=st.lists(st.tuples(st.integers(0, 10**6), FAULTS, st.booleans()), max_size=4),
    col_tol=st.sampled_from([1e-12, 1e-9]),
)
@settings(max_examples=300, deadline=None)
def test_weight_check_raises_what_the_reference_raises(
    seed, t_count, n, density, faults, col_tol
):
    net, _ = random_stack(seed, t_count, n, density)
    edges = net.edges
    w = static_weights("uniform", net, None)
    # inf added to a weight made -inf gives NaN, one more fault.
    with np.errstate(invalid="ignore"):
        for at, value, added in faults:
            e = at % len(edges)
            w[e] = w[e] + value if added else value
    want = outcome(reference_validate, w, edges, col_tol)
    assert outcome(validate_combination_matrix, w, edges, col_tol) == want
    if want is None:
        # The dense form of the same weights is checked the same way.
        c = np.zeros(net.adjacency.shape)
        c.ravel()[edges.flat] = w
        assert outcome(validate_combination_matrix, c, net, col_tol) is None


@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 40),
    dtype_window=st.sampled_from(
        [(np.uint8, 1), (np.uint8, 10), (np.uint8, 254), (np.uint8, 255), (np.int16, 300),
         (np.int64, 10)]
    ),
    tau=st.floats(0.0, 1.0),
    steps=st.integers(1, 4),
)
@settings(max_examples=300, deadline=None)
def test_counts_equal_the_reference_in_place(seed, size, dtype_window, tau, steps):
    dtype, window = dtype_window
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, window + 1, size).astype(dtype)
    for _ in range(steps):
        c = rng.random(size)
        c[rng.random(size) < 0.1] = np.nan
        want = reference_count_below(counts, c, tau, window)
        got = count_below(counts, c, tau, window)
        assert got is counts
        assert got.dtype == dtype and want.dtype == dtype
        assert np.array_equal(got, want)


def test_uint8_counts_saturate_at_window_255_in_place():
    counts = np.zeros(3, dtype=np.uint8)
    for _ in range(300):
        assert count_below(counts, np.array([0.0, 0.0, 0.7]), 0.5, 255) is counts
    assert counts.dtype == np.uint8
    assert counts.tolist() == [255, 255, 0]
    assert np.array_equal(
        count_below(counts, np.array([0.0, 0.9, 0.1]), 0.5, 255),
        reference_count_below(np.array([255, 255, 0], dtype=np.uint8), [0.0, 0.9, 0.1], 0.5, 255),
    )
    assert counts.tolist() == [255, 0, 1]


@given(
    seed=st.integers(0, 2**32 - 1),
    t_count=st.integers(1, 4),
    n=st.integers(1, 10),
    density=st.floats(0.0, 1.0),
    window=st.integers(1, 12),
    reach=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_prune_keeps_what_the_reference_keeps(seed, t_count, n, density, window, reach):
    net, rng = random_stack(seed, t_count, n, density)
    edges = net.edges
    # About a share ``reach`` of the counts reach the window; the rest lie
    # below it.
    below = np.where(
        rng.random(len(edges)) < reach,
        rng.integers(window, window + 2, len(edges)),
        rng.integers(0, window, len(edges)),
    ).astype(np.min_scalar_type(window + 1))
    cut = reference_cut(net, below, window)
    pruned = prune_cross_links(net, below, window)
    if not cut.any():
        assert pruned is net
        return
    assert np.array_equal(pruned.edges.keep, ~cut)
    want = net.adjacency.copy()
    want.reshape(-1)[edges.flat[cut]] = False
    assert np.array_equal(pruned.adjacency, want)
    assert len(pruned.edges) == len(edges) - int(cut.sum())
