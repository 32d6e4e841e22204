"""The verification oracle: hook-and-shortcut ground truth and its checks.

``ground_truth_labels`` must return exactly the array of a sequential
BFS sweep (component ids in first-vertex order), which this file keeps
as a test-local reference, and agree with scipy at benchmark-like
scale.  ``_component_roots``, which shortcuts only the roots each round
hooks, must return exactly the roots of the plain hook-and-shortcut
that pointer-jumps every vertex each round, also kept here.  Every
rejection of ``verify_labeling`` / ``verify_decomposition`` must still
fire with its ``reason``, and verification must charge no cost
tracker.  On graphs dense enough to take the sampled component check,
every verdict must equal the plain stream check's, kept here, both
when the sample decides and when the exact finish has to.  The sort
based normal forms must equal the ``np.unique`` formulas they replaced,
also kept here, and the oracle must import none of the layers it
checks.
"""

import ast
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.analysis.verify as oracle
from repro.analysis.verify import (
    _canonical,
    _component_roots,
    _edge_stream,
    _ordered,
    ground_truth_labels,
    labelings_equivalent,
    verify_decomposition,
    verify_labeling,
)
from repro.connectivity import canonicalize_labels
from repro.decomp import decomp_arb
from repro.errors import VerificationError
from repro.graphs import (
    CSRGraph,
    clique,
    disjoint_union_edges,
    empty_graph,
    line_graph,
    orkut_like,
    random_gnm,
    rmat,
    star_graph,
)
from repro.graphs.builder import from_edges
from repro.pram import tracking
from repro.runtime import execute_profiled

COMMON = dict(
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)


# -- test-local references ----------------------------------------------------


def bfs_sweep(graph: CSRGraph) -> np.ndarray:
    """Sequential BFS sweep: component ids in order of first vertex."""
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    offsets, targets = graph.offsets, graph.targets
    next_label = 0
    for s in range(n):
        if labels[s] != -1:
            continue
        labels[s] = next_label
        stack = [s]
        while stack:
            u = stack.pop()
            for w in targets[offsets[u] : offsets[u + 1]]:
                if labels[w] == -1:
                    labels[w] = next_label
                    stack.append(int(w))
        next_label += 1
    return labels


def first_unreached(graph: CSRGraph, labels: np.ndarray) -> Optional[int]:
    """First vertex a per-center BFS inside its own partition cannot reach."""
    seen = np.zeros(graph.num_vertices, dtype=bool)
    for c in np.unique(labels):
        seen[c] = True
        stack = [int(c)]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                w = int(w)
                if not seen[w] and labels[w] == labels[u]:
                    seen[w] = True
                    stack.append(w)
    unreached = np.flatnonzero(~seen)
    return int(unreached[0]) if unreached.size else None


def first_crossing(graph: CSRGraph, labels: np.ndarray) -> tuple:
    """First directed edge, in CSR order, whose endpoints differ in label."""
    for u in range(graph.num_vertices):
        for w in graph.neighbors(u):
            if labels[u] != labels[w]:
                return u, int(w)
    raise AssertionError("no crossing edge")


def full_jump_roots(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Hook and shortcut that pointer-jumps all *n* vertices every round.

    Each round maps every live edge to the roots of its endpoints,
    drops the edges whose endpoints share a root, hooks each larger
    root under the smallest root joined to it, then jumps every vertex
    until each points at a root.
    """
    parent = np.arange(n, dtype=np.int64)
    u, v = src, dst
    while True:
        live = u != v
        if not live.all():
            u, v = u[live], v[live]
        if not u.size:
            return parent
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        u, v = parent[u], parent[v]


def stored_edges(graph: CSRGraph) -> tuple:
    """Every directed edge as stored; ``src < dst`` only if symmetric."""
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    dst = graph.targets
    if not graph.symmetric:
        return src, dst
    keep = src < dst
    return src[keep], dst[keep]


def directed_csr(n: int, src, dst) -> CSRGraph:
    """A non-symmetric CSR holding exactly the directed edges given."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    order = np.argsort(src, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    return CSRGraph(offsets, dst[order], symmetric=False)


def bit_reversed_path(k: int) -> CSRGraph:
    """A path through 0..2^k-1 in bit-reversed order (hook loop's worst)."""
    idx = np.arange(1 << k, dtype=np.int64)
    rev = np.zeros_like(idx)
    for b in range(k):
        rev |= ((idx >> b) & 1) << (k - 1 - b)
    return from_edges(rev[:-1], rev[1:], num_vertices=1 << k)


# -- graph strategy -------------------------------------------------------------


@st.composite
def random_edges(draw, max_vertices=40, max_edges=100):
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if n == 0:
        return empty_graph(0)
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    src = np.array([a for a, _ in edges], dtype=np.int64)
    dst = np.array([b for _, b in edges], dtype=np.int64)
    keep_duplicates = draw(st.booleans())
    return from_edges(src, dst, num_vertices=n, remove_duplicates=not keep_duplicates)


@st.composite
def directed_graphs(draw, max_vertices=40, max_edges=100):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return directed_csr(n, [a for a, _ in edges], [b for _, b in edges])


def shaped_graphs():
    return st.one_of(
        st.integers(0, 8).map(empty_graph),
        st.integers(1, 30).map(star_graph),
        st.integers(1, 12).map(clique),
        st.integers(1, 40).map(line_graph),
        st.tuples(st.integers(1, 40), st.integers(0, 9)).map(
            lambda a: line_graph(a[0], seed=a[1])
        ),
        random_edges(),
    )


@st.composite
def symmetric_graphs(draw):
    parts = draw(st.lists(shaped_graphs(), min_size=1, max_size=4))
    graph = parts[0] if len(parts) == 1 else disjoint_union_edges(parts)
    if draw(st.booleans()) and graph.num_vertices > 1:
        # Rename vertices so components interleave in id order.
        perm = np.asarray(
            draw(st.permutations(range(graph.num_vertices))), dtype=np.int64
        )
        src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
        dst = graph.targets
        graph = from_edges(perm[src], perm[dst], num_vertices=graph.num_vertices)
    return graph


# -- the ground truth is the BFS sweep ------------------------------------------


class TestGroundTruthEqualsBFS:
    @settings(**COMMON)
    @given(graph=symmetric_graphs())
    def test_property_matches_bfs_sweep(self, graph):
        got = ground_truth_labels(graph)
        want = bfs_sweep(graph)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "graph",
        [
            empty_graph(0),
            empty_graph(7),
            star_graph(20),
            clique(9),
            disjoint_union_edges([clique(4), empty_graph(3), line_graph(6, seed=2)]),
            from_edges([3, 3, 1, 1], [0, 0, 2, 2], 5, remove_duplicates=False),
        ],
        ids=["empty", "isolated", "star", "clique", "union", "duplicates"],
    )
    def test_named_shapes(self, graph):
        assert np.array_equal(ground_truth_labels(graph), bfs_sweep(graph))


class TestGroundTruthAtScale:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: rmat(14, int(3.7 * 2**14), seed=5),
            lambda: line_graph(50_000, seed=4),
            lambda: orkut_like(2000),
            lambda: bit_reversed_path(16),
            lambda: random_gnm(40_000, 30_000, seed=6),
        ],
        ids=["rmat14", "line50k", "orkut2000", "bitrev-path16", "gnm-sparse"],
    )
    def test_matches_scipy(self, build):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        graph = build()
        n = graph.num_vertices
        adj = sparse.csr_matrix(
            (np.ones(graph.num_directed), graph.targets, graph.offsets), shape=(n, n)
        )
        count, theirs = csgraph.connected_components(adj, directed=False)
        ours = ground_truth_labels(graph)
        assert int(ours.max()) + 1 == count
        assert np.array_equal(ours, canonicalize_labels(theirs))


# -- the shortcut-what-moved roots equal the full-jump roots --------------------


def assert_same_roots(graph: CSRGraph) -> None:
    n = graph.num_vertices
    got = _component_roots(n, *_ordered(graph, *_edge_stream(graph)))
    want = full_jump_roots(n, *stored_edges(graph))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestRootsEqualFullJumpRoots:
    @settings(**COMMON)
    @given(graph=symmetric_graphs())
    def test_property_symmetric(self, graph):
        assert_same_roots(graph)

    @settings(**COMMON)
    @given(graph=directed_graphs())
    def test_property_non_symmetric(self, graph):
        assert_same_roots(graph)

    @pytest.mark.parametrize(
        "graph",
        [
            bit_reversed_path(12),
            star_graph(50),
            from_edges(np.full(49, 49), np.arange(49), num_vertices=50),
            empty_graph(0),
            empty_graph(6),
            directed_csr(6, [5, 4, 3, 3, 1, 2], [4, 0, 3, 1, 0, 2]),
        ],
        ids=[
            "bitrev-path12",
            "star",
            "star-center-last",
            "empty",
            "isolated",
            "directed",
        ],
    )
    def test_named_shapes(self, graph):
        assert_same_roots(graph)

    def test_bit_reversed_path_is_one_component(self):
        graph = bit_reversed_path(12)
        assert not ground_truth_labels(graph).any()

    def test_non_symmetric_graph_reads_as_undirected(self):
        # 0 -> 2, 2 -> 1 and 3 -> 4 only: {0, 1, 2} and {3, 4}.
        graph = directed_csr(5, [0, 2, 3], [2, 1, 4])
        assert ground_truth_labels(graph).tolist() == [0, 0, 0, 1, 1]
        labels = np.array([0, 0, 0, 1, 1])
        verify_labeling(graph, labels)
        with pytest.raises(VerificationError) as exc:
            verify_labeling(graph, np.array([0, 2, 0, 1, 1]))
        assert str(exc.value) == "edge (2, 1) crosses labels 0 != 2"
        # Every stored directed edge counts once: 2 -> 1 crosses.
        assert verify_decomposition(graph, np.array([0, 1, 0, 3, 3])) == 1


# -- rejections still fire --------------------------------------------------------


def _relabel(labels: np.ndarray, seed: int) -> np.ndarray:
    """The same partition under arbitrary (non-canonical) names."""
    names = np.random.default_rng(seed).permutation(labels.size + 5) * 3 + 11
    return names[labels]


@pytest.mark.parametrize("with_reference", [False, True])
class TestLabelingRejections:
    @settings(**COMMON)
    @given(graph=symmetric_graphs(), data=st.data())
    def test_merging_two_components(self, with_reference, graph, data):
        truth = ground_truth_labels(graph)
        assume(truth.size and truth.max() >= 1)
        a, b = data.draw(
            st.lists(
                st.integers(0, int(truth.max())), min_size=2, max_size=2, unique=True
            )
        )
        labels = _relabel(truth, data.draw(st.integers(0, 99)))
        verify_labeling(graph, labels, reference=truth if with_reference else None)
        labels[truth == b] = labels[np.flatnonzero(truth == a)[0]]
        with pytest.raises(VerificationError) as exc:
            verify_labeling(graph, labels, reference=truth if with_reference else None)
        assert exc.value.reason == "partition-mismatch"
        assert str(exc.value) == (
            f"labeling partitions vertices into {truth.max()} classes; "
            f"the graph has {truth.max() + 1} components"
        )

    @settings(**COMMON)
    @given(graph=symmetric_graphs(), data=st.data())
    def test_splitting_a_component_across_an_edge(self, with_reference, graph, data):
        assume(graph.num_directed)
        truth = ground_truth_labels(graph)
        src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
        e = data.draw(st.integers(0, graph.num_directed - 1))
        u, v = int(src[e]), int(graph.targets[e])
        members = np.flatnonzero(truth == truth[u])
        moved = data.draw(st.sets(st.sampled_from(members.tolist())))
        moved = (moved | {u}) - {v}
        labels = _relabel(truth, data.draw(st.integers(0, 99)))
        labels[sorted(moved)] = labels.max() + 1
        with pytest.raises(VerificationError) as exc:
            verify_labeling(graph, labels, reference=truth if with_reference else None)
        assert exc.value.reason == "crossing-edge"
        x, y = first_crossing(graph, labels)
        want = f"edge ({x}, {y}) crosses labels {labels[x]} != {labels[y]}"
        assert str(exc.value) == want


def test_planted_crossing_names_the_first_crossing_edge():
    graph = rmat(10, 3000, seed=1)
    truth = ground_truth_labels(graph)
    labels = truth.copy()
    big = np.flatnonzero(truth == np.bincount(truth).argmax())
    labels[big[big >= 700]] = truth.max() + 1
    with pytest.raises(VerificationError) as exc:
        verify_labeling(graph, labels)
    assert exc.value.reason == "crossing-edge"
    assert str(exc.value) == "edge (0, 768) crosses labels 0 != 53"
    assert first_crossing(graph, labels) == (0, 768)
    # Dense enough to take the sample: the crossing scan reads every
    # stored edge, and still names the first crossing one.
    graph = orkut_like(2000, seed=3)
    assert graph.num_directed > 4 * graph.num_vertices
    labels = ground_truth_labels(graph)
    labels[1500:] = 7
    with pytest.raises(VerificationError) as exc:
        verify_labeling(graph, labels)
    assert exc.value.reason == "crossing-edge"
    assert str(exc.value) == "edge (0, 1506) crosses labels 0 != 7"
    assert first_crossing(graph, labels) == (0, 1506)


class TestDecompositionRejections:
    @settings(**COMMON)
    @given(
        graph=symmetric_graphs(),
        beta=st.sampled_from([0.1, 0.3, 0.6]),
        seed=st.integers(0, 50),
        data=st.data(),
    )
    def test_moving_a_vertex_into_a_non_adjacent_partition(
        self, graph, beta, seed, data
    ):
        dec = decomp_arb(graph, beta=beta, seed=seed)
        labels = dec.labels.copy()
        assert verify_decomposition(graph, labels) == dec.num_inter_directed
        # A vertex can move unless it centers a partition with other members.
        n = labels.size
        sizes = np.bincount(labels, minlength=n)
        movable = [
            (x, int(c))
            for x in range(n)
            if labels[x] != x or sizes[x] == 1
            for c in np.flatnonzero(sizes)
            if c != labels[x] and not np.any(labels[graph.neighbors(x)] == c)
        ]
        assume(movable)
        x, c = data.draw(st.sampled_from(movable))
        labels[x] = c
        want = first_unreached(graph, labels)
        assert want is not None
        with pytest.raises(VerificationError) as exc:
            verify_decomposition(graph, labels, check_connected=True)
        assert exc.value.reason == "disconnected-partition"
        assert str(exc.value) == (
            f"vertex {want} cannot reach its center {labels[want]} "
            "inside its own partition"
        )
        # Without the connectivity check the same labels pass.
        verify_decomposition(graph, labels, check_connected=False)

    def test_structural_reasons(self):
        g = line_graph(4)
        cases = [
            (np.array([0, 0]), "shape"),
            (np.array([0, 0, 9, 9]), "label-range"),
            (np.array([3, 3, 0, 0]), "center-outside-partition"),
        ]
        for labels, reason in cases:
            with pytest.raises(VerificationError) as exc:
                verify_decomposition(g, labels)
            assert exc.value.reason == reason


# -- the sampled component check ------------------------------------------------


def stream_verdict(graph: CSRGraph, labels: np.ndarray) -> Optional[tuple]:
    """The check without sampling: ``(reason, message)``, or ``None``.

    One crossing scan over the edge stream, then the labels at the
    stream's component roots must be pairwise distinct.
    """
    src, dst = stored_edges(graph)
    crossing = labels[src] != labels[dst]
    if crossing.any():
        i = int(np.argmax(crossing))
        u, v = int(src[i]), int(dst[i])
        return (
            "crossing-edge",
            f"edge ({u}, {v}) crosses labels {int(labels[u])} != {int(labels[v])}",
        )
    n = graph.num_vertices
    roots = np.flatnonzero(full_jump_roots(n, src, dst) == np.arange(n))
    if np.unique(labels[roots]).size < roots.size:
        return (
            "partition-mismatch",
            f"labeling partitions vertices into {np.unique(labels).size} "
            f"classes; the graph has {roots.size} components",
        )
    return None


def verdict(graph: CSRGraph, labels: np.ndarray) -> Optional[tuple]:
    try:
        verify_labeling(graph, labels)
    except VerificationError as exc:
        return exc.reason, str(exc)
    return None


#: Label namings: wide and narrow, signed and unsigned, and names that
#: do not fit in 32 bits.
NAMINGS = [
    lambda x: x,
    lambda x: x.astype(np.int32) - 3,
    lambda x: x.astype(np.uint64) * 5,
    lambda x: x * (1 << 33) - 7,
    lambda x: -x,
]


@st.composite
def labelings(draw, graph: CSRGraph):
    """Right, merged, split and random labelings of *graph*, renamed."""
    truth = ground_truth_labels(graph)
    n = truth.size
    kind = draw(st.sampled_from(["right", "merged", "split", "random"]))
    if kind == "random":
        labels = np.asarray(
            draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=np.int64
        )
    else:
        labels = truth.copy()
    if kind == "merged" and n and truth.max() >= 1:
        a, b = draw(
            st.lists(
                st.integers(0, int(truth.max())), min_size=2, max_size=2, unique=True
            )
        )
        labels[truth == b] = a
    if kind == "split" and n:
        moved = draw(st.sets(st.integers(0, n - 1), min_size=1))
        labels[sorted(moved)] = n
    names = np.random.default_rng(draw(st.integers(0, 99))).permutation(n + 4)
    return draw(st.sampled_from(NAMINGS))(names[labels])


@st.composite
def dense_graphs(draw):
    """Symmetric graphs storing more than four edges per vertex.

    A union of cliques, random graphs and paths, topped up with one
    more clique when the parts are too sparse, with the vertices
    optionally renamed so that the components interleave.
    """
    parts = draw(
        st.lists(
            st.one_of(
                st.integers(1, 10).map(clique),
                random_edges(max_vertices=12, max_edges=60),
                st.integers(1, 8).map(line_graph),
            ),
            min_size=1,
            max_size=4,
        )
    )
    n = sum(p.num_vertices for p in parts)
    m = sum(p.num_directed for p in parts)
    k = 1
    while m + k * (k - 1) <= 4 * (n + k):
        k += 1
    if m <= 4 * n:
        parts.append(clique(k))
    graph = disjoint_union_edges(parts)
    if draw(st.booleans()):
        perm = np.asarray(
            draw(st.permutations(range(graph.num_vertices))), dtype=np.int64
        )
        src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
        graph = from_edges(
            perm[src], perm[graph.targets], num_vertices=graph.num_vertices
        )
    return graph


@st.composite
def dense_directed_graphs(draw):
    """Non-symmetric graphs with more than four stored edges per vertex."""
    n = draw(st.integers(1, 12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=4 * n + 1,
            max_size=8 * n + 1,
        )
    )
    return directed_csr(n, [a for a, _ in edges], [b for _, b in edges])


@st.composite
def bridged_cliques(draw):
    """Two k-cliques joined by one bridge stored at rank >= 2 at both ends.

    Each vertex's first two stored edges stay inside its clique, so the
    two-edge sample splits the one component in two.
    """
    k = draw(st.integers(5, 9))
    ids = np.asarray(draw(st.permutations(range(2 * k))), dtype=np.int64)
    a, b = ids[:k], ids[k:]
    bridges = [
        (int(u), int(v))
        for u in a
        for v in b
        if (a < v).sum() - (u < v) >= 2 and (b < u).sum() - (v < u) >= 2
    ]
    assume(bridges)
    u, v = draw(st.sampled_from(bridges))
    i, j = np.triu_indices(k, 1)
    src = np.concatenate([a[i], b[i], [u]])
    dst = np.concatenate([a[j], b[j], [v]])
    return from_edges(src, dst, num_vertices=2 * k)


def counted_roots():
    """Patch the oracle's ``_component_roots`` with a spy that wraps it."""
    return mock.patch.object(oracle, "_component_roots", wraps=_component_roots)


class TestSampledComponentCheck:
    @settings(**COMMON)
    @given(graph=dense_graphs(), data=st.data())
    def test_property_symmetric_verdict_equals_the_stream_check(self, graph, data):
        labels = data.draw(labelings(graph))
        assert verdict(graph, labels) == stream_verdict(graph, labels)

    @settings(**COMMON)
    @given(graph=dense_directed_graphs(), data=st.data())
    def test_property_directed_verdict_equals_the_stream_check(self, graph, data):
        labels = data.draw(labelings(graph))
        assert verdict(graph, labels) == stream_verdict(graph, labels)

    @settings(**COMMON)
    @given(graph=bridged_cliques())
    def test_right_labels_pass_through_the_exact_finish(self, graph):
        n = graph.num_vertices
        assert graph.num_directed > 4 * n
        with counted_roots() as roots:
            verify_labeling(graph, np.zeros(n, dtype=np.int64))
        # The sample leaves two components, so the finish runs too.
        assert roots.call_count == 2
        assert roots.call_args_list[0].args[1].size <= 2 * n

    @settings(**COMMON)
    @given(first=bridged_cliques(), second=bridged_cliques())
    def test_merged_labels_fail_after_the_exact_finish(self, first, second):
        graph = disjoint_union_edges([first, second])
        labels = np.zeros(graph.num_vertices, dtype=np.int64)
        with counted_roots() as roots:
            with pytest.raises(VerificationError) as exc:
                verify_labeling(graph, labels)
        assert roots.call_count == 2
        assert exc.value.reason == "partition-mismatch"
        assert str(exc.value) == (
            "labeling partitions vertices into 1 classes; the graph has 2 components"
        )
        verify_labeling(graph, ground_truth_labels(graph))

    def test_a_dense_graph_exits_on_the_sample(self):
        graph = orkut_like(2000, seed=3)
        n = graph.num_vertices
        labels = ground_truth_labels(graph) + 4
        with counted_roots() as roots:
            verify_labeling(graph, labels)
        assert roots.call_count == 1
        assert roots.call_args_list[0].args[1].size <= 2 * n

    def test_a_sparse_graph_reads_the_stream(self):
        graph = line_graph(100, seed=2)
        with counted_roots() as roots:
            verify_labeling(graph, np.zeros(100, dtype=np.int64))
        assert roots.call_count == 1
        assert roots.call_args_list[0].args[1].size == 99


# -- the normal form ---------------------------------------------------------------


def unique_canonical(labels: np.ndarray) -> np.ndarray:
    """The oracle's former normal form, through ``np.unique``."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse.reshape(-1)]


def unique_canonicalize_labels(labels: np.ndarray) -> np.ndarray:
    """``canonicalize_labels``' former body, through ``np.unique``."""
    _, first_index, inverse = np.unique(
        labels, return_index=True, return_inverse=True
    )
    order = np.argsort(np.argsort(first_index, kind="stable"), kind="stable")
    return order[inverse].astype(np.int64)


@st.composite
def label_arrays(draw):
    """Label arrays of several integer dtypes, with few or sparse names."""
    dtype = np.dtype(
        draw(st.sampled_from([np.int64, np.int32, np.int8, np.uint8, np.uint64]))
    )
    info = np.iinfo(dtype)
    elements = draw(
        st.sampled_from(
            [
                st.integers(max(info.min, -3), 3),
                st.integers(int(info.min), int(info.max)),
            ]
        )
    )
    return draw(hnp.arrays(dtype, st.integers(0, 60), elements=elements))


class TestNormalForm:
    @settings(**COMMON)
    @given(labels=label_arrays())
    def test_property_oracle_form_equals_the_unique_formula(self, labels):
        got, want = _canonical(labels), unique_canonical(labels)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(**COMMON)
    @given(labels=label_arrays())
    def test_property_canonicalize_labels_equals_the_unique_formula(self, labels):
        with tracking() as tracker:
            got = canonicalize_labels(labels)
        want = unique_canonicalize_labels(labels)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert tracker.phase_kind_work() == {"unphased": {"scan": float(labels.size)}}
        assert tracker.total_depth() == 1.0


# -- the oracle imports none of the layers it checks --------------------------------


def test_the_oracle_imports_no_checked_layer():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""]
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
    assert "repro.errors" in imported
    checked = ("repro.primitives", "repro.engine", "repro.connectivity")
    bad = [m for m in imported if any(m == c or m.startswith(c + ".") for c in checked)]
    assert not bad


# -- verification charges no tracker ----------------------------------------------


def _snapshot(tracker):
    return (
        tracker.total_work(),
        tracker.total_depth(),
        tracker.sync_count,
        tracker.phase_kind_work(),
        tracker.phase_kind_depth(),
    )


def test_verification_leaves_the_enclosing_tracker_unchanged():
    graph = line_graph(50, seed=1)
    dec = decomp_arb(graph, beta=0.2, seed=1)
    with tracking() as outer:
        with outer.phase("caller"):
            outer.add("scan", work=7.0, depth=1.0)
        before = _snapshot(outer)
        truth = ground_truth_labels(graph)
        verify_labeling(graph, truth)
        verify_labeling(graph, truth, reference=truth)
        assert labelings_equivalent(truth, truth)
        verify_decomposition(graph, dec.labels, check_connected=True)
        execute_profiled("decomp-arb-CC", graph, verify=True)
        assert _snapshot(outer) == before
