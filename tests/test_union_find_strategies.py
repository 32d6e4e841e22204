"""Tests for the union-find compression-strategy variants."""

import numpy as np
import pytest

from repro.connectivity.union_find import COMPRESSION_STRATEGIES, UnionFind
from repro.pram.cost import tracking

STRATEGIES = list(COMPRESSION_STRATEGIES)


@pytest.mark.parametrize("compression", STRATEGIES)
class TestStrategiesAgree:
    def test_chain_unions(self, compression):
        uf = UnionFind(50, compression=compression)
        for i in range(49):
            assert uf.union(i, i + 1)
        assert len(set(uf.components().tolist())) == 1

    def test_random_union_sequence_matches_reference(self, compression):
        rng = np.random.default_rng(3)
        ops = [(int(a), int(b)) for a, b in rng.integers(0, 40, size=(200, 2))]
        uf = UnionFind(40, compression=compression)
        ref = UnionFind(40, compression="none")
        for a, b in ops:
            assert uf.union(a, b) == ref.union(a, b)
        assert np.array_equal(
            _canon(uf.components()), _canon(ref.components())
        )

    def test_find_is_idempotent(self, compression):
        uf = UnionFind(10, compression=compression)
        uf.union(0, 5)
        uf.union(5, 7)
        r = uf.find(7)
        assert uf.find(7) == r
        assert uf.find(0) == r


def _canon(labels: np.ndarray) -> np.ndarray:
    from repro.connectivity.base import canonicalize_labels

    return canonicalize_labels(labels)


class TestStrategyProperties:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown compression"):
            UnionFind(5, compression="telepathy")

    def test_compression_shortens_later_finds(self):
        # build a long chain with no compression, then compare the cost
        # of repeated finds with full compression vs none
        def chain_cost(compression: str) -> int:
            with tracking() as t:
                uf = UnionFind(512, compression=compression)
                # force a deep structure: union in a pattern that yields
                # rank ties and longer paths
                for i in range(1, 512):
                    uf.union(0, i)
                for _ in range(3):
                    for v in range(512):
                        uf.find(v)
                uf.flush_costs()
            return int(t.work_by_kind()["seq"])

        assert chain_cost("full") <= chain_cost("none")

    def test_halving_flattens_paths(self):
        uf = UnionFind(8, compression="halving")
        # manually build a chain 7 -> 6 -> ... -> 0
        uf.parent = list(range(-1, 7))
        uf.parent[0] = 0
        uf.find(7)
        # path halving must have shortened 7's path
        assert uf.parent[7] != 6


def _multigraph_stream(seed: int, n: int, m: int):
    """Random edges with repeats, self-loops and both orientations."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    dst[: m // 10] = src[: m // 10]  # some self-loops
    src = np.concatenate((src, dst[: m // 4]))  # some reversed repeats
    dst = np.concatenate((dst, src[: m // 4]))
    return src, dst


def _seq_work(run) -> tuple:
    with tracking() as t:
        result = run()
    bucket = t.buckets.get(("unphased", "seq"))
    return result, (bucket.work, bucket.depth) if bucket else None


@pytest.mark.parametrize("compression", STRATEGIES)
class TestUnionEdgesParity:
    """The batch method is the per-edge :meth:`UnionFind.union` loop."""

    @pytest.mark.parametrize(
        "seed, n, m", [(1, 30, 120), (2, 300, 900), (3, 1000, 600)]
    )
    def test_matches_per_edge_unions(self, compression, seed, n, m):
        src, dst = _multigraph_stream(seed, n, m)

        def per_edge():
            uf = UnionFind(n, compression=compression)
            merged = [uf.union(u, v) for u, v in zip(src.tolist(), dst.tolist())]
            uf.flush_costs()
            return uf, merged

        def batch():
            uf = UnionFind(n, compression=compression)
            merged = uf.union_edges(src, dst)
            uf.flush_costs()
            return uf, merged

        (ref, ref_merged), ref_work = _seq_work(per_edge)
        (uf, merged), work = _seq_work(batch)
        assert merged.dtype == bool and merged.tolist() == ref_merged
        assert uf.parent == ref.parent
        assert uf.rank == ref.rank
        assert work == ref_work

    def test_empty_stream(self, compression):
        uf = UnionFind(4, compression=compression)
        empty = np.zeros(0, dtype=np.int64)
        merged = uf.union_edges(empty, empty)
        assert merged.shape == (0,) and merged.dtype == bool
        assert uf.parent == [0, 1, 2, 3]

    def test_components_are_the_per_vertex_finds(self, compression):
        src, dst = _multigraph_stream(4, 200, 150)
        uf = UnionFind(200, compression=compression)
        ref = UnionFind(200, compression=compression)
        for structure in (uf, ref):
            structure.union_edges(src, dst)
            structure.flush_costs()

        def per_vertex():
            roots = [ref.find(v) for v in range(200)]
            ref.flush_costs()
            return roots

        labels, work = _seq_work(uf.components)
        expected, ref_work = _seq_work(per_vertex)
        assert labels.dtype == np.int64
        assert labels.tolist() == expected
        assert work == ref_work
