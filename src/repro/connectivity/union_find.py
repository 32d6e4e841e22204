"""Disjoint-set (union-find) structures, sequential and array-based.

Two consumers:

* :mod:`repro.connectivity.serial_sf` wraps :class:`UnionFind` — union
  by rank + path halving, the classic near-linear sequential structure
  behind the paper's serial-SF baseline (PBBS's ``serialST``);
* the parallel spanning-forest baselines use the module-level
  :func:`find_roots` / :func:`compress_all` vectorized helpers over a
  shared parent array, the idiom of Patwary et al.'s multi-core
  disjoint-set codes.

The sequential structure uses plain Python lists internally (scalar
indexing into NumPy arrays is several times slower — see the profiling
guidance in the HPC coding guides) and *defers* its cost accounting:
operations bump plain counters and :meth:`UnionFind.flush_costs`
charges them in one call, keeping the per-edge overhead of the
sequential baseline honest.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.runtime.context import current_context

__all__ = ["UnionFind", "find_roots", "compress_all"]


COMPRESSION_STRATEGIES = ("halving", "splitting", "full", "none")


class UnionFind:
    """Sequential union-find with selectable path-compression strategy.

    Union is always by rank; *compression* picks the find-time scheme —
    the design axis Patwary, Refsnes and Manne study for their
    multi-core codes (the paper's parallel-SF-PRM baseline):

    * ``halving`` (default): every node on the path points to its
      grandparent — one pass, the PRM choice;
    * ``splitting``: like halving but advances one hop at a time;
    * ``full``: two passes, every path node repointed to the root;
    * ``none``: no compression (union-by-rank alone: O(log n) finds).

    All amortized near-constant per operation except ``none``.  Work is
    charged under the ``seq`` cost kind: the machine model never
    parallelizes it, which is what makes serial-SF flat across the
    paper's thread sweep.
    """

    def __init__(self, n: int, compression: str = "halving"):
        if compression not in COMPRESSION_STRATEGIES:
            raise ValueError(
                f"unknown compression {compression!r}; "
                f"choose from {COMPRESSION_STRATEGIES}"
            )
        self.n = n
        self.compression = compression
        self.parent: List[int] = list(range(n))
        self.rank: List[int] = [0] * n
        self._ops = 0
        current_context().tracker.add("alloc", work=float(2 * n), depth=1.0)

    def find(self, x: int) -> int:
        """Root of x's set, compressing per the selected strategy."""
        # Sequential baseline: plain list stores, not PRAM-simulated code.
        parent = self.parent
        ops = 1
        if self.compression == "halving":
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
                ops += 1
        elif self.compression == "splitting":
            while parent[x] != x:
                nxt = parent[x]
                parent[x] = parent[nxt]
                x = nxt
                ops += 1
        elif self.compression == "full":
            root = x
            while parent[root] != root:
                root = parent[root]
                ops += 1
            while parent[x] != root:
                parent[x], x = root, parent[x]
                ops += 1
            x = root
        else:  # none
            while parent[x] != x:
                x = parent[x]
                ops += 1
        self._ops += ops
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the sets of x and y; True if they were distinct."""
        rx, ry = self.find(x), self.find(y)
        self._ops += 2
        if rx == ry:
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        # Sequential baseline: one single-threaded store per union.
        self.parent[ry] = rx
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True

    def union_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """:meth:`union` over every edge ``(src[i], dst[i])``, in order.

        Returns the bool mask of the edges that merged two sets (the
        spanning-forest edges).  The sets, the ranks and the charged
        ``seq`` work end up exactly as after the per-edge :meth:`union`
        calls.  Under ``halving`` the loop is fused: both finds and the
        union by rank run inline over local copies of the parent and
        rank lists, with one local op counter.  The other strategies
        call :meth:`union` per edge.
        """
        us = np.asarray(src, dtype=np.int64).tolist()
        vs = np.asarray(dst, dtype=np.int64).tolist()
        if self.compression != "halving":
            union = self.union
            return np.array([union(u, v) for u, v in zip(us, vs)], dtype=bool)
        parent = list(self.parent)
        rank = list(self.rank)
        merged = bytearray()
        merged_append = merged.append
        hops = 0
        for x, y in zip(us, vs):
            # find(x), then find(y), each halving its path as it goes.
            px = parent[x]
            while px != x:
                gx = parent[px]
                parent[x] = gx
                x = gx
                px = parent[x]
                hops += 1
            py = parent[y]
            while py != y:
                gy = parent[py]
                parent[y] = gy
                y = gy
                py = parent[y]
                hops += 1
            if x == y:
                merged_append(0)
                continue
            rx, ry = rank[x], rank[y]
            if rx < ry:
                parent[x] = y
            else:
                parent[y] = x
                if rx == ry:
                    rank[x] = rx + 1
            merged_append(1)
        self.parent = parent
        self.rank = rank
        # Each union is two finds (one op each, plus one per hop) and
        # two ops of its own.
        self._ops += 4 * len(us) + hops
        return np.frombuffer(merged, dtype=bool)

    def flush_costs(self) -> None:
        """Charge accumulated operations as sequential work.

        No depth is charged: ``seq`` work is never divided by the core
        count in the machine model, so it already sits on the critical
        path once — charging depth too would double-count it.
        """
        if self._ops:
            current_context().tracker.add("seq", work=float(self._ops), depth=0.0)
            self._ops = 0

    def components(self) -> np.ndarray:
        """Per-element root labels (flattens all paths, sequentially)."""
        find = self.find
        roots = [find(v) for v in range(self.n)]
        self.flush_costs()
        return np.array(roots, dtype=np.int64)


def find_roots(parent: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Roots of *vertices* under *parent*, by synchronous pointer jumping.

    Each jump round advances every still-unsettled vertex one hop:
    O(total hops) work, O(max path length) rounds — the parallel
    ``find`` used by the spanning-forest baselines.  Does not mutate
    *parent*.
    """
    tracker = current_context().tracker
    cur = parent[np.asarray(vertices, dtype=np.int64)]
    rounds = 0
    while True:
        nxt = parent[cur]
        tracker.add("gather", work=float(cur.size), depth=1.0)
        rounds += 1
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt
        if rounds > 2 * parent.size + 4:  # pragma: no cover - safety net
            raise RuntimeError("find_roots failed to converge (cycle in parents?)")


def compress_all(parent: np.ndarray) -> int:
    """Full path compression: make every parent pointer point to a root.

    Mutates *parent* in place by repeated global pointer doubling
    (``parent = parent[parent]``); returns the number of rounds
    (O(log n) — each round halves every path length).  This is the
    "shortcut" step of Shiloach-Vishkin and the root-finding
    post-processing step the paper includes in the SF baselines'
    timings.
    """
    tracker = current_context().tracker
    rounds = 0
    while True:
        grand = parent[parent]
        tracker.add("gather", work=float(parent.size), depth=1.0)
        rounds += 1
        if np.array_equal(grand, parent):
            return rounds
        # Whole-array pointer jump outside any round: one writer per cell.
        parent[:] = grand
