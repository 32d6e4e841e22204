"""Pins on graph construction: the bytes every generator builds and what
the builds charge.

Building a graph is a chain of primitives (mirror, dedup sort, grouping,
scan), and each may be executed in more than one way.  These tests pin
the result rather than the route:

* the sha256 of ``offsets`` and ``targets`` for every public generator
  at seeds 1-3, under both execution backends — the golden fixtures and
  the fuzz corpus are built from these graphs;
* the ``CostTracker`` snapshot of ``from_edges``, ``from_directed_edges``
  and the generators, which the cost model reads.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine.backend import use_backend
from repro.graphs import (
    binary_tree,
    clique,
    cycle_graph,
    disjoint_union_edges,
    empty_graph,
    generators,
    grid3d,
    line_graph,
    orkut_like,
    preferential_attachment,
    random_gnm,
    random_kregular,
    rmat,
    rmat2_paper,
    rmat_paper,
    small_world,
    star_graph,
)
from repro.graphs.builder import from_directed_edges, from_edges
from repro.pram.cost import CostTracker, tracking
from repro.primitives.rand import random_permutation

BACKENDS = ("fast", "reference")

SEEDED = {
    "rmat": lambda s: rmat(14, int(3.7 * 2**14), seed=s),
    "rmat_paper": lambda s: rmat_paper(12, seed=s),
    "rmat2_paper": lambda s: rmat2_paper(7, seed=s),
    "orkut_like": lambda s: orkut_like(3000, 76.0, seed=s),
    "line": lambda s: line_graph(5000, seed=s),
    "grid3d": lambda s: grid3d(12, seed=s),
    "kregular": lambda s: random_kregular(5000, 5, seed=s),
    "gnm": lambda s: random_gnm(3000, 12000, seed=s),
    "small_world": lambda s: small_world(4000, 6, 0.1, seed=s),
    "pref_attach": lambda s: preferential_attachment(1000, 3, seed=s),
    "union": lambda s: disjoint_union_edges(
        [rmat(8, 600, seed=s), line_graph(50, seed=s), clique(7), empty_graph(3)]
    ),
}

UNSEEDED = {
    "line": lambda: line_graph(5000),
    "grid3d": lambda: grid3d(12),
    "cycle": lambda: cycle_graph(1000),
    "clique": lambda: clique(60),
    "star": lambda: star_graph(500),
    "binary_tree": lambda: binary_tree(9),
    "empty": lambda: empty_graph(10),
}


def _build(case: str):
    name, seed = case.split("/")
    return UNSEEDED[name]() if seed == "-" else SEEDED[name](int(seed))


#: sha256 over ``offsets.tobytes() + targets.tobytes()``, case ``name/seed``
#: (``-`` for no seed).
DIGESTS = {
    "binary_tree/-": "6d9b740883a3ded4e16b572d18a24d42c98b8e591e387bac295701bb080073b7",
    "clique/-": "14078f03f218807c84b1497dbb62d5c1154028ec6bea8823649288c6b25d16a0",
    "cycle/-": "fd928a3285b7ebc7d64da1f8b692265c21bea9423e173fcbb4939a88921a3eb7",
    "empty/-": "10eef285deef7a4b7c82b22aa53589b7833df29de3814649c772bbd5c832f365",
    "gnm/1": "57cbd79ea43d6181b8d4cd89430121ae85e1ee941fef804ace5a658f148ba8cf",
    "gnm/2": "12f9e1607eeddf158c76c83234f62c058db3b41154ff4d42bdffc17298afee16",
    "gnm/3": "36a6cd31c4edad4a5e69473d7fcd416185ec3c49005dc8eca2c072004d542c9f",
    "grid3d/-": "a7aa26d370592df65684c4ed2f491f3d2d4f873d88a7c809e7c80f86f23f1d4c",
    "grid3d/1": "68c5949d6e9fd23480d8c96edf0abac427c675f57becf5f3a2307255dcce9765",
    "grid3d/2": "4312566374c4adf617e86f3f8a1f6785a7f1d19fcf0c35bf40d22e4edff6cc5e",
    "grid3d/3": "2312c52dafad573a99cf9878364deedec9465720d6650e827e47fc29561a5f28",
    "kregular/1": "51936455db9ad359edebe1d30dfee49d89cd6c2990cfc133b66ec17ac9c8494d",
    "kregular/2": "f922c923abc47a50079a0372d86a25f1a3a53dd0dfeb87625c4219014b154a30",
    "kregular/3": "c4e4626037f6be094f61ee3e1259f7b3fb21df13dda4ac944a16ff8797d481d1",
    "line/-": "0e7001da8a8b72675375d2b0d66b46d2e82fbce0252ee2e7bca15aaea9b59cbc",
    "line/1": "5d990ab3d00ccea5a2da012f972460e2fc429f97124a13c68d51002b4128ad4c",
    "line/2": "1fa2153bd3a5d4ec21fd91e29c4c356693afdcb5a230d9f76790976ee6d94800",
    "line/3": "4906b738a5fc4701079e8f2864780e05e0211d5ac8addb5e64c96fe62b46a1c6",
    "orkut_like/1": "48db8816efd294fa3f9b65c24afd17451378189bf7cadbaf2ad389264d416f13",
    "orkut_like/2": "bd57ad75e00924a38bb63b36d3732c88cd182cf24978b54ea607ae21cfb76013",
    "orkut_like/3": "2bab056202b594004399ce3f592956d69b5b36e780a3c4235722abb529342d9d",
    "pref_attach/1": "6512865fc032c68b73192440228665019beecf589d5a37bc83df5a088d82bc2b",
    "pref_attach/2": "bef693e297350ade8e51359bb87a9814267395a72650db1d7feb50df3dbf4c2b",
    "pref_attach/3": "42ced97e2ca59956f4b291775118bbee0e8058e05f221b86846ddd44c51e7393",
    "rmat/1": "74754b72e0e8fb3c040c01c8bc930b519fb934681e4e108c8668042d1d0acbc0",
    "rmat/2": "d485dcbcc7b10133869ecca8c0c45436320e5f575cb4dac94d39957a5751773d",
    "rmat/3": "bff7bb9eb80131f4698c45e898fd84f193554269b43ff14726640323a8fcca6b",
    "rmat2_paper/1": "b820a0f587e03bdd5fdb608b3d208d92dd1b1deff5a05b5384ac69a715bcaba5",
    "rmat2_paper/2": "14444d678b25d45dcf6e97652dce072190bd1891ea1a8bca624d440f61510ed4",
    "rmat2_paper/3": "881faccb84190eb712ff495314ba2dc3c70a2e8d066d9ab72bb48623401a7fa4",
    "rmat_paper/1": "40af855bde177c8476cd38c85389284c7c11fd50a2848233298dadf50322ef38",
    "rmat_paper/2": "4a5eb3fb5561ae060083540640e6a738fbd2851bbae8b62ffab8421868376db0",
    "rmat_paper/3": "0b1c1cc452af6daf2894576f9ce3285da70a67744b5f775ef6587f770807b091",
    "small_world/1": "416c4a3788133a959a0dd457cd5a7305429387cbfb803523661cd7a9e363f852",
    "small_world/2": "2a36cf8265f192f61cfa67fde15c2abf5cb738876bc8286b6d15de168a2518f7",
    "small_world/3": "77f013324f5515d33531ba32be4e6a62d97f15b2a1fe6ecbd1ad42f1ef0106fa",
    "star/-": "1401fbd796a3d2422f3e792fb7d18e542a1adb9acb05e7706d9dae6f60c5afa7",
    "union/1": "b683d9eb879b0251a9bbe1a6b58e6709f1e77aac3938ffeac006485d7c6c4713",
    "union/2": "7aa5debd494205ce14d3e89cf7d779cde90db1c61bb29c5ee8e45dbc042e5136",
    "union/3": "2d82b1a04ca6d3b6ff7b2c0ff8de804c75de4816ed7c63b46a3870b750042deb",
}


def _digest(graph) -> str:
    h = hashlib.sha256()
    h.update(graph.offsets.tobytes())
    h.update(graph.targets.tobytes())
    return h.hexdigest()


#: The public generator each case name calls.
GENERATOR_OF = {
    "rmat": rmat,
    "rmat_paper": rmat_paper,
    "rmat2_paper": rmat2_paper,
    "orkut_like": orkut_like,
    "line": line_graph,
    "grid3d": grid3d,
    "kregular": random_kregular,
    "gnm": random_gnm,
    "small_world": small_world,
    "pref_attach": preferential_attachment,
    "union": disjoint_union_edges,
    "cycle": cycle_graph,
    "clique": clique,
    "star": star_graph,
    "binary_tree": binary_tree,
    "empty": empty_graph,
}


def test_every_public_generator_is_pinned():
    built = {case.split("/")[0] for case in DIGESTS}
    assert built == set(SEEDED) | set(UNSEEDED)
    called = {GENERATOR_OF[name].__name__ for name in built}
    assert called == set(generators.__all__)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_generator_bytes_are_pinned(case, backend):
    with use_backend(backend):
        assert _digest(_build(case)) == DIGESTS[case]


_EDGE_RNG = np.random.default_rng(7)
_SRC = _EDGE_RNG.integers(0, 500, 3000)
_DST = _EDGE_RNG.integers(0, 500, 3000)

BUILDS = {
    "from_edges": lambda: from_edges(_SRC, _DST, 500),
    "from_edges/keep-dups": lambda: from_edges(
        _SRC, _DST, 500, remove_duplicates=False
    ),
    "from_directed_edges": lambda: from_directed_edges(_SRC, _DST, 500),
    "rmat": lambda: rmat(10, 3000, seed=1),
    "line_graph": lambda: line_graph(1000, seed=1),
    "grid3d": lambda: grid3d(6, seed=2),
    "orkut_like": lambda: orkut_like(1000, 20.0, seed=1),
}

#: ``(kind, work, depth)`` per build, all charged outside any phase.
CHARGES = {
    "from_edges": [
        ("scan", 12486.0, 11.0),
        ("scatter", 5924.0, 1.0),
        ("sort", 17896.0, 40.720262859307624),
    ],
    "from_edges/keep-dups": [
        ("scan", 6500.0, 10.0),
        ("scatter", 5986.0, 1.0),
        ("sort", 5986.0, 13.587545573590402),
    ],
    "from_directed_edges": [
        ("scan", 500.0, 9.0),
        ("scatter", 3000.0, 1.0),
        ("sort", 3000.0, 11.044253752367945),
    ],
    "rmat": [
        ("scan", 42388.0, 14.0),
        ("scatter", 5094.0, 1.0),
        ("sort", 15822.0, 39.24067477721336),
    ],
    "line_graph": [
        ("scan", 5996.0, 13.0),
        ("scatter", 1998.0, 1.0),
        ("sort", 9994.0, 61.102307968107205),
    ],
    "grid3d": [
        ("scan", 3240.0, 12.0),
        ("scatter", 1080.0, 1.0),
        ("sort", 3024.0, 36.32063701568234),
    ],
    # The R-MAT core's raw edges go straight into the final build; see
    # test_orkut_like_matches_the_core_csr_route for what that saves.
    "orkut_like": [
        ("scan", 105884.0, 14.0),
        ("scatter", 19194.0, 1.0),
        ("sort", 66962.0, 91.13909339269311),
    ],
}


def _charges(build) -> CostTracker:
    with tracking(CostTracker()) as tracker:
        build()
    return tracker


def _assert_charges(tracker: CostTracker, pinned) -> None:
    snapshot = tracker.snapshot()
    assert sorted(kind for _phase, kind in snapshot) == [k for k, _w, _d in pinned]
    for kind, work, depth in pinned:
        got_work, got_depth = snapshot[("unphased", kind)]
        assert got_work == work, kind
        assert got_depth == pytest.approx(depth, rel=1e-12), kind


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("build", sorted(BUILDS))
def test_build_charges_are_pinned(build, backend):
    with use_backend(backend):
        _assert_charges(_charges(BUILDS[build]), CHARGES[build])


def _orkut_like_via_core_csr(n: int, avg_degree: float, seed: int):
    """``orkut_like`` as it once was: a CSR of the R-MAT core, read back."""
    rng = np.random.default_rng(seed)
    base_k = max(2, int(avg_degree * 0.2))
    base_src = np.repeat(np.arange(n, dtype=np.int64), base_k)
    base_dst = rng.integers(0, n, size=n * base_k, dtype=np.int64)
    num_core = max(0, int(n * avg_degree / 2) - n * base_k)
    scale = int(np.ceil(np.log2(n)))
    core = rmat(scale, num_core, a=0.57, b=0.19, c=0.19, seed=seed)
    src, dst = core.edge_array()
    perm = random_permutation(n, seed + 17)
    src = np.concatenate((src % n, base_src, perm))
    dst = np.concatenate((dst % n, base_dst, np.roll(perm, -1)))
    return from_edges(src, dst, num_vertices=n)


def test_orkut_like_matches_the_core_csr_route():
    # The final build mirrors, drops loops and dedups, so the raw core
    # edges give the bytes the core CSR's edges gave.  The charge falls
    # by the core CSR's build and read-back, and by the smaller final
    # build: 6000 raw core edges in place of 9354 directed ones.
    for seed in (1, 2, 3):
        assert _digest(orkut_like(1000, 20.0, seed=seed)) == _digest(
            _orkut_like_via_core_csr(1000, 20.0, seed)
        )
    _assert_charges(
        _charges(lambda: _orkut_like_via_core_csr(1000, 20.0, 1)),
        [
            ("scan", 153678.0, 28.0),
            ("scatter", 28548.0, 2.0),
            ("sort", 113732.0, 143.46201442636817),
        ],
    )
