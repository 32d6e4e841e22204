"""The fuzzer's unit of work: one fully serializable test case.

A :class:`FuzzCase` pins everything one differential-oracle execution
needs — the input graph (either a named generator *family* with its
parameters, or an explicit edge list for shrunk repros) and the run
configuration (algorithm, decomposition parameters, execution backends,
sanitizer arming, optional fault plan).  Cases round-trip through JSON
so a failure found by the fuzzer can be checked in under
``tests/fuzz_corpus/`` and replayed forever (``repro replay``,
``tests/test_fuzz.py``); determinism is absolute — a case contains no
ambient state, and every random choice it implies is derived from seeds
stored inside it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ParameterError
from repro.graphs.builder import from_edges
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import (
    clique,
    empty_graph,
    line_graph,
    random_gnm,
    rmat,
    star_graph,
)

__all__ = [
    "CASE_FORMAT",
    "CaseGraph",
    "CaseConfig",
    "FuzzCase",
    "FAMILY_BUILDERS",
    "build_case_graph",
]

#: On-disk format version of a serialized case.
CASE_FORMAT = 1


def _lollipop(params: Dict[str, int]) -> CSRGraph:
    """A clique with a path glued to one clique vertex.

    The classic mixing-time adversary: dense core, long sparse tail —
    exactly the shape where a BFS-frontier bug and a contraction bug
    disagree about when the tail joins the core's component.
    """
    k = int(params.get("clique", 4))
    tail = int(params.get("tail", 4))
    edges: List[Tuple[int, int]] = []
    for u in range(k):
        for v in range(u + 1, k):
            edges.append((u, v))
    for i in range(tail):
        a = k - 1 if i == 0 else k + i - 1
        edges.append((a, k + i))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return from_edges(src, dst, num_vertices=k + tail)


def _bridged_cliques(params: Dict[str, int]) -> CSRGraph:
    """Two cliques joined by a single bridge edge (plus optional slack).

    A decomposition that misclassifies the bridge merges or splits two
    dense blobs — the single-edge sensitivity case.
    """
    k1 = int(params.get("clique1", 4))
    k2 = int(params.get("clique2", 4))
    slack = int(params.get("isolated", 0))
    edges: List[Tuple[int, int]] = []
    for u in range(k1):
        for v in range(u + 1, k1):
            edges.append((u, v))
    for u in range(k2):
        for v in range(u + 1, k2):
            edges.append((k1 + u, k1 + v))
    if k1 and k2:
        edges.append((k1 - 1, k1))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return from_edges(src, dst, num_vertices=k1 + k2 + slack)


def _path(params: Dict[str, int]) -> CSRGraph:
    seed = params.get("relabel_seed")
    return line_graph(int(params.get("n", 2)), seed=seed)


def _star(params: Dict[str, int]) -> CSRGraph:
    return star_graph(int(params.get("n", 2)))


def _clique(params: Dict[str, int]) -> CSRGraph:
    return clique(int(params.get("n", 2)))


def _near_empty(params: Dict[str, int]) -> CSRGraph:
    return empty_graph(int(params.get("n", 0)))


def _rmat(params: Dict[str, int]) -> CSRGraph:
    return rmat(
        int(params.get("scale", 5)),
        int(params.get("m", 32)),
        seed=int(params.get("seed", 1)),
    )


def _random(params: Dict[str, int]) -> CSRGraph:
    return random_gnm(
        int(params.get("n", 8)),
        int(params.get("m", 8)),
        seed=int(params.get("seed", 1)),
    )


#: family name -> builder(params) — every entry is a pure function of
#: its params dict, so a family case replays identically anywhere.
FAMILY_BUILDERS = {
    "path": _path,
    "star": _star,
    "clique": _clique,
    "lollipop": _lollipop,
    "bridged-cliques": _bridged_cliques,
    "near-empty": _near_empty,
    "rmat": _rmat,
    "random": _random,
}


@dataclass(frozen=True)
class CaseGraph:
    """The input graph of a case: a generator family or explicit edges.

    ``kind == "family"`` names a :data:`FAMILY_BUILDERS` entry with its
    parameter dict; ``kind == "edges"`` stores a raw undirected edge
    list (duplicates and self-loops allowed — exercising the builder's
    canonicalization is part of the point) plus an explicit vertex
    count, which may exceed ``max(id) + 1`` to encode isolated
    max-index vertices.
    """

    kind: str
    family: Optional[str] = None
    params: Dict[str, int] = field(default_factory=dict)
    num_vertices: int = 0
    edges: Tuple[Tuple[int, int], ...] = ()

    def to_json(self) -> Dict[str, object]:
        if self.kind == "family":
            return {"kind": "family", "family": self.family, "params": dict(self.params)}
        return {
            "kind": "edges",
            "num_vertices": self.num_vertices,
            "edges": [[int(u), int(v)] for u, v in self.edges],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "CaseGraph":
        kind = data.get("kind")
        if kind == "family":
            family = str(data["family"])
            if family not in FAMILY_BUILDERS:
                raise ParameterError(
                    f"unknown fuzz graph family {family!r}; "
                    f"expected one of {sorted(FAMILY_BUILDERS)}"
                )
            return cls(
                kind="family",
                family=family,
                params={str(k): int(v) for k, v in dict(data.get("params", {})).items()},  # type: ignore[call-overload]
            )
        if kind == "edges":
            return cls(
                kind="edges",
                num_vertices=int(data["num_vertices"]),  # type: ignore[arg-type]
                edges=tuple(
                    (int(u), int(v)) for u, v in data.get("edges", [])  # type: ignore[union-attr]
                ),
            )
        raise ParameterError(f"unknown case graph kind {kind!r}")


@dataclass(frozen=True)
class CaseConfig:
    """The run configuration half of a case.

    ``beta``/``seed`` only reach algorithms that accept them (the
    decomp variants); ``backends`` lists the execution backends the
    oracle runs differentially; ``fault`` is a
    :mod:`repro.resilience.faults` spec string armed (with
    ``fault_seed``) for the run; ``planted`` names a deliberate bug
    from :mod:`repro.fuzz.planted` so a shrunk planted-bug repro keeps
    failing on replay.
    """

    algorithm: str
    beta: float = 0.2
    seed: int = 1
    backends: Tuple[str, ...] = ("reference", "fast")
    sanitize: bool = False
    fault: Optional[str] = None
    fault_seed: int = 0
    planted: Optional[str] = None

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "algorithm": self.algorithm,
            "beta": self.beta,
            "seed": self.seed,
            "backends": list(self.backends),
            "sanitize": self.sanitize,
        }
        if self.fault is not None:
            out["fault"] = self.fault
            out["fault_seed"] = self.fault_seed
        if self.planted is not None:
            out["planted"] = self.planted
        return out

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "CaseConfig":
        return cls(
            algorithm=str(data["algorithm"]),
            beta=float(data.get("beta", 0.2)),  # type: ignore[arg-type]
            seed=int(data.get("seed", 1)),  # type: ignore[arg-type]
            backends=tuple(str(b) for b in data.get("backends", ["reference", "fast"])),  # type: ignore[union-attr]
            sanitize=bool(data.get("sanitize", False)),
            fault=data.get("fault"),  # type: ignore[arg-type]
            fault_seed=int(data.get("fault_seed", 0)),  # type: ignore[arg-type]
            planted=data.get("planted"),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class FuzzCase:
    """One serializable (graph, config) pair with a stable identity."""

    graph: CaseGraph
    config: CaseConfig
    case_id: str = ""
    note: str = ""

    def content_hash(self) -> str:
        """Hash of the case *content* (id and note excluded)."""
        payload = json.dumps(
            {"graph": self.graph.to_json(), "config": self.config.to_json()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "format": CASE_FORMAT,
            "id": self.case_id or f"case-{self.content_hash()}",
            "graph": self.graph.to_json(),
            "config": self.config.to_json(),
        }
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FuzzCase":
        fmt = int(data.get("format", 0))  # type: ignore[arg-type]
        if fmt != CASE_FORMAT:
            raise ParameterError(
                f"fuzz case format {fmt} not understood "
                f"(this code reads format {CASE_FORMAT})"
            )
        return cls(
            graph=CaseGraph.from_json(data["graph"]),  # type: ignore[arg-type]
            config=CaseConfig.from_json(data["config"]),  # type: ignore[arg-type]
            case_id=str(data.get("id", "")),
            note=str(data.get("note", "")),
        )

    def with_graph(self, graph: CaseGraph) -> "FuzzCase":
        return replace(self, graph=graph)

    def with_config(self, config: CaseConfig) -> "FuzzCase":
        return replace(self, config=config)


def build_case_graph(spec: CaseGraph) -> CSRGraph:
    """Materialize a case's input graph (pure function of the spec)."""
    if spec.kind == "family":
        if spec.family not in FAMILY_BUILDERS:
            raise ParameterError(
                f"unknown fuzz graph family {spec.family!r}; "
                f"expected one of {sorted(FAMILY_BUILDERS)}"
            )
        return FAMILY_BUILDERS[spec.family](spec.params)
    if spec.kind == "edges":
        if spec.edges:
            src = np.array([e[0] for e in spec.edges], dtype=np.int64)
            dst = np.array([e[1] for e in spec.edges], dtype=np.int64)
        else:
            src = np.zeros(0, dtype=np.int64)
            dst = np.zeros(0, dtype=np.int64)
        return from_edges(src, dst, num_vertices=spec.num_vertices)
    raise ParameterError(f"unknown case graph kind {spec.kind!r}")
