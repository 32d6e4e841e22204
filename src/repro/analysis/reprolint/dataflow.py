"""Forward dataflow engine for the flow lint rule (RL008).

:func:`run_forward` is a generic worklist solver over a per-function
:class:`~repro.analysis.reprolint.cfg.CFG` for must-style lifecycle
analyses.  RL008 instantiates it with the {UNCLAIMED, CLAIMED,
RELEASED, MAYBE} lattice.  Exceptional edges propagate
``join(in, out)`` of the raising statement, modelling a raise at any
point mid-statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Set, TypeVar

from .cfg import CFG

__all__ = ["run_forward"]


# -- generic forward CFG solver -------------------------------------------

S = TypeVar("S")


@dataclass
class ForwardResult:
    """IN/OUT states per CFG node after the worklist converges."""

    in_states: Dict[int, Any] = field(default_factory=dict)
    out_states: Dict[int, Any] = field(default_factory=dict)


def run_forward(
    cfg: CFG,
    *,
    init: S,
    bottom: S,
    transfer: Callable[[int, S], S],
    join: Callable[[S, S], S],
    equals: Callable[[S, S], bool],
) -> ForwardResult:
    """Forward worklist solver over *cfg*.

    ``transfer(nid, in_state)`` is the per-node transfer function.
    Normal edges propagate the OUT state; exceptional edges propagate
    ``join(in, out)`` — a raising statement may have executed any
    prefix of its effects, so the landing state must cover both the
    before and after views.  ``bottom`` is the identity of ``join``
    (the state of an unvisited node).
    """
    in_states: Dict[int, S] = {nid: bottom for nid in cfg.nodes}
    out_states: Dict[int, S] = {nid: bottom for nid in cfg.nodes}
    in_states[cfg.entry] = init
    work: List[int] = [cfg.entry]
    seen: Set[int] = {cfg.entry}
    while work:
        nid = work.pop(0)
        seen.discard(nid)
        node = cfg.nodes[nid]
        out = transfer(nid, in_states[nid])
        out_states[nid] = out
        exc_out = join(in_states[nid], out)
        for succ, prop in [(s, out) for s in node.succs] + [
            (s, exc_out) for s in node.exc_succs
        ]:
            merged = join(in_states[succ], prop)
            if not equals(merged, in_states[succ]):
                in_states[succ] = merged
                if succ not in seen:
                    seen.add(succ)
                    work.append(succ)
    result = ForwardResult()
    result.in_states = dict(in_states)
    result.out_states = dict(out_states)
    return result
