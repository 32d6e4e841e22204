"""Units for the flow-rule lint framework (cfg/dataflow).

These pin the framework semantics RL008 relies on:

* CFG construction — branch joins, loop back edges, ``with`` bodies,
  try/finally routing (a ``return`` inside ``try`` flows through the
  ``finally``), exceptional edges into handlers and out of the
  function, unreachable-tail pruning;
* the generic forward solver — exceptional edges propagate
  ``join(in, out)``, so a raise mid-statement is modelled soundly.
"""

from __future__ import annotations

import ast
from typing import Dict

from repro.analysis.reprolint import build_cfg, run_forward


def fn(source: str) -> ast.FunctionDef:
    node = ast.parse(source).body[0]
    assert isinstance(node, ast.FunctionDef)
    return node


def cfg_lines(cfg) -> Dict[int, set]:
    """source line -> set of node ids (synthetic nodes map to 0)."""
    out: Dict[int, set] = {}
    for node in cfg.nodes.values():
        out.setdefault(node.line, set()).add(node.nid)
    return out


class TestCFGConstruction:
    def test_straight_line_chain(self):
        cfg = build_cfg(fn("def f():\n    a = 1\n    b = 2\n    return b\n"))
        exits = cfg.exit_preds()
        # Only the return reaches the exit, and on a normal edge.
        assert [(n.line, via) for n, via in exits] == [(4, False)]

    def test_if_join(self):
        cfg = build_cfg(
            fn(
                "def f(x):\n"
                "    if x:\n"
                "        y = 1\n"
                "    else:\n"
                "        y = 2\n"
                "    return y\n"
            )
        )
        preds = cfg.preds()
        lines = cfg_lines(cfg)
        (ret,) = lines[6]
        # Both branch arms flow into the return.
        feeding = {cfg.nodes[p].line for p in preds[ret]}
        assert {3, 5} <= feeding

    def test_while_back_edge(self):
        cfg = build_cfg(
            fn("def f(x):\n    while x:\n        x -= 1\n    return x\n")
        )
        lines = cfg_lines(cfg)
        (header,) = lines[2]
        (body,) = lines[3]
        assert header in cfg.nodes[body].succs  # back edge

    def test_with_body_is_linked(self):
        cfg = build_cfg(
            fn(
                "def f(cm):\n"
                "    with cm() as h:\n"
                "        use(h)\n"
                "    return 1\n"
            )
        )
        lines = cfg_lines(cfg)
        (w,) = lines[2]
        (body,) = lines[3]
        assert body in cfg.nodes[w].succs

    def test_comprehension_is_one_node(self):
        cfg = build_cfg(
            fn(
                "def f(spans):\n"
                "    tasks = [w for w in spans if w]\n"
                "    return tasks\n"
            )
        )
        lines = cfg_lines(cfg)
        assert len(lines[2]) == 1  # the comprehension stays one statement

    def test_return_routes_through_finally(self):
        cfg = build_cfg(
            fn(
                "def f(r):\n"
                "    t = r.set(1)\n"
                "    try:\n"
                "        return work()\n"
                "    finally:\n"
                "        r.reset(t)\n"
            )
        )
        # No normal exit edge comes from the return itself: it must
        # pass through the finally body first.
        normal_exit_lines = {n.line for n, via in cfg.exit_preds() if not via}
        assert 4 not in normal_exit_lines
        assert 6 in normal_exit_lines

    def test_raising_call_reaches_handler(self):
        cfg = build_cfg(
            fn(
                "def f():\n"
                "    try:\n"
                "        risky()\n"
                "    except ValueError:\n"
                "        cleanup()\n"
                "    return 1\n"
            )
        )
        lines = cfg_lines(cfg)
        (risky,) = lines[3]
        (cleanup,) = lines[5]
        # risky() has an exceptional path leading (via the handler
        # head) to the cleanup statement.
        reach = set()
        work = list(cfg.nodes[risky].exc_succs)
        while work:
            nid = work.pop()
            if nid in reach:
                continue
            reach.add(nid)
            work.extend(cfg.nodes[nid].succs)
        assert cleanup in reach

    def test_unhandled_raise_is_exceptional_exit(self):
        cfg = build_cfg(fn("def f():\n    raise ValueError('no')\n"))
        assert [(n.line, via) for n, via in cfg.exit_preds()] == [(2, True)]

    def test_unreachable_tail_pruned(self):
        cfg = build_cfg(
            fn("def f():\n    return 1\n    dead()\n")
        )
        assert 3 not in cfg_lines(cfg)


class TestForwardSolver:
    def _solve(self, source: str):
        graph = build_cfg(fn(source))

        def transfer(nid: int, state: str) -> str:
            stmt = graph.nodes[nid].stmt
            text = ast.unparse(stmt) if stmt is not None else ""
            if "claim" in text:
                return "C"
            if "release" in text:
                return "R"
            return state

        def join(a: str, b: str) -> str:
            if a == "_":
                return b
            if b == "_":
                return a
            return a if a == b else "?"

        result = run_forward(
            graph,
            init="U",
            bottom="_",
            transfer=transfer,
            join=join,
            equals=lambda a, b: a == b,
        )
        return graph, result

    def test_exceptional_edge_joins_before_and_after(self):
        graph, result = self._solve(
            "def f(pool):\n"
            "    ws = claim(pool)\n"
            "    try:\n"
            "        work(ws)\n"
            "    finally:\n"
            "        release(ws)\n"
        )
        # The claim statement itself may raise before taking effect,
        # so its exceptional out-state is join(U, C) = ?, never a
        # definite C — exactly why RL008 does not flag the claim line.
        (claim_nid,) = cfg_lines(graph)[2]
        node = graph.nodes[claim_nid]
        assert result.out_states[claim_nid] == "C"
        for succ in node.exc_succs:
            assert result.in_states[succ] == "?"

    def test_release_dominates_normal_exit(self):
        graph, result = self._solve(
            "def f(pool):\n"
            "    ws = claim(pool)\n"
            "    try:\n"
            "        work(ws)\n"
            "    finally:\n"
            "        release(ws)\n"
        )
        for node, via in graph.exit_preds():
            if not via:
                assert result.out_states[node.nid] == "R"
