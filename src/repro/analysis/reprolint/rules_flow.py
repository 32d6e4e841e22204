"""The flow rule (RL008) and the rule docs.

RL008 runs on :mod:`.cfg` (per-function control-flow graphs) and
:mod:`.dataflow` (forward typestate solver) instead of per-function
AST pattern matching:

RL008  Contextvar-token lifecycle typestate.  Every token a
       ``ContextVar.set`` returns must be ``reset`` on *every* CFG
       path, normal and exceptional.

Scoping lives in :mod:`.linter`; the checker keeps the classic
``(module_ast, path_key) -> list[Violation]`` signature and checks
each function of the module on its own.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .cfg import build_cfg
from .dataflow import run_forward
from .rules import RULE_CHECKERS, Violation, iter_functions

__all__ = ["FLOW_RULE_CHECKERS", "RULE_DOCS"]


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Walk *fn* skipping nested function/class bodies (lambdas stay)."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# RL008 — contextvar-token lifecycle typestate
# ---------------------------------------------------------------------------

_ST_UNCLAIMED = "unclaimed"
_ST_CLAIMED = "claimed"
_ST_RELEASED = "released"
_ST_MAYBE = "maybe"

#: (var, event) where event is "claim" | "release" | "rebind".
_Event = Tuple[str, str]


def _is_token_set(value: ast.expr) -> bool:
    """Is *value* a ``<contextvar>.set(x)`` call (which returns a token)?"""
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "set"
        and len(value.args) == 1
        and not value.keywords
    )


def _stmt_events(stmt: Optional[ast.AST], tracked: Set[str]) -> List[_Event]:
    """Token events one CFG node's own statement performs."""
    if stmt is None or isinstance(stmt, (ast.Try, ast.ExceptHandler)):
        return []
    scan: List[ast.AST]
    if isinstance(stmt, (ast.If, ast.While)):
        scan = list(ast.walk(stmt.test))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        scan = list(ast.walk(stmt.iter))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        scan = [n for item in stmt.items for n in ast.walk(item.context_expr)]
    else:
        scan = [
            n
            for n in ast.walk(stmt)
            if not isinstance(n, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
    events: List[_Event] = []
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        claims = _is_token_set(stmt.value)
        for target in targets:
            try:
                var = ast.unparse(target)
            except Exception:  # pragma: no cover - malformed target
                continue
            if claims:
                events.append((var, "claim"))
            elif var in tracked:
                events.append((var, "rebind"))
    for node in scan:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reset"
            and len(node.args) == 1
        ):
            try:
                var = ast.unparse(node.args[0])
            except Exception:  # pragma: no cover
                continue
            if var in tracked:
                events.append((var, "release"))
    return events


def _collect_tracked(fn: ast.AST) -> Set[str]:
    """Every name the function binds to a contextvar token."""
    tracked: Set[str] = set()
    for node in _own_nodes(fn):
        if (
            isinstance(node, (ast.Assign, ast.AnnAssign))
            and node.value is not None
            and _is_token_set(node.value)
        ):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                try:
                    tracked.add(ast.unparse(target))
                except Exception:  # pragma: no cover
                    pass
    return tracked


def check_rl008(tree: ast.Module, path: str) -> List[Violation]:
    """Contextvar tokens proven reset on every CFG path."""
    violations: List[Violation] = []

    for qualname, fn in iter_functions(tree):
        tracked = _collect_tracked(fn)
        if not tracked:
            continue
        cfg = build_cfg(fn)  # type: ignore[arg-type]
        events = {
            nid: _stmt_events(node.stmt, tracked)
            for nid, node in cfg.nodes.items()
        }
        claim_once: Set[Tuple[int, str]] = set()

        StateT = Optional[Dict[str, str]]

        def join(a: StateT, b: StateT) -> StateT:
            if a is None:
                return dict(b) if b is not None else None
            if b is None:
                return dict(a)
            return {
                var: (a[var] if a[var] == b[var] else _ST_MAYBE)
                for var in a
            }

        def transfer(nid: int, state: StateT) -> StateT:
            if state is None:
                return None
            out = dict(state)
            for var, event in events[nid]:
                if event == "claim":
                    if out.get(var) == _ST_CLAIMED:
                        claim_once.add((cfg.nodes[nid].line, var))
                    out[var] = _ST_CLAIMED
                elif event == "release":
                    out[var] = _ST_RELEASED
                else:  # rebind without claiming
                    out[var] = _ST_UNCLAIMED
            return out

        init: Dict[str, str] = {var: _ST_UNCLAIMED for var in tracked}
        result = run_forward(
            cfg,
            init=init,
            bottom=None,
            transfer=transfer,
            join=join,
            equals=lambda a, b: a == b,
        )
        for line, var in sorted(claim_once):
            violations.append(
                Violation(
                    rule="RL008",
                    path=path,
                    line=line,
                    col=0,
                    qualname=qualname,
                    message=(
                        f"contextvar token {var!r} set again while the "
                        "previous token is still unreset"
                    ),
                )
            )
        for node, via_exc in cfg.exit_preds():
            out_state = result.out_states.get(node.nid)
            if via_exc:
                out_state = join(
                    result.in_states.get(node.nid), out_state  # type: ignore[arg-type]
                )
            if not isinstance(out_state, dict):
                continue
            for var, state in out_state.items():
                if state == _ST_CLAIMED:
                    kind = "an exceptional" if via_exc else "a return"
                    violations.append(
                        Violation(
                            rule="RL008",
                            path=path,
                            line=node.line or fn.lineno,
                            col=0,
                            qualname=qualname,
                            message=(
                                f"contextvar token {var!r} still set on "
                                f"{kind} path; reset it in a finally block "
                                "covering every exit"
                            ),
                        )
                    )
    return violations


# ---------------------------------------------------------------------------
# Rule documentation (``repro lint --explain RLxxx``)
# ---------------------------------------------------------------------------

RULE_DOCS: Dict[str, str] = {
    "RL001": (
        "Shared-array writes must route through primitives.atomics.\n\n"
        "A bare subscript store (labels[idx] = ...) into a shared array —\n"
        "a parameter, self.<attr>, or an alias of either — is the bug\n"
        "class the simulated CRCW machine exists to prevent. Legal claim\n"
        "scatters are registered in the reprolint.toml allowlist.\n\n"
        "Runtime counterpart: the PRAM race sanitizer's post-round\n"
        "snapshot diff (repro --sanitize)."
    ),
    "RL003": (
        "Edge-expanding kernels must charge the cost tracker on every\n"
        "post-expand return path.\n\n"
        "Otherwise the (work, depth) profiles undercount exactly when a\n"
        "kernel exits early and the figures silently diverge from the\n"
        "paper's O(m) accounting.\n\n"
        "Runtime counterpart: the cost-model parity fixtures."
    ),
    "RL004": (
        "No np.random module-global state and no wall-clock reads in\n"
        "simulation code.\n\n"
        "Randomness flows through seeded generators (primitives.rand /\n"
        "default_rng(seed)); real time belongs to the measuring layers\n"
        "(experiments/, obs/, runtime/session.py) and the bench/ harness.\n\n"
        "Runtime counterpart: byte-identical golden parity replays."
    ),
    "RL008": (
        "Contextvar-token lifecycle typestate: every token a\n"
        "ContextVar.set() returns must be reset() on every CFG path,\n"
        "normal and exceptional — i.e. in a finally block covering\n"
        "every exit — and may not be set again while still unreset.\n\n"
        "The analysis runs a forward typestate dataflow\n"
        "{unclaimed, claimed, released, maybe} over the per-function\n"
        "CFG, including exceptional edges; only definitely-set exits\n"
        "are flagged, so conditional sets reset conditionally stay\n"
        "clean.\n\n"
        "Runtime counterpart: tests/test_lint_runtime_crossval.py (a\n"
        "leaked token leaves current_context() returning the leaked\n"
        "context after an exception).\n"
        "Allowlist policy: none expected; restructure with try/finally."
    ),
    "RL010": (
        "Observational purity of the tracing layer (repro.obs).\n\n"
        "Tracer and metrics code observes a run; it may never write\n"
        "back: no subscript/augmented/attribute stores rooted at a\n"
        "function parameter (the run state handed in for observation),\n"
        "no in-place np.* or ndarray-method mutation, no cost-tracker\n"
        "charges (tracker.add/sync). Timestamps are wall-clock by\n"
        "design — repro.obs is exempt from RL004's clock ban, and this\n"
        "rule polices its purity instead.\n\n"
        "Runtime counterpart: the tracing-determinism parity tests\n"
        "(tests/test_obs.py) replay golden captures with tracing off\n"
        "and on and require byte-identical labelings and charges.\n"
        "Allowlist policy: none expected; fix the tracer instead."
    ),
}


FLOW_RULE_CHECKERS: Dict[str, Callable[[ast.Module, str], List[Violation]]] = {
    "RL008": check_rl008,
}

# One registry for the linter and the tests: the flow rule joins the
# syntactic ones.
RULE_CHECKERS.update(FLOW_RULE_CHECKERS)
