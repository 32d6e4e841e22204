"""The interprocedural flow rule (RL008) and the rule docs.

RL008 runs on the framework trio — :mod:`.cfg` (per-function
control-flow graphs), :mod:`.callgraph` (module call graph with
registry resolution), :mod:`.dataflow` (forward typestate solver) —
instead of per-function AST pattern matching:

RL008  Resource lifecycle typestate.  Claim/release pairs (Session
       pool, contextvar tokens) must release on *every* CFG path,
       normal and exceptional; ``acquire_workspace`` is claim-once and
       its result must be bound.

Scoping lives in :mod:`.linter`; the checker keeps the classic
``(module_ast, path_key) -> list[Violation]`` signature, building a
single-module :class:`~repro.analysis.reprolint.callgraph.Program`
per file.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import Program
from .cfg import build_cfg
from .dataflow import run_forward
from .rules import RULE_CHECKERS, Violation

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
# RL008 — resource lifecycle typestate
# ---------------------------------------------------------------------------

_ST_UNCLAIMED = "unclaimed"
_ST_CLAIMED = "claimed"
_ST_RELEASED = "released"
_ST_MAYBE = "maybe"

#: (kind, var, event) where event is "claim" | "release" | "rebind".
_Event = Tuple[str, str, str]

_EXIT_CHECKED_KINDS = ("pool", "token")
_KIND_DESC = {
    "pool": "Session pool claim",
    "token": "contextvar token",
    "workspace": "workspace claim",
}


def _claim_of(value: ast.expr) -> Optional[Tuple[str, Optional[ast.Call]]]:
    """Kind of claim a bound RHS value performs, if any."""
    for node in ast.walk(value):
        if isinstance(node, (ast.Lambda,)):
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "_claim_pool":
                return "pool", node
            if node.func.attr == "acquire_workspace":
                return "workspace", node
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Attribute)
        and value.func.attr == "set"
        and len(value.args) == 1
        and not value.keywords
    ):
        return "token", value
    return None


def _stmt_events(
    stmt: Optional[ast.AST], tracked: Dict[str, str]
) -> List[_Event]:
    """Lifecycle events one CFG node's own statement performs."""
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
        claim = _claim_of(stmt.value)
        for target in targets:
            try:
                var = ast.unparse(target)
            except Exception:  # pragma: no cover - malformed target
                continue
            if claim is not None:
                events.append((claim[0], var, "claim"))
            elif var in tracked:
                events.append((tracked[var], var, "rebind"))
    for node in scan:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "_release_pool" and node.args:
            try:
                events.append(("pool", ast.unparse(node.args[0]), "release"))
            except Exception:  # pragma: no cover
                pass
        elif node.func.attr == "reset" and len(node.args) == 1:
            try:
                var = ast.unparse(node.args[0])
            except Exception:  # pragma: no cover
                continue
            if tracked.get(var) == "token":
                events.append(("token", var, "release"))
    return events


def _collect_tracked(fn: ast.AST) -> Dict[str, str]:
    """var -> kind for every claim the function performs."""
    tracked: Dict[str, str] = {}
    for node in _own_nodes(fn):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            claim = _claim_of(node.value)
            if claim is None:
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                try:
                    tracked[ast.unparse(target)] = claim[0]
                except Exception:  # pragma: no cover
                    pass
    return tracked


def check_rl008(tree: ast.Module, path: str) -> List[Violation]:
    """Claim/release lifecycles proven safe on every CFG path."""
    program = Program({path: tree})
    violations: List[Violation] = []

    for info in program.functions_in(path):
        fn = info.node
        # Discarded acquire results first: ownership must be bound.
        for stmt in _own_nodes(fn):
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr in ("acquire_workspace", "_claim_pool")
            ):
                violations.append(
                    Violation(
                        rule="RL008",
                        path=path,
                        line=stmt.lineno,
                        col=stmt.col_offset,
                        qualname=info.qualname,
                        message=(
                            f"{stmt.value.func.attr}() result discarded; "
                            "the claim must be bound so it can be released "
                            "(or the workspace ownership tracked)"
                        ),
                    )
                )
        # Workspace claims are claim-once *per function*, regardless of
        # which name each claim binds: the first acquire takes the
        # pooled arena, so a second in the same function silently works
        # on a fresh arena — almost certainly not what the author meant.
        ws_claims = sorted(
            (
                node
                for node in _own_nodes(fn)
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                and node.value is not None
                and (claim := _claim_of(node.value)) is not None
                and claim[0] == "workspace"
            ),
            key=lambda node: node.lineno,
        )
        for extra in ws_claims[1:]:
            violations.append(
                Violation(
                    rule="RL008",
                    path=path,
                    line=extra.lineno,
                    col=extra.col_offset,
                    qualname=info.qualname,
                    message=(
                        "second acquire_workspace() in one function "
                        "(claim-once contract): only the first claim gets "
                        "the pooled arena; hoist or thread the workspace"
                    ),
                )
            )
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
            for kind, var, event in events[nid]:
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
            if tracked[var] == "workspace":
                continue  # covered by the per-function claim-once scan
            violations.append(
                Violation(
                    rule="RL008",
                    path=path,
                    line=line,
                    col=0,
                    qualname=info.qualname,
                    message=(
                        f"{_KIND_DESC[tracked[var]]} {var!r} claimed again "
                        "while already claimed (claim-once contract)"
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
                if (
                    state == _ST_CLAIMED
                    and tracked.get(var) in _EXIT_CHECKED_KINDS
                ):
                    kind = "an exceptional" if via_exc else "a return"
                    violations.append(
                        Violation(
                            rule="RL008",
                            path=path,
                            line=node.line or fn.lineno,
                            col=0,
                            qualname=info.qualname,
                            message=(
                                f"{_KIND_DESC[tracked[var]]} {var!r} still "
                                f"claimed on {kind} path; release it in a "
                                "finally block covering every exit"
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
    "RL002": (
        "No allocating NumPy calls in the fast-backend kernels.\n\n"
        "Steady-state rounds draw buffers from the Workspace arena; a\n"
        "fresh np.zeros/np.concatenate (without out=) re-introduces the\n"
        "per-round allocation the backend seam removed. Zero-length\n"
        "sentinels (np.zeros(0)) are exempt.\n\n"
        "Runtime counterpart: Workspace.bytes_held plateaus asserted by\n"
        "the arena tests."
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
        "default_rng(seed)); real time belongs to the wall-clock harness\n"
        "(analysis/wallclock.py).\n\n"
        "Runtime counterpart: byte-identical golden parity replays."
    ),
    "RL008": (
        "Resource lifecycle typestate: Session pool claims\n"
        "(_claim_pool/_release_pool) and contextvar tokens (set/reset)\n"
        "must release on every CFG path, normal and exceptional —\n"
        "i.e. in a finally block covering every exit.\n"
        "acquire_workspace() is claim-once and its result must be bound.\n\n"
        "The analysis runs a forward typestate dataflow\n"
        "{unclaimed, claimed, released, maybe} over the per-function\n"
        "CFG, including exceptional edges; only definitely-claimed exits\n"
        "are flagged, so conditional claims released conditionally stay\n"
        "clean.\n\n"
        "Runtime counterpart: the concurrency smoke tests (a leaked pool\n"
        "claim deadlocks the session pool).\n"
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
