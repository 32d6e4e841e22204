"""The repo-specific AST rules (RL001, RL003, RL004, RL010) and their docs.

Each rule is a function ``(module_ast, path_key) -> list[Violation]``.
Scoping — which files each rule applies to — lives in
:mod:`repro.analysis.reprolint.linter`; the rules themselves only
inspect syntax.  The catalog, with rationale and worked examples, is
``docs/static_analysis.md``.

RL001  Shared-array writes must route through ``primitives.atomics``.
       A bare subscript store (``labels[idx] = ...``) whose base array
       is *shared* — a parameter, ``self.<attr>``, or an alias of
       either — is the exact bug class the simulated CRCW machine
       exists to prevent.  Legal claim scatters live in the kernel
       registry (the ``reprolint.toml`` allowlist).
RL003  A kernel that expands edges must charge the cost tracker on
       every return path *after* the expansion — otherwise the (work,
       depth) profiles undercount exactly when a kernel exits early
       and the figures silently diverge from the paper's.
RL004  No ``np.random`` module-global state and no wall-clock reads in
       simulation code: randomness flows through seeded generators
       (``primitives.rand`` / ``default_rng(seed)``), real time only
       through the measuring layers (``experiments/``, ``obs/``,
       ``runtime/session.py``) and the ``bench/`` harness.
RL010  Observational purity of the tracing layer (``repro.obs``): code
       there may never mutate caller-owned state — no subscript or
       augmented stores into parameters, no attribute stores on them,
       no mutating ``np.*`` calls or in-place ndarray methods, and no
       cost-tracker charges.  With the tracer active, a run must be
       byte-identical to the untraced run; the golden tracing-parity
       tests check that empirically, this rule pins it structurally.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["Violation", "RULE_CHECKERS", "RULE_DOCS", "iter_functions"]


@dataclass(frozen=True)
class Violation:
    """One rule hit, pinned to file:line for the report."""

    rule: str
    path: str
    line: int
    col: int
    qualname: str
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col + 1}: {self.rule} "
            f"{self.message} [{self.qualname}]"
        )


def iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[str, ast.FunctionDef]]:
    """Yield ``(qualname, node)`` for every function/method in a module."""

    def walk(body: List[ast.stmt], prefix: str) -> Iterator[
        Tuple[str, ast.FunctionDef]
    ]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                yield qualname, node  # type: ignore[misc]
                yield from walk(node.body, f"{qualname}.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")

    yield from walk(tree.body, "")


def _root_name(expr: ast.expr) -> Optional[ast.expr]:
    """The base Name/terminal of an Attribute/Subscript access chain."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr


def _chain_has_private(expr: ast.expr) -> bool:
    """Does any attribute on the access chain start with an underscore?

    Underscore-prefixed containers (``self._memo[key]``) are host-side
    Python bookkeeping — dicts, caches, memo tables — not simulated
    PRAM memory, so RL001 does not treat stores into them as shared
    writes.
    """
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        if isinstance(expr, ast.Attribute) and expr.attr.startswith("_"):
            return True
        expr = expr.value
    return isinstance(expr, ast.Name) and expr.id.startswith("_")


class _SharedNames:
    """Intra-function shared/local classification of names.

    Parameters and ``self``-rooted state are *shared*; names bound from
    call results (fresh arrays, gathers) are *local*; names
    bound from shared names (``C = state.C``) inherit sharedness.
    Unknown names (module globals, loop variables) are conservatively
    treated as not shared — RL001 favors precision over recall, and the
    runtime sanitizer backstops what the heuristic cannot see.
    """

    def __init__(self, fn: ast.FunctionDef) -> None:
        self.shared: Set[str] = set()
        self.local: Set[str] = set()
        args = fn.args
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *( [args.vararg] if args.vararg else [] ),
            *( [args.kwarg] if args.kwarg else [] ),
        ):
            self.shared.add(a.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._bind(target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._bind(node.target, node.value)

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                self._bind(t, v)
            return
        if not isinstance(target, ast.Name):
            return
        kind = self._classify(value)
        if kind == "shared":
            self.shared.add(target.id)
            self.local.discard(target.id)
        elif kind == "local":
            self.local.add(target.id)
            self.shared.discard(target.id)

    def _classify(self, value: ast.expr) -> str:
        if isinstance(value, ast.Call):
            return "local"
        if isinstance(value, (ast.Attribute, ast.Subscript, ast.Name)):
            root = _root_name(value)
            if isinstance(root, ast.Name):
                if root.id in self.shared:
                    return "shared"
                if root.id in self.local:
                    return "local"
            return "unknown"
        # Arithmetic, comparisons, literals, comprehensions: fresh values.
        return "local"

    def is_shared(self, expr: ast.expr) -> bool:
        root = _root_name(expr)
        return isinstance(root, ast.Name) and root.id in self.shared


def check_rl001(tree: ast.Module, path: str) -> List[Violation]:
    """Bare subscript stores into shared arrays."""
    violations: List[Violation] = []
    for qualname, fn in iter_functions(tree):
        names = _SharedNames(fn)
        for node in ast.walk(fn):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                for sub in _subscript_targets(target):
                    base = sub.value
                    if _chain_has_private(base):
                        continue
                    if names.is_shared(base):
                        violations.append(
                            Violation(
                                rule="RL001",
                                path=path,
                                line=sub.lineno,
                                col=sub.col_offset,
                                qualname=qualname,
                                message=(
                                    "bare write into shared array "
                                    f"{ast.unparse(base)!r}; route through "
                                    "primitives.atomics or register the "
                                    "kernel in reprolint.toml"
                                ),
                            )
                        )
    return violations


def _subscript_targets(target: ast.expr) -> Iterator[ast.Subscript]:
    if isinstance(target, ast.Subscript):
        yield target
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _subscript_targets(elt)


#: The CSRGraph methods that expand a frontier's edges.
_EXPAND_METHODS = frozenset({"expand", "expand_targets"})


def _is_expand_call(node: ast.Call) -> bool:
    return isinstance(node.func, ast.Attribute) and node.func.attr in _EXPAND_METHODS


def _is_charge_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in ("end_round", "write_min", "first_winner")
    if isinstance(func, ast.Attribute) and func.attr in ("add", "sync"):
        base = func.value
        if isinstance(base, ast.Name):
            return "tracker" in base.id
        if isinstance(base, ast.Attribute):
            # ctx.tracker.add / current_context().tracker.add
            return base.attr == "tracker"
    return False


@dataclass
class _ChargeState:
    expanded: bool = False
    uncharged: bool = False  # an expand with no later charge on this path
    terminated: bool = False  # every path through here returned/raised


def check_rl003(tree: ast.Module, path: str) -> List[Violation]:
    """Edge-expanding kernels must charge on every post-expand return path."""
    violations: List[Violation] = []
    for qualname, fn in iter_functions(tree):
        if not any(
            isinstance(n, ast.Call) and _is_expand_call(n)
            for n in ast.walk(fn)
        ):
            continue

        def visit_stmts(
            stmts: List[ast.stmt], state: _ChargeState
        ) -> _ChargeState:
            for stmt in stmts:
                if state.terminated:
                    break
                state = visit(stmt, state)
            return state

        def scan_expr(stmt: ast.stmt, state: _ChargeState) -> _ChargeState:
            # Order within one statement: expansion happens in the
            # value, charges count afterwards — both marks in source
            # order is more precision than these kernels need, so any
            # charge call in the same statement clears the flag.
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and _is_expand_call(node):
                    state.expanded = True
                    state.uncharged = True
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and _is_charge_call(node):
                    state.uncharged = False
            return state

        def visit(stmt: ast.stmt, state: _ChargeState) -> _ChargeState:
            if isinstance(stmt, ast.Return):
                state = scan_expr(stmt, state)
                if state.expanded and state.uncharged:
                    violations.append(
                        Violation(
                            rule="RL003",
                            path=path,
                            line=stmt.lineno,
                            col=stmt.col_offset,
                            qualname=qualname,
                            message=(
                                "return after graph.expand() without "
                                "charging the cost tracker "
                                "(end_round/tracker.add) on this path"
                            ),
                        )
                    )
                state.terminated = True
                return state
            if isinstance(stmt, ast.Raise):
                state.terminated = True
                return state
            if isinstance(stmt, ast.If):
                then = visit_stmts(
                    stmt.body, _ChargeState(state.expanded, state.uncharged)
                )
                other = visit_stmts(
                    stmt.orelse, _ChargeState(state.expanded, state.uncharged)
                )
                if then.terminated and other.terminated:
                    state.terminated = True
                elif then.terminated:
                    state = other
                elif other.terminated:
                    state = then
                else:
                    state = _ChargeState(
                        then.expanded or other.expanded,
                        then.uncharged or other.uncharged,
                    )
                return state
            if isinstance(stmt, (ast.With, ast.For, ast.While)):
                inner = visit_stmts(stmt.body, state)
                # A loop body may run zero times, so a return inside it
                # does not terminate the outer path; a with-body does.
                if not isinstance(stmt, ast.With):
                    inner.terminated = False
                return visit_stmts(getattr(stmt, "orelse", []), inner)
            if isinstance(stmt, ast.Try):
                state = visit_stmts(stmt.body, state)
                for handler in stmt.handlers:
                    h = visit_stmts(
                        handler.body,
                        _ChargeState(state.expanded, state.uncharged),
                    )
                    state.uncharged = state.uncharged or h.uncharged
                state.terminated = False
                return visit_stmts(stmt.finalbody, state)
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                return state  # nested defs are separate kernels
            return scan_expr(stmt, state)

        final = visit_stmts(fn.body, _ChargeState())
        if not final.terminated and final.expanded and final.uncharged:
            violations.append(
                Violation(
                    rule="RL003",
                    path=path,
                    line=fn.lineno,
                    col=fn.col_offset,
                    qualname=qualname,
                    message=(
                        "kernel falls off the end after graph.expand() "
                        "without charging the cost tracker"
                    ),
                )
            )
    return violations


#: ``np.random.<fn>`` calls that read/write NumPy's module-global RNG
#: state.  ``np.random.default_rng(seed)`` and ``Generator`` methods
#: are the sanctioned, seedable alternative.
_RL004_GLOBAL_RANDOM = frozenset(
    {
        "seed", "rand", "randn", "random", "randint", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "exponential", "poisson", "get_state", "set_state",
    }
)

_RL004_CLOCKS = frozenset(
    {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "clock",
    }
)


def check_rl004(tree: ast.Module, path: str) -> List[Violation]:
    """Global RNG state / wall-clock reads in simulation code."""
    violations: List[Violation] = []
    qualnames: Dict[int, str] = {}
    for qualname, fn in iter_functions(tree):
        for node in ast.walk(fn):
            qualnames.setdefault(id(node), qualname)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        qualname = qualnames.get(id(node), "<module>")
        base = func.value
        if (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
            and func.attr in _RL004_GLOBAL_RANDOM
        ):
            violations.append(
                Violation(
                    rule="RL004",
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    qualname=qualname,
                    message=(
                        f"np.random.{func.attr} uses module-global RNG "
                        "state; use primitives.rand / a seeded "
                        "default_rng"
                    ),
                )
            )
        elif (
            isinstance(base, ast.Name)
            and base.id == "time"
            and func.attr in _RL004_CLOCKS
        ):
            violations.append(
                Violation(
                    rule="RL004",
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    qualname=qualname,
                    message=(
                        f"wall-clock read time.{func.attr} in simulation "
                        "code; real time belongs to the measuring layers "
                        "(experiments/, obs/, runtime/session.py) and bench/"
                    ),
                )
            )
        elif (
            func.attr in ("now", "utcnow")
            and isinstance(base, (ast.Name, ast.Attribute))
            and (
                (isinstance(base, ast.Name) and base.id == "datetime")
                or (
                    isinstance(base, ast.Attribute)
                    and base.attr == "datetime"
                )
            )
        ):
            violations.append(
                Violation(
                    rule="RL004",
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    qualname=qualname,
                    message=(
                        f"datetime.{func.attr}() wall-clock read in "
                        "simulation code; real time belongs to the "
                        "measuring layers and bench/"
                    ),
                )
            )
    return violations


#: ``np.*`` callables that mutate an existing array in place.
_RL010_NP_MUTATORS = frozenset(
    {"copyto", "put", "place", "putmask", "fill_diagonal", "shuffle"}
)

#: ndarray methods that mutate the receiver in place.
_RL010_METHOD_MUTATORS = frozenset(
    {"fill", "sort", "partition", "put", "resize", "itemset"}
)


def _fn_params(fn: ast.FunctionDef) -> Set[str]:
    args = fn.args
    names = {
        a.arg
        for a in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        )
    }
    return names - {"self", "cls"}


def check_rl010(tree: ast.Module, path: str) -> List[Violation]:
    """Observational purity: the obs layer never mutates what it watches.

    Inside ``repro.obs``, any write whose target is rooted at a function
    parameter (the run state handed in for observation), any in-place
    ``np.*`` / ndarray-method mutation, and any cost-tracker charge
    (``tracker.add``/``tracker.sync``) is a violation.  Mutation of the
    tracer's *own* state (``self.events``, local dicts) is fine.
    """
    violations: List[Violation] = []

    def hit(node: ast.AST, qualname: str, message: str) -> None:
        violations.append(
            Violation(
                rule="RL010",
                path=path,
                line=node.lineno,  # type: ignore[attr-defined]
                col=node.col_offset,  # type: ignore[attr-defined]
                qualname=qualname,
                message=message,
            )
        )

    for qualname, fn in iter_functions(tree):
        params = _fn_params(fn)
        for node in ast.walk(fn):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                for sub in _subscript_targets(target):
                    root = _root_name(sub.value)
                    if isinstance(root, ast.Name) and root.id in params:
                        hit(
                            sub,
                            qualname,
                            f"store into caller-owned {root.id!r}; the "
                            "observability layer observes, it never writes",
                        )
                if isinstance(target, ast.Attribute):
                    root = _root_name(target)
                    if isinstance(root, ast.Name) and root.id in params:
                        hit(
                            target,
                            qualname,
                            f"attribute store on caller-owned {root.id!r} "
                            "from tracer code",
                        )
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                func = node.func
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")
                    and func.attr in _RL010_NP_MUTATORS
                ):
                    hit(
                        node,
                        qualname,
                        f"in-place np.{func.attr} in tracer code",
                    )
                root = _root_name(func.value)
                if (
                    func.attr in _RL010_METHOD_MUTATORS
                    and isinstance(root, ast.Name)
                    and root.id in params
                ):
                    hit(
                        node,
                        qualname,
                        f"in-place .{func.attr}() on caller-owned "
                        f"{root.id!r} from tracer code",
                    )
                if func.attr in ("add", "sync", "end_round"):
                    base = func.value
                    is_tracker = (
                        isinstance(base, ast.Name) and "tracker" in base.id
                    ) or (
                        isinstance(base, ast.Attribute)
                        and base.attr == "tracker"
                    )
                    if is_tracker:
                        hit(
                            node,
                            qualname,
                            "tracer code charges the cost tracker; "
                            "tracing must not perturb (work, depth)",
                        )
    return violations


#: rule id -> checker, in report order.
RULE_CHECKERS = {
    "RL001": check_rl001,
    "RL003": check_rl003,
    "RL004": check_rl004,
    "RL010": check_rl010,
}

#: rule id -> its documentation (``repro lint --explain RLxxx``).
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
