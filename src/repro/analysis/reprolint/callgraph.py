"""Module-level call graphs with class-aware method resolution.

:class:`Program` indexes one or more parsed modules: every function
and method by qualified name, every class with its base-class chain.
:meth:`Program.resolve_call` maps a call expression to the candidate
callee(s):

* ``f(...)`` — the module-level function named ``f`` (same module
  first, then any analyzed module);
* ``self.m(...)`` — method ``m`` on the enclosing class, walking the
  (name-resolved) base chain, exactly how ``Workspace`` inherits the
  ``NullWorkspace`` vocabulary;
* ``Class.m(...)`` / ``Class(...)`` — the named class's method /
  ``__init__``;
* ``obj.m(...)`` with a receiver whose class is locally evident
  (``obj = Class(...)`` in the same function) — that class's ``m``;
* ``obj.m(...)`` with an *unknown* receiver — **registry resolution**:
  every analyzed class that defines (or inherits) ``m``.  This is how
  calls through the execution-backend seam (a workspace handed over as
  ``state.ws``) resolve to all registered implementations
  (``NullWorkspace`` / ``Workspace``), so an analysis covers whichever
  backend runs.

Resolution is deliberately an over-approximation: extra candidates
make any analysis built on top *more* conservative, never less.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["FunctionInfo", "ClassInfo", "Program"]

FunctionNode = ast.FunctionDef  # AsyncFunctionDef shares the layout


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    path: str
    qualname: str
    node: FunctionNode
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> List[str]:
        args = self.node.args
        out = [a.arg for a in (*args.posonlyargs, *args.args)]
        if args.vararg:
            out.append(args.vararg.arg)
        out.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg:
            out.append(args.kwarg.arg)
        return out


@dataclass
class ClassInfo:
    """One analyzed class: direct methods plus named bases."""

    path: str
    name: str
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


class Program:
    """A set of parsed modules with a resolvable call structure."""

    def __init__(self, modules: Dict[str, ast.Module]) -> None:
        self.modules = modules
        #: (path, qualname) -> FunctionInfo, insertion-ordered.
        self.functions: Dict[Tuple[str, str], FunctionInfo] = {}
        #: module-level functions by bare name (cross-module).
        self._by_name: Dict[str, List[FunctionInfo]] = {}
        #: classes by bare name (cross-module).
        self.classes: Dict[str, ClassInfo] = {}
        for path, tree in modules.items():
            self._index_module(path, tree)

    # -- indexing ----------------------------------------------------------

    def _index_module(self, path: str, tree: ast.Module) -> None:
        def walk(body: List[ast.stmt], prefix: str, cls: Optional[ClassInfo]) -> None:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}{node.name}"
                    info = FunctionInfo(
                        path=path,
                        qualname=qualname,
                        node=node,  # type: ignore[arg-type]
                        class_name=cls.name if cls is not None else None,
                    )
                    self.functions[(path, qualname)] = info
                    if cls is not None:
                        cls.methods.setdefault(node.name, info)
                    else:
                        self._by_name.setdefault(node.name, []).append(info)
                    walk(node.body, f"{qualname}.", None)
                elif isinstance(node, ast.ClassDef):
                    cinfo = ClassInfo(
                        path=path,
                        name=node.name,
                        bases=[
                            base.id
                            for base in node.bases
                            if isinstance(base, ast.Name)
                        ]
                        + [
                            base.attr
                            for base in node.bases
                            if isinstance(base, ast.Attribute)
                        ],
                    )
                    self.classes.setdefault(node.name, cinfo)
                    walk(node.body, f"{node.name}.", cinfo)

        walk(tree.body, "", None)

    # -- queries -----------------------------------------------------------

    def functions_in(self, path: str) -> Iterator[FunctionInfo]:
        for (p, _), info in self.functions.items():
            if p == path:
                yield info

    def method_on(self, class_name: str, method: str) -> Optional[FunctionInfo]:
        """Resolve *method* on *class_name*, walking the base chain."""
        seen = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            cls = self.classes.get(name)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            queue.extend(cls.bases)
        return None

    def implementations_of(self, method: str) -> List[FunctionInfo]:
        """Registry resolution: every class whose interface has *method*.

        Each analyzed class contributes the implementation it would
        actually dispatch to (its own override, else the inherited
        one) — the full candidate set for a receiver whose concrete
        backend is only known at run time.
        """
        out: List[FunctionInfo] = []
        for cls in self.classes.values():
            info = self.method_on(cls.name, method)
            if info is not None and info not in out:
                out.append(info)
        return out

    def _local_receiver_class(
        self, caller: Optional[FunctionInfo], receiver: str
    ) -> Optional[str]:
        """The class of *receiver* when a local ``x = Class(...)`` binds it."""
        if caller is None:
            return None
        for node in ast.walk(caller.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == receiver
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id in self.classes
                ):
                    return node.value.func.id
        return None

    def resolve_call(
        self, call: ast.Call, caller: Optional[FunctionInfo] = None
    ) -> List[FunctionInfo]:
        """Candidate callees of *call* from within *caller* (may be [])."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in self.classes:
                init = self.method_on(func.id, "__init__")
                return [init] if init is not None else []
            candidates = self._by_name.get(func.id, [])
            if caller is not None:
                same = [c for c in candidates if c.path == caller.path]
                if same:
                    return same
            return list(candidates)
        if isinstance(func, ast.Attribute):
            method = func.attr
            base = func.value
            if isinstance(base, ast.Name):
                if base.id == "self" and caller is not None and caller.class_name:
                    info = self.method_on(caller.class_name, method)
                    return [info] if info is not None else []
                if base.id == "cls" and caller is not None and caller.class_name:
                    info = self.method_on(caller.class_name, method)
                    return [info] if info is not None else []
                if base.id in self.classes:
                    info = self.method_on(base.id, method)
                    return [info] if info is not None else []
                local_cls = self._local_receiver_class(caller, base.id)
                if local_cls is not None:
                    info = self.method_on(local_cls, method)
                    return [info] if info is not None else []
            # Unknown receiver: registry resolution across all classes.
            return self.implementations_of(method)
        return []

    def call_edges(
        self, info: FunctionInfo
    ) -> Iterator[Tuple[ast.Call, List[FunctionInfo]]]:
        """``(call site, candidate callees)`` for every call in *info*."""
        for node in ast.walk(info.node):
            if isinstance(node, ast.Call):
                yield node, self.resolve_call(node, info)
