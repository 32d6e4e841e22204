"""Explicit runtime: execution contexts and the one profiled run.

``repro.runtime.context`` is the foundation (imported by the
primitives and graphs layers, so it stays dependency-light);
``repro.runtime.session`` pulls in the experiment registry and is
loaded lazily so importing the context layer never drags the full
algorithm suite along.
"""

from repro.runtime.context import ExecutionContext, current_context, root_context

__all__ = [
    "ExecutionContext",
    "current_context",
    "root_context",
    "execute_profiled",
]


def __getattr__(name: str) -> object:
    if name == "execute_profiled":
        from repro.runtime import session

        return session.execute_profiled
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
