"""Execution backends: *how* the kernels run, never *what* they compute.

The engine's round kernels admit two executions of the same PRAM
step batch:

* ``reference`` — the historical kernels: gathers are bounds-checked
  fancy indexing, the CAS race resolves through a sort
  (``np.unique``), the radix sort runs its per-digit passes, and every
  contraction level re-validates the CSR invariants it just
  established.  Slow, but each round is exactly the code the golden
  parity fixture was captured against.
* ``fast`` — the same winner schedules, labelings and (work, depth)
  charges, computed without the wall-clock waste: gathers skip NumPy's
  bounds checks, the CAS race resolves with an O(n) reverse-order
  scatter (or, for a sparse race, one packed-word sort), every stable
  sorting permutation comes from one value sort of packed (key, index)
  words, and contraction builds its sub-graphs through the trusted
  (validation-free) constructor path.

The parity contract — enforced by ``tests/test_engine_parity.py``
replaying the golden fixture under *both* backends — is that switching
backends changes no observable output and no charged cost.  The
simulated cost model charges are explicit ``tracker.add`` calls
computed from sizes, so the fast variants are free to change the
NumPy execution underneath them.

Both are one :class:`ExecutionBackend` differing in a single flag,
``optimized``; below the backend, the class of its shared, stateless
workspace (:attr:`ExecutionBackend.workspace`) is the only other
carrier of the choice.

Selection: ``fast`` is the default.  The bound backend rides in the
:class:`~repro.runtime.context.ExecutionContext`
(``current_context().backend``); :func:`use_backend` scopes a switch
to a ``with`` block by activating a derived context (the parity tests
do this), and the CLI's ``--backend`` flag builds its command context
with the chosen backend.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Union

from repro.errors import ParameterError

if TYPE_CHECKING:
    from repro.engine.workspace import NullWorkspace

__all__ = [
    "ExecutionBackend",
    "BACKENDS",
    "DEFAULT_BACKEND_NAME",
    "current_backend",
    "resolve_backend",
    "use_backend",
]


@dataclass(frozen=True)
class ExecutionBackend:
    """One named execution strategy for the round kernels.

    Attributes
    ----------
    optimized:
        The whole fast/reference decision.  When set, runs use the
        fast :class:`~repro.engine.workspace.Workspace` (whose class
        then carries the choice into the kernels), the sorts run as
        one value sort of packed (key, index) words, and contraction
        skips re-validating the sub-graphs it just built.  Outputs and
        charges are identical either way.
    """

    name: str
    description: str
    optimized: bool

    @property
    def workspace(self) -> "NullWorkspace":
        """The backend's shared, stateless round-kernel workspace."""
        from repro.engine.workspace import FAST_WORKSPACE, NULL_WORKSPACE

        return FAST_WORKSPACE if self.optimized else NULL_WORKSPACE


REFERENCE = ExecutionBackend(
    name="reference",
    description="byte-for-byte the historical kernels (checked gathers, "
    "sort-based CAS resolution, per-digit radix passes, validating builders)",
    optimized=False,
)

FAST = ExecutionBackend(
    name="fast",
    description="unchecked gathers, scatter CAS resolution, packed-word "
    "value sorts, trusted contraction constructors — identical outputs "
    "and charges",
    optimized=True,
)

#: Name -> backend; the CLI's ``--backend`` choices and the fuzz oracle
#: enumerate this.
BACKENDS: Dict[str, ExecutionBackend] = {
    REFERENCE.name: REFERENCE,
    FAST.name: FAST,
}

DEFAULT_BACKEND_NAME = FAST.name


def resolve_backend(
    spec: Union[str, ExecutionBackend, None],
) -> ExecutionBackend:
    """Turn a name / instance / None into a backend (None = current)."""
    if spec is None:
        return current_backend()
    if isinstance(spec, ExecutionBackend):
        return spec
    try:
        return BACKENDS[spec]
    except KeyError:
        raise ParameterError(
            f"unknown execution backend {spec!r} "
            f"(choose from {sorted(BACKENDS)})"
        ) from None


def current_backend() -> ExecutionBackend:
    """The backend new runs bind to (the execution context's binding)."""
    from repro.runtime.context import current_context

    return current_context().backend


@contextmanager
def use_backend(spec: Union[str, ExecutionBackend]) -> Iterator[ExecutionBackend]:
    """Scope a backend switch to a ``with`` block (re-entrant).

    Activates a derived execution context, so the switch is
    exception-safe and isolated to the calling thread/task.
    """
    from repro.runtime.context import current_context

    backend = resolve_backend(spec)
    with current_context().child(backend=backend).activate():
        yield backend

