"""Shared exception types for the ``repro`` package.

Keeping a small, explicit exception hierarchy lets callers distinguish
user errors (bad graph input, bad parameters) from internal invariant
violations without string-matching messages.

The operational errors carry structured fields (see
:class:`ConvergenceError` and :class:`VerificationError`) so callers
can classify failures programmatically; message-only construction
remains supported.  Every one of them derives from :class:`ReproError`,
which the CLI reports as a one-line ``error: ...`` with exit code 2:
a wrong labeling, a caught race or a runaway loop stops the command.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(ReproError):
    """Raised when an edge list / CSR structure is malformed.

    Examples: negative vertex ids, offsets array that is not monotone,
    an edge endpoint that is out of range for the declared vertex count.
    File readers attach the 1-based line number and the offending text
    where they are known (:attr:`line_number`, :attr:`line_text`).
    """

    def __init__(
        self,
        message: str,
        *,
        line_number: Optional[int] = None,
        line_text: Optional[str] = None,
    ) -> None:
        if line_number is not None:
            message = f"{message} (line {line_number}: {line_text!r})"
        super().__init__(message)
        self.line_number = line_number
        self.line_text = line_text


class ParameterError(ReproError, ValueError):
    """Raised when an algorithm parameter is outside its legal range.

    The decomposition parameter ``beta`` must lie in (0, 1) for
    Decomp-Min and (0, 1/2) is required for the linear-work guarantee of
    the arbitrary-tie-break variants; a non-positive thread count or a
    negative seed also raise this.
    """


class ConvergenceError(ReproError):
    """Raised when an iterative algorithm exceeds its round budget.

    All fixed-point loops in this package (pointer jumping, label
    propagation, hash-table probing, the DECOMP BFS rounds and the
    outer decompose-contract iteration) carry explicit round limits far
    above their theoretical bounds; hitting one indicates a bug or
    injected fault rather than a hard input, so we fail loudly instead
    of spinning.

    Structured fields (``None`` when constructed message-only):

    - :attr:`algorithm` — name of the looping algorithm;
    - :attr:`rounds_used` — rounds executed when the budget tripped;
    - :attr:`budget` — the round budget that was exceeded.
    """

    def __init__(
        self,
        message: Optional[str] = None,
        *,
        algorithm: Optional[str] = None,
        rounds_used: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> None:
        if message is None:
            message = (
                f"{algorithm or 'algorithm'} exceeded its round budget: "
                f"{rounds_used} rounds used, budget {budget}"
            )
        super().__init__(message)
        self.algorithm = algorithm
        self.rounds_used = rounds_used
        self.budget = budget


class VerificationError(ReproError):
    """Raised by :mod:`repro.analysis.verify` when a labeling is invalid.

    :attr:`reason` is a short machine-readable code (``"shape"``,
    ``"crossing-edge"``, ``"partition-mismatch"``, ...) that the fuzz
    oracle records in its findings; ``None`` for message-only
    construction.
    """

    def __init__(self, message: str = "", *, reason: Optional[str] = None) -> None:
        super().__init__(message)
        self.reason = reason


class FaultSpecError(ReproError, ValueError):
    """Raised when a fault-injection spec string cannot be parsed."""


class SanitizerError(ReproError):
    """Raised by :class:`repro.pram.sanitizer.PramSanitizer` on a race.

    A "race" here is any same-round access pattern outside the simulated
    CRCW machine's sanctioned disciplines: two non-atomic writes to one
    cell, a mutation of a registered shared array not covered by any
    recorded write set, or a CAS resolution that deviates from the
    deterministic first-occurrence schedule.  :attr:`report` carries the
    structured :class:`repro.pram.sanitizer.RaceReport`; ``None`` for
    message-only construction.
    """

    def __init__(self, message: str, *, report: Optional[object] = None) -> None:
        super().__init__(message)
        self.report = report
