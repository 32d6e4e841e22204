"""The verified Table 2 sweep under the name the benchmark imports.

Exists only because ``bench/workloads.py`` imports
:class:`ResilientRunner`; everything else calls
:func:`repro.experiments.tables.run_table2` with ``verify=True``
directly.  There are no retries and no fallbacks: the first wrong cell
raises a :class:`~repro.errors.VerificationError` naming it.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.tables import run_table2

__all__ = ["ResilientRunner"]


class ResilientRunner:
    """``run_table2(..., verify=True)`` behind the benchmark's old call."""

    def run_table2(self, **kwargs: Any) -> Dict[str, Any]:
        """``{"table": run_table2(..., verify=True), "failures": []}``."""
        return {"table": run_table2(verify=True, **kwargs), "failures": []}
