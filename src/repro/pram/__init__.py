"""Simulated CRCW PRAM: work/depth accounting and a machine timing model.

This subpackage is the reproduction's substitute for the paper's
physical 40-core machine (see DESIGN.md §2 and §5).  Algorithms record
the work and depth they would incur on a CRCW PRAM into a
:class:`~repro.pram.cost.CostTracker`; a
:class:`~repro.pram.machine.MachineModel` then converts that profile
into simulated seconds at any core count, which is what the benchmark
harness reports for the paper's tables and figures.
"""

from repro.pram.cost import (
    KINDS,
    SEQUENTIAL_KINDS,
    CostTracker,
    tracking,
)
from repro.pram.machine import (
    PAPER_MACHINE,
    MachineModel,
    paper_thread_sweep,
    parse_thread_spec,
)
from repro.pram.sanitizer import (
    PramSanitizer,
    RaceReport,
    sanitizing,
)

__all__ = [
    "KINDS",
    "SEQUENTIAL_KINDS",
    "CostTracker",
    "tracking",
    "PramSanitizer",
    "RaceReport",
    "sanitizing",
    "MachineModel",
    "PAPER_MACHINE",
    "paper_thread_sweep",
    "parse_thread_spec",
]
