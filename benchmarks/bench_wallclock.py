"""Wall-clock backend benchmark: the fast backend must actually be fast.

Times the hot kernels and end-to-end ``decomp-arb-CC`` under both
execution backends (:mod:`repro.engine.backend`), writes the
trajectory to ``BENCH_wallclock.json``, and enforces the speedup
floors:

* as a pytest module (``pytest benchmarks/bench_wallclock.py``) it
  asserts the fast backend beats reference by >= 1.5x end-to-end on
  rMat at the default (small) scale — the PR's headline number;
* as a script (``python benchmarks/bench_wallclock.py [--quick]``) it
  prints the table and exits non-zero if fast regresses below
  reference — the CI ``bench-smoke`` job's entry point (``--quick``
  runs tiny inputs with a 1.0x no-regression floor, since tiny-input
  timings are too noisy for the full floor).

Every timed configuration computes bit-identical labelings (checked
inside the harness), so a broken fast backend fails on correctness
before it can report a speedup.  See docs/performance.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import List, Optional

import pytest

if __package__ in (None, ""):  # `python benchmarks/bench_wallclock.py`
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.conftest import SCALE, emit
from repro.analysis.wallclock import run_wallclock_suite, trace_run, write_json

pytestmark = pytest.mark.wallclock

#: The acceptance floor at real (small+) scale: end-to-end rMat CC.
FULL_SPEEDUP_FLOOR = 1.5
#: The smoke floor on tiny inputs: no regression.
QUICK_SPEEDUP_FLOOR = 1.0


def _format(payload: dict) -> str:
    lines = ["kernels:"]
    for kname, row in sorted(payload["kernels"].items()):
        lines.append(
            f"  {kname:<14} reference {row['reference']*1e3:8.2f} ms   "
            f"fast {row['fast']*1e3:8.2f} ms   speedup {row['speedup']:.2f}x"
        )
    lines.append("end-to-end decomp-arb-CC:")
    for gname, row in sorted(payload["end_to_end"].items()):
        lines.append(
            f"  {gname:<14} reference {row['reference']:8.3f} s    "
            f"fast {row['fast']:8.3f} s    speedup {row['speedup']:.2f}x"
        )
    return "\n".join(lines)


@pytest.fixture(scope="module")
def wallclock():
    return run_wallclock_suite(scale=SCALE, repeats=3)


def test_wallclock_trajectory(wallclock, tmp_path):
    """Emit the trajectory and sanity-check its shape."""
    emit("WALL CLOCK — backend trajectory", _format(wallclock))
    out = tmp_path / "BENCH_wallclock.json"
    write_json(wallclock, str(out))
    reread = json.loads(out.read_text())
    assert reread["meta"]["scale"] == SCALE
    # Environment + execution-context provenance must ride with the
    # numbers, or archived artifacts are not comparable across machines.
    assert reread["meta"]["python"] == platform.python_version()
    assert reread["meta"]["numpy"]
    assert reread["meta"]["platform"]
    # How many cores the box had must ride with the numbers too.
    assert reread["meta"]["cpu_count"] == (os.cpu_count() or 1)
    # The timing protocol must ride with the numbers too: how many
    # repeats the min was taken over and how many discarded warmup
    # iterations preceded them (see repro.analysis.wallclock.best_of).
    assert reread["meta"]["repeats"] >= 1
    assert reread["meta"]["warmup"] >= 1
    assert reread["meta"]["context"]["backend"] in ("reference", "fast")
    assert reread["meta"]["context"]["sanitize"] is False
    assert set(reread["kernels"]) == {
        "first_winner", "radix_argsort", "expand", "hash_dedup",
    }


def test_fast_backend_speedup_floor(wallclock):
    """The headline acceptance number: >= 1.5x end-to-end on rMat."""
    floor = FULL_SPEEDUP_FLOOR if SCALE != "tiny" else QUICK_SPEEDUP_FLOOR
    speedup = wallclock["end_to_end"]["rMat"]["speedup"]
    assert speedup >= floor, (
        f"fast backend end-to-end speedup {speedup:.2f}x on rMat "
        f"is below the {floor}x floor"
    )


def test_kernel_no_regression(wallclock):
    """No individual kernel may regress under the fast backend."""
    for kname, row in wallclock["kernels"].items():
        assert row["speedup"] >= 0.9, (kname, row)


def main(argv: Optional[List[str]] = None) -> int:
    """Script entry point (CI's bench-smoke job)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny inputs, 1 repeat, no-regression floor (CI smoke)",
    )
    parser.add_argument(
        "--scale", choices=["tiny", "small", "medium"], default=None
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", default="BENCH_wallclock.json")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help=(
            "also run one traced end-to-end rMat pass, write the "
            "Perfetto-loadable trace to PATH, and attach the per-phase "
            "wall-clock breakdown to the BENCH meta"
        ),
    )
    args = parser.parse_args(argv)

    scale = args.scale or ("tiny" if args.quick else "small")
    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 3)
    floor = QUICK_SPEEDUP_FLOOR if (args.quick or scale == "tiny") else (
        FULL_SPEEDUP_FLOOR
    )

    payload = run_wallclock_suite(scale=scale, repeats=repeats)
    if args.trace:
        traced = trace_run(scale=scale, graph_name="rMat", path=args.trace)
        payload["meta"]["trace"] = traced  # type: ignore[index]
        phases = ", ".join(
            f"{name} {secs*1e3:.1f} ms"
            for name, secs in sorted(traced["phase_seconds"].items())  # type: ignore[union-attr]
        )
        print(f"traced rMat: {traced['rounds']} rounds — {phases}")
        print(f"wrote {args.trace}")
    print(_format(payload))
    write_json(payload, args.out)
    print(f"wrote {args.out}")

    speedup = payload["end_to_end"]["rMat"]["speedup"]
    if speedup < floor:
        print(
            f"FAIL: fast backend speedup {speedup:.2f}x on rMat "
            f"< {floor}x floor",
            file=sys.stderr,
        )
        return 1
    print(f"OK: fast backend {speedup:.2f}x >= {floor}x on rMat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
