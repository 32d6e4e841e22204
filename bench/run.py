"""Run the connectivity benchmark from the repository root.

One workload, printing one JSON result line last (per-layer metrics
with ``--trace 1``, end-to-end metrics otherwise)::

    python3 bench/run.py --workload rmat-arb --seed 1 --seconds 15 --trace 0

Every workload, one after another, each in a fresh subprocess; writes
``DIR/set.json`` for ``bench/compare.py``::

    python3 bench/run.py --seed 1 --out DIR [--trace] [--repeat N]

The library measured is the ``src/`` tree next to this directory, never
an installed copy.  Detail records and traces go to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SECONDS = 15
#: glibc ``mallopt`` parameters (malloc.h).
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def _steady_memory() -> None:
    """Take two memory policies that vary between processes off the table.

    Whether the kernel grants transparent huge pages to NumPy's large
    arrays depends on the host's memory fragmentation; it moved the same
    ``rmat-arb`` run by 5-10 % from one process to the next.  NumPy reads
    the switch when it is imported, so this runs before the first import.

    glibc raises its mmap threshold (up to 32 MB) and its trim threshold
    (to twice that) as large blocks are freed, so where they end up
    depends on the order of earlier allocations.  Under that policy,
    ``orkut-hybrid`` ran 35 % slower for some seeds, in every repetition.
    With both fixed at the largest values glibc moves them to, every
    seed ran at the same speed.
    """
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: neither policy applies
        return
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_MMAP_THRESHOLD, 32 << 20)
    libc.mallopt(M_TRIM_THRESHOLD, 64 << 20)


def _import_workloads():
    """Import the benchmark against ``src/``; return it and the import time."""
    _steady_memory()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import workloads
    except ImportError as exc:
        sys.exit(f"error: cannot import the library from {SRC}: {exc}")
    import_s = time.perf_counter() - t0
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: repro was imported from {repro.__file__}, not {SRC}")
    return workloads, import_s


def _run_one(workloads, args: argparse.Namespace, out: Path, import_s: float) -> int:
    record = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), out, import_s=import_s
    )
    print(workloads.summary(record))
    print(json.dumps(workloads.result_line(record)))
    return 0 if record["correct"] else 1


def _run_all(workloads, args: argparse.Namespace, out: Path) -> int:
    runs = {name: [] for name in workloads.WORKLOADS}
    for _ in range(args.repeat):
        for name in workloads.WORKLOADS:
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--out", str(out),
            ]  # fmt: skip
            code = subprocess.run(cmd, timeout=900).returncode
            if code != 0:
                print(f"error: workload {name} exited with {code}", file=sys.stderr)
                return 1
            runs[name].append(json.loads((out / f"{name}.json").read_text()))
    result = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "meta": workloads.environment(),
        "runs": runs,
    }
    (out / "set.json").write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out / 'set.json'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--seconds", type=float, default=DEFAULT_SECONDS, help="timed section length"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="add the traced run, level walk and per-layer metrics",
    )  # fmt: skip
    parser.add_argument(
        "--out", type=Path, default=Path(__file__).resolve().parent / "out",
        help="directory for detail records, traces and set.json",
    )  # fmt: skip
    parser.add_argument(
        "--repeat", type=int, default=1, help="invocations per workload (all mode)"
    )
    args = parser.parse_args(argv)
    workloads, import_s = _import_workloads()
    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload is not None:
        return _run_one(workloads, args, args.out, import_s)
    return _run_all(workloads, args, args.out)


if __name__ == "__main__":
    sys.exit(main())
