"""Compare two benchmark sets: ``python3 bench/compare.py A.json B.json``.

A is the baseline (the parent), B the change; each is a ``set.json``
written by ``bench/run.py --repeat N``.  For every workload and
end-to-end metric it prints each side's median and quartiles, how many
of the paired runs B won, the change of the medians, and a verdict:

* ``better``: B won at least 9 in 10 of at least 10 pairs, and the
  medians differ by more than A's own quartile spread;
* ``unresolved``: either side's quartile spread is wider than the
  metric's bound, unless every run of B beat every run of A;
* ``worse``: B's median is worse than A's by more than the bound;
* ``same``: otherwise.

Bounds come from ``BENCHMARK.json``.  Count metrics that a speed change
must leave exactly as they were (rounds, levels, inter-edges, every
``pram.*``) are compared per seed and reported as "behaviour changed"
if any differs.  Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
BEHAVIOUR = (
    "decomp.rounds",
    "decomp.levels",
    "decomp.inter_edge_frac",
    "decomp.edges_inspected",
)
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(a, b, better, bound):
    """Return (verdict, wins, pairs, change) for baseline *a*, change *b*.

    *change* is the relative change of the medians, positive when B is
    worse.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    change = sign * (mb - ma) / ma
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    if sign > 0:
        b_beats_all = max(b) < min(a)
    else:
        b_beats_all = min(b) > max(a)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and change < 0
        and abs(mb - ma) > qa3 - qa1
    ):
        return "better", wins, len(pairs), change
    if spread > bound and not b_beats_all:
        return "unresolved", wins, len(pairs), change
    if change > bound:
        return "worse", wins, len(pairs), change
    return "same", wins, len(pairs), change


def behaviour_changes(runs_a, runs_b):
    """Count metrics whose value differs between A and B for some seed.

    Returns the differences and how many count metrics both sides have.
    """
    values = {}
    for side, runs in (("A", runs_a), ("B", runs_b)):
        for record in runs:
            for name, metric in record.get("per_layer", {}).items():
                if name in BEHAVIOUR or name.startswith("pram."):
                    key = (name, record["seed"])
                    values.setdefault(key, {}).setdefault(side, set()).add(
                        metric["value"]
                    )
    changed, compared = [], set()
    for (name, seed), sides in sorted(values.items()):
        if "A" not in sides or "B" not in sides:
            continue
        compared.add(name)
        if len(sides["A"] | sides["B"]) > 1:
            changed.append(
                f"{name} (seed {seed}): A {sorted(sides['A'])} B {sorted(sides['B'])}"
            )
    return changed, len(compared)


def _fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python3 bench/compare.py A.json B.json")
    spec = json.loads(BENCHMARK.read_text())
    set_a, set_b = (json.loads(Path(p).read_text()) for p in argv)
    header = (
        f"{'workload':<14}{'metric':<16}{'A median [q1, q3]':<30}"
        f"{'B median [q1, q3]':<30}{'B wins':>8}{'change':>9}  verdict"
    )
    print(f"A = {argv[0]}\nB = {argv[1]}\n")
    print(header)
    worse = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        runs_a, runs_b = set_a["runs"][name], set_b["runs"][name]
        for metric in spec["end_to_end"]:
            m = metric["name"]
            a = [r["end_to_end"][m]["value"] for r in runs_a]
            b = [r["end_to_end"][m]["value"] for r in runs_b]
            what, wins, pairs, change = verdict(
                a, b, metric["better"], metric["bound"]
            )
            worse += what == "worse"
            print(
                f"{name:<14}{m:<16}{_fmt(a):<30}{_fmt(b):<30}"
                f"{f'{wins}/{pairs}':>8}{change:>+9.1%}  {what}"
            )
        changed, compared = behaviour_changes(runs_a, runs_b)
        if not compared:
            print(f"{name:<14}counts not compared: both sets need traced runs")
        elif changed:
            for line in changed:
                print(f"{name:<14}behaviour changed: {line}")
        else:
            print(f"{name:<14}{compared} count metrics identical")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
