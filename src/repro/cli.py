"""Command-line interface: ``python -m repro <command>``.

Gives shell access to the whole reproduction:

``list``
    Show the registered input graphs and algorithms.
``run ALGO GRAPH``
    Run one implementation on one input; print components, iteration
    metadata, and simulated times at chosen thread counts.
``decompose GRAPH``
    Run the low-diameter decomposition and report its quality against
    the theoretical bounds.
``forest GRAPH``
    Extract and verify a spanning forest via the decomposition.
``table1`` / ``table2``
    Regenerate the paper's tables.
``figure {2,3,4,5,6,7,8}``
    Regenerate one of the paper's figures as ASCII series.
``lint``
    Run the reprolint PRAM-invariant static analyzer (RL001, RL003,
    RL004, RL010; see docs/static_analysis.md).
``fuzz``
    Run the differential fuzzer: seed-determined adversarial inputs
    through every implementation x backend, failures delta-debugged to
    minimal JSON repros (see docs/robustness.md).
``replay``
    Replay one fuzz-corpus case file against the full oracle.
``trace``
    Run one algorithm with the tracer armed and write a Chrome
    ``trace_event`` JSON (loadable in Perfetto / ``chrome://tracing``;
    see docs/observability.md).

All commands accept ``--scale {tiny,small,medium}`` (default small),
and ``--backend`` naming any registered execution backend (default
fast) — the execution backend changes wall-clock speed only, never
results or simulated costs (see docs/performance.md).  The global
``--sanitize`` flag arms the runtime PRAM race sanitizer around
whatever command runs (optimized backends only; a detected race aborts
with exit code 2).  The global ``--trace PATH`` arms the
:mod:`repro.obs` tracer/metrics around whatever command runs and
writes the combined trace document to PATH on exit.

``run``, ``decompose`` and ``forest`` take ``--format {text,json}``
(and ``--output PATH``) for machine-readable results; JSON payloads
are scrubbed of NumPy scalar keys/values at the boundary.  Piping any
command into ``head`` exits 1 cleanly (never a ``BrokenPipeError``
traceback) — the dispatcher owns that contract for stdout *and*
stderr.

``run`` also takes ``--inject-fault SPEC``, a deterministic mid-run
fault (see docs/robustness.md).  Any :class:`~repro.errors.ReproError`
— a bad flag, a labeling that fails verification, a race the sanitizer
catches — surfaces as a one-line ``error: ...`` on stderr and exit
code 2, never a traceback; nothing is retried or replaced by another
algorithm's result.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.engine.backend import BACKENDS, DEFAULT_BACKEND_NAME, resolve_backend
from repro.errors import ParameterError, ReproError
from repro.experiments import (
    ALGORITHMS,
    GRAPHS,
    PAPER_GRAPH_ORDER,
    ascii_series,
    build_graph,
    fig2_thread_sweep,
    fig3_beta_sweep,
    fig4_edges_remaining,
    fig5_breakdown_min,
    fig6_breakdown_arb,
    fig7_breakdown_hybrid,
    fig8_size_scaling,
    format_table1,
    format_table2,
    profile_run,
    run_table1,
    run_table2,
)
from repro.resilience.faults import parse_fault_plan

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for ``python -m repro`` (see module docstring)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Simple and Practical Linear-Work Parallel "
            "Algorithm for Connectivity' (SPAA 2014)"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=["tiny", "small", "medium"],
        default="small",
        help="input size preset (default: small)",
    )
    parser.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=DEFAULT_BACKEND_NAME,
        help="execution backend: same results and simulated costs with "
        f"any of {{{', '.join(sorted(BACKENDS))}}}; the optimized fast "
        "backend only changes wall-clock speed "
        f"(default: {DEFAULT_BACKEND_NAME}; see docs/performance.md)",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="arm the runtime PRAM race sanitizer: every engine run is "
        "checked for same-round conflicting non-atomic writes and CAS "
        "schedule violations (fast backend only; "
        "see docs/static_analysis.md)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="arm the repro.obs tracer and metrics registry around the "
        "command and write a Chrome trace_event JSON (with the metrics "
        "snapshot riding along) to PATH on exit — tracing never changes "
        "results or simulated costs (see docs/observability.md)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered graphs and algorithms")

    run = sub.add_parser("run", help="run one algorithm on one graph")
    run.add_argument("algorithm", choices=sorted(ALGORITHMS))
    run.add_argument("graph", choices=sorted(GRAPHS))
    run.add_argument("--beta", type=float, default=0.2)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--threads",
        nargs="*",
        default=["1", "40h"],
        help="thread counts to report (e.g. 1 8 40h)",
    )
    run.add_argument("--no-verify", action="store_true")
    run.add_argument(
        "--inject-fault",
        metavar="SPEC",
        help="deterministic mid-run fault injection, e.g. "
        "'drop_frontier:vertices=10|11' or 'cas_flip:p=0.5'; a detected "
        "fault exits 2 (see docs/robustness.md for the grammar)",
    )
    _add_output_options(run)

    dec = sub.add_parser("decompose", help="low-diameter decomposition quality")
    dec.add_argument("graph", choices=sorted(GRAPHS))
    dec.add_argument("--beta", type=float, default=0.2)
    dec.add_argument(
        "--variant",
        choices=["min", "arb", "arb-hybrid", "min-hybrid"],
        default="arb",
    )
    dec.add_argument("--seed", type=int, default=1)
    _add_output_options(dec)

    forest = sub.add_parser("forest", help="spanning forest via decomposition")
    forest.add_argument("graph", choices=sorted(GRAPHS))
    forest.add_argument("--beta", type=float, default=0.2)
    forest.add_argument("--seed", type=int, default=1)
    _add_output_options(forest)

    trace = sub.add_parser(
        "trace",
        help="run one algorithm with the tracer armed; write a Chrome "
        "trace_event JSON (Perfetto-loadable)",
    )
    trace.add_argument("graph", choices=sorted(GRAPHS))
    trace.add_argument(
        "--algorithm", choices=sorted(ALGORITHMS), default="decomp-arb-CC"
    )
    trace.add_argument("--beta", type=float, default=0.2)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument(
        "--output",
        metavar="PATH",
        default="run.trace.json",
        help="trace document destination (default: run.trace.json)",
    )

    sub.add_parser("table1", help="regenerate Table 1")
    t2 = sub.add_parser("table2", help="regenerate Table 2")
    t2.add_argument("--beta", type=float, default=0.2)
    t2.add_argument("--seed", type=int, default=1)

    fig = sub.add_parser("figure", help="regenerate a figure's series")
    fig.add_argument("number", type=int, choices=[2, 3, 4, 5, 6, 7, 8])
    fig.add_argument("--graph", choices=sorted(GRAPHS), default="random")

    rep = sub.add_parser(
        "report", help="write every artifact (JSON/CSV + summary.md) to a directory"
    )
    rep.add_argument("outdir")
    rep.add_argument("--beta", type=float, default=0.2)
    rep.add_argument("--seed", type=int, default=1)

    lint = sub.add_parser(
        "lint", help="run the reprolint PRAM-invariant static analyzer"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the whole repro "
        "package, with stale allowlist entries treated as errors)",
    )
    lint.add_argument(
        "--config",
        metavar="PATH",
        help="explicit reprolint.toml (default: auto-discovered from the "
        "working directory or the source checkout root)",
    )
    lint.add_argument(
        "--explain",
        metavar="RLxxx",
        help="print the documentation of one rule (what it proves, its "
        "runtime counterpart, allowlist policy) and exit",
    )

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing with delta-debugging shrinker"
    )
    fuzz.add_argument(
        "--seed",
        default="1",
        help="case-stream seed: an integer, or 'from-run-id' to derive "
        "one from $GITHUB_RUN_ID (CI smoke; default: 1)",
    )
    fuzz.add_argument(
        "--max-cases",
        type=int,
        default=100,
        metavar="N",
        help="number of generated cases to judge (default: 100)",
    )
    fuzz.add_argument(
        "--time-budget",
        type=float,
        metavar="SECONDS",
        help="stop (between cases) once this much wall time has elapsed",
    )
    fuzz.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="delta-debug failing cases to minimal repros (default: on)",
    )
    fuzz.add_argument(
        "--corpus",
        metavar="DIR",
        default="fuzz-failures",
        help="directory shrunk repros are written to as replayable JSON "
        "(default: ./fuzz-failures)",
    )
    fuzz.add_argument(
        "--planted",
        metavar="NAME",
        help="arm a deliberate bug from repro.fuzz.planted — the "
        "pipeline's self-test (the fuzzer must find and shrink it)",
    )

    rpl = sub.add_parser("replay", help="replay one fuzz corpus case file")
    rpl.add_argument("case", metavar="CASE.json", help="path to a case file")
    return parser


def _add_output_options(sub: argparse.ArgumentParser) -> None:
    """The ``--format``/``--output`` pair shared by the result commands."""
    sub.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="format_",
        help="result format: human-readable text (default) or a JSON "
        "document (NumPy scalars coerced at the boundary)",
    )
    sub.add_argument(
        "--output",
        metavar="PATH",
        help="write the result to PATH instead of stdout",
    )


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    """Write the command result in the requested format and destination."""
    if getattr(args, "format_", "text") == "json":
        import json

        from repro.experiments.export import to_jsonable

        rendered = json.dumps(to_jsonable(payload), indent=2, sort_keys=True)
    else:
        rendered = "\n".join(text_lines)
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    else:
        print(rendered)


def _cmd_list(args) -> int:
    print("graphs:")
    for name in PAPER_GRAPH_ORDER:
        print(f"  {name:<12} {GRAPHS[name].description}")
    print("algorithms:")
    for name, spec in ALGORITHMS.items():
        star = "*" if spec.in_paper else " "
        print(f" {star} {name:<22} {spec.description}")
    print("(* = in the paper's Table 2)")
    return 0


def _cmd_run(args) -> int:
    graph = build_graph(args.graph, args.scale)
    kwargs = (
        {"beta": args.beta, "seed": args.seed}
        if args.algorithm.startswith("decomp-")
        else {}
    )
    prof = profile_run(
        args.algorithm,
        graph,
        graph_name=args.graph,
        verify=not args.no_verify,
        fault_plan=parse_fault_plan(args.inject_fault, seed=args.seed),
        **kwargs,
    )
    res = prof.result
    lines = [
        f"{args.graph} [{args.scale}]: {graph}",
        f"components : {res.num_components}",
        f"iterations : {res.iterations}",
    ]
    if res.edges_per_iteration:
        lines.append(f"edges/iter : {res.edges_per_iteration}")
    lines.append(f"wall clock : {prof.wall_seconds:.3f}s (single-core NumPy)")
    for spec in args.threads:
        lines.append(f"T({spec:>4})    : {prof.seconds_at(spec):.6f}s simulated")
    if not args.no_verify:
        lines.append("verified   : OK")
    payload: dict = {
        "graph": args.graph,
        "scale": args.scale,
        "algorithm": args.algorithm,
        "components": res.num_components,
        "iterations": res.iterations,
        "edges_per_iteration": list(res.edges_per_iteration or []),
        "wall_seconds": prof.wall_seconds,
        "simulated_seconds": {spec: prof.seconds_at(spec) for spec in args.threads},
        "work": prof.tracker.total_work(),
        "depth": prof.tracker.total_depth(),
        "verified": not args.no_verify,
    }
    _emit(args, payload, lines)
    return 0


def _cmd_decompose(args) -> int:
    from repro.decomp import low_diameter_decomposition

    graph = build_graph(args.graph, args.scale)
    ldd = low_diameter_decomposition(
        graph, beta=args.beta, variant=args.variant, seed=args.seed
    )
    lines = [
        f"{args.graph} [{args.scale}]: {graph}",
        f"partitions          : {ldd.num_partitions}",
        f"largest partitions  : {ldd.partition_sizes()[:5].tolist()}",
        f"inter-edge fraction : {ldd.inter_edge_fraction:.4f} "
        f"(expectation bound {ldd.fraction_bound:.2f})",
        f"max radius          : {ldd.max_radius} "
        f"(O(log n / beta) ~ {ldd.radius_bound:.1f})",
    ]
    # The payload deliberately carries the raw NumPy scalars/arrays the
    # decomposition reports; _emit's to_jsonable owns the coercion.
    payload = {
        "graph": args.graph,
        "scale": args.scale,
        "variant": args.variant,
        "beta": args.beta,
        "seed": args.seed,
        "partitions": ldd.num_partitions,
        "largest_partitions": ldd.partition_sizes()[:5],
        "inter_edge_fraction": ldd.inter_edge_fraction,
        "fraction_bound": ldd.fraction_bound,
        "max_radius": ldd.max_radius,
        "radius_bound": ldd.radius_bound,
    }
    _emit(args, payload, lines)
    return 0


def _cmd_forest(args) -> int:
    from repro.connectivity import decomp_spanning_forest, verify_spanning_forest

    graph = build_graph(args.graph, args.scale)
    src, dst = decomp_spanning_forest(graph, beta=args.beta, seed=args.seed)
    verify_spanning_forest(graph, src, dst)
    lines = [
        f"{args.graph} [{args.scale}]: {graph}",
        f"forest edges : {src.size} (= n - #components)",
        "verified     : spans the graph, acyclic, edges are real",
    ]
    payload = {
        "graph": args.graph,
        "scale": args.scale,
        "beta": args.beta,
        "seed": args.seed,
        "forest_edges": src.size,
        "components": graph.num_vertices - int(src.size),
        "verified": True,
    }
    _emit(args, payload, lines)
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import Metrics, Tracer, write_trace
    from repro.runtime.context import current_context
    from repro.runtime.session import execute_profiled

    graph = build_graph(args.graph, args.scale)
    tracer, metrics = Tracer(), Metrics()
    kwargs = (
        {"beta": args.beta, "seed": args.seed}
        if args.algorithm.startswith("decomp-")
        else {}
    )
    with current_context().child(tracer=tracer, metrics=metrics).activate():
        prof = execute_profiled(
            args.algorithm, graph, graph_name=args.graph, **kwargs
        )
    meta = {
        "graph": args.graph,
        "scale": args.scale,
        "algorithm": args.algorithm,
        "backend": args.backend,
        "seed": args.seed,
        "work": prof.tracker.total_work(),
        "depth": prof.tracker.total_depth(),
        "wall_seconds": prof.wall_seconds,
        "phase_work": prof.tracker.work_by_phase(),
        "phase_depth": prof.tracker.depth_by_phase(),
    }
    write_trace(args.output, tracer, metrics, meta=meta)
    print(f"{args.graph} [{args.scale}]: {graph}")
    print(f"algorithm  : {args.algorithm}")
    print(f"components : {prof.result.num_components}")
    print(f"rounds     : {len(tracer.spans('round'))}")
    print(f"events     : {len(tracer.events)}")
    print(f"trace      : {args.output}")
    return 0


def _cmd_table1(args) -> int:
    print(format_table1(run_table1(args.scale)))
    return 0


def _cmd_table2(args) -> int:
    table = run_table2(scale=args.scale, beta=args.beta, seed=args.seed)
    print(format_table2(table))
    return 0


def _cmd_figure(args) -> int:
    n = args.number
    if n == 2:
        graph = build_graph(args.graph, args.scale)
        print(ascii_series(fig2_thread_sweep(graph, args.graph)))
    elif n == 3:
        graph = build_graph(args.graph, args.scale)
        print(ascii_series(fig3_beta_sweep(graph, args.graph)))
    elif n == 4:
        graph = build_graph(args.graph, args.scale)
        series = fig4_edges_remaining(graph, args.graph)
        print(
            ascii_series(
                {f"beta={b}": dict(enumerate(v)) for b, v in series.items()}
            )
        )
    elif n == 5:
        print(ascii_series(fig5_breakdown_min(scale=args.scale)))
    elif n == 6:
        print(ascii_series(fig6_breakdown_arb(scale=args.scale)))
    elif n == 7:
        print(ascii_series(fig7_breakdown_hybrid(scale=args.scale)))
    elif n == 8:
        print(ascii_series({"seconds by edges": fig8_size_scaling()}))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.reprolint import RULE_DOCS, run_lint

    if args.explain is not None:
        rule = args.explain.upper()
        doc = RULE_DOCS.get(rule)
        if doc is None:
            raise ParameterError(
                f"unknown rule {args.explain!r} "
                f"(known: {', '.join(RULE_DOCS)})"
            )
        print(f"{rule}: {doc}")
        return 0
    report = run_lint(paths=args.paths or None, config_path=args.config)
    for line in report.format_lines() + [report.summary()]:
        print(line)
    return 0 if report.ok else 1


def _resolve_fuzz_seed(spec: str) -> int:
    """An integer seed, or ``from-run-id`` -> $GITHUB_RUN_ID (else 0)."""
    import os

    if spec == "from-run-id":
        run_id = os.environ.get("GITHUB_RUN_ID", "0")
        try:
            return int(run_id)
        except ValueError:
            # Non-numeric run ids hash to a stable seed.
            return sum(ord(c) * 31**i for i, c in enumerate(run_id)) % (1 << 31)
    try:
        return int(spec)
    except ValueError:
        raise ParameterError(
            f"--seed must be an integer or 'from-run-id', got {spec!r}"
        ) from None


def _cmd_fuzz(args) -> int:
    from repro.fuzz import fuzz_run

    report = fuzz_run(
        seed=_resolve_fuzz_seed(args.seed),
        max_cases=args.max_cases,
        time_budget=args.time_budget,
        shrink=args.shrink,
        planted=args.planted,
        corpus_dir=args.corpus,
    )
    for line in report.format_lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_replay(args) -> int:
    from repro.fuzz import load_case, run_case

    case = load_case(args.case)
    outcome = run_case(case)
    print(f"case       : {case.case_id or args.case}")
    if case.note:
        print(f"note       : {case.note}")
    print(f"algorithm  : {case.config.algorithm}")
    if outcome.num_components is not None:
        print(f"components : {outcome.num_components}")
    if outcome.detected:
        print(f"detected   : injected fault caught by {outcome.detected_by}")
    for finding in outcome.findings:
        print(f"finding    : {finding}")
    print(f"verdict    : {'PASS' if outcome.passed else 'FAIL'}")
    return 0 if outcome.passed else 1


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    written = generate_report(
        args.outdir, scale=args.scale, beta=args.beta, seed=args.seed
    )
    for artifact, path in sorted(written.items()):
        print(f"{artifact:<10} -> {path}")
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "decompose": _cmd_decompose,
    "forest": _cmd_forest,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "figure": _cmd_figure,
    "report": _cmd_report,
    "lint": _cmd_lint,
    "fuzz": _cmd_fuzz,
    "replay": _cmd_replay,
    "trace": _cmd_trace,
}


def _silence_broken_pipe() -> int:
    """Detach stdout AND stderr; the POSIX-friendly broken-pipe exit.

    Without the ``dup2`` redirects, whatever is still sitting in the
    stream buffers raises a *second* ``BrokenPipeError`` during
    interpreter-shutdown flush — CPython prints ``Exception ignored``
    and exits 120 instead of our 1.  Redirecting both file descriptors
    to ``/dev/null`` makes the shutdown flush succeed harmlessly.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        for stream in (sys.stdout, sys.stderr):
            try:
                os.dup2(devnull, stream.fileno())
            except (OSError, ValueError):
                pass  # stream already closed or not a real fd
    finally:
        os.close(devnull)
    return 1


def _dispatch(args) -> int:
    """Run one parsed command inside the command-wide execution context."""
    if args.sanitize and args.backend == "reference":
        raise ParameterError(
            "--sanitize validates the fast backend against the reference "
            "schedule; it cannot be combined with --backend "
            "reference (use the library API "
            "repro.pram.sanitizing() to sanitize the reference "
            "backend directly)"
        )
    # One execution context for the whole command: the --backend,
    # --sanitize and --trace flags become context fields,
    # and every run the command performs derives its child context
    # from this one.
    from repro.runtime.context import current_context

    overrides: dict = {"backend": resolve_backend(args.backend)}
    sanitizer = None
    if args.sanitize:
        from repro.pram.sanitizer import PramSanitizer

        sanitizer = PramSanitizer(halt_on_race=True)
        overrides["sanitizer"] = sanitizer
    tracer = metrics = None
    if args.trace:
        from repro.obs import Metrics, Tracer

        tracer, metrics = Tracer(), Metrics()
        overrides["tracer"] = tracer
        overrides["metrics"] = metrics
    with current_context().child(**overrides).activate():
        code = _COMMANDS[args.command](args)
    if tracer is not None:
        from repro.obs import write_trace

        write_trace(
            args.trace,
            tracer,
            metrics,
            meta={
                "command": args.command,
                "scale": args.scale,
                "backend": args.backend,
            },
        )
        print(
            f"trace      : {len(tracer.events)} events -> {args.trace}",
            file=sys.stderr,
        )
    if sanitizer is not None:
        print(f"sanitizer  : {sanitizer.summary()}", file=sys.stderr)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Domain failures (:class:`~repro.errors.ReproError`) print a
    one-line ``error: ...`` to stderr and exit 2 — the shell-facing
    contract for scripted sweeps; tracebacks are reserved for actual
    bugs.  A downstream reader closing the pipe (``repro ... | head``)
    exits 1 — never a traceback — whether the broken pipe surfaces on
    stdout or stderr, mid-command or at the final flush.  This
    dispatcher owns both contracts for every subcommand.
    """
    args = build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        # Flush inside the handler's scope: with stdout piped to a
        # closed reader, buffered output would otherwise only error
        # during interpreter shutdown (exit 120), past this handler.
        sys.stdout.flush()
        sys.stderr.flush()
        return code
    except ReproError as exc:
        try:
            print(f"error: {exc}", file=sys.stderr)
            sys.stderr.flush()
        except BrokenPipeError:
            # An exception raised inside an except block would NOT be
            # caught by the sibling handler below, so the stderr write
            # needs its own guard.
            return _silence_broken_pipe()
        return 2
    except BrokenPipeError:
        return _silence_broken_pipe()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
