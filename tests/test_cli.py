"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_graph(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "serial-SF", "petersen"])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "quantum-CC", "line"])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "galactic", "list"])


class TestCommands:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "decomp-arb-CC" in out
        assert "com-Orkut" in out
        assert "Table 2" in out

    def test_run_decomp(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "tiny", "run", "decomp-arb-CC", "line",
            "--beta", "0.1", "--seed", "3",
        )
        assert code == 0
        assert "components : 1" in out
        assert "verified   : OK" in out
        assert "T(   1)" in out and "T( 40h)" in out

    def test_run_baseline_no_verify(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "tiny", "run", "serial-SF", "3D-grid", "--no-verify"
        )
        assert code == 0
        assert "components : 1" in out
        assert "verified" not in out

    def test_run_custom_threads(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "tiny", "run", "multistep-CC", "random",
            "--threads", "1", "8", "40h",
        )
        assert code == 0
        assert "T(   8)" in out

    def test_decompose(self, capsys):
        code, out = run_cli(
            capsys, "--scale", "tiny", "decompose", "3D-grid", "--beta", "0.3"
        )
        assert code == 0
        assert "inter-edge fraction" in out
        assert "max radius" in out

    def test_forest(self, capsys):
        code, out = run_cli(capsys, "--scale", "tiny", "forest", "random")
        assert code == 0
        assert "forest edges" in out
        assert "verified" in out

    def test_table1(self, capsys):
        code, out = run_cli(capsys, "--scale", "tiny", "table1")
        assert code == 0
        assert "Input Graph" in out
        assert "line" in out

    def test_table2_subset_runs(self, capsys):
        code, out = run_cli(capsys, "--scale", "tiny", "table2")
        assert code == 0
        assert "Implementation" in out
        assert "decomp-arb-hybrid-CC" in out

    @pytest.mark.parametrize("number", ["3", "4"])
    def test_figures_on_tiny_graph(self, capsys, number):
        code, out = run_cli(
            capsys, "--scale", "tiny", "figure", number, "--graph", "line"
        )
        assert code == 0
        assert "#" in out  # ascii bars rendered

    def test_figure5(self, capsys):
        code, out = run_cli(capsys, "--scale", "tiny", "figure", "5")
        assert code == 0
        assert "bfsPhase1" in out


class TestErrorPaths:
    """Shell contract: domain errors are one line on stderr, exit 2."""

    def run_cli_full(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_unknown_algorithm_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "tiny", "run", "quantum-CC", "line"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "Traceback" not in err

    def test_unknown_graph_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--scale", "tiny", "run", "serial-SF", "petersen"])
        assert excinfo.value.code == 2

    def test_repro_error_is_one_line_no_traceback(self, capsys):
        # An unknown rule raises a ParameterError inside the command;
        # main() must turn it into the one-line contract.
        code, out, err = self.run_cli_full(capsys, "lint", "--explain", "RL999")
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_bad_fault_spec_exits_2(self, capsys):
        code, out, err = self.run_cli_full(
            capsys, "--scale", "tiny", "run", "decomp-arb-CC", "line",
            "--inject-fault", "warp_core_breach",
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "warp_core_breach" in err

    def test_detected_fault_exits_2_naming_the_cell(self, capsys):
        # Two dropped frontier vertices on the path leave an edge
        # unclassified; verification catches it and nothing retries.
        code, out, err = self.run_cli_full(
            capsys, "--scale", "tiny", "run", "decomp-arb-CC", "line",
            "--inject-fault", "drop_frontier:vertices=10|11",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: decomp-arb-CC on line: ")
        assert "crosses labels" in err
        assert err.count("\n") == 1


class TestFlagValidation:
    """Bad flag combinations fail with a clear message, never a traceback."""

    def test_unknown_backend_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "quantum", "list"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'quantum'" in err
        assert "Traceback" not in err

    def test_sanitize_with_reference_backend_is_a_clear_error(self, capsys):
        code = main(
            ["--sanitize", "--backend", "reference", "--scale", "tiny",
             "run", "decomp-arb-CC", "line"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "--sanitize" in err
        assert "Traceback" not in err

    def test_sanitize_clean_run_reports_summary(self, capsys):
        code = main(
            ["--sanitize", "--scale", "tiny", "run", "decomp-arb-CC", "line"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "0 race(s)" in captured.err

    def test_sanitize_detects_injected_cas_flip(self, capsys):
        # The caught race stops the run: one error line, exit 2.  Round
        # 6 is the first with a contested race on this input.
        code = main(
            ["--sanitize", "--scale", "tiny", "run", "decomp-arb-CC", "line",
             "--inject-fault", "cas_flip:p=1.0,round=6"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: cas-order on '<cas>' (round 6)")

    def test_lint_command_exits_zero_on_clean_tree(self, capsys):
        code, out = run_cli(capsys, "lint")
        assert code == 0
        assert "0 violation(s)" in out

    def test_lint_command_reports_violations_with_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "src" / "repro" / "engine" / "evil.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(labels, idx):\n    labels[idx] = 1\n")
        code, out = run_cli(capsys, "lint", str(bad))
        assert code == 1
        assert "RL001" in out
        assert "evil.py:2:" in out

    def test_lint_broken_config_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "reprolint.toml"
        cfg.write_text('[[allow]]\nrule = "RL001"\nsite = "a.py::f"\n')
        code = main(["lint", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "reason" in err


class TestLintFormats:
    def test_explain_prints_rule_documentation(self, capsys):
        code, out = run_cli(capsys, "lint", "--explain", "RL001")
        assert code == 0
        assert "RL001" in out
        assert "primitives.atomics" in out

    def test_explain_is_case_insensitive(self, capsys):
        code, out = run_cli(capsys, "lint", "--explain", "rl001")
        assert code == 0
        assert "sanitizer" in out.lower()

    def test_explain_unknown_rule_exits_two(self, capsys):
        code = main(["lint", "--explain", "RL999"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "RL999" in err

    def test_explain_retired_rule_exits_two(self, capsys):
        code = main(["lint", "--explain", "RL008"])
        err = capsys.readouterr().err
        assert code == 2
        assert "RL008" in err

    def test_help_has_no_report_format_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        out = capsys.readouterr().out
        assert "--explain" in out
        assert "--format" not in out
        assert "--output" not in out

    @pytest.mark.parametrize("target", ["does/not/exist", "README.md"])
    def test_unreadable_lint_path_exits_two(self, capsys, target):
        path = Path(__file__).resolve().parent.parent / target
        code = main(["lint", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "0 file(s)" not in captured.out


class TestJsonOutput:
    """``--format json`` must emit a document ``json.loads`` accepts.

    Regression coverage for NumPy scalars leaking to ``json.dump``:
    every payload deliberately carries raw ``np.int64`` values and
    ndarrays before the boundary coercion, so an uncoerced emit crashes
    here rather than in a user's pipeline.
    """

    JSON_COMMANDS = [
        ("run", "decomp-arb-CC", "line", "--seed", "3"),
        ("run", "serial-SF", "3D-grid"),
        ("decompose", "3D-grid", "--beta", "0.3"),
        ("forest", "random"),
    ]

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda a: "-".join(a[:2]))
    def test_round_trips_through_json(self, capsys, argv):
        import json

        code, out = run_cli(capsys, "--scale", "tiny", *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        json.dumps(payload)  # native types only: re-dump must not raise
        assert payload["graph"]
        assert payload["scale"] == "tiny"

    def test_decompose_payload_types_are_native(self, capsys):
        import json

        code, out = run_cli(
            capsys, "--scale", "tiny", "decompose", "3D-grid", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert isinstance(payload["max_radius"], int)
        assert isinstance(payload["partitions"], int)
        assert isinstance(payload["largest_partitions"], list)
        assert all(isinstance(s, int) for s in payload["largest_partitions"])

    def test_output_writes_file_instead_of_stdout(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        code, out = run_cli(
            capsys, "--scale", "tiny", "run", "decomp-arb-CC", "line",
            "--format", "json", "--output", str(path),
        )
        assert code == 0
        assert out == ""  # the result went to the file, not stdout
        payload = json.loads(path.read_text())
        assert payload["algorithm"] == "decomp-arb-CC"


class TestTraceSurfaces:
    """The ``trace`` subcommand and the global ``--trace`` flag."""

    def test_trace_command_writes_valid_document(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace

        path = tmp_path / "run.trace.json"
        code, out = run_cli(
            capsys, "--scale", "tiny", "trace", "rMat", "--output", str(path)
        )
        assert code == 0
        assert "rounds" in out and str(path) in out
        doc = json.loads(path.read_text())
        validate_trace(doc)
        assert doc["meta"]["graph"] == "rMat"
        assert doc["meta"]["algorithm"] == "decomp-arb-CC"
        assert doc["meta"]["work"] > 0
        assert doc["meta"]["phase_work"]
        assert doc["metrics"]["counters"]["runtime.runs"] == 1
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"run", "round"} <= names

    def test_global_trace_flag_wraps_any_command(self, capsys, tmp_path):
        import json

        from repro.obs import validate_trace

        path = tmp_path / "cmd.trace.json"
        code = main(
            ["--scale", "tiny", "--trace", str(path),
             "run", "decomp-arb-CC", "line"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "components : 1" in captured.out
        assert "trace" in captured.err  # the stderr note
        doc = json.loads(path.read_text())
        validate_trace(doc)
        assert doc["meta"]["command"] == "run"
        assert doc["metrics"]["counters"]["runtime.runs"] >= 1


class TestBrokenPipe:
    """``repro ... | head``: exit 1, never a traceback, on EITHER stream.

    Subprocess tests: the pipe's read end is closed before the child
    writes, so the first flush raises ``BrokenPipeError`` — the
    dispatcher must exit 1 without a traceback or the interpreter's
    shutdown-flush ``Exception ignored`` (exit 120).
    """

    def _run_with_closed(self, argv, stream):
        import os
        import subprocess
        import sys as _sys

        code = (
            "import sys\n"
            "from repro.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        read_fd, write_fd = os.pipe()
        os.close(read_fd)  # no reader: the child's first flush gets EPIPE
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        kwargs = {
            "stdout": write_fd if stream == "stdout" else subprocess.PIPE,
            "stderr": write_fd if stream == "stderr" else subprocess.PIPE,
        }
        proc = subprocess.run(
            [_sys.executable, "-c", code], env=env, timeout=120, **kwargs
        )
        os.close(write_fd)
        other = proc.stderr if stream == "stdout" else proc.stdout
        return proc.returncode, (other or b"").decode()

    def test_list_into_closed_stdout_exits_1(self):
        code, err = self._run_with_closed(["list"], "stdout")
        assert code == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    def test_run_into_closed_stdout_exits_1(self):
        code, err = self._run_with_closed(
            ["--scale", "tiny", "run", "decomp-arb-CC", "line"], "stdout"
        )
        assert code == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    def test_stderr_note_into_closed_stderr_exits_1(self, tmp_path):
        # --sanitize prints its summary to stderr after the command:
        # a closed stderr must follow the same contract as stdout.
        code, out = self._run_with_closed(
            ["--sanitize", "--scale", "tiny", "run", "decomp-arb-CC", "line"],
            "stderr",
        )
        assert code == 1
        assert "Traceback" not in out
        assert "Exception ignored" not in out

    def test_error_path_into_closed_stderr_exits_1(self):
        # ReproError printing "error: ..." to a closed stderr: the
        # nested handler must still exit 1, not crash in the handler.
        code, out = self._run_with_closed(
            ["lint", "--explain", "RL999"], "stderr"
        )
        assert code == 1
        assert "Traceback" not in out
