"""Tests for the command-line interface."""

import warnings

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_program_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "emacs"])

    def test_bad_kind_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "gzip", "--kind", "netcall"])


class TestCommands:
    def test_corpus(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        for name in ("flex", "nginx", "proftpd"):
            assert name in out

    def test_analyze(self, capsys):
        assert main(["analyze", "gzip", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "syscall labels" in out
        assert "probability" in out

    def test_analyze_no_context(self, capsys):
        assert main(["analyze", "gzip", "--no-context", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "@" not in out.splitlines()[-1]

    def test_gadgets(self, capsys):
        assert main(["gadgets", "gzip"]) == 0
        out = capsys.readouterr().out
        assert "context-compatible" in out

    def test_train_and_score_roundtrip(self, tmp_path, capsys):
        model_path = tmp_path / "gzip.npz"
        assert (
            main(
                [
                    "train",
                    "gzip",
                    "--model",
                    "stilo",
                    "--cases",
                    "10",
                    "--output",
                    str(model_path),
                ]
            )
            == 0
        )
        assert model_path.exists() or model_path.with_suffix(".npz.npz").exists()

        segments_file = tmp_path / "segments.txt"
        segments_file.write_text(
            "brk uname rt_sigaction rt_sigaction getenv\n"
            "execve execve execve execve execve\n"
        )
        assert main(["score", str(model_path), str(segments_file)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
        scores = [float(line.split()[0]) for line in lines[-2:]]
        assert len(scores) == 2

    def test_train_leaves_jobs_unresolved(self, tmp_path):
        # Only `robustness` fans out, so only it resolves (and clamps) --jobs.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(
                [
                    "--jobs", "999", "train", "gzip", "--model", "regular-basic",
                    "--cases", "5", "--output", str(tmp_path / "m.npz"),
                ]
            )
        assert code == 0
        assert not [w for w in caught if "clamping" in str(w.message)]

    def test_score_empty_file_errors(self, tmp_path):
        from repro.hmm import random_model, save_model

        model_path = tmp_path / "m.npz"
        save_model(random_model(["a"], seed=0), model_path)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["score", str(model_path), str(empty)]) == 1


class TestTraceCommands:
    def test_trace_writes_log(self, tmp_path, capsys):
        out = tmp_path / "t.log"
        assert main(["trace", "gzip", "--cases", "3", "--output", str(out)]) == 0
        assert out.exists()
        assert "3 traces" in capsys.readouterr().out

    def test_score_trace_roundtrip(self, tmp_path, capsys):
        log_path = tmp_path / "t.log"
        model_path = tmp_path / "m.npz"
        assert main(["trace", "gzip", "--cases", "3", "--output", str(log_path)]) == 0
        assert (
            main(
                [
                    "train", "gzip", "--model", "cmarkov", "--cases", "10",
                    "--output", str(model_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "score-trace", str(model_path), str(log_path),
                    "--threshold", "-50",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "segments flagged" in out

    def test_score_trace_empty_log_errors(self, tmp_path):
        from repro.hmm import random_model, save_model

        model_path = tmp_path / "m.npz"
        save_model(random_model(["a"], seed=0), model_path)
        log_path = tmp_path / "t.log"
        log_path.write_text("# trace program=p case=c\nsyscall read @ f\n")
        assert main(["score-trace", str(model_path), str(log_path)]) == 1

    def test_serve_replay_pumps_past_small_queue(self, tmp_path, capsys):
        """Replay larger than --queue-depth must score fully, not shed."""
        log_path = tmp_path / "t.log"
        model_path = tmp_path / "m.npz"
        assert main(["trace", "gzip", "--cases", "4", "--output",
                     str(log_path)]) == 0
        assert main(["train", "gzip", "--model", "cmarkov", "--cases", "10",
                     "--output", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["serve", str(model_path), str(log_path),
                     "--queue-depth", "4", "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "rate 0.00%" in out          # shed-rate exactly zero
        assert "failed to score" not in out

    def test_call_graph_dot(self, capsys):
        assert main(["dot", "gzip"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "gzip"')
        assert '"main"' in out

    def test_function_cfg_dot(self, capsys):
        assert main(["dot", "gzip", "--function", "sys_read"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('digraph "sys_read"')
        assert "read" in out

    def test_unknown_function_reports_error(self, capsys):
        assert main(["dot", "gzip", "--function", "nope"]) == 2
        assert "error:" in capsys.readouterr().err


class TestReportCommand:
    def test_markdown_report_written(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--program", "sed", "--markdown", str(out)]) == 0
        content = out.read_text()
        assert content.startswith("# CMarkov reproduction report")
        assert "## Model accuracy" in content
        assert "sed" in content


class TestServeFailureExit:
    def test_serve_exits_nonzero_on_failed_outcomes(self, tmp_path, capsys):
        """A replay that produces typed ``Failed`` outcomes must exit 1 so
        operators (and CI) see the breakage — not a green run with a
        stderr footnote."""
        import numpy as np

        from repro.hmm import save_model
        from repro.hmm.model import HiddenMarkovModel
        from repro.program import CallKind
        from repro.tracing import CallEvent, Trace, write_traces

        # An alphabet with no <unk> slot: the unknown symbol below cannot
        # encode, so its window resolves Failed instead of absorbing.
        symbols = ("open", "read", "close")
        n = len(symbols)
        uniform = np.full((n, n), 1.0 / n)
        model = HiddenMarkovModel(
            transition=uniform,
            emission=uniform,
            initial=np.full(n, 1.0 / n),
            symbols=symbols,
        )
        model_path = tmp_path / "m.npz"
        save_model(model, model_path)

        trace = Trace(program="p", case_id="c")
        for name in ["open", "read", "mystery", "close", "open"]:
            trace.append(CallEvent(name, "f", CallKind.SYSCALL))
        log_path = tmp_path / "t.log"
        write_traces([trace], log_path)

        capsys.readouterr()
        code = main(
            ["serve", str(model_path), str(log_path), "--length", "5"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "failed to score" in captured.err


class TestGatewayParser:
    def test_gateway_defaults(self):
        args = build_parser().parse_args(["gateway", "m.npz"])
        assert args.command == "gateway"
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.name == "served"
        assert args.no_pump is False

    def test_gateway_flags(self):
        args = build_parser().parse_args(
            ["gateway", "m.npz", "--queue-depth", "8",
             "--no-pump", "--port", "8125"]
        )
        assert args.queue_depth == 8
        assert args.no_pump is True
        assert args.port == 8125
