"""Tests for the adversarial robustness harness (``repro.robustness``).

Three layers, matching the module's load-bearing claims:

* **mimicry search** — deterministic under a fixed seed, and evasion is
  monotone in the operating threshold *by construction* (the profile is
  threshold-free; hypothesis pins the read-off);
* **service gap path** — ``note_gap`` marks monitor/stream sessions
  discontinuous, breaks the monitor's sliding window (no fabricated
  cross-gap transitions), and rejects misuse;
* **grid + corpus** — a resumed grid is bit-identical to an
  uninterrupted one in every measurement block, through the Python API,
  the CLI, and (under ``-m stress``) a real ``SIGKILL``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import load_pretrained
from repro.errors import EvaluationError, ServiceError
from repro.hmm import random_model
from repro.robustness import (
    ATTACK_FAMILIES,
    MimicryProfile,
    RobustnessConfig,
    craft_mimicry_stream,
    open_robustness_grid,
    robustness_grid,
)
from repro.robustness.corpus import build_corpus, load_corpus, write_corpus
from repro.runtime import ArtifactCache
from repro.service import Absorbed, DetectionService, Scored, ServiceConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

SYMBOLS = ["open", "read", "write", "mmap", "brk", "close", "ioctl", "exit"]
WINDOW = 8


@pytest.fixture(scope="module")
def mimicry_detector():
    return load_pretrained(
        random_model(SYMBOLS, n_states=4, seed=5), name="mimicry"
    )


@pytest.fixture(scope="module")
def normal_segments():
    rng = np.random.default_rng(17)
    # Normal traffic concentrates on the first six symbols; ioctl/exit
    # stay rare (payload material).
    return [
        tuple(SYMBOLS[i] for i in rng.integers(0, 6, size=WINDOW))
        for _ in range(40)
    ]


@pytest.fixture(scope="module")
def profile(mimicry_detector, normal_segments) -> MimicryProfile:
    return craft_mimicry_stream(
        mimicry_detector,
        ("ioctl", "exit"),
        normal_segments,
        window=WINDOW,
        seed=3,
    )


class TestMimicrySearch:
    def test_deterministic_under_fixed_seed(
        self, mimicry_detector, normal_segments, profile
    ):
        again = craft_mimicry_stream(
            mimicry_detector,
            ("ioctl", "exit"),
            normal_segments,
            window=WINDOW,
            seed=3,
        )
        assert again.margins_by_length == profile.margins_by_length
        assert again.expansions == profile.expansions
        assert again.payload == profile.payload

    def test_profile_shape(self, profile):
        assert profile.margins_by_length, "search completed no stream"
        for length, margin in profile.margins_by_length:
            assert length >= len(profile.payload)
            assert np.isfinite(margin)
        assert profile.expansions > 0

    @settings(max_examples=60, deadline=None)
    @given(
        t1=st.floats(-12.0, 2.0, allow_nan=False),
        t2=st.floats(-12.0, 2.0, allow_nan=False),
    )
    def test_evasion_monotone_in_threshold(self, profile, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        # A stricter defender (higher threshold) can only remove evasions.
        if profile.evades(hi):
            assert profile.evades(lo)
        # ... and can only force longer crafted streams.
        length_lo = profile.crafted_length(lo)
        length_hi = profile.crafted_length(hi)
        if length_hi is not None:
            assert length_lo is not None and length_lo <= length_hi
        # evades() and crafted_length() are two reads of the same profile.
        assert profile.evades(lo) == (length_lo is not None)

    def test_rejects_degenerate_inputs(self, mimicry_detector, normal_segments):
        with pytest.raises(EvaluationError, match="payload is empty"):
            craft_mimicry_stream(
                mimicry_detector, (), normal_segments, window=WINDOW
            )
        with pytest.raises(EvaluationError, match="host segments"):
            craft_mimicry_stream(
                mimicry_detector, ("ioctl",), [], window=WINDOW
            )


class TestServiceGapPath:
    def _service(self, detector, window: int = 5) -> DetectionService:
        service = DetectionService(ServiceConfig(max_queue_depth=512))
        service.register("svc", detector, threshold=-50.0, window=window)
        return service

    def test_note_gap_breaks_monitor_window(self, mimicry_detector):
        service = self._service(mimicry_detector)
        service.open_session("svc", "s", "monitor")
        warmup = [
            service.submit("svc", "s", symbol=SYMBOLS[i % 6]) for i in range(5)
        ]
        service.drain_pending()
        assert isinstance(warmup[-1].result(), Scored)
        assert warmup[-1].result().gap is False

        service.note_gap("svc", "s")
        after = [
            service.submit("svc", "s", symbol=SYMBOLS[i % 6]) for i in range(5)
        ]
        service.drain_pending()
        # The sliding window restarted at the gap: four post-gap symbols
        # are warm-up again (a window spanning the gap never occurred)...
        assert all(isinstance(t.result(), Absorbed) for t in after[:4])
        # ... and the first full post-gap window carries the gap mark.
        outcome = after[4].result()
        assert isinstance(outcome, Scored) and outcome.gap is True

    def test_note_gap_drains_queued_symbols_first(self, mimicry_detector):
        service = self._service(mimicry_detector)
        service.open_session("svc", "s", "monitor")
        queued = [
            service.submit("svc", "s", symbol=SYMBOLS[i % 6]) for i in range(5)
        ]
        # No explicit drain: note_gap must place the gap *after* the
        # queued symbols, so the first window still completes clean.
        service.note_gap("svc", "s")
        outcome = queued[-1].result()
        assert isinstance(outcome, Scored) and outcome.gap is False

    def test_note_gap_marks_stream_sessions(self, mimicry_detector):
        service = self._service(mimicry_detector)
        service.open_session("svc", "s", "stream")
        service.submit("svc", "s", symbol="open")
        service.drain_pending()
        service.note_gap("svc", "s", count=3)
        ticket = service.submit("svc", "s", symbol="read")
        service.drain_pending()
        assert ticket.result().gap is True
        assert service._sessions[("svc", "s")].gaps == 3

    def test_note_gap_misuse(self, mimicry_detector):
        service = self._service(mimicry_detector)
        service.open_session("svc", "s", "monitor")
        with pytest.raises(ServiceError, match="count must be >= 1"):
            service.note_gap("svc", "s", count=0)
        with pytest.raises(ServiceError, match="not an open"):
            service.note_gap("svc", "never-opened")
        service.submit("svc", "w", window=tuple(SYMBOLS[:5]))
        service.drain_pending()
        with pytest.raises(ServiceError, match="not an open"):
            service.note_gap("svc", "w")


TEST_CONFIG = RobustnessConfig(mimicry_instances=3, gap_instances=4)


@pytest.fixture(scope="module")
def grid_cache(tmp_path_factory):
    return ArtifactCache(tmp_path_factory.mktemp("robustness-grid"))


@pytest.fixture(scope="module")
def grid_run(grid_cache):
    grid = open_robustness_grid(
        ["gzip"],
        models=["regular-basic", "regular-context"],
        attacks=["mimicry", "gap"],
        severities=[2],
        config=TEST_CONFIG,
        cache=grid_cache,
    )
    result = grid.run()
    return grid, result


class TestRobustnessGrid:
    def test_spec_validates_names(self):
        with pytest.raises(EvaluationError, match="unknown attack"):
            robustness_grid(["gzip"], attacks=["rowhammer"])
        with pytest.raises(Exception):
            robustness_grid(["gzip"], models=["no-such-model"])
        spec = robustness_grid(["gzip"])
        assert spec.n_cells == 4 * len(ATTACK_FAMILIES) * 3

    def test_cells_are_measured(self, grid_run):
        _, result = grid_run
        assert result.computed == 4
        for point, cell in result:
            assert cell.program == "gzip"
            assert cell.model == point["model"]
            assert np.isfinite(cell.threshold)
            assert cell.n_train_segments > 0
            assert 0.0 <= cell.detection_rate <= 1.0
            n = (
                TEST_CONFIG.mimicry_instances
                if point["attack"] == "mimicry"
                else TEST_CONFIG.gap_instances
            )
            assert len(cell.result.instance_detected) == n

    def test_resumed_grid_bit_identical(self, grid_run, grid_cache):
        grid, first = grid_run
        corpus_first = build_corpus(first)
        reopened = open_robustness_grid(
            ["gzip"],
            models=["regular-basic", "regular-context"],
            attacks=["mimicry", "gap"],
            severities=[2],
            config=TEST_CONFIG,
            cache=grid_cache,
        )
        assert reopened.cells_cached() == 4
        second = reopened.run()
        assert second.resumed == 4 and second.computed == 0
        corpus_second = build_corpus(second)
        dump = lambda c: json.dumps(  # noqa: E731
            {"cells": c["cells"], "summary": c["summary"]}, sort_keys=True
        )
        assert dump(corpus_first) == dump(corpus_second)

    def test_corpus_structure_and_roundtrip(self, grid_run, tmp_path):
        grid, _ = grid_run
        corpus = grid.corpus()
        assert corpus["format"] == "repro.robustness.corpus"
        assert corpus["grid"]["n_cells"] == 4
        for cell in corpus["cells"]:
            for block in ("detection", "baseline_detection", "false_alarms"):
                ci = cell[block]
                assert ci["low"] <= ci["estimate"] <= ci["high"]
        claims = corpus["summary"]["claims"]
        assert isinstance(claims["mimicry_lowers_detection"], bool)
        assert claims["regular_context_ge_basic"] in (True, False)

        path = write_corpus(corpus, tmp_path / "corpus.json")
        assert load_corpus(path) == corpus
        tampered = dict(corpus, version=999)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(tampered))
        with pytest.raises(EvaluationError, match="version"):
            load_corpus(bad)
        (tmp_path / "not.json").write_text("{}")
        with pytest.raises(EvaluationError, match="artifact"):
            load_corpus(tmp_path / "not.json")

    def test_report_renders(self, grid_run):
        grid, _ = grid_run
        report = grid.report()
        assert "mimicry" in report and "regular-context" in report
        assert "95%" in report or "CI" in report

    def test_mimicry_lowers_detection_on_some_variant(self, grid_run):
        _, result = grid_run
        drops = [
            cell.baseline_detection_rate - cell.detection_rate
            for _, cell in result.select(attack="mimicry")
        ]
        assert max(drops) > 0, "mimicry never beat the naive splice"


class TestCli:
    def test_robustness_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        corpus_out = tmp_path / "corpus.json"
        report_out = tmp_path / "report.md"
        code = main(
            [
                "--cache-dir",
                str(tmp_path / "cache"),
                "robustness",
                "--programs",
                "gzip",
                "--models",
                "regular-basic",
                "--attacks",
                "gap",
                "--severities",
                "1",
                "--corpus-out",
                str(corpus_out),
                "--report-out",
                str(report_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "robustness grid" in out
        assert "mimicry lowers detection" in out
        corpus = load_corpus(corpus_out)
        assert corpus["grid"]["axes"]["attack"] == ["gap"]
        assert "Robustness" in report_out.read_text() or report_out.stat().st_size

    def test_rejects_unknown_attack(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["robustness", "--attacks", "rowhammer"])


@pytest.mark.stress
def test_sigkill_mid_grid_resumes_bit_identical(tmp_path):
    """Kill -9 a running grid once its first cell is on disk, resume it,
    and demand byte-equality with an uninterrupted run."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    severities = [1, 2]

    def args(cache: str, corpus: str) -> list[str]:
        return [
            sys.executable, "-m", "repro",
            "--cache-dir", str(tmp_path / cache),
            "robustness",
            "--programs", "gzip",
            "--models", "regular-basic",
            "--attacks", "gap",
            "--severities", *map(str, severities),
            "--corpus-out", str(tmp_path / corpus),
        ]

    # The grid the CLI builds from those flags (default kind and seed), to
    # watch its cells land in the victim's cache.
    grid = open_robustness_grid(
        ["gzip"],
        models=["regular-basic"],
        attacks=["gap"],
        severities=severities,
        config=RobustnessConfig(kind="syscall"),
        cache=ArtifactCache(tmp_path / "cache-a"),
    )
    victim = subprocess.Popen(
        args("cache-a", "killed.json"),
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 120.0
    while grid.cells_cached() == 0:
        assert victim.poll() is None, "grid run exited before its first cell"
        assert time.monotonic() < deadline, "no grid cell reached the cache"
        time.sleep(0.01)
    victim.kill()  # SIGKILL: no atexit, no cache cleanup
    victim.wait()

    resumed = subprocess.run(
        args("cache-a", "resumed.json"),
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert f"resuming: 1/{grid.n_cells} cells cached" in resumed.stdout
    fresh = subprocess.run(
        args("cache-b", "fresh.json"),
        env=env,
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert fresh.returncode == 0, fresh.stderr

    resumed_corpus = load_corpus(tmp_path / "resumed.json")
    fresh_corpus = load_corpus(tmp_path / "fresh.json")
    measured = lambda c: json.dumps(  # noqa: E731
        {"cells": c["cells"], "summary": c["summary"]}, sort_keys=True
    )
    assert measured(resumed_corpus) == measured(fresh_corpus)
