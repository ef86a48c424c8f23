"""Unit tests for the telemetry layer: registry, spans, module-level
switch, snapshot export, and executor merge-back parity."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro import telemetry
from repro.eval import ExperimentConfig, accuracy_comparisons, accuracy_grid
from repro.program import CallKind
from repro.runtime import ParallelExecutor, run_grid
from repro.telemetry import Histogram, MetricsRegistry


@pytest.fixture(autouse=True)
def _telemetry_off_before_and_after():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


class TestDisabledDefault:
    def test_disabled_by_default(self):
        assert not telemetry.enabled()
        assert telemetry.get() is None

    def test_span_is_shared_noop(self):
        assert telemetry.span("a") is telemetry.span("b")
        with telemetry.span("a") as span:
            span.set_attribute("k", 1)  # must not raise

    def test_writers_are_noops(self):
        telemetry.counter_add("c")
        telemetry.gauge_set("g", 1.0)
        telemetry.observe("h", -1.0)
        telemetry.observe_many("h", [-1.0, -2.0])
        snap = telemetry.snapshot()
        assert snap["enabled"] is False
        assert snap["counters"] == {}


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(3)
        registry.gauge("g").set(-2.5)
        registry.histogram("h", (0.0, 1.0)).observe_many([-1, 0.5, 99])
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 4
        assert snap["gauges"]["g"] == {"value": -2.5, "updates": 1}
        assert snap["histograms"]["h"]["counts"] == [1, 1, 1]
        assert snap["histograms"]["h"]["min"] == -1
        assert snap["histograms"]["h"]["max"] == 99

    def test_counters_never_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_histogram_boundary_is_inclusive_upper(self):
        histogram = Histogram((0.0,))
        histogram.observe(0.0)
        assert histogram.counts == [1, 0]
        histogram.observe(1e-9)
        assert histogram.counts == [1, 1]

    def test_histogram_rejects_bad_boundaries(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_merge_rejects_mismatched_boundaries(self):
        registry = MetricsRegistry()
        registry.histogram("h", (0.0, 1.0)).observe(0.5)
        other = MetricsRegistry()
        other.histogram("h", (0.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            registry.merge(other.snapshot())

    def test_snapshot_is_json_and_pickle_safe(self):
        with telemetry.session():
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    telemetry.counter_add("c")
                    telemetry.observe("h", -3.0)
            snap = telemetry.snapshot()
        json.dumps(snap)  # JSON-safe
        assert pickle.loads(pickle.dumps(snap)) == snap
        # The registry itself crosses process boundaries too.
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(-1.0)
        restored = pickle.loads(pickle.dumps(registry))
        assert restored.snapshot() == registry.snapshot()

    def test_merge_of_empty_snapshot_is_identity(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        before = registry.snapshot()
        registry.merge(MetricsRegistry().snapshot())
        assert registry.snapshot() == before


class TestSpans:
    def test_nesting_builds_tree(self):
        with telemetry.session():
            with telemetry.span("root", stage="x"):
                with telemetry.span("child"):
                    pass
                with telemetry.span("child"):
                    pass
            trees = telemetry.get().tracer.trees()
        assert len(trees) == 1
        assert trees[0]["name"] == "root"
        assert trees[0]["attributes"] == {"stage": "x"}
        assert [c["name"] for c in trees[0]["children"]] == ["child", "child"]

    def test_aggregates_accumulate(self):
        with telemetry.session() as registry:
            for _ in range(3):
                with telemetry.span("s"):
                    pass
        aggregate = registry.snapshot()["spans"]["s"]
        assert aggregate["count"] == 3
        assert aggregate["wall_s"] >= 0
        assert aggregate["max_wall_s"] <= aggregate["wall_s"]

    def test_span_exits_on_exception(self):
        with telemetry.session():
            with pytest.raises(RuntimeError):
                with telemetry.span("outer"):
                    with telemetry.span("inner"):
                        raise RuntimeError("boom")
            assert telemetry.get().tracer.active is None
            assert len(telemetry.get().tracer.trees()) == 1

    def test_root_retention_is_bounded(self):
        with telemetry.session(max_roots=4):
            for i in range(10):
                with telemetry.span(f"s{i}"):
                    pass
            trees = telemetry.get().tracer.trees()
        assert [t["name"] for t in trees] == ["s6", "s7", "s8", "s9"]


class TestSessionIsolation:
    def test_session_restores_previous_state(self):
        outer = telemetry.enable()
        with telemetry.session():
            assert telemetry.get() is not outer
        assert telemetry.get() is outer

    def test_write_snapshot(self, tmp_path):
        with telemetry.session():
            telemetry.counter_add("c")
            path = telemetry.write_snapshot(tmp_path / "metrics.json")
        snap = json.loads(path.read_text())
        assert snap["counters"]["c"] == 1
        assert snap["enabled"] is True


def _comparable(snapshot: dict) -> dict:
    """The scheduling-independent projection of a snapshot.

    Excluded: wall/CPU durations and span trees (timing), the
    ``executor.jobs`` gauge (reports the actual job count, so it *should*
    differ), and histogram float sums (float addition is not associative,
    so serial one-by-one accumulation and parallel per-task merge can
    differ in the last ulp; the bucket counts and min/max cannot).
    """
    return {
        "counters": snapshot["counters"],
        "gauges": {
            name: payload
            for name, payload in snapshot["gauges"].items()
            if name != "executor.jobs"
        },
        "histograms": {
            name: {k: v for k, v in payload.items() if k != "sum"}
            for name, payload in snapshot["histograms"].items()
        },
        "span_counts": {
            name: payload["count"] for name, payload in snapshot["spans"].items()
        },
    }


class TestJobsParity:
    """--jobs 2 and --jobs 1 must produce identical merged counters: worker
    registries merge back cleanly through a grid run."""

    #: Two program cells, one model, two folds each.
    SPEC = accuracy_grid(
        ("gzip", "sed"),
        CallKind.SYSCALL,
        ExperimentConfig(
            n_cases=30,
            folds=2,
            n_abnormal=20,
            max_training_segments=200,
            training_iterations=3,
            seed=2,
        ),
        models=("stilo",),
    )

    def _run(self, jobs: int) -> tuple[dict, dict]:
        with telemetry.session():
            result = run_grid(self.SPEC, executor=ParallelExecutor(jobs=jobs))
            snap = telemetry.snapshot()
        return snap, accuracy_comparisons(result)

    def test_parallel_counters_match_serial(self):
        serial_snap, serial_result = self._run(jobs=1)
        parallel_snap, parallel_result = self._run(jobs=2)
        assert _comparable(parallel_snap) == _comparable(serial_snap)
        # Sanity: fold counters actually recorded, and scores unchanged.
        assert serial_snap["counters"]["crossval.folds"] == 4
        for program, comparison in serial_result.items():
            serial_folds = comparison.results["stilo"].cross_validation.folds
            parallel_folds = (
                parallel_result[program].results["stilo"].cross_validation.folds
            )
            for fold_a, fold_b in zip(serial_folds, parallel_folds):
                assert np.array_equal(fold_a.normal_scores, fold_b.normal_scores)

    def test_worker_span_timings_travel_back(self):
        parallel_snap, _ = self._run(jobs=2)
        spans = parallel_snap["spans"]
        assert spans["executor.task"]["count"] == 2
        # Fold work happened in worker processes, yet its wall time made it
        # back to the coordinator through snapshot merge-back.
        assert spans["crossval.fold"]["count"] == 4
        assert spans["crossval.fold"]["wall_s"] > 0
