"""Tests for the execution layer: ParallelExecutor + ArtifactCache.

Covers the four correctness properties the runtime subsystem promises:

* parallel-vs-serial **result equality** of executor fan-out (a whole
  accuracy grid's parity is in ``tests/test_runners.py``);
* cache **round-trip fidelity** (a reloaded model scores identically);
* cache **key sensitivity** (changed seed/config/data means a miss);
* **corruption recovery** (a damaged entry falls back to recompute).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import analyze_program
from repro.attacks import abnormal_s_segments
from repro.core import DetectorConfig, DetectorSpec, cross_validate, detector_spec
from repro.core.crossval import trained_model_key
from repro.errors import EvaluationError
from repro.hmm import TrainingConfig, random_model
from repro.program import CallKind, load_program
from repro.runtime import (
    ArtifactCache,
    ParallelExecutor,
    default_jobs,
    derive_seed,
    program_fingerprint,
    stable_hash,
)
from repro.tracing import build_segment_set

SYSCALL = CallKind.SYSCALL


@pytest.fixture(scope="module")
def cv_inputs():
    """A small but real cross-validation problem (shared, read-only)."""
    program = load_program("gzip")
    from repro.tracing import run_workload

    workload = run_workload(program, n_cases=20, seed=7)
    segments = build_segment_set(workload.traces, SYSCALL, context=True)
    abnormal = abnormal_s_segments(
        segments.segments(), segments.alphabet(), 60, seed=24, exclude=segments
    )
    config = DetectorConfig(
        training=TrainingConfig(max_iterations=4),
        seed=7,
        max_training_segments=250,
    )
    factory = detector_spec("cmarkov", program, SYSCALL, config=config)
    return program, segments, abnormal, config, factory


def _assert_cv_equal(left, right):
    assert left.detector_name == right.detector_name
    assert len(left.folds) == len(right.folds)
    for fold_a, fold_b in zip(left.folds, right.folds):
        assert np.array_equal(fold_a.normal_scores, fold_b.normal_scores)
        assert np.array_equal(fold_a.abnormal_scores, fold_b.abnormal_scores)
        assert fold_a.fn_by_fp == fold_b.fn_by_fp
        assert fold_a.auc == fold_b.auc
        assert fold_a.n_states == fold_b.n_states


# ---------------------------------------------------------------------------
# ParallelExecutor
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _add(x, y):
    return x + y


class TestParallelExecutor:
    def test_serial_map_preserves_order(self):
        executor = ParallelExecutor(jobs=1)
        assert executor.map(_square, range(5)) == [0, 1, 4, 9, 16]

    def test_parallel_map_preserves_order(self):
        executor = ParallelExecutor(jobs=2)
        assert executor.map(_square, range(8)) == [x * x for x in range(8)]

    def test_starmap(self):
        executor = ParallelExecutor(jobs=2)
        assert executor.starmap(_add, [(1, 2), (3, 4)]) == [3, 7]

    def test_empty_input(self):
        assert ParallelExecutor(jobs=4).map(_square, []) == []

    def test_invalid_jobs_rejected(self):
        with pytest.raises(EvaluationError):
            ParallelExecutor(jobs=0)

    def test_unpicklable_task_falls_back_to_serial(self):
        executor = ParallelExecutor(jobs=2)
        captured = []

        def closure(x):  # closures cannot cross process boundaries
            captured.append(x)
            return x + 1

        assert executor.starmap(closure, [(1,), (2,)]) == [2, 3]
        assert captured == [1, 2]  # proves it ran in-process

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 8)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_default_jobs_env_clamped_to_cpus(self, monkeypatch):
        monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 2)
        monkeypatch.setenv("REPRO_JOBS", "16")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS=16 exceeds"):
            assert default_jobs() == 2

    def test_clamp_jobs_warns_and_counts(self, monkeypatch):
        from repro import telemetry
        from repro.runtime import clamp_jobs

        monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 4)
        assert clamp_jobs(4) == 4  # at the limit: no warning, no clamp
        with telemetry.session():
            with pytest.warns(RuntimeWarning, match="--jobs=9 exceeds"):
                assert clamp_jobs(9) == 4
            assert telemetry.snapshot()["counters"]["runtime.jobs.clamped"] == 1

    def test_direct_construction_stays_unclamped(self):
        # Deliberate oversubscription (e.g. the parallel-vs-serial equality
        # tests on a 1-CPU runner) must remain possible: only the --jobs /
        # REPRO_JOBS entry points clamp.
        assert ParallelExecutor(jobs=64).jobs == 64


# ---------------------------------------------------------------------------
# stable_hash / derive_seed / program_fingerprint
# ---------------------------------------------------------------------------


class TestStableHash:
    def test_deterministic_across_calls(self):
        config = DetectorConfig(seed=3)
        assert stable_hash(config) == stable_hash(DetectorConfig(seed=3))

    def test_sensitive_to_dataclass_fields(self):
        assert stable_hash(DetectorConfig(seed=3)) != stable_hash(
            DetectorConfig(seed=4)
        )

    def test_dict_order_irrelevant(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_arrays_hashed_by_content(self):
        a = np.arange(6, dtype=float)
        assert stable_hash(a) == stable_hash(a.copy())
        assert stable_hash(a) != stable_hash(a + 1)

    def test_unhashable_type_rejected(self):
        with pytest.raises(TypeError):
            stable_hash(object())

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(7, "cell", 0) == derive_seed(7, "cell", 0)
        assert derive_seed(7, "cell", 0) != derive_seed(7, "cell", 1)
        assert derive_seed(7, "cell", 0) != derive_seed(8, "cell", 0)

    def test_program_fingerprint_tracks_structure(self):
        assert program_fingerprint(load_program("gzip")) == program_fingerprint(
            load_program("gzip")
        )
        assert program_fingerprint(load_program("gzip")) != program_fingerprint(
            load_program("sed")
        )


# ---------------------------------------------------------------------------
# ArtifactCache
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_model_round_trip_scores_identically(self, tmp_path, cv_inputs):
        """A cache hit must reproduce the trained model bit-for-bit."""
        _, segments, abnormal, _, factory = cv_inputs
        cache = ArtifactCache(tmp_path / "cache")
        cold = cross_validate(factory, segments, abnormal, k=2, seed=7, cache=cache)
        assert cache.stats.misses == 2 and cache.stats.writes == 2
        warm = cross_validate(factory, segments, abnormal, k=2, seed=7, cache=cache)
        assert cache.stats.hits == 2
        assert all(fold.from_cache for fold in warm.folds)
        _assert_cv_equal(cold, warm)

    def test_object_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key(artifact="blob", n=1)
        assert cache.get_object(key) is None
        cache.put_object(key, {"rows": [1, 2, 3]})
        assert cache.get_object(key) == {"rows": [1, 2, 3]}

    def test_key_sensitivity(self, cv_inputs):
        """Changing seed, config, or training data must change the key."""
        program, segments, _, config, factory = cv_inputs
        base = trained_model_key(factory, segments)
        assert base == trained_model_key(factory, segments)

        reseeded = detector_spec(
            "cmarkov",
            program,
            SYSCALL,
            config=DetectorConfig(
                training=config.training,
                seed=config.seed + 1,
                max_training_segments=config.max_training_segments,
            ),
        )
        assert trained_model_key(reseeded, segments) != base

        retrained = detector_spec(
            "cmarkov",
            program,
            SYSCALL,
            config=DetectorConfig(
                training=TrainingConfig(max_iterations=9),
                seed=config.seed,
                max_training_segments=config.max_training_segments,
            ),
        )
        assert trained_model_key(retrained, segments) != base

        other_model = detector_spec("stilo", program, SYSCALL, config=config)
        assert trained_model_key(other_model, segments) != base

        smaller = segments.split([0.5, 0.5], seed=0)[0]
        assert trained_model_key(factory, smaller) != base

    def test_closure_factories_are_uncacheable(self, cv_inputs):
        _, segments, _, _, _ = cv_inputs
        assert trained_model_key(lambda: None, segments) is None

    def test_corrupted_model_entry_recovers(self, tmp_path, cv_inputs):
        """A damaged artifact is a miss: recompute, never crash."""
        _, segments, abnormal, _, factory = cv_inputs
        cache = ArtifactCache(tmp_path / "cache")
        cold = cross_validate(factory, segments, abnormal, k=2, seed=7, cache=cache)
        for entry in (cache.root).glob("*.model.npz"):
            entry.write_bytes(b"not an npz archive")
        recovered = cross_validate(
            factory, segments, abnormal, k=2, seed=7, cache=cache
        )
        assert cache.stats.corrupt == 2
        assert not any(fold.from_cache for fold in recovered.folds)
        _assert_cv_equal(cold, recovered)
        # The bad entries were replaced; the next run hits again.
        rewarmed = cross_validate(
            factory, segments, abnormal, k=2, seed=7, cache=cache
        )
        assert all(fold.from_cache for fold in rewarmed.folds)

    def test_corrupted_object_entry_recovers(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key(artifact="blob")
        cache.put_object(key, [1, 2])
        (cache.root / f"{key}.pkl").write_bytes(b"\x80garbage")
        assert cache.get_object(key) is None
        assert cache.stats.corrupt == 1

    def test_eviction_bounds_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_entries=3)
        for index in range(6):
            cache.put_object(cache.key(n=index), index)
        assert cache.n_entries == 3
        assert cache.stats.evictions == 3

    def test_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put_object(cache.key(n=1), 1)
        cache.put_model(cache.key(n=2), random_model(["a", "b"], seed=0))
        assert cache.clear() == 2
        assert cache.n_entries == 0

    def test_missing_directory_reads_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path / "never-created")
        assert cache.get_model(cache.key(n=1)) is None
        assert cache.n_entries == 0


# ---------------------------------------------------------------------------
# Cached static analysis
# ---------------------------------------------------------------------------


class TestCachedAnalysis:
    def test_analysis_cache_round_trip(self, tmp_path):
        program = load_program("gzip")
        cache = ArtifactCache(tmp_path)
        fresh = analyze_program(program, SYSCALL, context=True, cache=cache)
        assert cache.stats.writes == 1
        cached = analyze_program(program, SYSCALL, context=True, cache=cache)
        assert cache.stats.hits == 1
        assert np.array_equal(
            fresh.program_summary.trans, cached.program_summary.trans
        )
        assert fresh.timings_s == cached.timings_s

    def test_analysis_cache_keyed_by_context_and_kind(self, tmp_path):
        program = load_program("gzip")
        cache = ArtifactCache(tmp_path)
        analyze_program(program, SYSCALL, context=True, cache=cache)
        analyze_program(program, SYSCALL, context=False, cache=cache)
        analyze_program(program, CallKind.LIBCALL, context=True, cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.writes == 3


# ---------------------------------------------------------------------------
# DetectorSpec
# ---------------------------------------------------------------------------


class TestDetectorSpec:
    def test_factory_returns_picklable_spec(self, cv_inputs):
        import pickle

        program, _, _, config, factory = cv_inputs
        assert isinstance(factory, DetectorSpec)
        clone = pickle.loads(pickle.dumps(factory))
        detector = clone()
        assert detector.name == "cmarkov"
        assert clone.cache_key_parts() == factory.cache_key_parts()

    def test_spec_builds_each_model(self):
        program = load_program("gzip")
        for model_name, expected in [
            ("cmarkov", "cmarkov"),
            ("stilo", "stilo"),
            ("regular-basic", "regular-basic"),
            ("regular-context", "regular-context"),
        ]:
            spec = DetectorSpec(model_name, program, SYSCALL)
            assert spec().name == expected
