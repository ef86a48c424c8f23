"""Unit tests for the evaluation runners (structure and invariants)."""

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.core import FoldOutcome
from repro.eval import (
    FAST_CONFIG,
    ModelAccuracy,
    accuracy_comparisons,
    accuracy_grid,
    prepare_program,
    run_accuracy_comparison,
    run_clustering_reduction,
    run_exploit_detection,
)
from repro.errors import EvaluationError
from repro.program import CallKind
from repro.runtime import ParallelExecutor, run_grid


@pytest.fixture(scope="module")
def sed_syscall_comparison():
    return run_accuracy_comparison("sed", CallKind.SYSCALL, FAST_CONFIG)


class TestPrepareProgram:
    def test_segment_sets_cached(self):
        data = prepare_program("gzip", FAST_CONFIG)
        first = data.segment_set(CallKind.SYSCALL, True, 15)
        second = data.segment_set(CallKind.SYSCALL, True, 15)
        assert first is second

    def test_distinct_modes_distinct_sets(self):
        data = prepare_program("gzip", FAST_CONFIG)
        ctx = data.segment_set(CallKind.SYSCALL, True, 15)
        bare = data.segment_set(CallKind.SYSCALL, False, 15)
        assert ctx is not bare
        assert set(ctx.alphabet()) != set(bare.alphabet())

    def test_segment_sets_keyed_by_length(self):
        data = prepare_program("gzip", FAST_CONFIG)
        long = data.segment_set(CallKind.SYSCALL, True, 15)
        short = data.segment_set(CallKind.SYSCALL, True, 10)
        assert long is not short
        assert (long.length, short.length) == (15, 10)


class TestAccuracyComparison:
    def test_all_models_present(self, sed_syscall_comparison):
        assert set(sed_syscall_comparison.results) == {
            "cmarkov",
            "stilo",
            "regular-basic",
            "regular-context",
        }

    def test_fields_populated(self, sed_syscall_comparison):
        for result in sed_syscall_comparison.results.values():
            assert result.n_states > 0
            assert 0.0 <= result.auc <= 1.0
            assert result.train_seconds > 0
            for target in FAST_CONFIG.fp_targets:
                assert 0.0 <= result.fn_by_fp[target] <= 1.0

    def test_fold_count_matches_config(self, sed_syscall_comparison):
        for result in sed_syscall_comparison.results.values():
            assert len(result.cross_validation.folds) == FAST_CONFIG.folds

    def test_improvement_factor_finite(self, sed_syscall_comparison):
        for baseline in ("stilo", "regular-basic"):
            factor = sed_syscall_comparison.improvement_factor(baseline, 0.05)
            assert factor >= 0.0
            assert factor < float("inf")

    def test_subset_of_models(self):
        comparison = run_accuracy_comparison(
            "sed", CallKind.SYSCALL, FAST_CONFIG, models=("stilo",)
        )
        assert set(comparison.results) == {"stilo"}

    def test_too_few_folds_rejected(self):
        tiny = dataclasses.replace(FAST_CONFIG, n_cases=10, folds=2)
        # With a handful of cases there are still enough segments; force the
        # failure path by requesting absurd folds.
        impossible = dataclasses.replace(tiny, folds=10_000)
        with pytest.raises((EvaluationError, Exception)):
            run_accuracy_comparison("sed", CallKind.SYSCALL, impossible)


class TestAccuracyGrid:
    """The accuracy panel's one path: one grid cell per program."""

    SPEC = accuracy_grid(("sed", "gzip"), CallKind.SYSCALL, FAST_CONFIG)

    @pytest.fixture(scope="class")
    def runs(self):
        runs = {}
        for jobs in (1, 2):
            with telemetry.session():
                result = run_grid(self.SPEC, executor=ParallelExecutor(jobs=jobs))
                runs[jobs] = (accuracy_comparisons(result), telemetry.snapshot())
        return runs

    def test_one_cell_per_program(self, runs):
        comparisons, _ = runs[1]
        assert self.SPEC.n_cells == 2
        assert list(comparisons) == ["sed", "gzip"]
        for program, comparison in comparisons.items():
            assert comparison.program == program
            assert list(comparison.results) == list(self.SPEC.config.models)

    def test_each_program_prepared_once(self, runs):
        for _, snapshot in runs.values():
            assert snapshot["spans"]["eval.prepare_program"]["count"] == 2
            assert snapshot["spans"]["eval.cell"]["count"] == 8

    def test_parallel_matches_serial(self, runs):
        # Everything but the wall-clock training times must match.
        serial, _ = runs[1]
        parallel, _ = runs[2]
        for program, comparison in serial.items():
            for model, ours in comparison.results.items():
                theirs = parallel[program].results[model]
                for f in dataclasses.fields(ModelAccuracy):
                    if f.name not in ("train_seconds", "cross_validation"):
                        assert getattr(ours, f.name) == getattr(theirs, f.name)
                cv_ours, cv_theirs = ours.cross_validation, theirs.cross_validation
                assert cv_ours.detector_name == cv_theirs.detector_name
                assert len(cv_ours.folds) == len(cv_theirs.folds) == FAST_CONFIG.folds
                for fold_a, fold_b in zip(cv_ours.folds, cv_theirs.folds):
                    for f in dataclasses.fields(FoldOutcome):
                        if f.name == "train_seconds":
                            continue
                        a, b = getattr(fold_a, f.name), getattr(fold_b, f.name)
                        if isinstance(a, np.ndarray):
                            assert np.array_equal(a, b)
                        else:
                            assert a == b


class TestClusteringRunner:
    def test_unmeasured_rows(self):
        rows = run_clustering_reduction(("vim",), FAST_CONFIG, measure=False)
        row = rows[0]
        assert row.measured_time_reduction is None
        assert 0 < row.n_states_after < row.n_distinct_calls
        assert 0 < row.estimated_time_reduction < 1

    def test_ratio_controls_states(self):
        half = run_clustering_reduction(
            ("vim",), FAST_CONFIG, ratio=1 / 2, measure=False
        )[0]
        third = run_clustering_reduction(
            ("vim",), FAST_CONFIG, ratio=1 / 3, measure=False
        )[0]
        assert third.n_states_after < half.n_states_after


class TestExploitRunner:
    @pytest.fixture(scope="class")
    def studies(self):
        return run_exploit_detection(("gzip",), FAST_CONFIG)

    def test_gzip_payload_set(self, studies):
        names = {o.spec.name for o in studies[0].outcomes}
        assert names == {"rop", "syscall_chain", "stealth_code_reuse"}

    def test_outcome_fields(self, studies):
        for outcome in studies[0].outcomes:
            assert 0.0 <= outcome.abnormal_context_fraction <= 1.0
            assert outcome.min_segment_score < 0.0

    def test_all_detected_property(self, studies):
        study = studies[0]
        assert study.all_detected == all(
            o.detected_by_cmarkov for o in study.outcomes
        )
