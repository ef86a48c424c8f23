"""Golden-number regression suite: telemetry must be provably inert.

One fixed (program, seed, config) cell is evaluated twice — telemetry off
and telemetry on (with a profiler hook attached, the most intrusive
configuration) — and every number must be **bit-identical**: detector
scores, trained-HMM parameters (compared exactly and by content hash),
and cross-validation metrics.  A separate set of golden literals pins the
values themselves (with a small tolerance for cross-platform BLAS
reduction differences), so a behaviour change in the pipeline shows up
even when it is consistent between the two runs.

If a pinned literal legitimately changes (e.g. an intentional training
change), regenerate with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro import telemetry
from repro.attacks.synthetic import abnormal_s_segments
from repro.core import DetectorConfig
from repro.core.crossval import CrossValidationResult, cross_validate
from repro.core.registry import detector_spec
from repro.hmm import TrainingConfig
from repro.hmm.model import HiddenMarkovModel
from repro.program import CallKind, load_program
from repro.runtime import stable_hash
from repro.telemetry import CollectingProfiler
from repro.tracing import build_segment_set, run_workload

SEED = 23
FP_TARGETS = (0.01, 0.05)

#: Golden literals for the fixed cell below, pinned at 6 decimals.
GOLDEN = {
    "n_states": 17,
    "iterations_fold0": 10,
    "mean_auc": 0.896697,
    "mean_fn_at_0.01": 0.544444,
    "mean_fn_at_0.05": 0.335556,
    "mean_normal_score": -1.188551,
    "holdout_loglik_final": -17.113757,
}

#: Golden scores for the fixed cross-detector drain cell below: two
#: same-shape detectors' windows fused into one batched contraction.
#: Regenerate alongside ``GOLDEN`` with ``python tests/test_golden.py``.
GOLDEN_DRAIN: dict[str, list[float]] = {
    "drain-a": [-1.715529, -1.786229, -1.802769, -1.640843],
    "drain-b": [-1.758022, -1.868950, -1.777490, -1.772860],
}


@dataclass
class CellOutcome:
    """Everything the golden suite compares for one evaluation run."""

    cv: CrossValidationResult
    model: HiddenMarkovModel
    fit_iterations: int
    holdout_final: float
    telemetry_snapshot: dict | None


def _run_cell() -> CellOutcome:
    """The fixed golden cell: CMarkov on gzip syscalls, seed 23."""
    program = load_program("gzip")
    workload = run_workload(program, n_cases=40, seed=SEED)
    segments = build_segment_set(workload.traces, CallKind.SYSCALL, context=True)
    abnormal = abnormal_s_segments(
        segments.segments(),
        segments.alphabet(),
        n_segments=150,
        seed=SEED + 17,
        exclude=segments,
    )
    config = DetectorConfig(
        training=TrainingConfig(max_iterations=10),
        max_training_segments=600,
        seed=SEED,
    )
    factory = detector_spec(
        "cmarkov", program, CallKind.SYSCALL, config=config
    )
    cv = cross_validate(
        factory, segments, abnormal, k=3, fp_targets=FP_TARGETS, seed=SEED
    )
    detector = factory()
    fit = detector.fit(segments)
    snapshot = telemetry.snapshot() if telemetry.enabled() else None
    return CellOutcome(
        cv=cv,
        model=detector.model,
        fit_iterations=fit.report.iterations,
        holdout_final=fit.report.final_holdout,
        telemetry_snapshot=snapshot,
    )


@pytest.fixture(scope="module")
def cell_off() -> CellOutcome:
    assert not telemetry.enabled()
    return _run_cell()


@pytest.fixture(scope="module")
def cell_on() -> CellOutcome:
    with telemetry.session():
        telemetry.add_profiler(CollectingProfiler())
        return _run_cell()


def _model_hash(model: HiddenMarkovModel) -> str:
    return stable_hash(
        {
            "transition": model.transition,
            "emission": model.emission,
            "initial": model.initial,
            "symbols": list(model.symbols),
        }
    )


class TestTelemetryIsInert:
    """Bit-identical results with telemetry off vs on."""

    def test_detector_scores_bit_identical(self, cell_off, cell_on):
        for fold_off, fold_on in zip(cell_off.cv.folds, cell_on.cv.folds):
            assert np.array_equal(fold_off.normal_scores, fold_on.normal_scores)
            assert np.array_equal(
                fold_off.abnormal_scores, fold_on.abnormal_scores
            )

    def test_trained_parameters_bit_identical(self, cell_off, cell_on):
        assert np.array_equal(cell_off.model.transition, cell_on.model.transition)
        assert np.array_equal(cell_off.model.emission, cell_on.model.emission)
        assert np.array_equal(cell_off.model.initial, cell_on.model.initial)
        assert cell_off.model.symbols == cell_on.model.symbols

    def test_trained_parameters_hash_identical(self, cell_off, cell_on):
        assert _model_hash(cell_off.model) == _model_hash(cell_on.model)

    def test_cross_validation_metrics_identical(self, cell_off, cell_on):
        assert cell_off.cv.mean_auc == cell_on.cv.mean_auc
        for target in FP_TARGETS:
            assert cell_off.cv.mean_fn_at(target) == cell_on.cv.mean_fn_at(target)
        assert cell_off.fit_iterations == cell_on.fit_iterations
        assert cell_off.holdout_final == cell_on.holdout_final

    def test_the_on_run_actually_recorded(self, cell_on):
        """Guards the inertness proof against vacuity: the telemetry-on run
        must have genuinely exercised the instrumentation."""
        snap = cell_on.telemetry_snapshot
        assert snap is not None and snap["enabled"]
        assert snap["counters"]["crossval.folds"] == 3
        assert snap["counters"]["hmm.train.runs"] == 4  # 3 folds + 1 refit
        assert snap["histograms"]["hmm.forward.loglik"]["count"] > 0
        assert snap["spans"]["hmm.train.iteration"]["count"] == snap[
            "counters"
        ]["hmm.train.iterations"]


class TestGoldenNumbers:
    """The pinned values themselves (tolerance covers BLAS reduction-order
    differences across platforms; any real behaviour change is far larger)."""

    def test_n_states(self, cell_off):
        assert cell_off.model.n_states == GOLDEN["n_states"]

    def test_fit_iterations(self, cell_off):
        assert cell_off.fit_iterations == GOLDEN["iterations_fold0"]

    def test_mean_auc(self, cell_off):
        assert cell_off.cv.mean_auc == pytest.approx(
            GOLDEN["mean_auc"], abs=1e-6
        )

    def test_fn_at_fp(self, cell_off):
        assert cell_off.cv.mean_fn_at(0.01) == pytest.approx(
            GOLDEN["mean_fn_at_0.01"], abs=1e-6
        )
        assert cell_off.cv.mean_fn_at(0.05) == pytest.approx(
            GOLDEN["mean_fn_at_0.05"], abs=1e-6
        )

    def test_mean_normal_score(self, cell_off):
        normal, _ = cell_off.cv.pooled_scores()
        assert float(normal.mean()) == pytest.approx(
            GOLDEN["mean_normal_score"], abs=1e-6
        )

    def test_holdout_loglik(self, cell_off):
        assert cell_off.holdout_final == pytest.approx(
            GOLDEN["holdout_loglik_final"], abs=1e-5
        )


class TestGoldenBatchedDrain:
    """Pinned scores for one cross-detector drain round.

    The differential suite (``tests/test_service_batched_drain.py``)
    proves one ``pump()`` == a ``pump(name)`` loop on random fleets; this
    cell pins the actual numbers so a behaviour change that is
    *consistent* between the two call patterns still trips the suite.
    """

    def test_scores_match_golden_and_per_lane(self):
        fused = _run_drain_cell(fused=True)
        per_lane = _run_drain_cell(fused=False)
        assert fused == per_lane  # bitwise, not approx
        assert set(fused) == set(GOLDEN_DRAIN)
        for name, scores in GOLDEN_DRAIN.items():
            assert fused[name] == pytest.approx(scores, abs=1e-6)


def _run_drain_cell(fused: bool) -> dict[str, list[float]]:
    """Fixed drain cell: two same-shape detectors, four 15-call windows
    each, scored in one ``pump()`` round (``fused``) or one ``pump(name)``
    per lane."""
    from repro.api import load_pretrained
    from repro.hmm import random_model
    from repro.service import DetectionService, ServiceConfig

    labels = ["open", "read", "write", "mmap", "close"]
    fleet = [
        (name, load_pretrained(random_model(labels, n_states=4, seed=seed)))
        for name, seed in (("drain-a", 5), ("drain-b", 6))
    ]
    rng = np.random.default_rng(SEED)
    windows = {
        name: [
            tuple(labels[i] for i in rng.integers(0, len(labels), size=15))
            for _ in range(4)
        ]
        for name, _ in fleet
    }
    service = DetectionService(ServiceConfig(), clock=lambda: 0.0)
    for name, detector in fleet:
        service.register(name, detector, threshold=-2.0)
    tickets = {
        name: [service.submit(name, "golden", window=w) for w in ws]
        for name, ws in windows.items()
    }
    if fused:
        assert service.pump() == 8
    else:
        assert sum(service.pump(name) for name, _ in fleet) == 8
    return {
        name: [ticket.result().score for ticket in lane_tickets]
        for name, lane_tickets in tickets.items()
    }


def _generate() -> None:  # pragma: no cover - maintenance helper
    outcome = _run_cell()
    normal, _ = outcome.cv.pooled_scores()
    print("GOLDEN = {")
    print(f'    "n_states": {outcome.model.n_states},')
    print(f'    "iterations_fold0": {outcome.fit_iterations},')
    print(f'    "mean_auc": {outcome.cv.mean_auc:.6f},')
    print(f'    "mean_fn_at_0.01": {outcome.cv.mean_fn_at(0.01):.6f},')
    print(f'    "mean_fn_at_0.05": {outcome.cv.mean_fn_at(0.05):.6f},')
    print(f'    "mean_normal_score": {float(normal.mean()):.6f},')
    print(f'    "holdout_loglik_final": {outcome.holdout_final:.6f},')
    print("}")
    drain = _run_drain_cell(fused=True)
    print("GOLDEN_DRAIN = {")
    for name, scores in drain.items():
        rendered = ", ".join(f"{score:.6f}" for score in scores)
        print(f'    "{name}": [{rendered}],')
    print("}")


if __name__ == "__main__":  # pragma: no cover
    _generate()
