"""Tests for the ``repro.api`` facade."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import api
from repro.core.metrics import rates_at_threshold
from repro.core.monitor import OnlineMonitor
from repro.errors import EvaluationError, ModelError, NotFittedError
from repro.hmm import random_model, save_model
from repro.program import CallKind
from repro.service import DetectionService, ServiceConfig
from repro.tracing import build_segment_set, segment_symbols


@pytest.fixture(scope="module")
def gzip_segments(gzip_workload):
    return build_segment_set(
        gzip_workload.traces, CallKind.SYSCALL, context=False, length=15
    )


@pytest.fixture(scope="module")
def fitted(gzip_program, gzip_segments, fast_detector_config):
    detector = api.build_detector(
        "stilo", gzip_program, CallKind.SYSCALL, config=fast_detector_config
    )
    api.fit(detector, gzip_segments)
    return detector


class TestBuildDetector:
    def test_string_kind_is_coerced(self, gzip_program):
        detector = api.build_detector("cmarkov", gzip_program, "syscall")
        assert detector.kind is CallKind.SYSCALL
        assert detector.context is True

    def test_every_model_name_constructs(self, gzip_program):
        for name in api.MODEL_NAMES:
            detector = api.build_detector(name, gzip_program, "syscall")
            assert detector.context == api.model_is_context_sensitive(name)

    def test_detector_spec_builds_the_same_detector(self, gzip_program):
        spec = api.detector_spec("stilo", gzip_program, CallKind.SYSCALL)
        assert isinstance(spec, api.DetectorSpec)
        assert spec().name == api.build_detector(
            "stilo", gzip_program, CallKind.SYSCALL
        ).name


class TestFitAndScore:
    def test_fit_accepts_segment_set(self, fitted):
        assert fitted.is_fitted
        assert fitted.trained_in_process
        assert fitted.fit_result.n_train_segments >= 1

    def test_fit_accepts_plain_iterable(
        self, gzip_program, gzip_workload, fast_detector_config
    ):
        windows = []
        for trace in gzip_workload.traces[:5]:
            windows.extend(
                segment_symbols(trace.symbols(CallKind.SYSCALL, False), 15)
            )
        detector = api.build_detector(
            "stilo", gzip_program, "syscall", config=fast_detector_config
        )
        api.fit(detector, iter(windows))
        assert detector.is_fitted

    def test_score_matches_detector_score(self, fitted, gzip_segments):
        windows = gzip_segments.segments()[:20]
        assert api.score(fitted, windows).tolist() == \
            fitted.score(windows).tolist()

    def test_classify_is_strictly_below(self, fitted, gzip_segments):
        windows = gzip_segments.segments()[:5]
        scores = api.score(fitted, windows)
        at_threshold = float(scores[0])
        verdicts = fitted.classify(windows, threshold=at_threshold)
        # A score exactly at the threshold is normal (THRESHOLD_RULE).
        assert not verdicts[0]
        assert verdicts.tolist() == (scores < at_threshold).tolist()


class TestThresholdRule:
    def test_rule_is_pinned_and_exported(self):
        assert api.THRESHOLD_RULE == "score < threshold"
        assert repro.THRESHOLD_RULE is api.THRESHOLD_RULE

    def test_fp_fn_are_exact_complements_at_ties(self):
        # One normal and one abnormal score exactly at T: the normal one is
        # not flagged (no FP), so the abnormal one is missed (an FN).
        fp, fn = rates_at_threshold(
            np.array([-3.0, -1.0]), np.array([-3.0, -5.0]), threshold=-3.0
        )
        assert fp == 0.0
        assert fn == 0.5


class TestOpenMonitor:
    def test_explicit_threshold(self, fitted):
        monitor = api.open_monitor(fitted, threshold=-4.0)
        assert isinstance(monitor, OnlineMonitor)
        assert monitor.threshold == -4.0

    def test_threshold_from_fp_budget(self, fitted, gzip_segments):
        scores = api.score(fitted, gzip_segments.segments())
        monitor = api.open_monitor(fitted, normal_scores=scores, fp_budget=0.05)
        flagged = np.mean(scores < monitor.threshold)
        assert flagged <= 0.05

    def test_threshold_xor_normal_scores(self, fitted):
        with pytest.raises(EvaluationError, match="needs a threshold"):
            api.open_monitor(fitted)
        with pytest.raises(EvaluationError, match="not both"):
            api.open_monitor(fitted, threshold=-1.0, normal_scores=np.ones(3))


class TestOpenService:
    def test_returns_in_process_service(self):
        config = ServiceConfig(max_batch=8)
        service = api.open_service(config)
        assert isinstance(service, DetectionService)
        assert service.config is config
        service.close()
        assert isinstance(api.open_service(), DetectionService)


class TestLoadPretrained:
    def test_roundtrip_through_archive(self, tmp_path):
        model = random_model(["read", "write"], n_states=3, seed=1)
        save_model(model, tmp_path / "m.npz")
        detector = api.load_pretrained(tmp_path / "m.npz", name="deployed")
        assert detector.is_fitted
        assert detector.name == "deployed"
        windows = [("read", "write", "read")]
        assert detector.score(windows).tolist() == \
            api.load_pretrained(model).score(windows).tolist()

    def test_context_inferred_from_alphabet(self):
        plain = api.load_pretrained(random_model(["read", "write"], seed=0))
        contextual = api.load_pretrained(
            random_model(["read@f", "write@g"], seed=0)
        )
        assert plain.context is False
        assert contextual.context is True

    def test_pretrained_is_fitted_but_not_trained_here(self, fitted):
        deployed = api.load_pretrained(fitted.model)
        assert deployed.is_fitted
        assert not deployed.trained_in_process
        with pytest.raises(NotFittedError, match="trained_in_process"):
            deployed.fit_result
        # ... unlike a detector fitted in this process.
        assert fitted.trained_in_process

    def test_pretrained_detector_cannot_fit(self, gzip_segments):
        deployed = api.load_pretrained(random_model(["read"], seed=0))
        with pytest.raises(ModelError, match="pretrained"):
            deployed.fit(gzip_segments)

    def test_rejects_other_sources(self):
        with pytest.raises(ModelError, match="path or HiddenMarkovModel"):
            api.load_pretrained(1234)


class TestRootReexports:
    def test_facade_names_on_package_root(self):
        for name in (
            "api",
            "build_detector",
            "detector_spec",
            "fit",
            "score",
            "open_monitor",
            "load_pretrained",
            "PretrainedDetector",
            "THRESHOLD_RULE",
        ):
            assert getattr(repro, name) is not None
            assert name in repro.__all__
