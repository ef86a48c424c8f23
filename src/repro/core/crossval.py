"""10-fold cross-validation of detectors (Section V-A).

"We perform 10-fold cross validation on the rest of the normal data":
each fold trains on 9/10 of the unique normal segments and scores the held
out tenth as the *normal* test set, against a fixed abnormal set.

Folds run in order in the calling process; parallelism lives one level
up, in the grid runs that call this (:func:`repro.runtime.run_grid`).
Trained models are memoised in a :class:`repro.runtime.ArtifactCache`
keyed by the detector spec plus the fold's exact training content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .. import telemetry
from ..errors import EvaluationError
from ..runtime.cache import ArtifactCache, stable_hash
from ..tracing.segments import Segment, SegmentSet
from .detector import Detector
from .metrics import auc_score, fn_at_fp

DetectorFactory = Callable[[], Detector]


@dataclass
class FoldOutcome:
    """Scores and summary metrics for one fold."""

    normal_scores: np.ndarray
    abnormal_scores: np.ndarray
    fn_by_fp: dict[float, float]
    auc: float
    train_seconds: float
    n_states: int = 0
    from_cache: bool = False


@dataclass
class CrossValidationResult:
    """Aggregated k-fold outcome for one detector on one program."""

    detector_name: str
    folds: list[FoldOutcome] = field(default_factory=list)

    def mean_fn_at(self, fp_target: float) -> float:
        values = [fold.fn_by_fp[fp_target] for fold in self.folds]
        return float(np.mean(values))

    @property
    def mean_auc(self) -> float:
        return float(np.mean([fold.auc for fold in self.folds]))

    @property
    def total_train_seconds(self) -> float:
        return float(sum(fold.train_seconds for fold in self.folds))

    def pooled_scores(self) -> tuple[np.ndarray, np.ndarray]:
        """All folds' normal and abnormal scores concatenated."""
        normal = np.concatenate([fold.normal_scores for fold in self.folds])
        abnormal = np.concatenate([fold.abnormal_scores for fold in self.folds])
        return normal, abnormal


def trained_model_key(
    factory: DetectorFactory, train_part: SegmentSet
) -> str | None:
    """Cache key for a model trained by ``factory`` on ``train_part``.

    Covers every input the trained parameters depend on — the detector
    spec (model, program fingerprint, configs, cluster policy, seed) plus
    the exact training content.  Returns ``None`` if the factory does not
    expose its keyed inputs (plain closures).
    """
    parts_of = getattr(factory, "cache_key_parts", None)
    if parts_of is None:
        return None
    return stable_hash(
        {
            "artifact": "fold_model",
            "factory": parts_of(),
            "train_segments": sorted(train_part.counts.items()),
        }
    )


def run_fold(
    factory: DetectorFactory,
    train_part: SegmentSet,
    test_part: SegmentSet,
    abnormal_segments: Sequence[Segment],
    fp_targets: Sequence[float],
    cache: ArtifactCache | None = None,
) -> tuple[str, FoldOutcome]:
    """Fit and score one fold; returns the detector name and the outcome."""
    detector = factory()
    cached_model = None
    key = None
    with telemetry.span("crossval.fold", detector=detector.name):
        telemetry.counter_add("crossval.folds")
        # Only HMM-backed detectors persist a standalone model artifact.
        cacheable = cache is not None and hasattr(detector, "load_pretrained")
        if cacheable:
            key = trained_model_key(factory, train_part)
            if key is not None:
                cached_model = cache.get_model(key)

        if cached_model is not None:
            detector.load_pretrained(cached_model)
            train_seconds = 0.0
            n_states = cached_model.n_states
            from_cache = True
            telemetry.counter_add("crossval.folds_from_cache")
        else:
            fit = detector.fit(train_part)
            train_seconds = fit.train_seconds
            n_states = fit.n_states
            from_cache = False
            if cacheable and key is not None:
                cache.put_model(key, detector.model)

        with telemetry.span("crossval.score"):
            normal_scores = detector.score(test_part.segments())
            abnormal_scores = detector.score(list(abnormal_segments))
    outcome = FoldOutcome(
        normal_scores=normal_scores,
        abnormal_scores=abnormal_scores,
        fn_by_fp=fn_at_fp(normal_scores, abnormal_scores, fp_targets),
        auc=auc_score(normal_scores, abnormal_scores),
        train_seconds=train_seconds,
        n_states=n_states,
        from_cache=from_cache,
    )
    return detector.name, outcome


def cross_validate(
    factory: DetectorFactory,
    normal_segments: SegmentSet,
    abnormal_segments: Sequence[Segment],
    k: int = 10,
    fp_targets: Sequence[float] = (0.0001, 0.001, 0.01, 0.05),
    seed: int = 0,
    cache: ArtifactCache | None = None,
) -> CrossValidationResult:
    """Run k-fold cross-validation.

    Args:
        factory: builds a fresh (unfitted) detector per fold.  A
            :class:`repro.core.registry.DetectorSpec` enables model
            caching (content-keyable); plain closures still work but run
            uncached.
        normal_segments: deduplicated normal segments.
        abnormal_segments: fixed abnormal test segments (Abnormal-S or
            attack traces).
        k: fold count (the paper uses 10).
        fp_targets: FP budgets at which FN is extracted.
        seed: fold-assignment seed.
        cache: memoises each fold's trained model by (detector spec,
            training content).
    """
    if not abnormal_segments:
        raise EvaluationError("abnormal segment set is empty")
    abnormal = list(abnormal_segments)
    fp_targets = tuple(fp_targets)
    result: CrossValidationResult | None = None
    for train_part, test_part in normal_segments.folds(k=k, seed=seed):
        detector_name, outcome = run_fold(
            factory, train_part, test_part, abnormal, fp_targets, cache
        )
        if result is None:
            result = CrossValidationResult(detector_name=detector_name)
        result.folds.append(outcome)
    assert result is not None
    return result
