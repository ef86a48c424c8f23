"""Detection core: the four compared models, metrics, and cross-validation."""

from .crossval import CrossValidationResult, FoldOutcome, cross_validate
from .detector import (
    Detector,
    DetectorConfig,
    FitResult,
    HmmDetector,
    PretrainedDetector,
)
from .drift import DriftReport, compare_models, needs_retraining
from .ensemble import EnsembleDetector, EnsembleMember
from .monitor import Alert, MonitorStats, OnlineMonitor
from .ngram import NGramDetector
from .metrics import (
    CurvePoint,
    auc_score,
    curve,
    detection_rate,
    fn_at_fp,
    rates_at_threshold,
)
from .regular import RegularDetector
from .streaming import StreamingScorer
from .registry import (
    EXTRA_MODEL_NAMES,
    MODEL_NAMES,
    DetectorSpec,
    build_detector,
    detector_spec,
    model_is_context_sensitive,
)
from .static_models import ClusterPolicy, CMarkovDetector, StiloDetector
from .thresholds import threshold_for_fp_budget

__all__ = [
    "EXTRA_MODEL_NAMES",
    "MODEL_NAMES",
    "HmmDetector",
    "NGramDetector",
    "Alert",
    "CMarkovDetector",
    "MonitorStats",
    "OnlineMonitor",
    "ClusterPolicy",
    "CrossValidationResult",
    "CurvePoint",
    "Detector",
    "DriftReport",
    "EnsembleDetector",
    "EnsembleMember",
    "compare_models",
    "needs_retraining",
    "DetectorConfig",
    "DetectorSpec",
    "FitResult",
    "FoldOutcome",
    "PretrainedDetector",
    "build_detector",
    "detector_spec",
    "RegularDetector",
    "StreamingScorer",
    "StiloDetector",
    "auc_score",
    "cross_validate",
    "curve",
    "detection_rate",
    "fn_at_fp",
    "model_is_context_sensitive",
    "rates_at_threshold",
    "threshold_for_fp_budget",
]
