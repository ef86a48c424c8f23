"""CMarkov reproduction: context-sensitive probabilistic program anomaly
detection (Xu, Tian, Yao, Ryder — DSN 2016).

Top-level convenience re-exports; see the subpackages for the full API:

* :mod:`repro.program` — program substrate (toy IR, corpus, binary layout);
* :mod:`repro.analysis` — static probability forecast and aggregation;
* :mod:`repro.hmm` — hidden Markov model machinery;
* :mod:`repro.reduction` — PCA + K-means state reduction, static HMM init;
* :mod:`repro.tracing` — trace executor, workloads, segmentation;
* :mod:`repro.core` — the four detectors, metrics, cross-validation;
* :mod:`repro.attacks` — Abnormal-S, ROP chains, exploit payloads, mimicry;
* :mod:`repro.gadgets` — ROP gadget scanning and context filtering;
* :mod:`repro.eval` — per-table/figure experiment runners;
* :mod:`repro.runtime` — parallel execution and artifact caching;
* :mod:`repro.service` — micro-batched multi-tenant detection service;
* :mod:`repro.telemetry` — spans, metrics, and profiling hooks (off by
  default; ``--metrics-out`` / :func:`repro.telemetry.enable` switch it on).

The supported import surface is the :mod:`repro.api` facade —
``build_detector`` / ``fit`` / ``score`` / ``open_monitor`` /
``load_pretrained`` — re-exported here.
"""

from . import api, telemetry

from .api import (
    THRESHOLD_RULE,
    build_detector,
    detector_spec,
    fit,
    load_pretrained,
    open_monitor,
    score,
)
from .core import (
    CMarkovDetector,
    ClusterPolicy,
    Detector,
    DetectorConfig,
    PretrainedDetector,
    RegularDetector,
    StiloDetector,
)
from .errors import (
    AnalysisError,
    EvaluationError,
    ModelError,
    NotFittedError,
    ProgramStructureError,
    ReproError,
    ServiceError,
    TraceError,
)
from .eval import ExperimentConfig
from .program import CallKind, Program, load_corpus, load_program

__version__ = "1.1.0"

__all__ = [
    "AnalysisError",
    "CallKind",
    "CMarkovDetector",
    "ClusterPolicy",
    "Detector",
    "DetectorConfig",
    "EvaluationError",
    "ExperimentConfig",
    "ModelError",
    "NotFittedError",
    "PretrainedDetector",
    "Program",
    "ProgramStructureError",
    "RegularDetector",
    "ReproError",
    "ServiceError",
    "StiloDetector",
    "THRESHOLD_RULE",
    "TraceError",
    "api",
    "build_detector",
    "detector_spec",
    "fit",
    "load_corpus",
    "load_pretrained",
    "load_program",
    "open_monitor",
    "score",
    "telemetry",
    "__version__",
]
