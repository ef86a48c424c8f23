"""The one supported import surface for building, training, and serving
detectors.

Everything a downstream user needs routes through five entry points::

    from repro import api

    detector = api.build_detector("cmarkov", program, "syscall")
    api.fit(detector, normal_segments)
    scores = api.score(detector, windows)
    monitor = api.open_monitor(detector, normal_scores=holdout_scores)
    deployed = api.load_pretrained("gzip-cmarkov.npz")

Batch experiments route through one grid surface: declare a
:class:`~repro.runtime.grid.GridSpec` (``api.accuracy_grid``,
``api.robustness_grid``) and execute it with :func:`api.run_grid` — every
grid gets the same resumable, content-addressed, parallel runner::

    result = api.run_grid(api.accuracy_grid(["gzip"], "syscall"))
    comparisons = api.accuracy_comparisons(result)

    grid = api.open_robustness_grid(["gzip"])
    corpus = grid.corpus()          # runs (resuming) then summarises

The deeper modules (:mod:`repro.core`, :mod:`repro.hmm`, ...) stay
importable for research use.

.. rubric:: Threshold convention

.. data:: THRESHOLD_RULE

    The library-wide flagging rule, pinned in one place: a segment/window is
    **anomalous iff ``score < threshold``** — strictly below, so a score
    exactly at the threshold is normal.  ``Detector.classify``,
    :class:`~repro.core.monitor.OnlineMonitor`, the detection service
    (:mod:`repro.service`), and the FP/FN metrics (Equations 3-4 in
    :mod:`repro.core.metrics`) all apply this same comparison; FN counts
    abnormal segments with ``score >= threshold`` as misses, the exact
    complement.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core.detector import (
    Detector,
    DetectorConfig,
    FitResult,
    PretrainedDetector,
)
from .core.monitor import OnlineMonitor
from .core.registry import (
    EXTRA_MODEL_NAMES,
    MODEL_NAMES,
    DetectorSpec,
    build_detector,
    detector_spec,
    model_is_context_sensitive,
)
from .core.thresholds import threshold_for_fp_budget
from .errors import EvaluationError, ModelError
from .eval.runners import AccuracyGridConfig, accuracy_comparisons, accuracy_grid
from .hmm.model import HiddenMarkovModel
from .hmm.serialize import load_model
from .program.calls import CallKind
from .robustness import (
    ATTACK_FAMILIES,
    DEFAULT_SEVERITIES,
    RobustnessConfig,
    RobustnessGrid,
    open_robustness_grid,
    robustness_grid,
)
from .runtime.grid import GridAxis, GridResult, GridSpec, run_grid
from .tracing.segments import DEFAULT_SEGMENT_LENGTH, Segment, SegmentSet

__all__ = [
    "ATTACK_FAMILIES",
    "DEFAULT_SEVERITIES",
    "EXTRA_MODEL_NAMES",
    "MODEL_NAMES",
    "THRESHOLD_RULE",
    "AccuracyGridConfig",
    "Detector",
    "DetectorConfig",
    "DetectorSpec",
    "GridAxis",
    "GridResult",
    "GridSpec",
    "PretrainedDetector",
    "RobustnessConfig",
    "RobustnessGrid",
    "accuracy_comparisons",
    "accuracy_grid",
    "build_detector",
    "detector_spec",
    "fit",
    "kernel_backend",
    "load_pretrained",
    "model_is_context_sensitive",
    "open_gateway",
    "open_monitor",
    "open_registry",
    "open_robustness_grid",
    "open_service",
    "robustness_grid",
    "run_grid",
    "score",
]

#: Anomalous iff ``score < threshold`` (strict; ties are normal).
THRESHOLD_RULE = "score < threshold"


def fit(
    detector: Detector,
    normal_segments: SegmentSet | Iterable[Segment],
    length: int = DEFAULT_SEGMENT_LENGTH,
) -> FitResult:
    """Train ``detector`` on normal segments; returns training diagnostics.

    Accepts either a prepared :class:`~repro.tracing.segments.SegmentSet`
    (from :func:`repro.tracing.build_segment_set`) or any iterable of
    equal-length symbol tuples, which is deduplicated with multiplicity
    counts exactly as the segmentation layer would.
    """
    if not isinstance(normal_segments, SegmentSet):
        materialized = [tuple(segment) for segment in normal_segments]
        if materialized:
            length = len(materialized[0])
        segment_set = SegmentSet(length=length)
        segment_set.update(materialized)
        normal_segments = segment_set
    return detector.fit(normal_segments)


def score(detector: Detector, windows: Sequence[Segment]) -> np.ndarray:
    """Per-window normality scores (per-symbol mean log-likelihood).

    Higher is more normal; compare against a threshold with the
    :data:`THRESHOLD_RULE` convention (``score < threshold`` flags).
    """
    return detector.score(list(windows))


def open_monitor(
    detector: Detector,
    threshold: float | None = None,
    *,
    normal_scores: np.ndarray | None = None,
    fp_budget: float = 0.01,
    segment_length: int = DEFAULT_SEGMENT_LENGTH,
    cooldown: int | None = None,
) -> OnlineMonitor:
    """Open a streaming window monitor over a fitted detector.

    The operating threshold is either given explicitly or derived from
    held-out ``normal_scores`` at ``fp_budget`` via
    :func:`~repro.core.thresholds.threshold_for_fp_budget`.
    """
    if threshold is None:
        if normal_scores is None:
            raise EvaluationError(
                "open_monitor needs a threshold: pass threshold=..., or "
                "normal_scores=... to derive one from an FP budget"
            )
        threshold = threshold_for_fp_budget(np.asarray(normal_scores), fp_budget)
    elif normal_scores is not None:
        raise EvaluationError(
            "pass either threshold= or normal_scores=, not both"
        )
    return OnlineMonitor(
        detector,
        threshold=threshold,
        segment_length=segment_length,
        cooldown=cooldown,
    )


def open_service(
    config=None,
    *,
    shards: int = 1,
    shard_config=None,
):
    """Open a detection service sized to the deployment.

    ``shards=1`` returns the in-process micro-batched
    :class:`~repro.service.service.DetectionService`; ``shards > 1`` (or an
    explicit :class:`~repro.service.config.ShardConfig`) returns the
    process-sharded :class:`~repro.service.sharded.ShardedDetectionService`
    — same API, model weights published once through shared memory, one
    worker process per shard.  See ``docs/service.md``.

    Args:
        config: a :class:`~repro.service.config.ServiceConfig` (per-shard
            batching/queueing knobs).
        shards: worker-process count.
        shard_config: full sharding knobs; overrides ``shards``.
    """
    from .service import create_service

    return create_service(config, shards=shards, shard_config=shard_config)


def kernel_backend() -> str:
    """The name of the kernel implementation scoring calls: always ``"numpy"``.

    The compiled backend and its selection knobs are retired (see
    ``docs/perf.md``, "Retired: compiled kernels"); this stays because
    the repository benchmark records it in every run's metadata line.
    """
    return "numpy"


def open_registry(cache=None):
    """A versioned model registry for staged rollout/rollback.

    Lineages are named detector families; ``publish`` stages a retrained
    model, ``rollout``/``rollback`` move the active version, and the
    gateway warm-swaps every activation into the live service fleet.  Pass
    an :class:`~repro.runtime.cache.ArtifactCache` to write published
    models through to disk.  See :mod:`repro.runtime.registry`.
    """
    from .runtime.registry import ModelRegistry

    return ModelRegistry(cache=cache)


def open_gateway(service, registry=None, config=None):
    """An HTTP front end over a detection service (+ optional registry).

    Returns an unstarted
    :class:`~repro.gateway.server.DetectionGateway`; call ``start()`` (or
    use it as a context manager) to bind and serve, and read ``.port`` for
    the bound port.  See ``docs/gateway.md``.
    """
    from .gateway import DetectionGateway

    return DetectionGateway(service, registry=registry, config=config)


def load_pretrained(
    source: str | Path | HiddenMarkovModel,
    *,
    kind: CallKind | str = CallKind.SYSCALL,
    context: bool | None = None,
    name: str | None = None,
) -> PretrainedDetector:
    """A ready-to-score detector from a serialized (or in-memory) model.

    This is the deployment seam: training happened elsewhere (``repro
    train``, a cross-validation fold, another host) and only the ``.npz``
    parameters travel.  The returned detector reports ``is_fitted`` True
    and ``trained_in_process`` False — reading ``fit_result`` raises with
    a message pointing at that distinction instead of the old bare
    "fit() has not been called".

    Args:
        source: path to a :func:`repro.hmm.serialize.save_model` archive,
            or an already-loaded :class:`HiddenMarkovModel`.
        kind: observation family the deployment feed carries.
        context: context sensitivity; inferred from the model alphabet
            (``call@caller`` symbols) when omitted.
        name: optional detector name for telemetry/service registration.
    """
    if isinstance(source, HiddenMarkovModel):
        model = source
    elif isinstance(source, (str, Path)):
        model = load_model(source)
    else:
        raise ModelError(
            f"load_pretrained takes a path or HiddenMarkovModel, "
            f"not {type(source).__name__}"
        )
    return PretrainedDetector(
        model, kind=CallKind(kind), context=context, name=name
    )
