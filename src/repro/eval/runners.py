"""Experiment runners: one function per paper table/figure.

Each runner is pure orchestration over the library — program corpus,
workload, static analysis, detectors, attacks — and returns structured
results the benchmarks render next to the paper's numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .. import telemetry
from ..analysis.labels import build_label_space
from ..analysis.pipeline import analyze_program
from ..attacks.exploits import (
    ExploitSpec,
    abnormal_context_fraction,
    build_attack_events,
    payloads_for,
)
from ..attacks.rop import code_reuse_from_normal
from ..attacks.synthetic import abnormal_s_segments
from ..core.crossval import CrossValidationResult, cross_validate
from ..core.metrics import CurvePoint, curve
from ..core.registry import MODEL_NAMES, detector_spec, model_is_context_sensitive
from ..core.thresholds import threshold_for_fp_budget
from ..errors import EvaluationError
from ..gadgets.context_filter import GadgetSurface, gadget_surface
from ..gadgets.scanner import count_by_length, scan_gadgets
from ..hmm.baumwelch import TrainingConfig, train
from ..program.calls import CallKind
from ..program.corpus import (
    ALL_PROGRAMS,
    UTILITY_PROGRAMS,
    load_program,
)
from ..program.image import layout_libc, layout_program
from ..program.program import Program
from ..reduction.cluster import cluster_calls
from ..runtime.cache import ArtifactCache
from ..runtime.executor import ParallelExecutor
from ..runtime.grid import GridAxis, GridResult, GridSpec, run_grid
from ..reduction.initializer import initialize_hmm
from ..tracing.segments import SegmentSet, build_segment_set, segment_symbols
from ..tracing.workload import CoverageReport, WorkloadResult, run_workload
from .experiments import ExperimentConfig

# ---------------------------------------------------------------------------
# Shared data preparation
# ---------------------------------------------------------------------------


@dataclass
class ProgramData:
    """Workload traces and per-mode segment sets for one program."""

    program: Program
    workload: WorkloadResult
    segments: dict[tuple[CallKind, bool, int], SegmentSet] = field(
        default_factory=dict
    )

    def segment_set(self, kind: CallKind, context: bool, length: int) -> SegmentSet:
        key = (kind, context, length)
        if key not in self.segments:
            self.segments[key] = build_segment_set(
                self.workload.traces, kind, context, length=length
            )
        return self.segments[key]


def prepare_program(name: str, config: ExperimentConfig) -> ProgramData:
    """Generate the program and run its workload suite."""
    with telemetry.span("eval.prepare_program", program=name):
        program = load_program(name, scale=config.corpus_scale)
        workload = run_workload(program, n_cases=config.n_cases, seed=config.seed)
    return ProgramData(program=program, workload=workload)


# ---------------------------------------------------------------------------
# Figures 2-5: accuracy comparison of the four models
# ---------------------------------------------------------------------------


@dataclass
class ModelAccuracy:
    """One model's cross-validated accuracy on one program × call kind."""

    program: str
    kind: CallKind
    model: str
    n_states: int
    fn_by_fp: dict[float, float]
    auc: float
    train_seconds: float
    cross_validation: CrossValidationResult

    def fp_fn_curve(self, n_points: int = 200) -> list[CurvePoint]:
        """Pooled FP/FN trade-off curve (a Figures 2-5 line)."""
        normal, abnormal = self.cross_validation.pooled_scores()
        return curve(normal, abnormal, n_points=n_points)


@dataclass
class AccuracyComparison:
    """All compared models on one program × call kind."""

    program: str
    kind: CallKind
    results: dict[str, ModelAccuracy] = field(default_factory=dict)

    def improvement_factor(self, baseline: str, fp_target: float) -> float:
        """FN(baseline) / FN(cmarkov) at one FP budget (≥ 1 means CMarkov
        wins); the paper's "N-fold improvement" metric.  A zero CMarkov FN
        is floored at one missed segment to keep the factor finite."""
        cmarkov = self.results["cmarkov"]
        other = self.results[baseline]
        floor = 1.0 / max(
            sum(f.abnormal_scores.size for f in cmarkov.cross_validation.folds), 1
        )
        denominator = max(cmarkov.fn_by_fp[fp_target], floor)
        return other.fn_by_fp[fp_target] / denominator


def _model_accuracy_cell(
    data: ProgramData,
    kind: CallKind,
    model_name: str,
    seed_offset: int,
    config: ExperimentConfig,
    cache: ArtifactCache | None,
) -> ModelAccuracy:
    """Cross-validate one model on one prepared program."""
    context = model_is_context_sensitive(model_name)
    with telemetry.span(
        "eval.cell",
        program=data.program.name,
        kind=kind.value,
        model=model_name,
    ):
        telemetry.counter_add("eval.cells")
        segments = data.segment_set(kind, context, config.segment_length)
        if segments.n_unique < config.folds * 2:
            raise EvaluationError(
                f"{data.program.name}/{kind.value}: too few segments "
                f"({segments.n_unique}) for {config.folds}-fold CV"
            )
        abnormal = abnormal_s_segments(
            segments.segments(),
            segments.alphabet(),
            config.n_abnormal,
            seed=config.seed + 17,
            exclude=segments,
        )
        factory = detector_spec(
            model_name,
            data.program,
            kind,
            config=config.detector_config(seed_offset=seed_offset),
            cluster_policy=config.cluster_policy(),
        )
        cv = cross_validate(
            factory,
            segments,
            abnormal,
            k=config.folds,
            fp_targets=config.fp_targets,
            seed=config.seed,
            cache=cache,
        )
    return ModelAccuracy(
        program=data.program.name,
        kind=kind,
        model=model_name,
        n_states=cv.folds[0].n_states,
        fn_by_fp={t: cv.mean_fn_at(t) for t in config.fp_targets},
        auc=cv.mean_auc,
        train_seconds=cv.total_train_seconds,
        cross_validation=cv,
    )


@dataclass(frozen=True)
class AccuracyGridConfig:
    """Per-grid configuration for the accuracy panel's cells.

    Each model's detector seed offset is its position in ``models``.
    """

    kind: CallKind
    experiment: ExperimentConfig
    models: tuple[str, ...]


def _program_cell(
    point: Mapping[str, object],
    config: AccuracyGridConfig,
    seed: int,
    cache: ArtifactCache | None,
) -> AccuracyComparison:
    """One program's comparison: the accuracy grid's cell.

    The program's workload is prepared once and shared by every model.
    The derived grid ``seed`` is deliberately unused: models seed from
    ``config.experiment``, so numbers match historical panels bit for bit
    (the grid seed still participates in the cache key, keeping
    differently-seeded grids distinct).
    """
    data = prepare_program(str(point["program"]), config.experiment)
    comparison = AccuracyComparison(program=data.program.name, kind=config.kind)
    for offset, model_name in enumerate(config.models):
        comparison.results[model_name] = _model_accuracy_cell(
            data, config.kind, model_name, offset, config.experiment, cache
        )
    return comparison


def accuracy_grid(
    program_names: Sequence[str],
    kind: CallKind,
    config: ExperimentConfig | None = None,
    models: tuple[str, ...] = MODEL_NAMES,
) -> GridSpec:
    """The Figures 2-5 accuracy panel as a :class:`~repro.runtime.GridSpec`.

    One cell per program, comparing every model on that program.  Run it
    with :func:`repro.api.run_grid` — the same surface as the robustness
    grid — then key the cells by program with :func:`accuracy_comparisons`.
    With a cache the panel is resumable per program.
    """
    experiment = config or ExperimentConfig()
    return GridSpec(
        name="accuracy",
        axes=(GridAxis("program", tuple(program_names)),),
        cell=_program_cell,
        config=AccuracyGridConfig(
            kind=CallKind(kind), experiment=experiment, models=tuple(models)
        ),
        seed=experiment.seed,
        version=2,
    )


def accuracy_comparisons(result: GridResult) -> dict[str, AccuracyComparison]:
    """An accuracy grid's cells keyed by program."""
    return {point["program"]: comparison for point, comparison in result}


def run_accuracy_comparison(
    program_name: str,
    kind: CallKind,
    config: ExperimentConfig | None = None,
    models: tuple[str, ...] = MODEL_NAMES,
    cache: ArtifactCache | None = None,
) -> AccuracyComparison:
    """Cross-validate the compared models on one program × call kind.

    Normal segments come from the workload suite; abnormal segments are
    Abnormal-S (Section V-A).  Each model observes its own symbol form
    (context or bare), exactly as in the paper's comparisons.

    This is the one-program run of :func:`accuracy_grid`: with a
    ``cache`` the whole comparison is stored as the grid's cell (and each
    fold's trained model beside it), so a repeated call resumes it.
    """
    spec = accuracy_grid((program_name,), kind, config, models)
    return run_grid(spec, cache=cache).cells[0]


# ---------------------------------------------------------------------------
# Table II: clustering-based state reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClusteringRow:
    """One Table II row plus the measured (not just estimated) speedup."""

    program: str
    model: str
    n_distinct_calls: int
    n_states_after: int
    estimated_time_reduction: float
    measured_time_reduction: float | None


def run_clustering_reduction(
    program_names: tuple[str, ...] = ("bash", "vim", "proftpd"),
    config: ExperimentConfig | None = None,
    ratio: float = 1 / 3,
    measure: bool = True,
) -> list[ClusteringRow]:
    """Reproduce Table II: libcall-model state reduction and training speedup.

    The *estimated* reduction follows the paper's ``O(T·S²)`` iteration cost
    (1 - K²/N²); the *measured* one times actual Baum-Welch runs of equal
    iteration count on the same segments.
    """
    config = config or ExperimentConfig()
    rows: list[ClusteringRow] = []
    for name in program_names:
        data = prepare_program(name, config)
        analysis = analyze_program(data.program, CallKind.LIBCALL, context=True)
        summary = analysis.program_summary
        n = len(summary.space)
        clustering = cluster_calls(summary, ratio=ratio, seed=config.seed)
        k = clustering.n_clusters
        estimated = 1.0 - (k * k) / (n * n)

        measured: float | None = None
        if measure:
            segments = data.segment_set(CallKind.LIBCALL, True, config.segment_length)
            train_part, holdout = segments.split([0.8, 0.2], seed=config.seed)
            if train_part.n_unique > config.max_training_segments:
                keep = train_part.segments()[: config.max_training_segments]
                capped = SegmentSet(length=train_part.length)
                for segment in keep:
                    capped.counts[segment] = train_part.counts[segment]
                train_part = capped
            budget = TrainingConfig(
                max_iterations=min(config.training_iterations, 10),
                patience=10_000,  # fixed iteration count for a fair timing
            )
            full_model = initialize_hmm(summary)
            reduced_model = initialize_hmm(summary, clustering=clustering)
            obs_full = full_model.encode(train_part.segments())
            obs_reduced = reduced_model.encode(train_part.segments())
            started = time.perf_counter()
            train(full_model, obs_full, config=budget)
            full_time = time.perf_counter() - started
            started = time.perf_counter()
            train(reduced_model, obs_reduced, config=budget)
            reduced_time = time.perf_counter() - started
            measured = 1.0 - reduced_time / full_time if full_time > 0 else 0.0

        rows.append(
            ClusteringRow(
                program=name,
                model="CMarkov-libcall",
                n_distinct_calls=n,
                n_states_after=k,
                estimated_time_reduction=estimated,
                measured_time_reduction=measured,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Table I: workload coverage
# ---------------------------------------------------------------------------


def run_coverage_survey(
    config: ExperimentConfig | None = None,
    program_names: tuple[str, ...] = UTILITY_PROGRAMS,
) -> list[CoverageReport]:
    """Reproduce Table I: per-program test-suite coverage."""
    config = config or ExperimentConfig()
    reports = []
    for name in program_names:
        data = prepare_program(name, config)
        reports.append(data.workload.coverage(data.program))
    return reports


# ---------------------------------------------------------------------------
# Table III: ROP gadget surface
# ---------------------------------------------------------------------------


def run_gadget_survey(
    program_names: tuple[str, ...] = ALL_PROGRAMS,
    corpus_scale: float = 1.0,
    include_libc: bool = True,
) -> list[GadgetSurface]:
    """Reproduce Table III: [SYSCALL...RET] gadget counts, total vs
    context-compatible, at gadget lengths 2/6/10."""
    surfaces: list[GadgetSurface] = []
    for name in program_names:
        program = load_program(name, scale=corpus_scale)
        image = layout_program(program)
        gadgets = scan_gadgets(image)
        surfaces.append(gadget_surface(program, gadgets))
    if include_libc:
        libc = layout_libc()
        gadgets = scan_gadgets(libc)
        surfaces.append(
            GadgetSurface(
                program="libc.so",
                total_by_length=count_by_length(gadgets),
                # libc exports every syscall wrapper, so intended sites are
                # compatible in any program that links it; report them.
                compatible_by_length=count_by_length(
                    [g for g in gadgets if g.intended]
                ),
            )
        )
    return surfaces


# ---------------------------------------------------------------------------
# Table IV: real-world exploit detection
# ---------------------------------------------------------------------------


@dataclass
class ExploitOutcome:
    """Detection verdicts for one reproduced payload."""

    spec: ExploitSpec
    detected_by_cmarkov: bool
    detected_by_context_insensitive: bool
    min_segment_score: float
    threshold: float
    abnormal_context_fraction: float


@dataclass
class ExploitStudy:
    """Table IV results for one victim program."""

    program: str
    fp_budget: float
    outcomes: list[ExploitOutcome] = field(default_factory=list)

    @property
    def all_detected(self) -> bool:
        return all(o.detected_by_cmarkov for o in self.outcomes)


def run_exploit_detection(
    victims: tuple[str, ...] = ("gzip", "proftpd"),
    config: ExperimentConfig | None = None,
    fp_budget: float = 0.01,
) -> list[ExploitStudy]:
    """Reproduce Table IV: replay every payload against trained detectors.

    For each victim we train a CMarkov syscall model and a context-
    insensitive STILO model on the same workload, splice each payload's
    call stream into the tail of a normal trace, and flag the attack if any
    15-call window scores below the FP-budget threshold.
    """
    config = config or ExperimentConfig()
    studies: list[ExploitStudy] = []
    for victim in victims:
        data = prepare_program(victim, config)
        image = layout_program(data.program)
        space = build_label_space(data.program, CallKind.SYSCALL, context=True)
        legit = set(space.labels)

        detectors = {}
        thresholds = {}
        for model_name in ("cmarkov", "stilo"):
            context = model_is_context_sensitive(model_name)
            segments = data.segment_set(
                CallKind.SYSCALL, context, config.segment_length
            )
            train_part, test_part = segments.split([0.8, 0.2], seed=config.seed)
            detector = detector_spec(
                model_name, data.program, CallKind.SYSCALL,
                config=config.detector_config(),
            )()
            detector.fit(train_part)
            detectors[model_name] = detector
            thresholds[model_name] = threshold_for_fp_budget(
                detector.score(test_part.segments()), fp_budget
            )

        # A normal syscall tail to splice payloads into.
        carrier = data.workload.traces[0]
        study = ExploitStudy(program=victim, fp_budget=fp_budget)
        specs = list(payloads_for(victim))
        # The S2-style stealth payload (Section II-C): a genuine normal
        # syscall-name sequence re-sourced through ROP gadgets.  Call names
        # and order are perfect — only the contexts are wrong — so this is
        # the payload that separates context-sensitive detection from the
        # context-insensitive baselines.
        bare_segments = data.segment_set(
            CallKind.SYSCALL, False, config.segment_length
        )
        # The stealthiest host is the *most common* normal segment: every
        # model scores its name sequence as highly normal, so detection can
        # only come from the contexts.
        stealth_host = max(
            bare_segments.counts.items(), key=lambda item: (item[1], item[0])
        )[0]
        specs.append(
            ExploitSpec(
                name="stealth_code_reuse",
                program=victim,
                vulnerability="Code reuse with normal call order (S2)",
                syscalls=(),
                injected=False,
            )
        )
        for spec in specs:
            if spec.name == "stealth_code_reuse":
                events = code_reuse_from_normal(
                    stealth_host, image, seed=config.seed
                )
            else:
                events = build_attack_events(
                    spec, data.program, image, seed=config.seed
                )
            verdicts = {}
            min_scores = {}
            for model_name, detector in detectors.items():
                context = model_is_context_sensitive(model_name)
                attack_symbols = [e.symbol(context) for e in events]
                if len(attack_symbols) >= config.segment_length:
                    stream = attack_symbols
                else:
                    # Short payloads fire mid-execution: pad with the tail
                    # of a normal trace so every window is full length.
                    normal_symbols = carrier.symbols(CallKind.SYSCALL, context)
                    pad = config.segment_length - len(attack_symbols)
                    stream = normal_symbols[-pad:] + attack_symbols
                windows = segment_symbols(stream, length=config.segment_length)
                if not windows:
                    raise EvaluationError(f"{spec.name}: attack stream too short")
                # Sliding windows over an attack stream overlap heavily, so
                # many are exact repeats; Detector.score dedups them (one
                # forward pass per distinct window — bit-identical scores,
                # see repro.hmm.kernels.log_likelihood_unique).
                scores = detector.score(windows)
                min_scores[model_name] = float(scores.min())
                verdicts[model_name] = bool(
                    (scores < thresholds[model_name]).any()
                )
            study.outcomes.append(
                ExploitOutcome(
                    spec=spec,
                    detected_by_cmarkov=verdicts["cmarkov"],
                    detected_by_context_insensitive=verdicts["stilo"],
                    min_segment_score=min_scores["cmarkov"],
                    threshold=thresholds["cmarkov"],
                    abnormal_context_fraction=abnormal_context_fraction(
                        events, legit
                    ),
                )
            )
        studies.append(study)
    return studies


# ---------------------------------------------------------------------------
# Table V: static-analysis runtime
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeRow:
    """Static-pipeline timings for one program × call kind."""

    program: str
    kind: CallKind
    context_identification_s: float
    probability_estimation_s: float
    aggregation_s: float

    @property
    def total_s(self) -> float:
        return (
            self.context_identification_s
            + self.probability_estimation_s
            + self.aggregation_s
        )


def _runtime_cell(
    name: str, kind: CallKind, corpus_scale: float, cache: ArtifactCache | None
) -> RuntimeRow:
    """Time (or load from cache) one program × kind static analysis."""
    with telemetry.span("eval.runtime_cell", program=name, kind=kind.value):
        program = load_program(name, scale=corpus_scale)
        analysis = analyze_program(program, kind, context=True, cache=cache)
    return RuntimeRow(
        program=name,
        kind=kind,
        context_identification_s=analysis.timings_s["context_identification"],
        probability_estimation_s=analysis.timings_s["probability_estimation"],
        aggregation_s=analysis.timings_s["aggregation"],
    )


def run_runtime_table(
    program_names: tuple[str, ...] = ALL_PROGRAMS,
    corpus_scale: float = 1.0,
    executor: ParallelExecutor | None = None,
    cache: ArtifactCache | None = None,
) -> list[RuntimeRow]:
    """Reproduce Table V: wall-clock cost of CMarkov's analysis operations.

    The program × kind cells are independent and fan out through
    ``executor``.  With a ``cache``, a previously analyzed program's row
    reports the timings measured when the artifact was first computed.
    """
    executor = executor or ParallelExecutor(jobs=1)
    tasks = [
        (name, kind, corpus_scale, cache)
        for name in program_names
        for kind in (CallKind.LIBCALL, CallKind.SYSCALL)
    ]
    return executor.starmap(_runtime_cell, tasks)
