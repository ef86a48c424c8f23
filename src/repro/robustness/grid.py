"""The robustness measurement grid: programs × models × attacks × severities.

One grid cell is one trained detector: a (program, model) column.  The
cell prepares the program, splits its normal segments, fits the detector
and derives its operating threshold once, then runs every attack family
at every severity against it and returns the column's
:class:`RobustnessCell` measurements in (attack, severity) order.  The
grid therefore trains ``programs × models`` models (plus the drift
family's retrainings) at any job count, with or without a cache.

Cells are pure functions of ``(RobustnessGridConfig, point)`` and run
through the generic :mod:`repro.runtime.grid` machinery, which buys
fan-out on :class:`~repro.runtime.ParallelExecutor`, per-column
content-addressed resume through :class:`~repro.runtime.ArtifactCache`
(kill -9 mid-grid, rerun with ``resume=True``, get bit-identical
results), and a shared ``GridResult`` surface with the accuracy grid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .. import telemetry
from ..core.registry import MODEL_NAMES, detector_spec, model_is_context_sensitive
from ..core.thresholds import threshold_for_fp_budget
from ..errors import EvaluationError
from ..eval.experiments import FAST_CONFIG, ExperimentConfig
from ..eval.runners import prepare_program
from ..program.calls import CallKind
from ..runtime import ArtifactCache, GridAxis, GridSpec, derive_seed
from .attacks import ATTACK_FAMILIES, AttackContext, AttackRunResult, attack_family

__all__ = [
    "DEFAULT_SEVERITIES",
    "RobustnessCell",
    "RobustnessConfig",
    "RobustnessGridConfig",
    "robustness_grid",
]

#: Default severity ladder (each family maps steps onto its own knob).
DEFAULT_SEVERITIES: tuple[int, ...] = (1, 2, 3)

#: The grid's name: part of every cache key and of every derived seed.
_GRID_NAME = "robustness"


@dataclass(frozen=True)
class RobustnessConfig:
    """Everything a robustness measurement needs beyond its grid point.

    Hashed whole into each cell's cache key — change a knob and every
    affected cell recomputes instead of resuming stale artifacts.

    Attributes:
        experiment: workload/training scale (defaults to the fast
            profile; use :data:`repro.eval.experiments.DEFAULT_CONFIG`
            for paper-scale studies).
        kind: call kind the detectors observe (``syscall``/``libcall``).
        fp_budget: false-positive budget the operating threshold is
            derived at on held-out normal traffic.
        train_fraction: normal-segment share used for training; the rest
            is the threshold/benign holdout.
        mimicry_instances / beam_width / pool_size: mimicry family knobs.
        drift_epochs / retrain_every: drift family knobs.
        gap_instances: gap family streams per severity.
    """

    experiment: ExperimentConfig = field(default_factory=lambda: FAST_CONFIG)
    kind: str = CallKind.SYSCALL.value
    fp_budget: float = 0.02
    train_fraction: float = 0.7
    mimicry_instances: int = 6
    beam_width: int = 8
    pool_size: int = 24
    drift_epochs: int = 4
    retrain_every: int = 2
    gap_instances: int = 8


@dataclass(frozen=True)
class RobustnessGridConfig:
    """The robustness grid's cell config.

    ``attacks`` and ``severities`` are the runs every (program, model)
    cell makes; ``seed`` is the grid seed each run derives its own seed
    from.
    """

    robustness: RobustnessConfig
    attacks: tuple[str, ...]
    severities: tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class RobustnessCell:
    """One measurement — deliberately free of wall-clock fields.

    Resume correctness is checked by comparing resumed cells byte-for-byte
    against freshly computed ones, so nothing volatile (timings,
    hostnames, cache paths) may live here; timing belongs to the run, not
    the cell (see ``GridResult.elapsed_s`` / the corpus ``meta`` block).
    """

    program: str
    model: str
    attack: str
    severity: int
    threshold: float
    n_train_segments: int
    result: AttackRunResult

    @property
    def detection_rate(self) -> float:
        return self.result.detection_rate

    @property
    def baseline_detection_rate(self) -> float:
        return self.result.baseline_detection_rate

    @property
    def false_alarm_rate(self) -> float:
        return self.result.false_alarm_rate


def _family_for(attack: str, config: RobustnessConfig):
    if attack == "mimicry":
        return attack_family(
            "mimicry",
            n_instances=config.mimicry_instances,
            beam_width=config.beam_width,
            pool_size=config.pool_size,
        )
    if attack == "drift":
        return attack_family(
            "drift",
            epochs=config.drift_epochs,
            retrain_every=config.retrain_every,
        )
    if attack == "gap":
        return attack_family("gap", n_instances=config.gap_instances)
    return attack_family(attack)


def _column_cell(
    point: Mapping[str, Any],
    config: RobustnessGridConfig,
    seed: int,
    cache: ArtifactCache | None,
) -> tuple[RobustnessCell, ...]:
    """One (program, model) column: the robustness grid's cell.

    Fits the column's detector and derives its operating threshold once,
    then runs every attack × severity against it.  Each run seeds from
    its own (program, model, attack, severity) point under the grid seed,
    so the column's derived ``seed`` is unused.

    The module-level signature is the :class:`~repro.runtime.GridSpec`
    cell contract — this function crosses process boundaries.
    """
    program_name = point["program"]
    model_name = point["model"]
    knobs = config.robustness
    experiment = knobs.experiment
    kind = CallKind(knobs.kind)
    context = model_is_context_sensitive(model_name)

    with telemetry.span("robustness.cell", program=program_name, model=model_name):
        data = prepare_program(program_name, experiment)
        segments = data.segment_set(kind, context, experiment.segment_length)
        if segments.n_unique < 8:
            raise EvaluationError(
                f"{program_name}/{kind.value}: too few segments "
                f"({segments.n_unique}) for a robustness cell"
            )
        train_part, holdout_part = segments.split(
            [knobs.train_fraction, 1.0 - knobs.train_fraction],
            seed=experiment.seed,
        )
        factory = detector_spec(
            model_name,
            data.program,
            kind,
            config=experiment.detector_config(
                seed_offset=MODEL_NAMES.index(model_name)
                if model_name in MODEL_NAMES
                else 0
            ),
            cluster_policy=experiment.cluster_policy(),
        )
        detector = factory()
        detector.fit(train_part)

        holdout = holdout_part.segments()
        threshold = threshold_for_fp_budget(
            detector.score(holdout), knobs.fp_budget
        )

        carrier = []
        if data.workload.traces:
            carrier = list(data.workload.traces[0].symbols(kind, context))
        # Rarest-first bare call names: mimicry payload material (the
        # calls a normal run barely touches are the ones worth hijacking).
        name_counts: Counter[str] = Counter()
        for segment in holdout:
            name_counts.update(s.split("@", 1)[0] for s in segment)
        for name in (s.split("@", 1)[0] for s in segments.alphabet()):
            name_counts.setdefault(name, 0)
        bare_names = [
            name
            for name, _ in sorted(
                name_counts.items(), key=lambda item: (item[1], item[0])
            )
        ]
        ctx = AttackContext(
            detector=detector,
            factory=factory,
            threshold=threshold,
            context=context,
            window=experiment.segment_length,
            train_segments=train_part,
            normal_segments=holdout,
            carrier_symbols=carrier,
            bare_names=bare_names,
            fp_budget=knobs.fp_budget,
        )
        cells = []
        for attack in config.attacks:
            family = _family_for(attack, knobs)
            for severity in config.severities:
                measurement = {**point, "attack": attack, "severity": severity}
                run_seed = derive_seed(
                    config.seed, _GRID_NAME, sorted(measurement.items())
                )
                cells.append(
                    RobustnessCell(
                        program=program_name,
                        model=model_name,
                        attack=attack,
                        severity=severity,
                        threshold=float(threshold),
                        n_train_segments=train_part.n_unique,
                        result=family.run(ctx, severity, run_seed),
                    )
                )
    return tuple(cells)


def robustness_grid(
    programs: Sequence[str],
    models: Sequence[str] = MODEL_NAMES,
    attacks: Sequence[str] = ATTACK_FAMILIES,
    severities: Sequence[int] = DEFAULT_SEVERITIES,
    config: RobustnessConfig | None = None,
    seed: int = 0,
) -> GridSpec:
    """The adversarial grid as a :class:`~repro.runtime.GridSpec`.

    One cell per (program, model) column; each cell measures every attack
    at every severity against one trained detector.  Run it with
    :func:`repro.api.run_grid` (or the ``repro robustness`` CLI); feed the
    result to :func:`repro.robustness.build_corpus`.
    """
    attacks = tuple(attacks)
    severities = tuple(int(s) for s in severities)
    for model in models:
        model_is_context_sensitive(model)  # validates the name
    for attack in attacks:
        if attack not in ATTACK_FAMILIES:
            raise EvaluationError(
                f"unknown attack family {attack!r}; choose from {ATTACK_FAMILIES}"
            )
    # Attacks and severities vary inside each cell; they get the checks
    # GridSpec gives its own axes (non-empty, no repeats).
    GridAxis("attack", attacks)
    GridAxis("severity", severities)
    if min(severities) < 1:
        raise EvaluationError(f"severities must be >= 1, got {list(severities)}")
    return GridSpec(
        name=_GRID_NAME,
        axes=(
            GridAxis("program", tuple(programs)),
            GridAxis("model", tuple(models)),
        ),
        cell=_column_cell,
        config=RobustnessGridConfig(
            robustness=config or RobustnessConfig(),
            attacks=attacks,
            severities=severities,
            seed=seed,
        ),
        seed=seed,
        version=2,
    )
