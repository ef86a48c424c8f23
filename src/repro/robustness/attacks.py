"""Adversarial attack families: generators the paper never tested.

The paper evaluates its detectors on its own exploit payloads and on
Abnormal-S perturbations.  This module gives the *attacker* first-class
status: each family is a deterministic generator of adversarial scenarios
parameterized by a small-integer **severity**, run against a trained
detector at a fixed operating threshold.

* :class:`MimicryFamily` — beam search against the trained HMM for the
  shortest attack-payload-preserving symbol stream whose every
  ``window``-length window keeps its per-symbol log-likelihood above the
  operating threshold (Wagner-Soto-style mimicry, made quantitative).
  The search itself is **threshold-free**: it produces a
  :class:`MimicryProfile` of the best achievable likelihood margin at
  every crafted length, from which evasion at *any* threshold is read
  off.  That construction makes evasion success monotone in the
  threshold by definition — the property the hypothesis suite pins.
* :class:`DriftFamily` — workload drift / concept shift: benign traffic
  whose symbol distribution moves epoch over epoch, with a configurable
  retraining cadence.  Measures the false-alarm inflation drift causes
  and how much of it retraining buys back.
* :class:`GapFamily` — trace-gap corruption: an attacker (or lossy
  transport) suppresses a fraction of events from the audit stream.  The
  surviving symbols replay through the detection service's monitor
  session path, which marks the stream discontinuous — every outcome
  after the first dropped symbol carries ``gap=True`` — and measures how
  much detection the gaps cost.

Every family is a frozen dataclass (picklable across grid workers) and
every random choice derives from an explicit seed, so a grid cell's
numbers are a pure function of (config, point, seed).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .. import telemetry
from ..core.detector import Detector
from ..core.drift import compare_models
from ..core.registry import DetectorSpec
from ..core.thresholds import threshold_for_fp_budget
from ..errors import EvaluationError, ModelError
from ..tracing.segments import Segment, SegmentSet, segment_symbols

__all__ = [
    "ATTACK_FAMILIES",
    "AttackContext",
    "AttackRunResult",
    "DriftFamily",
    "GapFamily",
    "MimicryFamily",
    "MimicryProfile",
    "attack_family",
    "craft_mimicry_stream",
]

#: Attacker-controlled context label: code-reuse executes from gadget land,
#: so a context-sensitive observation of a hijacked call carries a context
#: the static analysis never mapped.
UNMAPPED_CONTEXT = "[unmapped]"


@dataclass
class AttackContext:
    """Everything one grid cell hands its attack families.

    Built once per (program, model) cell by
    :func:`repro.robustness.grid._column_cell` and shared by every attack
    × severity run of that cell: the detector is already fitted and the
    threshold already derived at the cell's FP budget.  Families read it
    and never mutate it.
    """

    detector: Detector
    factory: DetectorSpec
    threshold: float
    context: bool
    window: int
    train_segments: SegmentSet
    normal_segments: list[Segment]
    carrier_symbols: list[str]
    #: Bare call names the victim makes, rarest first — payload material.
    bare_names: list[str]
    fp_budget: float


@dataclass(frozen=True)
class AttackRunResult:
    """One family's measurements at one severity (one grid cell's core).

    Attributes:
        family: attack family name.
        severity: the severity knob the family was run at.
        instance_detected: per adversarial instance, whether the detector
            flagged it *under the attack* (the attacker's countermeasure
            active).
        baseline_detected: the same instances with the countermeasure
            disabled (naive payload splice, no drift-aware retraining
            skipped, uncorrupted stream) — the delta is the attack's
            measured effect.
        benign_flagged: false alarms on benign traffic under the same
            conditions (the defender's cost axis).
        details: family-specific extras (crafted lengths, per-epoch
            rates, gap counts).  Must stay JSON-serializable and free of
            wall-clock values — cells are required to be bit-identical
            across resumed runs.
    """

    family: str
    severity: int
    instance_detected: tuple[bool, ...]
    baseline_detected: tuple[bool, ...]
    benign_flagged: tuple[bool, ...]
    details: dict

    @property
    def detection_rate(self) -> float:
        return float(np.mean(self.instance_detected))

    @property
    def baseline_detection_rate(self) -> float:
        return float(np.mean(self.baseline_detected))

    @property
    def false_alarm_rate(self) -> float:
        if not self.benign_flagged:
            return 0.0
        return float(np.mean(self.benign_flagged))


# ---------------------------------------------------------------------------
# Mimicry: threshold-free beam search for the cheapest evading stream
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MimicryProfile:
    """Best achievable likelihood margin per crafted suffix length.

    The search records, for every suffix length ``L`` at which the full
    payload had been emitted, the best (maximum over explored streams)
    *minimum per-window score* among streams of that length.  Evasion at
    a threshold ``T`` is then a pure read: some length achieves margin
    ``>= T``.  Because the profile is threshold-independent, evasion is
    monotone non-increasing and crafted length monotone non-decreasing
    in ``T`` — by construction, not by luck.
    """

    payload: tuple[str, ...]
    window: int
    margins_by_length: tuple[tuple[int, float], ...]
    expansions: int

    def best_margin(self) -> float:
        """The best min-window score any completed stream achieved."""
        if not self.margins_by_length:
            return float("-inf")
        return max(margin for _, margin in self.margins_by_length)

    def evades(self, threshold: float) -> bool:
        """Whether some crafted stream keeps every window ``>= threshold``."""
        return self.best_margin() >= threshold

    def crafted_length(self, threshold: float) -> int | None:
        """Shortest suffix length that evades at ``threshold`` (else None)."""
        lengths = [
            length
            for length, margin in self.margins_by_length
            if margin >= threshold
        ]
        return min(lengths) if lengths else None


@dataclass(frozen=True)
class _BeamState:
    symbols: tuple[str, ...]
    payload_index: int
    margin: float


def craft_mimicry_stream(
    detector: Detector,
    payload: Sequence[str],
    normal_segments: Sequence[Segment],
    *,
    window: int,
    beam_width: int = 8,
    pool_size: int = 24,
    max_suffix: int | None = None,
    seed: int = 0,
) -> MimicryProfile:
    """Search for the shortest payload-preserving stream that stays likely.

    The attacker replays ``window - 1`` symbols of genuine normal traffic
    (the best-scoring host segment's prefix), then emits a crafted suffix
    that must contain every ``payload`` symbol in order, padded with
    normal symbols of the attacker's choosing.  Every window of the
    emitted stream is scored; a stream *evades* at threshold ``T`` when
    its worst window still scores ``>= T``.

    The beam is ranked by (payload progress, worst-window margin) and the
    search never consults a threshold — see :class:`MimicryProfile` for
    why that matters.  All tie-breaks are lexicographic, so the search is
    deterministic for a fixed seed (the seed only picks among equally
    scored hosts/padding pools).

    Args:
        detector: fitted detector under attack (white-box assumption, the
            paper's strongest threat model).
        payload: required symbols, in the detector's own label form.
        normal_segments: candidate host segments (attacker-observable
            normal traffic).
        window: defender's window length.
        beam_width: beam states kept per generation.
        pool_size: padding alphabet size (most frequent normal symbols).
        max_suffix: crafted-suffix length budget; defaults to
            ``window * (len(payload) + 1)``.
        seed: deterministic tie-break seed.
    """
    if not payload:
        raise EvaluationError("mimicry payload is empty")
    if not normal_segments:
        raise EvaluationError("mimicry search needs normal host segments")
    payload = tuple(payload)
    if max_suffix is None:
        max_suffix = window * (len(payload) + 1)

    rng = np.random.default_rng(seed)
    # Padding pool: the most frequent symbols of normal traffic — the
    # attacker's cheapest camouflage.  Frequency ties break
    # lexicographically; the rng only shuffles *within* exact ties so two
    # seeds can explore different-but-equivalent pools.
    frequency: Counter[str] = Counter()
    for segment in normal_segments:
        frequency.update(segment)
    ranked = sorted(frequency.items(), key=lambda item: (-item[1], item[0]))
    pool = [symbol for symbol, _ in ranked[:pool_size]]
    if not pool:
        raise EvaluationError("normal segments carry no symbols")

    # Host prefix: the normal segment the model likes best.
    hosts = sorted(set(normal_segments))
    host_scores = detector.score(hosts)
    best_host = hosts[int(np.argmax(host_scores))]
    candidates_equal = [
        h for h, s in zip(hosts, host_scores) if s == host_scores.max()
    ]
    if len(candidates_equal) > 1:
        best_host = candidates_equal[int(rng.integers(len(candidates_equal)))]
    prefix = best_host[: window - 1]

    states: list[_BeamState] = [
        _BeamState(symbols=tuple(prefix), payload_index=0, margin=float("inf"))
    ]
    margins: dict[int, float] = {}
    expansions = 0

    for step in range(1, max_suffix + 1):
        # One batched forward pass scores every (state, candidate) window.
        jobs: list[tuple[int, str]] = []
        for state_index, state in enumerate(states):
            next_needed = (
                payload[state.payload_index]
                if state.payload_index < len(payload)
                else None
            )
            candidates = list(pool)
            if next_needed is not None and next_needed not in candidates:
                candidates.append(next_needed)
            for symbol in candidates:
                jobs.append((state_index, symbol))
        if not jobs:
            break
        windows = [
            states[i].symbols[-(window - 1):] + (symbol,) for i, symbol in jobs
        ]
        scores = detector.score(windows)
        expansions += len(jobs)

        children: list[_BeamState] = []
        for (state_index, symbol), score in zip(jobs, scores):
            state = states[state_index]
            consumed = (
                state.payload_index < len(payload)
                and symbol == payload[state.payload_index]
            )
            new_index = state.payload_index + 1 if consumed else state.payload_index
            new_margin = min(state.margin, float(score))
            if new_index == len(payload):
                # Payload complete at suffix length `step`: record the best
                # achievable margin and stop extending this stream
                # (extending can only lower the margin and grow the length).
                previous = margins.get(step, float("-inf"))
                if new_margin > previous:
                    margins[step] = new_margin
                continue
            children.append(
                _BeamState(
                    symbols=state.symbols + (symbol,),
                    payload_index=new_index,
                    margin=new_margin,
                )
            )

        # Beam prune: payload progress first, then margin; lexicographic
        # stream tie-break keeps the search deterministic.
        children.sort(
            key=lambda s: (-s.payload_index, -s.margin, s.symbols)
        )
        states = children[:beam_width]
        if not states:
            break

    telemetry.counter_add("robustness.mimicry.expansions", expansions)
    return MimicryProfile(
        payload=payload,
        window=window,
        margins_by_length=tuple(sorted(margins.items())),
        expansions=expansions,
    )


@dataclass(frozen=True)
class MimicryFamily:
    """Mimicry search at severity = payload scale (``2 × severity`` calls)."""

    name: str = "mimicry"
    n_instances: int = 6
    beam_width: int = 8
    pool_size: int = 24

    def payload_for(
        self, ctx: AttackContext, severity: int, rng: np.random.Generator
    ) -> tuple[str, ...]:
        """A payload of ``2 * severity`` dangerous calls in detector form.

        Call *names* are drawn from the rarest calls the victim makes
        (``ctx.bare_names`` is frequency-ascending) — the operations a
        normal run barely touches are the ones worth hijacking, and a
        burst of them is what gives a naive splice away.  A
        context-insensitive model still sees only known symbols, so the
        mimicry search can dilute the burst below threshold.  A
        context-sensitive model sees ``name@[unmapped]`` — code reuse
        cannot forge the calling context — which is precisely the handle
        the paper claims context sensitivity adds.
        """
        length = 2 * severity
        rare = ctx.bare_names[: max(3, len(ctx.bare_names) // 4)]
        names = [rare[int(i)] for i in rng.integers(0, len(rare), size=length)]
        if ctx.context:
            return tuple(f"{name}@{UNMAPPED_CONTEXT}" for name in names)
        return tuple(names)

    def run(self, ctx: AttackContext, severity: int, seed: int) -> AttackRunResult:
        if severity < 1:
            raise EvaluationError("mimicry severity is a payload length >= 1")
        rng = np.random.default_rng(seed)
        attacked: list[bool] = []
        baseline: list[bool] = []
        crafted_lengths: list[int | None] = []
        margins: list[float] = []
        hosts = ctx.normal_segments
        for instance in range(self.n_instances):
            payload = self.payload_for(ctx, severity, rng)
            # Naive splice: payload replaces the tail of a normal host
            # segment — the attack with no mimicry effort.
            host = hosts[int(rng.integers(len(hosts)))]
            naive = host[: ctx.window - len(payload)] + payload
            naive = naive[-ctx.window:]
            naive_score = float(ctx.detector.score([naive])[0])
            baseline.append(naive_score < ctx.threshold)

            profile = craft_mimicry_stream(
                ctx.detector,
                payload,
                hosts,
                window=ctx.window,
                beam_width=self.beam_width,
                pool_size=self.pool_size,
                seed=seed + instance,
            )
            attacked.append(not profile.evades(ctx.threshold))
            crafted_lengths.append(profile.crafted_length(ctx.threshold))
            margins.append(profile.best_margin())
        telemetry.counter_add("robustness.attack.instances", self.n_instances)
        benign_scores = ctx.detector.score(hosts)
        benign = [bool(s < ctx.threshold) for s in benign_scores]
        return AttackRunResult(
            family=self.name,
            severity=severity,
            instance_detected=tuple(attacked),
            baseline_detected=tuple(baseline),
            benign_flagged=tuple(benign),
            details={
                "crafted_lengths": [
                    length if length is None else int(length)
                    for length in crafted_lengths
                ],
                "best_margins": [round(m, 10) for m in margins],
                "payload_length": 2 * severity,
            },
        )


# ---------------------------------------------------------------------------
# Drift: concept shift with a retraining cadence
# ---------------------------------------------------------------------------


def _epoch_permutation(
    alphabet: Sequence[str], intensity: float, rng: np.random.Generator
) -> dict[str, str]:
    """A partial symbol relabeling: the epoch's concept shift.

    Models a library/program update that re-routes a slice of the call
    vocabulary: ``ceil(intensity * |alphabet|)`` symbols (at least two)
    are cyclically permuted, every other symbol is untouched.
    """
    n_moved = max(2, int(np.ceil(intensity * len(alphabet))))
    n_moved = min(n_moved, len(alphabet))
    picks = rng.choice(len(alphabet), size=n_moved, replace=False)
    chosen = [alphabet[int(i)] for i in sorted(picks)]
    rotated = chosen[1:] + chosen[:1]
    return dict(zip(chosen, rotated))


def _apply_drift(
    segments: Sequence[Segment], mapping: Mapping[str, str], fraction: float,
    rng: np.random.Generator,
) -> list[Segment]:
    """Relabel ``fraction`` of the segments through ``mapping``."""
    drifted: list[Segment] = []
    for segment in segments:
        if rng.random() < fraction:
            drifted.append(tuple(mapping.get(s, s) for s in segment))
        else:
            drifted.append(tuple(segment))
    return drifted


@dataclass(frozen=True)
class DriftFamily:
    """Concept shift at severity = drift intensity step.

    ``severity`` scales both how much of the vocabulary moves each epoch
    and how much of the traffic exhibits the moved behaviour.  The
    *attacked* measurement retrains on the drifted traffic every
    ``retrain_every`` epochs (the operator's countermeasure); the
    *baseline* never retrains.  For drift the flags are **false alarms**
    on benign traffic — drift is not malicious, its damage is alert
    fatigue — so lower ``detection_rate`` is better and the
    baseline-minus-attacked delta is the value of the cadence.
    """

    name: str = "drift"
    epochs: int = 4
    retrain_every: int = 2
    max_eval_segments: int = 160

    def run(self, ctx: AttackContext, severity: int, seed: int) -> AttackRunResult:
        if severity < 1:
            raise EvaluationError("drift severity must be >= 1")
        intensity = min(0.2 * severity, 0.8)
        rng = np.random.default_rng(seed)
        alphabet = sorted(
            {s for segment in ctx.normal_segments for s in segment}
        )
        eval_pool = ctx.normal_segments[: self.max_eval_segments]

        stationary = ctx.detector
        stationary_threshold = ctx.threshold
        adaptive = ctx.detector
        adaptive_threshold = ctx.threshold

        per_epoch: list[dict] = []
        retrainings = 0
        mapping: dict[str, str] = {}
        final_static: list[bool] = []
        final_adaptive: list[bool] = []
        for epoch in range(1, self.epochs + 1):
            # Shift compounds: each epoch composes a fresh relabeling on
            # top of the accumulated one.
            epoch_map = _epoch_permutation(alphabet, intensity, rng)
            mapping = {
                s: epoch_map.get(t, t)
                for s, t in ({**{a: a for a in alphabet}, **mapping}).items()
            }
            drifted = _apply_drift(eval_pool, mapping, intensity, rng)

            if self.retrain_every > 0 and epoch % self.retrain_every == 0:
                # Operator retrains on the epoch's observed traffic — the
                # same drifted/legacy mixture the detector will score, not
                # a fully-drifted idealization — and re-derives the
                # threshold at the same FP budget.
                retrain_set = SegmentSet(length=ctx.train_segments.length)
                retrain_set.update(
                    _apply_drift(
                        ctx.train_segments.segments(), mapping, intensity, rng
                    )
                )
                adaptive = ctx.factory()
                adaptive.fit(retrain_set)
                holdout = _apply_drift(eval_pool, mapping, intensity, rng)
                adaptive_threshold = threshold_for_fp_budget(
                    adaptive.score(holdout), ctx.fp_budget
                )
                retrainings += 1
                telemetry.counter_add("robustness.drift.retrainings")

            static_flags = [
                bool(s < stationary_threshold)
                for s in stationary.score(drifted)
            ]
            adaptive_flags = [
                bool(s < adaptive_threshold) for s in adaptive.score(drifted)
            ]
            per_epoch.append(
                {
                    "epoch": epoch,
                    "false_alarms_stationary": float(np.mean(static_flags)),
                    "false_alarms_retrained": float(np.mean(adaptive_flags)),
                }
            )
            final_static = static_flags
            final_adaptive = adaptive_flags

        drift_score = None
        if retrainings and adaptive is not ctx.detector:
            try:
                drift_score = compare_models(
                    ctx.detector.model, adaptive.model
                ).drift_score
            except (ModelError, AttributeError):
                drift_score = None

        benign_scores = stationary.score(eval_pool)
        benign = [bool(s < stationary_threshold) for s in benign_scores]
        telemetry.counter_add("robustness.attack.instances", len(final_adaptive))
        return AttackRunResult(
            family=self.name,
            severity=severity,
            instance_detected=tuple(final_adaptive),
            baseline_detected=tuple(final_static),
            benign_flagged=tuple(benign),
            details={
                "intensity": intensity,
                "epochs": per_epoch,
                "retrainings": retrainings,
                "retrain_every": self.retrain_every,
                "drift_score": drift_score,
            },
        )


# ---------------------------------------------------------------------------
# Trace gaps: lossy audit stream replayed through the service
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapFamily:
    """Trace-gap corruption at severity = dropped-event rate step.

    Streams replay through a real :class:`~repro.service.DetectionService`
    monitor session: surviving symbols are submitted, suppressed symbols
    are reported as gaps (``DetectionService.note_gap`` — the same path
    admission-control sheds take), and every post-gap outcome carries
    ``gap=True``.  Detection of a spliced payload is measured on the
    corrupted stream (*attacked*) versus the intact stream (*baseline*);
    benign streams under the same corruption measure the false-alarm
    inflation gaps cause.
    """

    name: str = "gap"
    n_instances: int = 8
    min_stream: int = 40
    n_calibration: int = 16

    def _stream_threshold(
        self, ctx: AttackContext, rng: np.random.Generator
    ) -> float:
        """Operating threshold calibrated on benign *streams*.

        The segment threshold holds each window to the FP budget, but a
        monitor session alerts if *any* of a stream's ~``min_stream``
        windows trips — per-stream false alarms would saturate.  So the
        gap family calibrates on per-stream minima: the threshold holding
        the fraction of clean benign streams with any alert to the
        budget.
        """
        carrier = list(ctx.carrier_symbols)
        if len(carrier) < self.min_stream:
            carrier = (carrier * (self.min_stream // max(len(carrier), 1) + 1))[
                : self.min_stream
            ]
        minima: list[float] = []
        for _ in range(self.n_calibration):
            start = int(rng.integers(0, max(len(carrier) - self.min_stream, 1)))
            stream = carrier[start : start + self.min_stream]
            windows = segment_symbols(stream, ctx.window)
            if not windows:
                continue
            minima.append(float(np.min(ctx.detector.score(windows))))
        if not minima:
            return ctx.threshold
        return threshold_for_fp_budget(np.array(minima), ctx.fp_budget)

    def _streams(
        self, ctx: AttackContext, severity: int, rng: np.random.Generator
    ) -> tuple[list[list[str]], list[list[str]]]:
        """(attack streams, benign streams), all in detector label form."""
        carrier = list(ctx.carrier_symbols)
        if len(carrier) < self.min_stream:
            carrier = (carrier * (self.min_stream // max(len(carrier), 1) + 1))[
                : self.min_stream
            ]
        attack_streams: list[list[str]] = []
        benign_streams: list[list[str]] = []
        family = MimicryFamily()
        for _ in range(self.n_instances):
            start = int(rng.integers(0, max(len(carrier) - self.min_stream, 1)))
            stream = carrier[start : start + self.min_stream]
            payload = list(family.payload_for(ctx, max(severity, 2), rng))
            insert = int(rng.integers(ctx.window, len(stream)))
            attack_streams.append(stream[:insert] + payload + stream[insert:])
            benign_streams.append(list(stream))
        return attack_streams, benign_streams

    def _replay(
        self,
        ctx: AttackContext,
        streams: list[list[str]],
        drop_rate: float,
        seed: int,
        threshold: float,
    ) -> tuple[list[bool], int, int]:
        """Replay streams through a monitor-mode service session each.

        Returns (per-stream detected flags, total dropped symbols, number
        of gap-marked outcomes observed).
        """
        from ..service import Scored, ServiceConfig
        from ..service.service import DetectionService

        service = DetectionService(
            ServiceConfig(default_window=ctx.window, max_queue_depth=65536)
        )
        service.register(
            "target", ctx.detector, threshold=threshold, window=ctx.window
        )
        flags: list[bool] = []
        dropped_total = 0
        gapped_outcomes = 0
        try:
            for index, stream in enumerate(streams):
                session = f"gap-{index}"
                service.open_session("target", session, "monitor")
                rng = np.random.default_rng((seed, index))
                tickets = []
                for symbol in stream:
                    if drop_rate > 0.0 and rng.random() < drop_rate:
                        # The event never reaches the audit stream; the
                        # collector knows it lost data and reports the gap.
                        service.note_gap("target", session)
                        dropped_total += 1
                        continue
                    tickets.append(
                        service.submit("target", session, symbol=symbol)
                    )
                service.pump("target")
                outcomes = [t.result() for t in tickets]
                scored = [o for o in outcomes if isinstance(o, Scored)]
                gapped_outcomes += sum(1 for o in scored if o.gap)
                flags.append(
                    any(o.alert is not None or o.anomalous for o in scored)
                )
        finally:
            service.close(drain=True)
        telemetry.counter_add("robustness.gap.dropped", dropped_total)
        return flags, dropped_total, gapped_outcomes

    def run(self, ctx: AttackContext, severity: int, seed: int) -> AttackRunResult:
        if severity < 1:
            raise EvaluationError("gap severity must be >= 1")
        # A window needs `window` contiguous survivors, so detection falls
        # off like (1 - rate)^window — small steps already bite hard.
        drop_rate = min(0.04 * severity, 0.5)
        rng = np.random.default_rng(seed)
        threshold = self._stream_threshold(ctx, rng)
        attack_streams, benign_streams = self._streams(ctx, severity, rng)

        with telemetry.span("robustness.gap.replay", severity=str(severity)):
            attacked, dropped, gapped = self._replay(
                ctx, attack_streams, drop_rate, seed, threshold
            )
            baseline, _, _ = self._replay(
                ctx, attack_streams, 0.0, seed, threshold
            )
            benign, _, _ = self._replay(
                ctx, benign_streams, drop_rate, seed, threshold
            )
        telemetry.counter_add("robustness.attack.instances", len(attacked))
        return AttackRunResult(
            family=self.name,
            severity=severity,
            instance_detected=tuple(attacked),
            baseline_detected=tuple(baseline),
            benign_flagged=tuple(benign),
            details={
                "drop_rate": drop_rate,
                "dropped_symbols": dropped,
                "gap_marked_outcomes": gapped,
                "stream_threshold": round(float(threshold), 10),
            },
        )


#: Registered families, in presentation order.
ATTACK_FAMILIES: tuple[str, ...] = ("mimicry", "drift", "gap")


def attack_family(name: str, **overrides):
    """Instantiate a registered attack family by name."""
    if name == "mimicry":
        return MimicryFamily(**overrides)
    if name == "drift":
        return DriftFamily(**overrides)
    if name == "gap":
        return GapFamily(**overrides)
    raise EvaluationError(
        f"unknown attack family {name!r}; choose from {ATTACK_FAMILIES}"
    )
