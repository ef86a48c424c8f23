"""offline_train: the paper's batch path, trace to scored detectors.

One *pass* does what ``repro train`` does for each (program, kind), at the
suite's laptop scale: generate the workload traces, build segments, train
CMarkov (static analysis, PCA/K-means state reduction, HMM initialization,
Baum-Welch), then score the normal segments and Abnormal-S segments.
Every pass repeats the same work on the same seed-generated inputs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.attacks.synthetic import abnormal_s_segments, legitimate_call_set
from repro.core.detector import DetectorConfig
from repro.core.metrics import auc_score
from repro.core.static_models import ClusterPolicy, CMarkovDetector
from repro.hmm.baumwelch import TrainingConfig
from repro.program import CallKind, load_program
from repro.tracing.segments import build_segment_set
from repro.tracing.workload import run_workload

import harness
from harness import Checks, Outcome, Tracer
from layers import KernelTally, replay_fit, replay_score

#: Utilities and servers, each with libcall and syscall models.
PROGRAMS = ("grep", "bash", "proftpd", "nginx")
KINDS = (CallKind.LIBCALL, CallKind.SYSCALL)
N_CASES = 30
#: Trace events each program feeds a pass, about 80% of the fewest its
#: 30-case suite produced over seeds 0-10.  The suite is cut to this budget,
#: so a pass takes the same number of events at every seed.
EVENT_BUDGET = {"grep": 14_000, "bash": 32_000, "proftpd": 16_000, "nginx": 9_000}
N_ABNORMAL = 200
#: The segment and EM iteration caps of ``benchmarks/common.BENCH_CONFIG``,
#: copied so that a change there does not silently change this workload.
#: Early stopping is off (patience = the cap): where EM stops by the
#: held-out rule depends on the seed (3 to 15 iterations for the same
#: model), so every model runs all 15 and keeps its best iterate.
MAX_TRAINING_SEGMENTS = 2500
TRAINING_ITERATIONS = 15
#: ``ExperimentConfig``'s laptop-scale clustering rule: libcall models of
#: bash, proftpd and nginx cross it, so PCA/K-means runs on every pass.
CLUSTER_POLICY = ClusterPolicy(ratio=0.5, min_states=150)

EXPECTED_PATH = Path(__file__).resolve().parent / "expected_offline.json"
#: Passes an untraced run makes at least: ``wall_s`` sums each step's
#: fastest time over them (:func:`fastest_pass_s`).
MIN_PASSES = 3


def detector_config(seed: int) -> DetectorConfig:
    return DetectorConfig(
        training=TrainingConfig(
            max_iterations=TRAINING_ITERATIONS, patience=TRAINING_ITERATIONS
        ),
        seed=seed,
        max_training_segments=MAX_TRAINING_SEGMENTS,
    )


def budget_traces(program, seed: int, generate=run_workload) -> tuple[list, int]:
    """The seed's test-suite traces cut to the program's event budget (the
    last trace kept is shortened), and the number of events generated.

    ``generate(program, n_cases, seed)`` runs the suite; one that falls short
    of the budget is run again with twice the cases.
    """
    budget = EVENT_BUDGET[program.name]
    n_cases = N_CASES
    while True:
        traces = generate(program, n_cases, seed).traces
        generated = sum(len(trace) for trace in traces)
        if generated >= budget:
            break
        n_cases *= 2
    kept, left = [], budget
    for trace in traces:
        if left == 0:
            break
        if len(trace) > left:
            trace = replace(trace, events=trace.events[:left])
        kept.append(trace)
        left -= len(trace)
    return kept, generated


def make_detector(program, kind: CallKind, seed: int) -> CMarkovDetector:
    return CMarkovDetector(
        program, kind, config=detector_config(seed), cluster_policy=CLUSTER_POLICY
    )


@dataclass
class DetectorResult:
    program: str
    kind: str
    n_states: int
    iterations: int
    auc: float
    normal_scores: np.ndarray
    abnormal_scores: np.ndarray

    @property
    def key(self) -> str:
        return f"{self.program}/{self.kind}"


@dataclass
class PassResult:
    wall_s: float
    events: int
    detectors: list[DetectorResult]
    #: Wall time of each step of an untraced pass, in the order taken; they
    #: tile the pass, and every untraced pass takes the same steps.
    step_s: list[float]


def run_pass(programs, seed: int) -> PassResult:
    """One untraced pass over every (program, kind), each step timed."""
    marks = [time.perf_counter()]

    def lap() -> None:
        marks.append(time.perf_counter())

    events = 0
    detectors = []
    for program in programs:
        traces, _ = budget_traces(program, seed)
        events += EVENT_BUDGET[program.name]
        lap()
        for kind in KINDS:
            segments = build_segment_set(traces, kind, context=True)
            lap()
            detector = make_detector(program, kind, seed)
            fit = detector.fit(segments)
            lap()
            normal = segments.segments()
            abnormal = abnormal_s_segments(
                normal, legitimate_call_set(segments), N_ABNORMAL,
                seed=seed, exclude=segments,
            )
            lap()
            normal_scores = detector.score(normal)
            abnormal_scores = detector.score(abnormal)
            detectors.append(
                DetectorResult(
                    program.name, kind.value, fit.n_states, fit.report.iterations,
                    auc_score(normal_scores, abnormal_scores),
                    normal_scores, abnormal_scores,
                )
            )
            lap()
    steps = [end - start for start, end in zip(marks, marks[1:])]
    return PassResult(marks[-1] - marks[0], events, detectors, steps)


def fastest_pass_s(passes: list[PassResult]) -> float:
    """Each step's fastest time over the passes, summed.

    A shared VM can run at two speeds about 1.5x apart, each for seconds to
    minutes (see ``harness.QUIET_QUANTILE``).  A step's repeats lie
    a pass apart, so its fastest repeat ran at the fast speed unless a slow
    spell covered every one of them.
    """
    return sum(min(steps) for steps in zip(*(p.step_s for p in passes)))


@dataclass
class LayerTotals:
    workload_events: int = 0
    segments_total: int = 0
    segments_unique: int = 0
    aggregation_s: float = 0.0
    states: int = 0
    iterations: int = 0


def run_traced_pass(programs, seed: int, tracer: Tracer, tally: KernelTally,
                    totals: LayerTotals, checks: Checks) -> PassResult:
    """The same pass with a span around every layer call.

    ``Detector.fit`` and ``Detector.score`` are timed as called, then
    replayed one layer deeper (see :mod:`layers`); each replay must match.
    """
    started = time.perf_counter()
    events = 0
    detectors = []
    for program in programs:
        trace_id = tracer.new_trace()
        traces, generated = budget_traces(
            program, seed,
            lambda *args: tracer.call(
                "tracing.run_workload", "tracing.workload", run_workload, *args,
                trace_id=trace_id,
            )[0],
        )
        events += EVENT_BUDGET[program.name]
        totals.workload_events += generated
        for kind in KINDS:
            segments, _ = tracer.call(
                "tracing.build_segment_set", "tracing.segments",
                build_segment_set, traces, kind, True, trace_id=trace_id,
            )
            totals.segments_total += segments.n_total
            totals.segments_unique += segments.n_unique
            detector = make_detector(program, kind, seed)
            fit, fit_span = tracer.call(
                "core.Detector.fit", "core", detector.fit, segments, trace_id=trace_id
            )
            replay = replay_fit(
                tracer, fit_span, trace_id, program, kind, detector.config,
                CLUSTER_POLICY, segments, detector,
            )
            checks.check(
                replay.matches and replay.iterations == fit.report.iterations,
                f"{program.name}/{kind.value}: analyze/initialize/train replay "
                "differs from Detector.fit",
            )
            totals.aggregation_s += replay.aggregation_s
            totals.states += replay.n_states
            totals.iterations += replay.iterations
            normal = segments.segments()
            abnormal, _ = tracer.call(
                "attacks.abnormal_s_segments", "attacks", abnormal_s_segments,
                normal, legitimate_call_set(segments), N_ABNORMAL, 4, seed, segments,
                trace_id=trace_id,
            )
            scores = []
            for batch in (normal, abnormal):
                batch_scores, score_span = tracer.call(
                    "core.Detector.score", "core", detector.score, batch,
                    trace_id=trace_id,
                )
                checks.check(
                    replay_score(tracer, score_span, trace_id, detector, batch,
                                 batch_scores, tally),
                    f"{program.name}/{kind.value}: log_likelihood_unique replay "
                    "differs from Detector.score",
                )
                scores.append(batch_scores)
            auc, _ = tracer.call(
                "core.metrics.auc_score", "core", auc_score, *scores, trace_id=trace_id
            )
            detectors.append(
                DetectorResult(program.name, kind.value, fit.n_states,
                               fit.report.iterations, auc, scores[0], scores[1])
            )
    return PassResult(time.perf_counter() - started, events, detectors, [])


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def check_pass(result: PassResult, reference: PassResult | None, seed: int,
               expected: dict, checks: Checks) -> None:
    """One failed operation per detector whose result is wrong.

    At any seed: finite scores, AUC above the recorded floor, and the same
    scores as the first pass.  At the recorded seed: the recorded state
    count, EM iteration count and AUC (to the recorded precision).
    """
    recorded = expected["detectors"] if seed == expected["seed"] else None
    digits = expected["auc_digits"]
    for position, det in enumerate(result.detectors):
        problems = []
        if not (np.isfinite(det.normal_scores).all()
                and np.isfinite(det.abnormal_scores).all()):
            problems.append("non-finite score")
        if not det.auc > expected["auc_floor"]:
            problems.append(f"AUC {det.auc:.4f} not above floor {expected['auc_floor']}")
        if reference is not None:
            ref = reference.detectors[position]
            if not (np.array_equal(ref.normal_scores, det.normal_scores)
                    and np.array_equal(ref.abnormal_scores, det.abnormal_scores)):
                problems.append("scores differ from the first pass")
        if recorded is not None:
            want = recorded.get(det.key)
            got = {"n_states": det.n_states, "iterations": det.iterations,
                   "auc": round(det.auc, digits)}
            if want != got:
                problems.append(f"recorded {want}, got {got}")
        if problems:
            checks.fail(f"{det.key}: " + "; ".join(problems))
        else:
            checks.ok()


#: The set-up's warm-up pass: test cases per program and EM iterations.
WARM_CASES = 3
WARM_ITERATIONS = 2


def setup(repeats: int) -> tuple[list, list[float]]:
    """Load the programs, then warm every code path a pass takes (imports,
    analysis, clustering, EM, the first kernel calls) on a small input."""
    times = []
    programs = None
    for _ in range(repeats):
        started = time.perf_counter()
        programs = [load_program(name) for name in PROGRAMS]
        for program in programs:
            warm = run_workload(program, n_cases=WARM_CASES, seed=0)
            for kind in KINDS:
                segments = build_segment_set(warm.traces, kind, context=True)
                detector = CMarkovDetector(
                    program, kind, cluster_policy=CLUSTER_POLICY,
                    config=DetectorConfig(
                        training=TrainingConfig(max_iterations=WARM_ITERATIONS)
                    ),
                )
                detector.fit(segments)
                detector.score(segments.segments())
        times.append(time.perf_counter() - started)
    return programs, times


def run(seed: int, seconds: float, trace: bool, setup_repeats: int, guard) -> Outcome:
    expected = load_expected()
    programs, setup_times = setup(setup_repeats)
    checks = Checks()
    budget = seconds / 2 if trace else seconds

    passes: list[PassResult] = []
    min_passes = 1 if trace else MIN_PASSES
    phase_started = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - phase_started < budget:
        passes.append(run_pass(programs, seed))
    untraced_wall = time.perf_counter() - phase_started
    peak_rss = harness.vm_hwm_mb()

    notes = [f"passes={len(passes)} pass_s="
             + ",".join(f"{p.wall_s:.3f}" for p in passes)
             + " setup_s=" + ",".join(f"{x:.3f}" for x in setup_times)]
    wall_s = fastest_pass_s(passes)
    events = passes[0].events
    if not trace:
        metrics = {
            "setup_s": harness.median(setup_times),
            "wall_s": wall_s,
            "events_per_s": events / wall_s,
            # A batch: every result is ready when its pass ends, so each
            # item's latency is the pass wall.
            "latency_p50_ms": wall_s * 1e3,
            "latency_p90_ms": wall_s * 1e3,
            "peak_rss_mb": peak_rss,
        }
    else:
        tracer, tally, totals = Tracer(), KernelTally(), LayerTotals()
        traced: list[PassResult] = []
        traced_started = time.perf_counter()
        while not traced or time.perf_counter() - traced_started < budget:
            traced.append(run_traced_pass(programs, seed, tracer, tally, totals, checks))
        traced_wall = time.perf_counter() - traced_started
        ledger, lines = harness.trace_report(tracer, traced_wall - tracer.replay_time())
        notes.extend(lines)
        n = len(traced)
        train_s = tracer.busy("hmm.baumwelch.train")
        metrics = {
            "tracing.workload.busy_s": tracer.busy("tracing.run_workload") / n,
            "tracing.workload.events": totals.workload_events / n,
            "tracing.segments.busy_s": tracer.busy("tracing.build_segment_set") / n,
            "tracing.segments.unique_ratio": totals.segments_unique / totals.segments_total,
            "analysis.busy_s": tracer.busy("analysis.analyze_program") / n,
            "analysis.aggregation_s": totals.aggregation_s / n,
            "reduction.busy_s": tracer.busy("reduction.build_initial_model") / n,
            "reduction.states": totals.states / n,
            "hmm.baumwelch.busy_s": train_s / n,
            "hmm.baumwelch.iterations": totals.iterations / n,
            "hmm.baumwelch.ms_per_iteration": train_s * 1e3 / totals.iterations,
            "hmm.kernels.score_busy_s": tracer.busy("hmm.kernels.log_likelihood_unique") / n,
            "hmm.kernels.score_rows": tally.rows / n,
            "hmm.kernels.unique_ratio": tally.unique_ratio,
            "hmm.kernels.pad_ratio": tally.pad_ratio,
            "ledger.unattributed_share": ledger.unattributed_share,
            "ledger.trace_overhead": (ledger.program_wall_s / n)
            / (untraced_wall / len(passes)) - 1.0,
        }
        passes.extend(traced)

    for result in passes:
        check_pass(result, passes[0], seed, expected, checks)
    return Outcome(metrics, checks.attempted, checks.failed, notes, checks.reasons)


def record_expected(seed: int) -> dict:
    """Values to store in ``expected_offline.json`` (run by hand, see README)."""
    programs, _ = setup(1)
    result = run_pass(programs, seed)
    floor = math.floor(min(d.auc for d in result.detectors) * 20) / 20 - 0.1
    return {
        "seed": seed,
        "auc_digits": 6,
        "auc_floor": round(floor, 2),
        "detectors": {
            d.key: {"n_states": d.n_states, "iterations": d.iterations,
                    "auc": round(d.auc, 6)}
            for d in result.detectors
        },
    }
