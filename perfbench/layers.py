"""Replays of layer work one layer deeper, through public entry points.

The benchmark never adds spans inside ``src/``.  Where a layer's work runs
inside another layer's public call, the traced run re-runs that work
through the deeper layer's own entry point on the same inputs, times it,
and checks that it returns what the mirrored call returned.  The replay's
time then counts against the mirrored span's self time (see
:class:`harness.Tracer`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.core.static_models import CMarkovDetector
from repro.hmm.baumwelch import train
from repro.hmm.kernels import SCORE_TILE, log_likelihood_unique
from repro.tracing.segments import SegmentSet

from harness import Tracer


def same_model(a, b) -> bool:
    """Bit-identical HMM parameters and alphabet."""
    return (
        list(a.symbols) == list(b.symbols)
        and np.array_equal(a.transition, b.transition)
        and np.array_equal(a.emission, b.emission)
        and np.array_equal(a.initial, b.initial)
    )


def distinct_rows(obs: np.ndarray) -> int:
    return int(np.unique(obs, axis=0).shape[0]) if obs.shape[0] > 1 else int(obs.shape[0])


@dataclass
class KernelTally:
    """Rows the batch scorer received, distinct rows, and padded rows.

    The padded count follows the kernel's public tiling constant: the
    scorer runs whole :data:`SCORE_TILE` tiles over the distinct rows.
    """

    rows: int = 0
    distinct: int = 0
    computed: int = 0

    def add_unique(self, obs: np.ndarray) -> None:
        distinct = distinct_rows(obs)
        self.rows += obs.shape[0]
        self.distinct += distinct
        self.computed += math.ceil(distinct / SCORE_TILE) * SCORE_TILE

    @property
    def unique_ratio(self) -> float:
        return self.distinct / self.rows if self.rows else 0.0

    @property
    def pad_ratio(self) -> float:
        return self.distinct / self.computed if self.computed else 0.0


def cap_segments(segments: SegmentSet, cap: int) -> SegmentSet:
    """The ``cap`` most frequent unique segments, as ``Detector.fit`` keeps them."""
    capped = SegmentSet(length=segments.length)
    ranked = sorted(segments.counts.items(), key=lambda item: (-item[1], item[0]))
    for segment, count in ranked[:cap]:
        capped.counts[segment] = count
    return capped


@dataclass
class FitReplay:
    """What a layer-by-layer re-run of ``Detector.fit`` produced."""

    matches: bool
    n_states: int
    iterations: int
    aggregation_s: float


def replay_fit(
    tracer: Tracer,
    parent: int,
    trace_id: int,
    program,
    kind,
    config,
    cluster_policy,
    segments: SegmentSet,
    fitted,
) -> FitReplay:
    """Re-run ``fitted.fit(segments)`` as analyze → initialize → train.

    A fresh detector is used so the static analysis is not already cached.
    The split, cap and encoding steps are ``HmmDetector.fit``'s own, so the
    trained model must be bit-identical to ``fitted.model``.
    """
    started = time.perf_counter()
    fresh = CMarkovDetector(program, kind, config=config, cluster_policy=cluster_policy)
    root = tracer.record("core.fit.replay", "core", started, started, parent, trace_id, True)

    def timed(name, layer, fn, *args):
        result, _ = tracer.call(
            name, layer, fn, *args, parent=root, trace_id=trace_id, replay=True
        )
        return result

    analysis = timed("analysis.analyze_program", "analysis", lambda: fresh.analysis)
    working = segments
    cap = config.max_training_segments
    if cap is not None and working.n_unique > cap:
        working = cap_segments(working, cap)
    fraction = config.termination_fraction
    train_part, termination_part = working.split(
        [1.0 - fraction, fraction], seed=config.seed
    )
    if train_part.n_unique == 0:
        train_part, termination_part = working, working
    initial = timed(
        "reduction.build_initial_model",
        "reduction",
        fresh.build_initial_model,
        train_part,
    )
    train_segments = train_part.segments()
    train_obs = initial.encode(train_segments)
    weights = train_part.weights(train_segments)
    holdout = (
        initial.encode(termination_part.segments())
        if termination_part.n_unique
        else None
    )
    model, report = timed(
        "hmm.baumwelch.train",
        "hmm.baumwelch",
        train,
        initial,
        train_obs,
        holdout,
        weights,
        config.training,
    )
    tracer.spans[root].end = time.perf_counter()
    return FitReplay(
        matches=same_model(model, fitted.model),
        n_states=model.n_states,
        iterations=report.iterations,
        aggregation_s=float(analysis.timings_s.get("aggregation", 0.0)),
    )


def replay_score(
    tracer: Tracer,
    parent: int,
    trace_id: int,
    detector,
    segments,
    scores: np.ndarray,
    tally: KernelTally,
) -> bool:
    """Re-run ``detector.score(segments)`` as encode → ``log_likelihood_unique``."""
    started = time.perf_counter()
    root = tracer.record("core.score.replay", "core", started, started, parent, trace_id, True)
    model = detector.model
    obs = model.encode(segments)
    loglik, _ = tracer.call(
        "hmm.kernels.log_likelihood_unique",
        "hmm.kernels",
        log_likelihood_unique,
        model,
        obs,
        parent=root,
        trace_id=trace_id,
        replay=True,
    )
    tracer.spans[root].end = time.perf_counter()
    tally.add_unique(obs)
    return np.array_equal(loglik / obs.shape[1], scores)
