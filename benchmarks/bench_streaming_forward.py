"""Incremental streaming forward + cross-detector fused drain.

Not a paper table: this bench pins the two streaming-era fast paths
against the implementations they replace (kept verbatim in this file, or
reached through the service's per-lane ``pump(name)`` call, the
``bench_em_kernels`` verbatim-legacy pattern):

* **per-event scoring** — the O(W·N²) windowed recompute every event
  (re-encode the sliding 15-call window and re-run the forward recursion,
  what ``OnlineMonitor.observe_symbol`` does; kept verbatim in this file)
  versus the O(N²) incremental ``StreamingScorer`` fast path (carried
  belief state + surprisal ring, ``repro.hmm.kernels.streaming_step``) —
  target >= 5x events/s at W=15;
* **fleet drain** — a 100-detector ``DetectionService`` drained by one
  ``pump(name)`` per lane (one kernel call per detector) versus one
  ``pump()`` over all lanes (one stacked kernel call per shape/length
  group, ``repro.hmm.kernels.log_likelihood_stacked``) — target >= 1x
  drained windows/s at 32 windows per detector, N = 32 (measured
  1.0-1.4x on a 2-vCPU VM; both patterns run the same kernel, so the gap
  is the per-call overhead the fused round saves).

Three bit-identity gates make the speedups trustworthy (exit code 1 on
any divergence):

* the incremental filter must reproduce the allocating filter it
  replaced (``LegacyFilter``, kept verbatim in this file) exactly —
  per-event surprisals and windowed scores, across a mid-stream reset
  and a warm-swap rebind;
* the carried state must equal a full windowed recompute: replaying the
  retained history from scratch at sampled positions must land on the
  same belief vector and windowed score bit-for-bit;
* the fused drain's outcomes must equal the per-lane drain's exactly
  (scores, verdicts, batch sizes) — on the timed N = 32 fleet and on an
  untimed two-lane pass at N = 90, a corpus libcall model size where
  differently tall GEMMs disagree in the last bits.

Usage::

    python benchmarks/bench_streaming_forward.py [--smoke] [--out BENCH_streaming.json]

``--smoke`` shrinks repetitions and stream length (not shapes) for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np

from repro.api import load_pretrained
from repro.core.streaming import StreamingScorer
from repro.hmm import random_model
from repro.hmm.forward import SCALE_FLOOR, log_likelihood
from repro.hmm.kernels import streaming_recent
from repro.service import DetectionService
from repro.service.config import ServiceConfig

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import (  # noqa: E402
    bench_host_metadata,
    bench_output_path,
    best_of,
    print_block,
    shape_line,
)

# Bench shape: the service's reference point — mid-sized models at the
# paper's window, a 100-detector fleet.
N_STATES = 32
N_SYMBOLS = 64
WINDOW = 15
STREAM_EVENTS = 4000
FLEET_DETECTORS = 100
WINDOWS_PER_DETECTOR = 32

# The untimed libcall-size gate pass: two lanes, 12 windows each.
GATE_N_STATES = 90
GATE_SYMBOLS = 60
GATE_WINDOWS = 12

STREAMING_TARGET = 5.0
FLEET_TARGET = 1.0


# ---------------------------------------------------------------------------
# "Before" baseline — the O(W·N²) windowed recompute per event (verbatim
# the split-phase work OnlineMonitor does: slide the window, re-encode,
# re-run the forward recursion over all W symbols).
# ---------------------------------------------------------------------------


def _recompute_per_event(model, symbols, window):
    sliding: deque[str] = deque(maxlen=window)
    scores = []
    for symbol in symbols:
        sliding.append(symbol)
        if len(sliding) < window:
            continue
        obs = np.fromiter(
            (model.encode_symbol(s) for s in sliding),
            dtype=np.int64,
            count=window,
        )
        scores.append(float(log_likelihood(model, obs[None, :])[0]) / window)
    return scores


def _incremental_per_event(scorer, symbols):
    scores = []
    for symbol in symbols:
        scorer.observe(symbol)
        if scorer.window_full:
            scores.append(scorer.windowed_score)
    return scores


class LegacyFilter:
    """The allocating forward filter ``StreamingScorer`` replaced, verbatim:
    a fresh belief array per event and a deque of recent surprisals."""

    def __init__(self, model, window):
        self.model = model
        self.window = window
        self._belief = model.initial.copy()
        self._started = False
        self._recent: deque[float] = deque(maxlen=window)

    def observe(self, symbol: str) -> float:
        index = self.model.encode_symbol(symbol)
        if self._started:
            predictive = self._belief @ self.model.transition
        else:
            predictive = self._belief
            self._started = True
        joint = predictive * self.model.emission[:, index]
        total = float(joint.sum())
        total = max(total, SCALE_FLOOR)
        self._belief = joint / total
        surprise = -float(np.log(total))
        self._recent.append(surprise)
        return surprise

    @property
    def windowed_score(self) -> float:
        return -float(np.mean(self._recent))

    @property
    def window_full(self) -> bool:
        return len(self._recent) == self.window

    def reset(self) -> None:
        self._belief = self.model.initial.copy()
        self._started = False
        self._recent.clear()

    def rebind(self, model) -> None:
        self.model = model
        self._belief = model.initial.copy()
        self._started = False


# ---------------------------------------------------------------------------
# Bit-identity gates
# ---------------------------------------------------------------------------


def _gate_incremental_vs_legacy(model, swap_model, symbols) -> bool:
    """Fast path ≡ verbatim legacy filter, through reset and rebind."""
    fast = StreamingScorer(model, window=WINDOW)
    slow = LegacyFilter(model, WINDOW)
    third = len(symbols) // 3
    for position, symbol in enumerate(symbols):
        if position == third:
            fast.reset()
            slow.reset()
        if position == 2 * third:
            fast.rebind(swap_model)
            slow.rebind(swap_model)
        if fast.observe(symbol) != slow.observe(symbol):
            return False
        if fast.window_full != slow.window_full:
            return False
        if fast.window_full and fast.windowed_score != slow.windowed_score:
            return False
    return True


def _gate_replay_oracle(model, symbols) -> bool:
    """Carried state ≡ replaying the retained history from scratch."""
    carried = StreamingScorer(model, window=WINDOW)
    history: list[str] = []
    checkpoints = {len(symbols) // 4, len(symbols) // 2, len(symbols) - 1}
    for position, symbol in enumerate(symbols):
        carried.observe(symbol)
        history.append(symbol)
        if position not in checkpoints:
            continue
        replay = StreamingScorer(model, window=WINDOW)
        for past in history:
            replay.observe(past)
        if not np.array_equal(
            carried._state.belief, replay._state.belief
        ):
            return False
        if not np.array_equal(
            streaming_recent(carried._state), streaming_recent(replay._state)
        ):
            return False
        if carried.windowed_score != replay.windowed_score:
            return False
    return True


# ---------------------------------------------------------------------------
# Fleet drain
# ---------------------------------------------------------------------------


def _build_fleet_service(models) -> DetectionService:
    service = DetectionService(ServiceConfig(), clock=lambda: 0.0)
    for index, model in enumerate(models):
        service.register(
            f"det{index}",
            load_pretrained(model, name=f"det{index}"),
            threshold=-3.5,
        )
    return service


def _fleet_windows(rng, symbols):
    """Per-detector window batches with a realistic duplicate fraction."""
    batches = []
    for _ in range(FLEET_DETECTORS):
        unique = rng.integers(
            0, len(symbols), size=(WINDOWS_PER_DETECTOR // 2, WINDOW)
        )
        rows = np.concatenate([unique, unique])[
            rng.permutation(WINDOWS_PER_DETECTOR)
        ]
        batches.append(
            [[symbols[int(s)] for s in row] for row in rows]
        )
    return batches


def _submit_fleet(service, batches):
    tickets = []
    for index, windows in enumerate(batches):
        name = f"det{index}"
        for tenant, window in enumerate(windows):
            tickets.append(
                service.submit(name, f"tenant-{tenant % 8}", window=window)
            )
    return tickets


def _drain(service, fused: bool) -> None:
    """Drain every queue: ``pump()`` rounds over all lanes when ``fused``,
    else rounds of one ``pump(name)`` per lane."""
    if fused:
        service.drain_pending()
        return
    while sum(service.pump(name) for name in service.detectors):
        pass


def _drain_fleet(service, batches, fused: bool):
    tickets = _submit_fleet(service, batches)
    _drain(service, fused)
    return [ticket.result() for ticket in tickets]


def _timed_drain(service, batches, reps, fused: bool):
    """Best drain wall-clock with submission outside the timer.

    Submission cost is identical in both patterns (same admission path,
    same queues); only the drain differs, so that is what the clock wraps.
    """
    best = float("inf")
    for _ in range(reps):
        _submit_fleet(service, batches)
        started = time.perf_counter()
        _drain(service, fused)
        best = min(best, time.perf_counter() - started)
    return best


def _gate_fused_vs_per_lane(models, batches) -> bool:
    """One ``pump()`` per round ≡ one ``pump(name)`` per lane, outcome by
    outcome (scores, verdicts, batch sizes)."""
    per_lane = _drain_fleet(_build_fleet_service(models), batches, fused=False)
    fused = _drain_fleet(_build_fleet_service(models), batches, fused=True)
    return len(per_lane) == len(fused) and all(
        type(a) is type(b)
        and a.score == b.score
        and a.anomalous == b.anomalous
        and a.batch_size == b.batch_size
        for a, b in zip(per_lane, fused)
    )


def run(smoke: bool, out_path: Path) -> int:
    rng = np.random.default_rng(11)
    symbols = [f"sym{i}" for i in range(N_SYMBOLS)]
    model = random_model(symbols, n_states=N_STATES, seed=3)
    swap_model = random_model(symbols, n_states=N_STATES, seed=4)
    events = 1000 if smoke else STREAM_EVENTS
    reps = 1 if smoke else 3

    stream = [symbols[int(s)] for s in rng.integers(0, N_SYMBOLS, size=events)]

    # -- bit-identity gates first: a fast path that computes the wrong
    # bits is a regression, not a win.
    legacy_identical = _gate_incremental_vs_legacy(model, swap_model, stream)
    oracle_identical = _gate_replay_oracle(model, stream)

    models = [
        random_model(symbols, n_states=N_STATES, seed=100 + index)
        for index in range(FLEET_DETECTORS)
    ]
    batches = _fleet_windows(rng, symbols)
    gate_symbols = [f"call{i}" for i in range(GATE_SYMBOLS)]
    gate_rng = np.random.default_rng(0)
    gate_batches = [
        [
            [gate_symbols[int(s)] for s in gate_rng.integers(0, GATE_SYMBOLS, size=WINDOW)]
            for _ in range(GATE_WINDOWS)
        ]
        for _ in range(2)
    ]
    gate_models = [
        random_model(gate_symbols, n_states=GATE_N_STATES, seed=seed) for seed in (10, 11)
    ]
    drain_identical = _gate_fused_vs_per_lane(models, batches) and _gate_fused_vs_per_lane(
        gate_models, gate_batches
    )

    # -- per-event throughput: windowed recompute vs incremental filter.
    recompute_s = best_of(reps, lambda: _recompute_per_event(model, stream, WINDOW))

    def run_incremental():
        scorer = StreamingScorer(model, window=WINDOW)
        _incremental_per_event(scorer, stream)

    run_incremental()  # warm-up (allocators, BLAS threads)
    incremental_s = best_of(reps, run_incremental)
    streaming_speedup = recompute_s / incremental_s

    # -- fleet-drain throughput, drain phase only (see _timed_drain).
    n_windows = FLEET_DETECTORS * WINDOWS_PER_DETECTOR
    per_lane_s = _timed_drain(_build_fleet_service(models), batches, reps, False)
    fused_s = _timed_drain(_build_fleet_service(models), batches, reps, True)
    fleet_speedup = per_lane_s / fused_s

    payload = {
        "bench": "streaming_forward",
        "unix_time": time.time(),
        "host": bench_host_metadata(),
        "smoke": smoke,
        "shape": {
            "n_states": N_STATES,
            "n_symbols": N_SYMBOLS,
            "window": WINDOW,
            "stream_events": events,
            "fleet_detectors": FLEET_DETECTORS,
            "windows_per_detector": WINDOWS_PER_DETECTOR,
        },
        "streaming": {
            "recompute_events_per_s": round(events / recompute_s, 1),
            "incremental_events_per_s": round(events / incremental_s, 1),
            "speedup": round(streaming_speedup, 3),
            "target": STREAMING_TARGET,
            "met": streaming_speedup >= STREAMING_TARGET,
        },
        "fleet_drain": {
            "per_lane_windows_per_s": round(n_windows / per_lane_s, 1),
            "fused_windows_per_s": round(n_windows / fused_s, 1),
            "speedup": round(fleet_speedup, 3),
            "target": FLEET_TARGET,
            "met": fleet_speedup >= FLEET_TARGET,
        },
        "bit_identity": {
            "incremental_vs_legacy_filter": bool(legacy_identical),
            "incremental_vs_replay_oracle": bool(oracle_identical),
            "fused_drain_vs_per_lane": bool(drain_identical),
        },
        "env": {
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
    }
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    body = "\n".join(
        [
            f"  shape: N={N_STATES} M={N_SYMBOLS} W={WINDOW} events={events} "
            f"fleet={FLEET_DETECTORS}x{WINDOWS_PER_DETECTOR}"
            + ("  (smoke)" if smoke else ""),
            f"  streaming  recompute {events / recompute_s:9.0f} ev/s  "
            f"incremental {events / incremental_s:9.0f} ev/s  "
            f"{streaming_speedup:.2f}x",
            f"  fleet      per-lane {n_windows / per_lane_s:10.0f} win/s  "
            f"fused {n_windows / fused_s:13.0f} win/s  {fleet_speedup:.2f}x",
            f"  -> {out_path}",
            shape_line(
                "incremental filter is bit-identical to the legacy filter",
                legacy_identical,
            ),
            shape_line(
                "carried state is bit-identical to the replay oracle",
                oracle_identical,
            ),
            shape_line(
                f"fused drain outcomes are identical to per-lane drains "
                f"(N={N_STATES} and N={GATE_N_STATES})",
                drain_identical,
            ),
            shape_line(
                f"per-event throughput >= {STREAMING_TARGET}x",
                streaming_speedup >= STREAMING_TARGET,
            ),
            shape_line(
                f"fleet-drain throughput >= {FLEET_TARGET}x",
                fleet_speedup >= FLEET_TARGET,
            ),
        ]
    )
    print_block(
        "Streaming forward — incremental filter + fused fleet drain", body
    )

    if not (legacy_identical and oracle_identical and drain_identical):
        print("bit-identity gate FAILED", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer repetitions and a shorter stream (same shapes) for CI",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output JSON path (default: BENCH_streaming.json at the repo "
        "root; see common.bench_output_path)",
    )
    args = parser.parse_args(argv)
    return run(args.smoke, args.out or bench_output_path("BENCH_streaming.json"))


if __name__ == "__main__":
    raise SystemExit(main())
