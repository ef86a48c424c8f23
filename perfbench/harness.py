"""Shared plumbing for the repo benchmark: paths, pinning, spans, statistics.

:func:`bootstrap` pins BLAS/OpenMP to one thread (through
``benchmarks/bench_threads.py``) and puts the repository's ``src`` and
``benchmarks`` directories on ``sys.path``; call it before numpy is
imported.  Nothing here starts a thread or a process.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"

#: Thread-count variables forced to 1 here and in the gateway child.
#: ``bench_threads`` only ``setdefault``s them; a benchmark must not inherit
#: a caller's ``OPENBLAS_NUM_THREADS=8``.
PINNED_THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class SourceMissing(RuntimeError):
    """The checkout holds no ``src/repro``: nothing to benchmark."""


def bootstrap() -> None:
    """Pin threads and make ``repro``, ``bench_threads`` and ``common`` importable."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no repro package under {SRC}")
    if not (BENCHMARKS / "bench_threads.py").is_file():
        raise SourceMissing(f"no bench_threads.py under {BENCHMARKS}")
    os.environ.update(PINNED_THREADS)
    for path in (str(BENCHMARKS), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import bench_threads  # noqa: F401  (import pins a loaded OpenBLAS)

    bench_threads.pin_blas_threads(1)


def child_env() -> dict[str, str]:
    """Environment for a child ``python -m repro``: pinned, no repro knobs."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_")
    }
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation, as numpy does."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_supported(n_samples: int, q: float) -> bool:
    """Whether ``n_samples`` leave ``MIN_TAIL_SAMPLES`` beyond quantile ``q``."""
    return n_samples * (1.0 - q) >= MIN_TAIL_SAMPLES


def tail_note(latency_ms) -> str:
    """The sample count and p99, which is printed but not bounded."""
    n = len(latency_ms)
    p99 = f"{percentile(latency_ms, 0.99):.4f}" if tail_supported(n, 0.99) else "n/a"
    return f"latency_samples={n} latency_p99_ms={p99}"


def median(values) -> float:
    return float(statistics.median(values))


#: Online figures are this quantile over a run's rounds (its quiet tenth).
#: On a shared 2-vCPU VM the same fixed work ran at two speeds about 1.5x
#: apart, each for seconds to minutes at a time; a median over
#: rounds reports whichever speed held most of the run, and flips between
#: runs.
QUIET_QUANTILE = 0.10


def quiet(values) -> float:
    """A run's figure from its quiet rounds: the ``QUIET_QUANTILE``."""
    return percentile(values, QUIET_QUANTILE)


def round_metrics(walls: list[float], latency_s, marks: list[int],
                  events_per_round: int) -> dict[str, float]:
    """Online end-to-end figures, each taken over whole rounds by :func:`quiet`.

    ``marks[i]`` is the number of latency samples recorded by the end of
    round ``i``.  A host stall that slows some rounds moves a whole-run
    percentile but not the quiet rounds' figures.
    """
    bounds = zip([0] + marks[:-1], marks)
    rounds = [latency_s[start:end] for start, end in bounds]
    wall = quiet(walls)
    return {
        "wall_s": wall,
        "events_per_s": events_per_round / wall,
        "latency_p50_ms": quiet([percentile(r, 0.50) for r in rounds]) * 1e3,
        "latency_p90_ms": quiet([percentile(r, 0.90) for r in rounds]) * 1e3,
    }


# ---------------------------------------------------------------------------
# /proc readers
# ---------------------------------------------------------------------------


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds a process has used (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    with open("/proc/stat") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of all CPU time stolen by the hypervisor between two samples."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


# ---------------------------------------------------------------------------
# Spans and the ledger
# ---------------------------------------------------------------------------


@dataclass
class Span:
    """One timed call into a layer.

    ``parent`` is the index of the enclosing span.  A *replay* span re-runs
    part of its parent's work one layer deeper, after the parent returned;
    it lies outside the parent's interval but still counts against the
    parent's self time.
    """

    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    trace_id: int
    replay: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory span recorder (one per traced phase)."""

    spans: list[Span] = field(default_factory=list)
    traces: int = 0

    def new_trace(self) -> int:
        """A fresh id shared by every span of one request, tick or pass."""
        self.traces += 1
        return self.traces

    def record(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        parent: int | None = None,
        trace_id: int = 0,
        replay: bool = False,
    ) -> int:
        self.spans.append(
            Span(name, layer, start, end, parent, trace_id, replay)
        )
        return len(self.spans) - 1

    def call(self, name, layer, fn, *args, parent=None, trace_id=0, replay=False):
        """Run ``fn(*args)`` inside a span; returns ``(result, span_index)``."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        return result, self.record(name, layer, start, end, parent, trace_id, replay)

    def replay_time(self) -> float:
        """Wall time spent in top-level replay spans (not program time)."""
        return sum(
            s.duration
            for s in self.spans
            if s.replay and (s.parent is None or not self.spans[s.parent].replay)
        )

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return [
            span.duration - child
            for span, child in zip(self.spans, child_time)
        ]

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def busy(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)


@dataclass
class Ledger:
    """Per-layer self time of a traced phase against its program wall."""

    layers: dict[str, float]
    uncovered: dict[str, float]
    program_wall_s: float

    @property
    def attributed_s(self) -> float:
        return sum(self.layers.values())

    @property
    def unattributed_share(self) -> float:
        return 1.0 - self.attributed_s / self.program_wall_s


#: Span layer for benchmark glue timed on purpose (client encode/decode,
#: outcome collection): never a program layer, named when the residue is
#: large.
BENCH_LAYER = "bench"


def build_ledger(tracer: Tracer, program_wall_s: float) -> Ledger:
    """Sum self times per layer over a traced phase.

    ``program_wall_s`` is the phase's wall time without its replays: they
    are measurement, not program work.  Self times are summed per layer,
    not clamped per span: one replay can run longer than the call it
    mirrors (a pump wake-up lands differently), and clamping each such
    span would bias the layer upward.  A layer whose sum is negative is
    flagged by :func:`ledger_lines`.
    """
    layers: dict[str, float] = {}
    uncovered: dict[str, float] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        if span.layer == BENCH_LAYER:
            uncovered[span.name] = uncovered.get(span.name, 0.0) + self_s
        else:
            layers[span.layer] = layers.get(span.layer, 0.0) + self_s
    return Ledger(layers, uncovered, program_wall_s)


def ledger_lines(ledger: Ledger) -> list[str]:
    """Human-readable ledger rows; names the biggest uncovered region."""
    wall = ledger.program_wall_s
    lines = [f"ledger: program wall {wall:.4f} s (replays excluded)"]
    for layer, seconds in sorted(ledger.layers.items(), key=lambda kv: -kv[1]):
        flag = "  (negative: its replays outran the calls)" if seconds < 0 else ""
        lines.append(f"  {layer:<16} {seconds:10.4f} s  {seconds / wall:7.2%}{flag}")
    residue = ledger.unattributed_share
    lines.append(
        f"  {'unattributed':<16} {wall - ledger.attributed_s:10.4f} s  {residue:7.2%}"
    )
    if residue > 0.10:
        if ledger.uncovered:
            name, seconds = max(ledger.uncovered.items(), key=lambda kv: kv[1])
            lines.append(
                f"  residue over 10%: largest uncovered span is {name!r} "
                f"({seconds:.4f} s, {seconds / wall:.2%} of wall)"
            )
        else:
            lines.append("  residue over 10%: no span covers it")
    return lines


def span_lines(tracer: Tracer) -> list[str]:
    """Every span name with its layer, count, total and self time."""
    rows: dict[str, list] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        row = rows.setdefault(span.name, [span.layer, 0, 0.0, 0.0])
        row[1] += 1
        row[2] += span.duration
        row[3] += self_s
    lines = [f"  {'span':<34} {'layer':<16} {'count':>8} {'total s':>10} {'self s':>10}"]
    for name, (layer, count, total, self_s) in sorted(
        rows.items(), key=lambda kv: -kv[1][2]
    ):
        lines.append(f"  {name:<34} {layer:<16} {count:>8} {total:10.4f} {self_s:10.4f}")
    return lines


def trace_report(tracer: Tracer, program_wall_s: float) -> tuple[Ledger, list[str]]:
    """The traced phase's ledger and the lines that print it and its spans."""
    ledger = build_ledger(tracer, program_wall_s)
    return ledger, ledger_lines(ledger) + span_lines(tracer)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload hands back to ``run.py``."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


class Checks:
    """Counts operations and failed operations; keeps the first reasons."""

    def __init__(self, keep: int = 10) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._keep = keep

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.reasons) < self._keep:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition
