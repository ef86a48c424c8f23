"""Run one workload of the repo benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload offline_train --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs the traced variant and reports the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it print every metric with its
unit, the failed-operation count, the run's host metadata, and (traced)
the per-layer ledger.  A run that is interrupted, times out, or leaves a
process or a listening port behind exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from procs import Interrupted, ProcessGuard  # noqa: E402

WORKLOADS = {
    "offline_train": "offline",
    "gateway_stream": "gateway",
}
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: A run that has not finished by then stops, cleans up and fails.
RUN_TIMEOUT_S = 170
RUN_ROOT = harness.ROOT / ".perfbench_run"
EXIT_MISSING, EXIT_LEFTOVERS, EXIT_INTERRUPTED, EXIT_ERROR = 2, 3, 4, 5


def _interrupt(signum, frame) -> None:
    raise Interrupted(signal.Signals(signum).name)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric names and units ``BENCHMARK.json`` declares for this mode."""
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if trace else "end_to_end"]
    return {entry["name"]: entry["unit"] for entry in section}


def run_metadata(steal: float) -> dict:
    from common import bench_host_metadata
    from repro import api

    return {
        "host": bench_host_metadata(),
        "kernel_backend": api.kernel_backend(),
        "cpu_steal_share": steal,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(signum, _interrupt)
    signal.alarm(RUN_TIMEOUT_S)
    guard = ProcessGuard(RUN_ROOT)
    code = 0
    try:
        harness.bootstrap()
        units = declared_metrics(bool(args.trace))
        workload = importlib.import_module(WORKLOADS[args.workload])
        cpu_before = harness.cpu_times()
        outcome = workload.run(
            args.seed, args.seconds, bool(args.trace), SETUP_REPEATS, guard
        )
        steal = harness.steal_share(cpu_before, harness.cpu_times())
        metadata = run_metadata(steal)
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_MISSING
    except Interrupted as exc:
        print(f"error: interrupted by {exc}", file=sys.stderr)
        code = EXIT_INTERRUPTED
    except Exception as exc:  # the run failed; clean up and report it
        import traceback

        traceback.print_exc()
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_ERROR
    finally:
        signal.alarm(0)
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_IGN)
        guard.close()
        leftovers = guard.leftovers()
    if leftovers:
        for line in leftovers:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_LEFTOVERS
    if code:
        return code

    missing = sorted(set(units) - set(outcome.metrics))
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        print(f"error: undeclared metrics {unknown}", file=sys.stderr)
        return EXIT_ERROR
    for name in missing:
        outcome.metrics[name] = 0.0
    broken = [name for name, value in outcome.metrics.items() if not math.isfinite(value)]
    if broken:
        print(f"error: non-finite metrics {broken}", file=sys.stderr)
        return EXIT_ERROR
    for line in outcome.notes:
        print(line)
    if missing:
        print(f"not exercised by {args.workload} (reported as 0): {', '.join(missing)}")
    for line in outcome.failures:
        print(f"failed: {line}")
    print("run-metadata " + json.dumps(metadata, sort_keys=True))
    width = max(len(name) for name in units)
    for name, unit in units.items():
        print(f"{name:<{width}}  {outcome.metrics[name]:>16.6f} {unit}")
    print(f"{'failed operations':<{width}}  {outcome.failed:>9} of {outcome.attempted}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
