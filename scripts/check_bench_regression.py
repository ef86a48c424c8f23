#!/usr/bin/env python
"""Gate fresh ``BENCH_*.json`` payloads against committed baselines.

CI's bench stages produce throughput payloads every run; this script turns
them from *artifacts you could look at* into a *gate that fails the build*:

* **missing keys** — every key present in the committed baseline must exist
  in the fresh payload (recursively).  A bench refactor that silently drops
  a metric breaks the perf-trajectory charting downstream, so it fails here
  instead.
* **throughput regression** — each bench's registered higher-is-better
  metrics must reach ``(1 - threshold)`` of the baseline value (default
  threshold 0.20, i.e. fail on >20% regression).

Baselines live in ``benchmarks/baselines/`` and are deliberately
*conservative floors* (see the README there): CI runners are shared and
noisy, so the gate is tuned to catch real regressions — an accidentally
quadratic drain loop, a de-vectorized kernel — not scheduler jitter.

* **one-sided baselines** (``--audit``) — without a fresh payload, the
  script instead cross-checks the registry against the committed baseline
  directory: a bench with gate metrics but no committed baseline is an
  unguarded bench, and a committed ``BENCH_*.json`` no registry entry
  gates is dead weight that silently stopped protecting anything.

Usage::

    python scripts/check_bench_regression.py BENCH_em.json
    python scripts/check_bench_regression.py BENCH_service_sharded.json \
        --baseline benchmarks/baselines/BENCH_service_sharded.json \
        --threshold 0.25
    python scripts/check_bench_regression.py --audit

The baseline is resolved from ``--baseline``, else
``benchmarks/baselines/<fresh-file-name>`` (in ``--audit`` mode,
``--baseline`` names the baseline *directory*).  Exits 0 when every gate
holds, 1 on any regression/missing key/one-sided baseline, 2 on unusable
inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"
DEFAULT_THRESHOLD = 0.20

#: Higher-is-better metrics per payload ``bench`` tag, as dotted paths.
#: Only ratios and throughputs belong here — raw wall-clock seconds swing
#: with runner contention and would make the gate cry wolf.
THROUGHPUT_METRICS: dict[str, tuple[str, ...]] = {
    "em_kernels": (
        "em.fused_iters_per_s",
        "em.speedup",
        "scoring.dedup_windows_per_s",
        "scoring.speedup",
    ),
    "service_throughput": (
        "service.64.segments_per_s",
        "service.256.segments_per_s",
    ),
    "service_sharded": (
        "shards.1.segments_per_s",
    ),
    "runtime_scaling": (
        "warm_speedup",
    ),
    "gateway": (
        "gateway.requests_per_s",
    ),
    "streaming_forward": (
        "streaming.incremental_events_per_s",
        "streaming.speedup",
        "fleet_drain.fused_windows_per_s",
        "fleet_drain.speedup",
    ),
    "robustness_grid": (
        "grid.cells_per_s",
    ),
}

#: Baseline file each registered bench gates against — the registry half
#: of the two-sided contract ``--audit`` enforces: every bench here must
#: have its baseline committed, and every committed baseline must appear
#: here.  A one-sided entry means an unguarded bench (or a dead baseline).
BASELINE_FILES: dict[str, str] = {
    "em_kernels": "BENCH_em.json",
    "service_throughput": "BENCH_service.json",
    "service_sharded": "BENCH_service_sharded.json",
    "runtime_scaling": "BENCH_runtime.json",
    "gateway": "BENCH_gateway.json",
    "streaming_forward": "BENCH_streaming.json",
    "robustness_grid": "BENCH_robustness.json",
}

#: Keys whose values legitimately differ every run (timestamps, host
#: identity, embedded telemetry trees) — exempt from the missing-key walk's
#: *recursion*, though the key itself must still exist.
OPAQUE_KEYS = frozenset({"telemetry", "host", "env", "unix_time"})

#: Boolean invariants that must stay true once a baseline recorded them
#: true (a perf PR that breaks bit-identity is a correctness bug, not a
#: slowdown).
INVARIANT_FLAGS: dict[str, tuple[str, ...]] = {
    "em_kernels": (
        "bit_identity.em_fused_vs_reference",
        "bit_identity.scoring_dedup_vs_full",
    ),
    "service_throughput": ("bit_identical",),
    "service_sharded": ("bit_identical_1_shard",),
    "runtime_scaling": ("bit_identical",),
    "gateway": ("scores_bit_identical", "metrics_valid"),
    "streaming_forward": (
        "bit_identity.incremental_vs_legacy_filter",
        "bit_identity.incremental_vs_replay_oracle",
        "bit_identity.fused_drain_vs_per_lane",
    ),
    "robustness_grid": (
        "resume.bit_identical",
        "resume.all_resumed",
        "shapes.mimicry_lowers_detection",
        "shapes.regular_context_ge_basic",
    ),
}


def _lookup(payload: dict, dotted: str):
    node = payload
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _missing_keys(baseline, fresh, prefix: str = "") -> list[str]:
    """Baseline keys absent from the fresh payload (recursive)."""
    missing = []
    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            return [prefix or "<root>"]
        for key, value in baseline.items():
            path = f"{prefix}.{key}" if prefix else key
            if key not in fresh:
                missing.append(path)
            elif key not in OPAQUE_KEYS:
                missing.extend(_missing_keys(value, fresh[key], path))
    return missing


def check(fresh: dict, baseline: dict, threshold: float) -> list[str]:
    """Every violated gate as a human-readable line (empty = pass)."""
    problems = []
    bench = fresh.get("bench")
    if bench != baseline.get("bench"):
        return [
            f"bench tag mismatch: fresh={bench!r} "
            f"baseline={baseline.get('bench')!r} (wrong baseline file?)"
        ]

    for path in _missing_keys(baseline, fresh):
        problems.append(f"missing key: {path!r} (present in baseline)")

    for dotted in THROUGHPUT_METRICS.get(bench, ()):
        base = _lookup(baseline, dotted)
        ours = _lookup(fresh, dotted)
        if base is None:
            continue  # baseline predates the metric; nothing to hold
        if ours is None:
            problems.append(f"missing throughput metric: {dotted!r}")
            continue
        floor = base * (1.0 - threshold)
        if ours < floor:
            problems.append(
                f"throughput regression: {dotted} = {ours:g} < {floor:g} "
                f"(baseline {base:g}, threshold {threshold:.0%})"
            )

    for dotted in INVARIANT_FLAGS.get(bench, ()):
        if _lookup(baseline, dotted) is True and _lookup(fresh, dotted) is not True:
            problems.append(
                f"invariant broken: {dotted} was true in baseline, "
                f"now {_lookup(fresh, dotted)!r}"
            )
    return problems


def audit(baseline_dir: Path) -> list[str]:
    """One-sided baseline drift: registered-but-baselineless benches and
    committed baselines no registry entry gates (empty = consistent)."""
    problems = []
    registered = set(THROUGHPUT_METRICS) | set(INVARIANT_FLAGS)
    for bench in sorted(registered):
        filename = BASELINE_FILES.get(bench)
        if filename is None:
            problems.append(
                f"bench {bench!r} has gate metrics registered but no "
                f"BASELINE_FILES entry"
            )
            continue
        path = baseline_dir / filename
        if not path.is_file():
            problems.append(
                f"bench {bench!r} is registered but its baseline is not "
                f"committed at {path}"
            )
            continue
        tag = json.loads(path.read_text()).get("bench")
        if tag != bench:
            problems.append(
                f"baseline {path.name} carries bench tag {tag!r}, "
                f"registered as {bench!r}"
            )
    known_files = set(BASELINE_FILES.values())
    for path in sorted(baseline_dir.glob("BENCH_*.json")):
        if path.name not in known_files:
            problems.append(
                f"committed baseline {path.name} gates nothing: its bench "
                f"is not registered in check_bench_regression.py"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
    )
    parser.add_argument("fresh", type=Path, nargs="?", default=None,
                        help="freshly produced BENCH_*.json")
    parser.add_argument(
        "--audit",
        action="store_true",
        help="instead of gating one payload, fail on one-sided baselines: "
             "every registered bench must have a committed baseline and "
             "every committed baseline a registry entry",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed baseline (default: benchmarks/baselines/<name>)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="fractional throughput regression tolerated (default 0.20)",
    )
    args = parser.parse_args(argv)

    if args.audit:
        baseline_dir = (
            args.baseline if args.baseline is not None else DEFAULT_BASELINE_DIR
        )
        problems = audit(baseline_dir)
        if problems:
            print("bench-baseline audit FAILED:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        registered = set(THROUGHPUT_METRICS) | set(INVARIANT_FLAGS)
        print(
            f"bench-baseline audit passed: {len(registered)} benches "
            f"two-sided against {baseline_dir}"
        )
        return 0

    if args.fresh is None:
        print("a fresh BENCH_*.json payload is required (or --audit)",
              file=sys.stderr)
        return 2
    baseline_path = args.baseline or DEFAULT_BASELINE_DIR / args.fresh.name
    if not args.fresh.is_file():
        print(f"fresh payload not found: {args.fresh}", file=sys.stderr)
        return 2
    if not baseline_path.is_file():
        print(f"no baseline at {baseline_path}; nothing to gate", file=sys.stderr)
        return 2
    if not 0 <= args.threshold < 1:
        print(f"threshold must be in [0, 1): {args.threshold}", file=sys.stderr)
        return 2

    fresh = json.loads(args.fresh.read_text())
    baseline = json.loads(baseline_path.read_text())
    problems = check(fresh, baseline, args.threshold)

    name = fresh.get("bench", args.fresh.name)
    if problems:
        print(f"bench-regression gate FAILED for {name}:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    gated = len(THROUGHPUT_METRICS.get(name, ())) + len(
        INVARIANT_FLAGS.get(name, ())
    )
    print(
        f"bench-regression gate passed for {name} "
        f"({gated} metrics vs {baseline_path})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
