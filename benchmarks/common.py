"""Shared configuration and helpers for the benchmark suite.

Each ``bench_*.py`` regenerates one table or figure of the paper and prints
our measured rows next to the paper's reference values.  Absolute numbers
differ — the substrate is a synthetic corpus, not the authors' testbed — but
each bench states the *shape* the paper claims and reports whether the run
reproduced it.

Run with::

    pytest benchmarks/ --benchmark-only -s

Scale up toward paper size with ``REPRO_SCALE=2 pytest benchmarks/ ...``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time
from pathlib import Path

# First import on purpose: pins BLAS/OpenMP threading (env + runtime) so
# every bench in the suite measures single-threaded kernels.
import bench_threads

from repro.core import MODEL_NAMES
from repro.eval import (
    AccuracyComparison,
    ExperimentConfig,
    accuracy_comparisons,
    accuracy_grid,
    format_rate,
    render_table,
)
from repro.program import CallKind
from repro.runtime import ArtifactCache, ParallelExecutor, default_jobs, run_grid

__all__ = [
    "BENCH_CONFIG",
    "accuracy_figure",
    "bench_cache",
    "bench_executor",
    "bench_host_metadata",
    "bench_output_path",
    "best_of",
    "print_block",
    "render_comparisons",
    "shape_line",
]

#: Repository root — the one canonical home of fresh ``BENCH_*.json``
#: artifacts (committed baselines live in ``benchmarks/baselines/``).
REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_output_path(filename: str) -> Path:
    """The canonical location for a fresh bench artifact.

    Every emitter routes through here so artifacts land in exactly one
    place — the repo root (or ``REPRO_BENCH_DIR`` when set) — instead of
    whatever the invoking shell's cwd happened to be.  The regression
    gate (``scripts/check_bench_regression.py``) audits that each fresh
    artifact here has a committed baseline and vice versa.
    """
    base = os.environ.get("REPRO_BENCH_DIR", "").strip()
    root = Path(base) if base else REPO_ROOT
    root.mkdir(parents=True, exist_ok=True)
    return root / filename


def best_of(reps: int, fn) -> float:
    """Minimum wall-clock of ``fn()`` across ``reps`` repetitions.

    The suite-wide timing helper (noise-robust on busy CI runners): the
    minimum is the least-contended observation of the same deterministic
    work, which is the quantity the committed baselines deflate.
    """
    best = float("inf")
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _blas_metadata() -> dict:
    """What BLAS this process is actually running — vendor and threading.

    Build-time vendor/version comes from ``numpy.show_config``; runtime
    thread count and kernel target come from the loaded OpenBLAS itself
    (the two can disagree — that disagreement is exactly what this field
    exists to surface).  Best-effort on every probe: a field we cannot
    determine is simply absent, never a crashed bench.
    """
    info: dict = {}
    try:
        import numpy as np

        config = np.show_config(mode="dicts") or {}
        blas = config.get("Build Dependencies", {}).get("blas", {})
        if blas.get("name"):
            info["vendor"] = blas["name"]
        if blas.get("version"):
            info["version"] = blas["version"]
    except Exception:  # pragma: no cover - very old numpy
        pass
    lib = bench_threads.find_openblas()
    if lib is not None:
        probes = (
            ("get_num_threads", ctypes.c_int, "threads"),
            ("get_corename", ctypes.c_char_p, "corename"),
        )
        for name, restype, key in probes:
            for prefix in ("openblas_", "scipy_openblas_"):
                for suffix in ("", "64_"):
                    fn = getattr(lib, f"{prefix}{name}{suffix}", None)
                    if fn is None:
                        continue
                    fn.restype = restype
                    fn.argtypes = []
                    try:
                        value = fn()
                    except Exception:  # pragma: no cover - defensive
                        break
                    if isinstance(value, bytes):
                        value = value.decode("ascii", "replace")
                    else:
                        value = int(value)
                    info[key] = value
                    break
                else:
                    continue
                break
    info["runtime_pin"] = bench_threads.RUNTIME_PIN_SYMBOL
    info["env"] = {
        var: os.environ.get(var) for var in bench_threads.PINNED_ENV_VARS
    }
    return info


def bench_host_metadata() -> dict:
    """Where this bench ran — embedded in every ``BENCH_*.json``.

    Throughput and speedup numbers are meaningless without the core count
    they were measured on (a "parallel speedup" recorded on a 1-CPU runner
    is oversubscription noise, not signal), so every emitter stamps its
    payload with the host shape and the regression gate can refuse to
    compare apples to oranges.  The ``blas`` block pins down the other
    half of kernel-speedup interpretability: which BLAS, which kernel
    target, and how many threads it actually ran with (the suite pins
    one — see :mod:`bench_threads`).
    """
    try:
        cpus_usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus_usable = os.cpu_count() or 1
    return {
        "cpu_count": os.cpu_count() or 1,
        "cpus_usable": cpus_usable,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "hostname": platform.node(),
        "blas": _blas_metadata(),
    }


def _bench_config() -> ExperimentConfig:
    """Laptop-speed defaults; REPRO_SCALE multiplies the workload."""
    config = ExperimentConfig(
        n_cases=80,
        folds=2,
        n_abnormal=400,
        max_training_segments=2500,
        training_iterations=15,
        seed=7,
    )
    scale = os.environ.get("REPRO_SCALE")
    if scale:
        config = config.scaled(float(scale))
    return config


BENCH_CONFIG = _bench_config()


def bench_executor() -> ParallelExecutor:
    """Fan-out width for the suite: ``REPRO_JOBS`` (default 1 = serial).

    Results are bit-identical at any job count; parallelism only changes
    wall-clock.
    """
    return ParallelExecutor(jobs=default_jobs())


def bench_cache() -> ArtifactCache | None:
    """Artifact cache from ``REPRO_CACHE_DIR`` (default: disabled)."""
    cache_dir = os.environ.get("REPRO_CACHE_DIR", "").strip()
    return ArtifactCache(Path(cache_dir)) if cache_dir else None


def shape_line(claim: str, holds: bool) -> str:
    """One-line verdict for a paper-claimed qualitative shape."""
    verdict = "REPRODUCED" if holds else "NOT REPRODUCED"
    return f"  shape [{verdict}]: {claim}"


def print_block(title: str, body: str) -> None:
    """Print a bench's output block with a visible delimiter."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def accuracy_figure(
    programs: tuple[str, ...], kind: CallKind
) -> dict[str, AccuracyComparison]:
    """Run the four-model comparison on each program (a Figures 2-5 panel).

    The per-program cells fan out over ``REPRO_JOBS`` worker
    processes and memoise trained models in ``REPRO_CACHE_DIR``; both
    default off, preserving the serial reference behaviour.
    """
    result = run_grid(
        accuracy_grid(programs, kind, BENCH_CONFIG),
        executor=bench_executor(),
        cache=bench_cache(),
    )
    return accuracy_comparisons(result)


def render_comparisons(comparisons: dict[str, AccuracyComparison]) -> str:
    """Render per-program model accuracy rows (FN at the FP budgets)."""
    fp_targets = BENCH_CONFIG.fp_targets
    headers = ["Program", "Model", "# states", "AUC"] + [
        f"FN@FP={t}" for t in fp_targets
    ]
    rows = []
    for program, comparison in comparisons.items():
        for model in MODEL_NAMES:
            result = comparison.results[model]
            rows.append(
                [
                    program,
                    model,
                    result.n_states,
                    format_rate(result.auc),
                ]
                + [format_rate(result.fn_by_fp[t]) for t in fp_targets]
            )
    return render_table(headers, rows)


def mean_fn(
    comparisons: dict[str, AccuracyComparison], model: str, fp_target: float
) -> float:
    """Average FN of one model across programs at one FP budget."""
    values = [c.results[model].fn_by_fp[fp_target] for c in comparisons.values()]
    return sum(values) / len(values)
