"""Process-pool fan-out with a deterministic serial fallback.

The evaluation pipeline decomposes into independent grid cells — one
program's accuracy comparison, one (program, model) robustness column —
whose inputs are fully determined by configuration and seed.
:class:`ParallelExecutor` runs such cells across worker processes and
guarantees **bit-identical results to a serial run**:

* results return in submission order, never completion order;
* tasks carry every seed they need explicitly (see
  :func:`repro.runtime.cache.derive_seed`) — no global RNG is shared, so
  scheduling cannot perturb numbers;
* at ``jobs=1`` (the default) no pool is created at all: tasks run in the
  calling process, which keeps tracebacks simple and is the reference
  behaviour the parallel path must match.

Tasks must be module-level callables with picklable arguments.  When a
task or argument cannot be pickled the executor degrades to the serial
path rather than crashing — parallelism is an optimisation, never a
correctness requirement.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .. import telemetry
from ..errors import EvaluationError

__all__ = ["ParallelExecutor", "clamp_jobs", "default_jobs"]

T = TypeVar("T")


def clamp_jobs(jobs: int, *, source: str = "--jobs") -> int:
    """Clamp a requested worker count to the CPUs actually available.

    Workers beyond ``os.cpu_count()`` only time-slice the same cores, and
    the fork/IPC overhead makes the "parallel" run *slower* than serial —
    an oversubscription artifact that reads as a parallelism regression in
    benchmarks.  Entry points that accept a request (``--jobs``,
    ``REPRO_JOBS``) clamp through here; constructing
    :class:`ParallelExecutor` directly stays unclamped, so tests and
    callers that deliberately oversubscribe still can.

    Emits a one-line :class:`RuntimeWarning` and bumps the
    ``runtime.jobs.clamped`` counter when the request is reduced.
    """
    cpus = os.cpu_count() or 1
    if jobs > cpus:
        warnings.warn(
            f"{source}={jobs} exceeds the {cpus} available CPU(s); clamping "
            f"to {cpus} (oversubscribed workers time-slice one core and run "
            "slower than serial)",
            RuntimeWarning,
            stacklevel=2,
        )
        telemetry.counter_add("runtime.jobs.clamped")
        return cpus
    return jobs


def default_jobs() -> int:
    """Job count from ``REPRO_JOBS`` (default 1: deterministic serial),
    clamped to the available CPUs."""
    value = os.environ.get("REPRO_JOBS", "").strip()
    if not value:
        return 1
    return clamp_jobs(max(1, int(value)), source="REPRO_JOBS")


def _call(task: tuple[Callable[..., T], tuple]) -> T:
    function, args = task
    return function(*args)


def _call_traced(task: tuple[Callable[..., T], tuple]) -> tuple[T, dict]:
    """Run one task in a worker with telemetry capture.

    The worker records into a fresh registry (forked workers inherit the
    coordinator's counts, which must not be double-reported), wraps the
    task in an ``executor.task`` span, and ships the snapshot *delta* back
    alongside the result for the coordinator to merge in submission order.
    """
    function, args = task
    telemetry._begin_worker_capture()
    with telemetry.span("executor.task", function=function.__name__):
        result = function(*args)
    return result, telemetry.snapshot()


@dataclass(frozen=True)
class ParallelExecutor:
    """Ordered fan-out of independent tasks over worker processes.

    Attributes:
        jobs: worker-process count; ``1`` means run serially in-process.
        chunksize: tasks handed to a worker per dispatch (keep at 1 for
            coarse tasks like training runs).
    """

    jobs: int = 1
    chunksize: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise EvaluationError("jobs must be >= 1")
        if self.chunksize < 1:
            raise EvaluationError("chunksize must be >= 1")

    @property
    def is_parallel(self) -> bool:
        return self.jobs > 1

    def map(self, function: Callable[..., T], items: Iterable[Any]) -> list[T]:
        """Apply ``function`` to each item; results in input order."""
        return self.starmap(function, [(item,) for item in items])

    def starmap(
        self, function: Callable[..., T], argument_tuples: Sequence[tuple]
    ) -> list[T]:
        """Apply ``function`` to each argument tuple; results in input order."""
        tasks = [(function, tuple(args)) for args in argument_tuples]
        if not tasks:
            return []
        traced = telemetry.enabled()
        if traced:
            telemetry.counter_add("executor.batches")
            telemetry.counter_add("executor.tasks", len(tasks))
            telemetry.gauge_set("executor.jobs", self.jobs)
        if self.is_parallel and len(tasks) > 1 and _picklable(tasks):
            # fork is markedly cheaper than spawn and available on the
            # platforms the suite targets; fall back where it is not.
            methods = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in methods else None
            context = multiprocessing.get_context(method)
            workers = min(self.jobs, len(tasks))
            with ProcessPoolExecutor(
                max_workers=workers, mp_context=context
            ) as pool:
                if not traced:
                    return list(pool.map(_call, tasks, chunksize=self.chunksize))
                # Workers capture per-task telemetry deltas; merging them in
                # submission order makes the coordinator's registry match a
                # serial run's (see tests/test_telemetry.py::TestJobsParity).
                pairs = list(pool.map(_call_traced, tasks, chunksize=self.chunksize))
                for _, delta in pairs:
                    telemetry.merge_snapshot(delta)
                return [result for result, _ in pairs]
        if not traced:
            return [function(*args) for _, args in tasks]
        results = []
        for task_function, args in tasks:
            with telemetry.span("executor.task", function=task_function.__name__):
                results.append(task_function(*args))
        return results


def _picklable(tasks: list[tuple[Callable, tuple]]) -> bool:
    try:
        pickle.dumps(tasks)
    except Exception:
        return False
    return True
