"""Resumable measurement grids: one spec, any cell function.

A *grid* is the cartesian product of named axes — (program × model ×
attack × severity), (program), ... — where every cell is a pure
function of (spec configuration, cell point, derived seed).  That purity
buys three properties the evaluation layer keeps re-implementing, now in
one place:

* **fan-out** — cells are independent, so the whole grid runs through a
  :class:`~repro.runtime.executor.ParallelExecutor` at once, bit-identical
  to a serial run (each cell derives its own seed; no shared RNG);
* **resume** — each cell's result is persisted to an
  :class:`~repro.runtime.cache.ArtifactCache` under a content hash of its
  exact inputs *by the worker that computed it*, write-then-rename atomic.
  A run killed mid-grid (``SIGKILL`` included) resumes from the completed
  cells and recomputes only the missing ones; because cells are pure, the
  resumed results are bit-identical to an uninterrupted run;
* **one surface** — :func:`repro.api.run_grid` takes any
  :class:`GridSpec`; the accuracy grid
  (:func:`repro.eval.runners.accuracy_grid`) and the adversarial
  robustness grid (:func:`repro.robustness.robustness_grid`) are two
  instances of the same machinery.

Cell functions must be **module-level callables** (they cross process
boundaries) with the signature ``cell(point, config, seed, cache)`` where
``point`` is a dict of axis values, ``config`` is the spec's opaque config
object, ``seed`` is the per-cell derived seed, and ``cache`` is the
artifact cache handle (or ``None``).  The return value must pickle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from .. import telemetry
from ..errors import EvaluationError
from .cache import ArtifactCache, derive_seed, stable_hash
from .executor import ParallelExecutor

__all__ = ["GridAxis", "GridResult", "GridSpec", "run_grid"]


@dataclass(frozen=True)
class GridAxis:
    """One named dimension of a grid (e.g. ``program``, ``severity``)."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.name:
            raise EvaluationError("grid axis needs a name")
        if not self.values:
            raise EvaluationError(f"grid axis {self.name!r} has no values")
        if len(set(self.values)) != len(self.values):
            raise EvaluationError(f"grid axis {self.name!r} repeats values")


@dataclass(frozen=True)
class GridSpec:
    """A complete, picklable description of one measurement grid.

    Attributes:
        name: grid family name; part of every cell's cache key, so two
            different grids never collide in a shared cache.
        axes: the grid dimensions, in iteration order (the last axis
            varies fastest).
        cell: module-level callable ``(point, config, seed, cache)`` that
            computes one cell.  Must be picklable by reference and
            deterministic in its arguments — resume correctness depends
            on it.
        config: opaque per-grid configuration handed to every cell;
            hashed into the cache key, so a config change invalidates
            cached cells.
        seed: master seed; each cell derives an independent child seed
            from it and its point.
        version: artifact format version; bump when the cell's *output*
            shape changes so stale cached cells are not resumed into a
            new-format run.
    """

    name: str
    axes: tuple[GridAxis, ...]
    cell: Callable[[Mapping[str, Any], Any, int, ArtifactCache | None], Any]
    config: Any = None
    seed: int = 0
    version: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise EvaluationError("grid spec needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise EvaluationError(f"duplicate axis names in {names}")

    @property
    def n_cells(self) -> int:
        product = 1
        for axis in self.axes:
            product *= len(axis.values)
        return product

    def points(self) -> list[dict[str, Any]]:
        """Every cell point in deterministic order (last axis fastest)."""
        return [
            dict(zip([axis.name for axis in self.axes], combo))
            for combo in itertools.product(*(axis.values for axis in self.axes))
        ]

    def cell_key(self, point: Mapping[str, Any]) -> str:
        """Content hash of everything one cell's result depends on."""
        return stable_hash(
            {
                "artifact": "grid_cell",
                "grid": self.name,
                "version": self.version,
                "seed": self.seed,
                "config": self.config,
                "point": dict(point),
            }
        )

    def cell_seed(self, point: Mapping[str, Any]) -> int:
        """The cell's independent derived seed (see :func:`derive_seed`)."""
        return derive_seed(self.seed, self.name, sorted(point.items()))


@dataclass
class GridResult:
    """All cell results of one grid run, resume bookkeeping included.

    ``cells`` aligns with ``points`` (the spec's deterministic order), so
    ``zip(result.points, result.cells)`` walks the grid regardless of how
    many cells were resumed versus computed.
    """

    spec: GridSpec
    points: list[dict[str, Any]]
    cells: list[Any]
    resumed: int = 0
    computed: int = 0
    elapsed_s: float = 0.0
    resumed_keys: tuple[str, ...] = field(default_factory=tuple, repr=False)

    def __iter__(self) -> Iterator[tuple[dict[str, Any], Any]]:
        return iter(zip(self.points, self.cells))

    def cell(self, **coords: Any) -> Any:
        """The result at one exact point (every axis named)."""
        for point, cell in zip(self.points, self.cells):
            if point == coords:
                return cell
        raise EvaluationError(f"no grid cell at {coords}")

    def select(self, **coords: Any) -> list[tuple[dict[str, Any], Any]]:
        """All (point, cell) pairs matching a partial point."""
        return [
            (point, cell)
            for point, cell in zip(self.points, self.cells)
            if all(point.get(k) == v for k, v in coords.items())
        ]


def _run_cell_task(
    spec: GridSpec,
    point: dict[str, Any],
    key: str,
    cache: ArtifactCache | None,
) -> Any:
    """Compute one cell and persist it immediately (worker-side).

    Persisting from the worker — not the coordinator — is what makes a
    ``SIGKILL`` mid-grid resumable: every cell that finished before the
    kill is already on disk under its content key (the cache's
    write-then-rename keeps concurrent writers safe), so the resumed run
    recomputes only genuinely unfinished cells.
    """
    with telemetry.span("grid.cell", grid=spec.name):
        result = spec.cell(point, spec.config, spec.cell_seed(point), cache)
    if cache is not None:
        cache.put_object(key, result)
    telemetry.counter_add("grid.cells.computed")
    return result


def run_grid(
    spec: GridSpec,
    executor: ParallelExecutor | None = None,
    cache: ArtifactCache | None = None,
    resume: bool = True,
) -> GridResult:
    """Run (or resume) every cell of ``spec``; results in point order.

    Args:
        spec: the grid description (axes, cell function, config, seed).
        executor: fan-out width; default serial.  Results are
            bit-identical at any job count.
        cache: artifact cache for per-cell persistence.  Without one the
            grid still runs, but nothing is resumable.
        resume: when ``True`` (default), cells whose content key is
            already cached are loaded instead of recomputed.  ``False``
            recomputes everything (still writing results through, so a
            later resume sees fresh artifacts).

    Returns:
        A :class:`GridResult`; ``resumed``/``computed`` report how much
        work the cache saved.
    """
    import time

    executor = executor or ParallelExecutor(jobs=1)
    points = spec.points()
    keys = [spec.cell_key(point) for point in points]
    started = time.perf_counter()

    cells: list[Any] = [None] * len(points)
    pending: list[int] = []
    resumed_keys: list[str] = []
    with telemetry.span("grid.run", grid=spec.name):
        telemetry.counter_add("grid.cells", len(points))
        if cache is not None and resume:
            for index, key in enumerate(keys):
                cached = cache.get_object(key)
                if cached is not None:
                    cells[index] = cached
                    resumed_keys.append(key)
                    telemetry.counter_add("grid.cells.resumed")
                else:
                    pending.append(index)
        else:
            pending = list(range(len(points)))

        if pending:
            computed = executor.starmap(
                _run_cell_task,
                [(spec, points[i], keys[i], cache) for i in pending],
            )
            for index, result in zip(pending, computed):
                cells[index] = result

    return GridResult(
        spec=spec,
        points=points,
        cells=cells,
        resumed=len(resumed_keys),
        computed=len(pending),
        elapsed_s=time.perf_counter() - started,
        resumed_keys=tuple(resumed_keys),
    )


def grid_cells_cached(
    spec: GridSpec, cache: ArtifactCache, points: Sequence[Mapping[str, Any]] | None = None
) -> int:
    """How many of the spec's cells are already resumable from ``cache``.

    Probes existence without counting cache-stats hits/misses (it peeks at
    the paths directly), so a progress probe does not skew telemetry.
    """
    if points is None:
        points = spec.points()
    return sum(
        1
        for point in points
        if cache._object_path(spec.cell_key(point)).exists()
    )
