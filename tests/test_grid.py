"""Tests for the generic resumable grid runner (``repro.runtime.grid``).

The runner's contract: cells are pure functions of (config, point, derived
seed), persisted worker-side under a content key, so a grid resumes
bit-identical after any interruption and runs bit-identical at any job
count.  These tests pin that contract with a cheap synthetic cell; the
end-to-end robustness/accuracy instantiations are covered in
``test_robustness_grid.py`` and ``test_eval.py``.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.errors import EvaluationError
from repro.runtime import (
    ArtifactCache,
    GridAxis,
    GridResult,
    GridSpec,
    ParallelExecutor,
    run_grid,
)
from repro.runtime.grid import grid_cells_cached


def _affine_cell(point, config, seed, cache):
    """Module-level (picklable) synthetic cell: pure in its arguments."""
    scale = config["scale"] if config else 1
    return {"value": point["x"] * scale + point["y"], "seed": seed}


def _spec(seed: int = 0, scale: int = 3, version: int = 1) -> GridSpec:
    return GridSpec(
        name="test-affine",
        axes=(GridAxis("x", (1, 2, 3)), GridAxis("y", (10, 20))),
        cell=_affine_cell,
        config={"scale": scale},
        seed=seed,
        version=version,
    )


class TestGridSpec:
    def test_points_last_axis_fastest(self):
        points = _spec().points()
        assert points[0] == {"x": 1, "y": 10}
        assert points[1] == {"x": 1, "y": 20}
        assert points[2] == {"x": 2, "y": 10}
        assert len(points) == _spec().n_cells == 6

    def test_axis_validation(self):
        with pytest.raises(EvaluationError, match="no values"):
            GridAxis("x", ())
        with pytest.raises(EvaluationError, match="repeats"):
            GridAxis("x", (1, 1))
        with pytest.raises(EvaluationError, match="needs a name"):
            GridAxis("", (1,))
        with pytest.raises(EvaluationError, match="duplicate axis"):
            GridSpec(
                name="dup",
                axes=(GridAxis("x", (1,)), GridAxis("x", (2,))),
                cell=_affine_cell,
            )
        with pytest.raises(EvaluationError, match="at least one axis"):
            GridSpec(name="empty", axes=(), cell=_affine_cell)

    def test_cell_key_covers_all_inputs(self):
        base = _spec()
        point = base.points()[0]
        assert base.cell_key(point) == _spec().cell_key(point)
        assert base.cell_key(point) != _spec(seed=1).cell_key(point)
        assert base.cell_key(point) != _spec(scale=4).cell_key(point)
        assert base.cell_key(point) != _spec(version=2).cell_key(point)
        assert base.cell_key(point) != base.cell_key(base.points()[1])

    def test_cell_seeds_independent_and_stable(self):
        spec = _spec()
        seeds = [spec.cell_seed(point) for point in spec.points()]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [spec.cell_seed(point) for point in spec.points()]
        # The derived seed depends on the master seed.
        assert seeds != [_spec(seed=9).cell_seed(p) for p in _spec().points()]


class TestRunGrid:
    def test_computes_every_cell_in_point_order(self):
        result = run_grid(_spec())
        assert isinstance(result, GridResult)
        assert result.computed == 6 and result.resumed == 0
        for point, cell in result:
            assert cell["value"] == point["x"] * 3 + point["y"]
            assert cell["seed"] == _spec().cell_seed(point)

    def test_resume_loads_cached_cells(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        first = run_grid(_spec(), cache=cache)
        assert (first.computed, first.resumed) == (6, 0)
        second = run_grid(_spec(), cache=cache)
        assert (second.computed, second.resumed) == (0, 6)
        assert second.cells == first.cells

    def test_partial_resume_computes_only_missing(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        narrow = GridSpec(
            name="test-affine",
            axes=(GridAxis("x", (1, 2)), GridAxis("y", (10, 20))),
            cell=_affine_cell,
            config={"scale": 3},
        )
        run_grid(narrow, cache=cache)
        # Widening an axis reuses the shared cells: keys hash the point,
        # not the axis lists.
        result = run_grid(_spec(), cache=cache)
        assert (result.resumed, result.computed) == (4, 2)
        assert result.cells == run_grid(_spec()).cells

    def test_resume_false_recomputes_but_persists(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        result = run_grid(_spec(), cache=cache, resume=False)
        assert (result.computed, result.resumed) == (6, 0)
        resumed = run_grid(_spec(), cache=cache)
        assert (resumed.computed, resumed.resumed) == (0, 6)

    def test_config_change_invalidates_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        run_grid(_spec(scale=3), cache=cache)
        result = run_grid(_spec(scale=4), cache=cache)
        assert result.computed == 6 and result.resumed == 0
        assert result.points[0] == {"x": 1, "y": 10}
        assert result.cells[0]["value"] == 14

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_grid(_spec())
        parallel = run_grid(_spec(), executor=ParallelExecutor(jobs=2))
        assert parallel.cells == serial.cells

    def test_grid_cells_cached_probe(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert grid_cells_cached(_spec(), cache) == 0
        run_grid(_spec(), cache=cache)
        assert grid_cells_cached(_spec(), cache) == 6
        assert grid_cells_cached(_spec(seed=1), cache) == 0

    def test_telemetry_counters(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        telemetry.enable()
        try:
            run_grid(_spec(), cache=cache)
            run_grid(_spec(), cache=cache)
            counters = telemetry.snapshot()["counters"]
        finally:
            telemetry.disable()
        assert counters["grid.cells"] == 12
        assert counters["grid.cells.computed"] == 6
        assert counters["grid.cells.resumed"] == 6
