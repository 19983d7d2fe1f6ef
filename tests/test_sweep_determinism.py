"""Determinism regression tests for the sweep engine.

The sweep contract is that a grid fully determines its result: running
it twice, with any worker count, in any cell order, yields identical
aggregates.  This rests on the ``derive_rng`` seed-derivation contract
-- every cell's randomness is derived from its own seed via stable
string keys, never from process-global state -- which these tests guard
under process pools.
"""

from __future__ import annotations

import random

import pytest

from tests.helpers import reference_sweep, small_grid

from repro.runtime import derive_rng
from repro.sweep import run_cell, run_sweep


@pytest.fixture(scope="module")
def grid():
    return small_grid()


class TestRepeatedRuns:
    def test_same_grid_twice_is_identical(self, grid):
        first = run_sweep(grid, workers=1)
        second = run_sweep(grid, workers=1)
        assert first.cells == second.cells
        assert first.summary_table() == second.summary_table()

    def test_global_rng_state_is_irrelevant(self, grid):
        random.seed(12345)
        first = run_sweep(grid, workers=1)
        random.seed(99999)
        random.random()
        second = run_sweep(grid, workers=1)
        assert first.cells == second.cells

    def test_cell_order_is_irrelevant(self, grid):
        cells = list(grid.cells())
        shuffled = list(reversed(cells))
        assert run_sweep(cells).cells == run_sweep(shuffled).cells


class TestWorkerCounts:
    @pytest.fixture(scope="class")
    def reference(self, grid):
        return reference_sweep(grid)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_aggregate_tables_identical(self, grid, reference, workers):
        result = run_sweep(grid, workers=workers)
        assert result.cells == reference.cells
        assert result.summary_table() == reference.summary_table()
        assert result.cell_table() == reference.cell_table()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_series_identical(self, grid, reference, workers):
        result = run_sweep(grid, workers=workers)
        assert result.diameter_series() == reference.diameter_series()


class TestSeedDerivationContract:
    """The properties parallel determinism relies on."""

    def test_derive_rng_is_stable_across_instances(self):
        a = derive_rng(7, "adversary")
        b = derive_rng(7, "adversary")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent(self):
        a = derive_rng(7, "adversary")
        a.random()
        b = derive_rng(7, "workload")
        c = derive_rng(7, "workload")
        assert b.random() == c.random()

    def test_cell_result_is_pure_function_of_cell(self, grid):
        cell = next(iter(grid.cells()))
        in_sweep = run_sweep(grid, workers=2).by_key()[cell.key]
        standalone = run_cell(cell)
        assert standalone == in_sweep


class TestEngineValidation:
    def test_duplicate_cells_rejected(self, grid):
        cells = list(grid.cells())
        with pytest.raises(ValueError, match="duplicate"):
            run_sweep(cells + cells[:1])

    def test_invalid_trace_detail_rejected(self, grid):
        with pytest.raises(ValueError, match="trace_detail"):
            run_sweep(grid, trace_detail="medium")

    def test_gridspec_rejects_ambiguous_integer_seeds(self):
        from repro.sweep import GridSpec

        with pytest.raises(TypeError, match="ambiguous"):
            GridSpec(seeds=16)

    def test_below_bound_cell_reported_as_error(self):
        from repro.sweep import CellSpec

        cell = CellSpec(
            model="M3",
            f=2,
            n=5,  # below Table 2's 4f+1 = 9
            algorithm="ftm",
            movement="round-robin",
            attack="split",
            epsilon=1e-3,
            seed=0,
        )
        result = run_sweep([cell])
        assert len(result.errors()) == 1
        assert not result.all_satisfied
        assert "bound" in result.errors()[0].error
