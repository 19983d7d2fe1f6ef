"""The noise attack's outputs, pinned to a recorded golden.

``RandomNoise`` is the one built-in attack that draws from the
adversary rng per message, so its results hinge on the *order* of
those draws.  The per-cell reference (``run_cell``) and the cross-run
engine both plan faults through the same strategy hooks, so a draw-
order slip in the strategy would pass every identity suite that only
compares the two paths with each other.  This file compares them with
``tests/golden/noise_sweep.txt`` instead: the rendering of a small
noise grid recorded before ``RandomNoise`` declared recipient camps.

Regenerate (only when a change is *meant* to alter noise results) with::

    PYTHONPATH=src:. python -m tests.test_noise_golden > tests/golden/noise_sweep.txt
"""

from __future__ import annotations

import pathlib

import pytest

from repro.sweep import GridSpec, SweepResult, run_cell, run_sweep

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "noise_sweep.txt"

NOISE_GRID = GridSpec(
    models=("M1", "M2", "M3", "M4"),
    fs=(2,),
    movements=("round-robin", "random"),
    attacks=("noise",),
    seeds=(0, 1),
    rounds=20,
    families=("bonomi", "tseng"),
)


def render(result: SweepResult) -> str:
    """The summary rows, then each cell's decisions and round extents."""
    lines = [repr(row) for row in result.summary_rows()]
    for cell in result.cells:
        lines.append(cell.spec.describe())
        lines.append(f"  rounds={cell.rounds!r} error={cell.error!r}")
        lines.append(f"  decisions={cell.decisions!r}")
        lines.append(f"  diameters={cell.diameters!r}")
    return "\n".join(lines) + "\n"


def per_cell(trace_detail: str) -> SweepResult:
    results = [
        run_cell(cell, trace_detail=trace_detail) for cell in NOISE_GRID.cells()
    ]
    return SweepResult(
        cells=tuple(sorted(results, key=lambda result: result.key)),
        trace_detail=trace_detail,
    )


@pytest.fixture(scope="module")
def golden() -> str:
    return GOLDEN.read_text()


def test_grid_covers_both_families_and_runs_clean(golden):
    assert len(NOISE_GRID) == 32
    assert "fam=tseng" in golden
    assert "error=None" in golden and "error='" not in golden


def test_cross_run_sweep_reproduces_golden(golden):
    assert render(run_sweep(NOISE_GRID)) == golden


@pytest.mark.parametrize("trace_detail", ["lite", "full"])
def test_run_cell_loop_reproduces_golden(golden, trace_detail):
    assert render(per_cell(trace_detail)) == golden


if __name__ == "__main__":
    print(render(run_sweep(NOISE_GRID)), end="")
