"""Tseng's consistency filter, pinned to a recorded golden.

The per-cell reference and the cross-run engine fold Tseng rounds
through the same ``TsengProtocol.run_round``, so a slip in its
acceptance test -- a cured sender's claim checked against what each
recipient heard from it last round -- would pass every identity suite
that only compares the two paths with each other.  This file compares
them with ``tests/golden/tseng_sweep.txt`` instead, recorded before the
filter read acceptance bits per camp.  The grid covers both outbox
shapes the filter reads: camp outboxes (split, and crossfire's
per-sender camp values) and materialized per-recipient outboxes
(inertia, which declares no camps).

Regenerate (only when a change is *meant* to alter Tseng results) with::

    PYTHONPATH=src:. python -m tests.test_tseng_golden > tests/golden/tseng_sweep.txt
"""

from __future__ import annotations

import pathlib

import pytest

from repro.sweep import GridSpec, SweepResult, run_cell, run_sweep
from tests.test_noise_golden import render

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "tseng_sweep.txt"

TSENG_GRID = GridSpec(
    models=("M1", "M2", "M3", "M4"),
    fs=(2,),
    movements=("round-robin", "random"),
    attacks=("split", "crossfire", "inertia"),
    seeds=(0, 1),
    rounds=20,
    families=("tseng",),
)


@pytest.fixture(scope="module")
def golden() -> str:
    return GOLDEN.read_text()


def test_grid_runs_clean(golden):
    assert len(TSENG_GRID) == 48
    assert "error=None" in golden and "error='" not in golden


def test_cross_run_sweep_reproduces_golden(golden):
    assert render(run_sweep(TSENG_GRID)) == golden


def test_run_cell_loop_reproduces_golden(golden):
    results = [run_cell(cell) for cell in TSENG_GRID.cells()]
    result = SweepResult(
        cells=tuple(sorted(results, key=lambda result: result.key)),
        trace_detail="lite",
    )
    assert render(result) == golden


if __name__ == "__main__":
    print(render(run_sweep(TSENG_GRID)), end="")
