"""Shared builders for the test suite."""

from __future__ import annotations

from repro.core.mapping import msr_trim_parameter
from repro.faults import Adversary, get_semantics
from repro.faults.movement import RoundRobinWalk
from repro.faults.value_strategies import SplitAttack
from repro.msr import ValueMultiset, make_algorithm
from repro.runtime import (
    FixedRounds,
    MobileFaultSetup,
    SimulationConfig,
    run_simulation,
)
from repro.sweep import GridSpec


def make_mobile_config(
    model,
    f=1,
    n=None,
    algorithm="ftm",
    movement=None,
    values=None,
    initial_values=None,
    rounds=15,
    seed=0,
    bound_check="error",
    epsilon=1e-3,
    max_rounds=1_000,
    termination=None,
):
    """Compact config builder for runtime-level tests."""
    semantics = get_semantics(model)
    if n is None:
        n = semantics.required_n(f)
    if initial_values is None:
        initial_values = tuple(i / max(1, n - 1) for i in range(n))
    function = (
        make_algorithm(algorithm, msr_trim_parameter(model, f))
        if isinstance(algorithm, str)
        else algorithm
    )
    adversary = Adversary(
        movement=movement if movement is not None else RoundRobinWalk(),
        values=values if values is not None else SplitAttack(),
    )
    return SimulationConfig(
        n=n,
        f=f,
        initial_values=tuple(initial_values),
        algorithm=function,
        setup=MobileFaultSetup(model=semantics.model, adversary=adversary),
        termination=termination if termination is not None else FixedRounds(rounds),
        epsilon=epsilon,
        seed=seed,
        max_rounds=max_rounds,
        bound_check=bound_check,
    )


def run_mobile(model, **kwargs):
    """Build and run a mobile simulation in one call."""
    return run_simulation(make_mobile_config(model, **kwargs))


def multiset(*values):
    """Shorthand multiset constructor for test bodies."""
    return ValueMultiset(values)


def small_grid(seeds=2, rounds=6):
    """The canonical tiny sweep grid shared by tests and benchmarks.

    3 models x 2 algorithms x 2 attacks x ``seeds`` seeds (24 cells at
    the default), each cell at its model's minimum ``n`` with a fixed
    round budget, so the whole grid runs in well under a second.
    """
    return GridSpec(
        models=("M1", "M2", "M3"),
        fs=(1,),
        algorithms=("ftm", "fta"),
        movements=("round-robin",),
        attacks=("split", "outlier"),
        epsilons=(1e-3,),
        seeds=tuple(range(seeds)),
        rounds=rounds,
    )


def reference_sweep(cells, trace_detail="lite", probe=None):
    """The per-cell reference of a sweep: one ``run_cell`` per cell.

    ``cells`` is a :class:`GridSpec` or an iterable of cells.  The
    result is the key-sorted :class:`SweepResult` a sweep of the same
    cells must equal bit for bit, whatever backend or cache state the
    sweep ran under -- the cross-run engine is checked against this,
    never against itself.
    """
    from repro.sweep import SweepResult, run_cell

    if isinstance(cells, GridSpec):
        cells = cells.cells()
    results = [
        run_cell(cell, trace_detail=trace_detail, probe=probe)
        for cell in cells
    ]
    return SweepResult(
        cells=tuple(sorted(results, key=lambda result: result.key)),
        trace_detail=trace_detail,
    )
