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


def reference_check_trace(trace, epsilon=None):
    """The per-pid reference of :func:`repro.core.specification.check_trace`.

    Validity, P1 and P2 are decided and worded by per-process loops
    over freshly sorted ``ValueMultiset``s -- the checkers as they were
    before their passing path became a few ``min``/``max`` passes.  The
    library's verdict on a full trace must equal this one check for
    check: ``holds``, ``details`` and ``skipped``.
    """
    from repro.core.specification import (
        FLOAT_TOLERANCE,
        PropertyCheck,
        SpecVerdict,
        check_epsilon_agreement,
        check_termination,
    )

    def round_p1(record):
        violations = []
        honest = record.honest_sent_values()
        if len(honest) == 0:
            return violations
        interval = honest.range()
        for pid, application in record.applications.items():
            if not interval.contains(application.result, FLOAT_TOLERANCE):
                violations.append(
                    f"round {record.round_index} p{pid}: "
                    f"{application.result:.4g} "
                    f"outside [{interval.low:.4g}, {interval.high:.4g}]"
                )
        return violations

    def round_p2(record):
        violations = []
        honest = record.honest_sent_values()
        if len(honest) == 0:
            return violations
        delta = honest.diameter()
        results = [
            record.applications[pid].result
            for pid in sorted(record.applications)
        ]
        if not results:
            return violations
        spread = max(results) - min(results)
        if delta <= FLOAT_TOLERANCE:
            if spread > FLOAT_TOLERANCE:
                violations.append(
                    f"round {record.round_index}: spread {spread:.4g} "
                    "with agreeing correct senders"
                )
        elif spread >= delta - FLOAT_TOLERANCE and spread > FLOAT_TOLERANCE:
            violations.append(
                f"round {record.round_index}: spread {spread:.4g} "
                f"not strictly below delta(U)={delta:.4g}"
            )
        return violations

    def per_round(name, round_check):
        violations = []
        for record in trace.rounds:
            violations.extend(round_check(record))
        holds = not violations
        return PropertyCheck(name, holds, "" if holds else "; ".join(violations[:5]))

    def validity():
        interval = trace.validity_interval()
        out_of_range = []
        for pid, value in trace.decisions.items():
            if not interval.contains(value, FLOAT_TOLERANCE):
                out_of_range.append(f"decision p{pid}={value:.4g}")
        for record in trace.rounds:
            for pid, value in record.nonfaulty_values_after().items():
                if not interval.contains(value, FLOAT_TOLERANCE):
                    out_of_range.append(
                        f"round {record.round_index} p{pid}={value:.4g}"
                    )
        holds = not out_of_range
        details = (
            f"range [{interval.low:.4g}, {interval.high:.4g}]"
            if holds
            else "; ".join(out_of_range[:5])
        )
        return PropertyCheck("Validity", holds, details)

    return SpecVerdict(
        termination=check_termination(trace),
        epsilon_agreement=check_epsilon_agreement(trace, epsilon),
        validity=validity(),
        p1=per_round("P1", round_p1),
        p2=per_round("P2", round_p2),
    )
