"""Specification checkers for Byzantine Approximate Agreement.

Paper Section 3 ("Byzantine Approximate Agreement specification"):

* **Termination** -- all non-faulty processes eventually decide;
* **epsilon-Agreement** -- decisions of any two non-faulty processes
  are within ``epsilon`` of each other;
* **Validity** -- every non-faulty decision lies in the range of the
  initial values of the non-faulty processes.

plus the per-round MSR properties of Section 5.1:

* **P1** -- every computed value lies in ``rho(U)``, the range of the
  values generated by correct processes this round;
* **P2** -- any two computed values differ by strictly less than
  ``delta(U)``.

and the *Simple Approximate Agreement* of Section 6 (used by the lower
bounds): outputs must span strictly less than the inputs (or exactly 0
when the inputs already agree), and lie in the inputs' range.

All checkers consume traces / plain values and return structured
verdicts, never booleans alone -- experiment tables print the details.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from ..msr.multiset import ValueMultiset
from ..runtime.trace import LiteTrace, RoundRecord, Trace

__all__ = [
    "PropertyCheck",
    "SpecVerdict",
    "check_validity",
    "check_epsilon_agreement",
    "check_termination",
    "check_p1",
    "check_p2",
    "check_trace",
    "check_simple_agreement",
    "SimpleAgreementVerdict",
]

#: Absolute slack absorbing floating-point noise in long executions.
FLOAT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class PropertyCheck:
    """Outcome of one property check.

    ``skipped=True`` marks a property that was *not evaluated* (e.g.
    P1/P2 on a lite trace, which carries no message records).  A skipped
    check is not a violation -- it stays truthy and absent from
    :meth:`SpecVerdict.failures` -- but it never counts as *proven*:
    :attr:`SpecVerdict.all_satisfied` refuses to claim invariants that
    were never checked.
    """

    name: str
    holds: bool
    details: str = ""
    skipped: bool = False

    def __bool__(self) -> bool:
        return self.holds

    def __str__(self) -> str:
        status = "SKIPPED" if self.skipped else "OK" if self.holds else "VIOLATED"
        suffix = f" ({self.details})" if self.details else ""
        return f"{self.name}: {status}{suffix}"


@dataclass(frozen=True)
class SpecVerdict:
    """Full verdict of a trace against the paper's specification."""

    termination: PropertyCheck
    epsilon_agreement: PropertyCheck
    validity: PropertyCheck
    p1: PropertyCheck
    p2: PropertyCheck

    @property
    def satisfied(self) -> bool:
        """The three headline properties of the specification."""
        return bool(
            self.termination and self.epsilon_agreement and self.validity
        )

    @property
    def all_satisfied(self) -> bool:
        """Headline properties plus the per-round P1/P2 invariants.

        False when P1/P2 were skipped (lite traces): an unevaluated
        invariant is not a verified one.
        """
        return (
            self.satisfied
            and bool(self.p1)
            and not self.p1.skipped
            and bool(self.p2)
            and not self.p2.skipped
        )

    def failures(self) -> list[PropertyCheck]:
        """Every violated property, for reporting."""
        checks = [
            self.termination,
            self.epsilon_agreement,
            self.validity,
            self.p1,
            self.p2,
        ]
        return [check for check in checks if not check]

    def __str__(self) -> str:
        checks = [
            self.termination,
            self.epsilon_agreement,
            self.validity,
            self.p1,
            self.p2,
        ]
        return "; ".join(str(check) for check in checks)


def check_termination(trace: Trace | LiteTrace) -> PropertyCheck:
    """Termination: the rule fired before the round cap."""
    details = f"{trace.rounds_executed()} rounds"
    if not trace.terminated:
        details += " (round cap exhausted without deciding)"
    return PropertyCheck("Termination", trace.terminated, details)


def check_epsilon_agreement(
    trace: Trace | LiteTrace, epsilon: float | None = None
) -> PropertyCheck:
    """epsilon-Agreement over the decided values."""
    eps = trace.epsilon if epsilon is None else epsilon
    spread = trace.decision_diameter()
    holds = spread <= eps + FLOAT_TOLERANCE
    return PropertyCheck(
        "eps-Agreement",
        holds,
        f"decision spread {spread:.4g} vs eps {eps:g}",
    )


def check_validity(trace: Trace | LiteTrace) -> PropertyCheck:
    """Validity: decisions (and every intermediate non-faulty value)
    stay within the range of the initially non-faulty inputs.

    On a :class:`LiteTrace` the per-round check runs on the recorded
    non-faulty extents (min/max); the verdict is boolean-identical to
    the full-trace check, only the per-process detail strings differ.
    On a full trace a round passes on one ``min``/``max`` pass over its
    non-faulty values; only a failing round runs the per-pid loop.
    """
    interval = trace.validity_interval()
    out_of_range: list[str] = []
    for pid, value in trace.decisions.items():
        if not interval.contains(value, FLOAT_TOLERANCE):
            out_of_range.append(f"decision p{pid}={value:.4g}")
    if isinstance(trace, LiteTrace):
        for round_index, extent in enumerate(trace.round_extents):
            if extent is None:
                continue
            low, high = extent
            if not (
                interval.contains(low, FLOAT_TOLERANCE)
                and interval.contains(high, FLOAT_TOLERANCE)
            ):
                out_of_range.append(
                    f"round {round_index} extent [{low:.4g}, {high:.4g}]"
                )
    else:
        low = interval.low - FLOAT_TOLERANCE
        high = interval.high + FLOAT_TOLERANCE
        for record in trace.rounds:
            values = _nonfaulty_after(record)
            if not values or _extent_within(values, low, high):
                continue
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


def _nonfaulty_after(record: RoundRecord) -> list[float]:
    """End-of-round values of the processes not occupied afterwards."""
    after = record.values_after
    occupied = record.positions_after
    if not occupied:
        return list(after.values())
    return [value for pid, value in after.items() if pid not in occupied]


def _extent_within(values: list[float], low: float, high: float) -> bool:
    """Whether every value lies in ``[low, high]``: two C-level passes.

    A NaN hides from ``min``/``max``, so a NaN sum sends the caller to
    its per-pid loop (which also words the details).
    """
    total = sum(values)
    return total == total and low <= min(values) and max(values) <= high


#: Extents of a round with nothing to check (no honest sender, or no
#: process computed): P1 and P2 both hold on them.
_VACUOUS = (0.0, 0.0, 0.0, 0.0)


def _round_extents(record: RoundRecord) -> tuple[float, ...] | None:
    """``(min U, max U, min result, max result)`` of one round.

    Returns :data:`_VACUOUS` when P1/P2 hold without looking, and
    ``None`` when a NaN leaves the verdict to the per-pid reference
    loops (which raise ``ValueError`` on a NaN in ``U``, as
    :class:`~repro.msr.multiset.ValueMultiset` does).
    """
    honest = record.sent_values(record.correct_at_send)
    if not honest:
        return _VACUOUS
    total = sum(honest)
    if total != total:
        return None
    results = record.computed_results()
    if not results:
        return _VACUOUS
    total = sum(results)
    if total != total:
        return None
    return min(honest), max(honest), min(results), max(results)


def _p1_holds(extents: tuple[float, ...]) -> bool:
    u_low, u_high, r_low, r_high = extents
    return (
        u_low - FLOAT_TOLERANCE <= r_low and r_high <= u_high + FLOAT_TOLERANCE
    )


def _p2_holds(extents: tuple[float, ...]) -> bool:
    u_low, u_high, r_low, r_high = extents
    delta = u_high - u_low
    spread = r_high - r_low
    if delta <= FLOAT_TOLERANCE:
        return not spread > FLOAT_TOLERANCE
    return not (spread >= delta - FLOAT_TOLERANCE and spread > FLOAT_TOLERANCE)


def _round_p1(record: RoundRecord) -> list[str]:
    violations = []
    honest = record.honest_sent_values()
    if len(honest) == 0:
        return violations
    interval = honest.range()
    for pid, application in record.applications.items():
        if not interval.contains(application.result, FLOAT_TOLERANCE):
            violations.append(
                f"round {record.round_index} p{pid}: {application.result:.4g} "
                f"outside [{interval.low:.4g}, {interval.high:.4g}]"
            )
    return violations


def _round_p2(record: RoundRecord) -> list[str]:
    violations = []
    honest = record.honest_sent_values()
    if len(honest) == 0:
        return violations
    delta = honest.diameter()
    results = [
        record.applications[pid].result for pid in sorted(record.applications)
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


def _check_rounds(
    name: str,
    trace: Trace,
    extents: list[tuple[float, ...] | None],
    holds: Callable[[tuple[float, ...]], bool],
    reference: Callable[[RoundRecord], list[str]],
) -> PropertyCheck:
    """One per-round property over every round of ``trace``.

    A round passes on its extents alone; only a failing (or NaN) round
    runs the per-pid ``reference`` loop, which words its details.
    ``min``/``max`` and a stable sort may pick different signed zeros,
    so the details always come from the reference loop.
    """
    violations: list[str] = []
    for record, extent in zip(trace.rounds, extents):
        if extent is not None and holds(extent):
            continue
        violations.extend(reference(record))
    holds_all = not violations
    details = "" if holds_all else "; ".join(violations[:5])
    return PropertyCheck(name, holds_all, details)


def check_p1(trace: Trace) -> PropertyCheck:
    """P1 on every round: computed values in the correct senders' range."""
    extents = [_round_extents(record) for record in trace.rounds]
    return _check_rounds("P1", trace, extents, _p1_holds, _round_p1)


def check_p2(trace: Trace) -> PropertyCheck:
    """P2 on every round: result spread strictly below ``delta(U)``."""
    extents = [_round_extents(record) for record in trace.rounds]
    return _check_rounds("P2", trace, extents, _p2_holds, _round_p2)


def check_trace(
    trace: Trace | LiteTrace, epsilon: float | None = None
) -> SpecVerdict:
    """Full specification verdict for a completed trace.

    A :class:`LiteTrace` carries no message matrices, so the per-round
    P1/P2 invariants cannot be evaluated on it; they are reported as
    vacuously holding with an explanatory detail.  The headline verdict
    (:attr:`SpecVerdict.satisfied`) never depends on P1/P2 and is
    boolean-identical across trace details.

    On a full trace each round's ``U`` and results are reduced once to
    their extents, shared by P1 and P2: a passing round costs a few
    C-level ``min``/``max`` passes over plain float lists.  Only a
    failing round runs the per-pid loops that word the details, so
    every :class:`PropertyCheck` equals the per-pid reference's.
    """
    if isinstance(trace, LiteTrace):
        not_recorded = "not recorded (trace_detail='lite'); rerun with 'full'"
        p1 = PropertyCheck("P1", True, not_recorded, skipped=True)
        p2 = PropertyCheck("P2", True, not_recorded, skipped=True)
    else:
        extents = [_round_extents(record) for record in trace.rounds]
        p1 = _check_rounds("P1", trace, extents, _p1_holds, _round_p1)
        p2 = _check_rounds("P2", trace, extents, _p2_holds, _round_p2)
    return SpecVerdict(
        termination=check_termination(trace),
        epsilon_agreement=check_epsilon_agreement(trace, epsilon),
        validity=check_validity(trace),
        p1=p1,
        p2=p2,
    )


@dataclass(frozen=True)
class SimpleAgreementVerdict:
    """Verdict of a one-shot Simple Approximate Agreement execution."""

    agreement: PropertyCheck
    validity: PropertyCheck

    @property
    def satisfied(self) -> bool:
        return bool(self.agreement and self.validity)

    def __str__(self) -> str:
        return f"{self.agreement}; {self.validity}"


def check_simple_agreement(
    inputs: Mapping[int, float], outputs: Mapping[int, float]
) -> SimpleAgreementVerdict:
    """Check Section 6's Simple Approximate Agreement properties.

    ``inputs``/``outputs`` are the correct processes' proposals and
    chosen values.  *Agreement*: the output spread must be strictly
    smaller than the input spread, or zero when the inputs already
    agree.  *Validity*: every output lies in the inputs' range.
    """
    if not inputs or not outputs:
        raise ValueError("need at least one correct input and output")
    input_set = ValueMultiset(inputs.values())
    output_set = ValueMultiset(outputs.values())
    in_spread = input_set.diameter()
    out_spread = output_set.diameter()
    if in_spread <= FLOAT_TOLERANCE:
        agreement_holds = out_spread <= FLOAT_TOLERANCE
    else:
        agreement_holds = out_spread < in_spread - FLOAT_TOLERANCE
    agreement = PropertyCheck(
        "Agreement",
        agreement_holds,
        f"output spread {out_spread:.4g} vs input spread {in_spread:.4g}",
    )
    interval = input_set.range()
    outside = [
        f"p{pid}={value:.4g}"
        for pid, value in outputs.items()
        if not interval.contains(value, FLOAT_TOLERANCE)
    ]
    validity = PropertyCheck(
        "Validity",
        not outside,
        "" if not outside else "outside inputs' range: " + ", ".join(outside[:5]),
    )
    return SimpleAgreementVerdict(agreement=agreement, validity=validity)
