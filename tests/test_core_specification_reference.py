"""The specification checkers against their per-pid reference.

:func:`repro.core.specification.check_trace` decides a passing round of
a full trace from a few ``min``/``max`` passes and runs its per-process
loops only to word a failing round.  These tests pin that shortcut to
the per-pid reference in :func:`tests.helpers.reference_check_trace`:
every :class:`PropertyCheck` must match on ``holds``, ``details`` and
``skipped`` -- on passing traces of every family, model and attack, on
traces that violate P1, P2 and Validity, on archived (round-tripped)
traces, and on hand-built rounds with NaN and signed-zero values.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import pytest

import repro
from repro.core.lower_bounds import stall_configuration
from repro.core.mapping import msr_trim_parameter
from repro.core.specification import check_p1, check_p2, check_trace
from repro.faults.movement import StaticAgents
from repro.faults.value_strategies import OutlierAttack
from repro.msr import ValueMultiset, make_algorithm
from repro.msr.base import MSRApplication
from repro.runtime import run_simulation
from repro.runtime.serialize import trace_from_dict, trace_to_dict
from repro.runtime.trace import RoundRecord, Trace
from tests.helpers import make_mobile_config, reference_check_trace

MODELS = ("M1", "M2", "M3", "M4")
ATTACKS = ("split", "outlier", "noise", "crossfire")


def _assert_matches_reference(trace):
    verdict = check_trace(trace)
    reference = reference_check_trace(trace)
    for name in ("termination", "epsilon_agreement", "validity", "p1", "p2"):
        got, want = getattr(verdict, name), getattr(reference, name)
        assert (got.name, got.holds, got.details, got.skipped) == (
            want.name,
            want.holds,
            want.details,
            want.skipped,
        ), name
    assert str(verdict) == str(reference)
    return verdict


def _stall_trace(model):
    config = stall_configuration(
        model, 1, make_algorithm("ftm", msr_trim_parameter(model, 1)), rounds=10
    )
    return run_simulation(config)


def _unfiltered_trace(magnitude):
    # fta with trim 0 is a plain mean: static outliers drag results out
    # of the correct range (P1) and out of the inputs' range (Validity).
    config = make_mobile_config(
        "M2",
        algorithm=make_algorithm("fta", 0),
        movement=StaticAgents(),
        values=OutlierAttack(magnitude=magnitude),
        rounds=5,
    )
    return run_simulation(config)


@pytest.mark.parametrize("attack", ATTACKS)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("family", ["bonomi", "tseng", "witness"])
def test_full_traces_match_reference(family, model, attack):
    trace = repro.simulate(
        model=model, f=1, family=family, attack=attack, rounds=8, seed=3
    )
    _assert_matches_reference(trace)


@pytest.mark.parametrize("model", MODELS)
def test_stall_violates_p2_like_reference(model):
    verdict = _assert_matches_reference(_stall_trace(model))
    assert not verdict.p2
    assert verdict.p2.details


@pytest.mark.parametrize("magnitude", [100.0, 3.0])
def test_unfiltered_mean_violates_p1_and_validity_like_reference(magnitude):
    verdict = _assert_matches_reference(_unfiltered_trace(magnitude))
    assert not verdict.p1
    assert not verdict.validity


@pytest.mark.parametrize(
    "build",
    [
        lambda: repro.simulate(model="M3", f=2, attack="crossfire", rounds=6),
        lambda: _stall_trace("M2"),
        lambda: _unfiltered_trace(100.0),
    ],
    ids=["passing", "stall", "unfiltered"],
)
def test_round_tripped_traces_match_reference(build):
    trace = build()
    restored = trace_from_dict(trace_to_dict(trace))
    # Archived rounds hold plain MSRApplication dicts and multisets.
    assert all(
        type(app) is MSRApplication
        for record in restored.rounds
        for app in record.applications.values()
    )
    assert [dict(r.received) for r in restored.rounds] == [
        dict(r.received) for r in trace.rounds
    ]
    verdict = _assert_matches_reference(restored)
    assert str(verdict) == str(check_trace(trace))


def _hand_built_trace(honest, results, after=None):
    """One round: correct senders broadcast ``honest``, pids compute
    ``results`` (a faulty sender ``len(honest)`` stays silent)."""
    n = len(honest) + 1
    before = {pid: float(value) for pid, value in enumerate(honest)}
    before[n - 1] = 0.0
    sent = {
        pid: {q: value for q in range(n)} for pid, value in enumerate(honest)
    }
    sent[n - 1] = None
    applications = {
        pid: MSRApplication(
            ValueMultiset(), ValueMultiset(), ValueMultiset(), result
        )
        for pid, result in enumerate(results)
    }
    after = dict(enumerate(results)) if after is None else after
    record = RoundRecord(
        round_index=0,
        faulty_at_send=frozenset({n - 1}),
        cured_at_send=frozenset(),
        positions_after=frozenset(),
        values_before=MappingProxyType(before),
        sent=MappingProxyType(sent),
        received=MappingProxyType({}),
        heard=MappingProxyType({}),
        applications=MappingProxyType(applications),
        values_after=MappingProxyType(after),
    )
    return Trace(
        n=n,
        f=1,
        model=None,
        algorithm_name="hand",
        epsilon=1e-3,
        initial_values=MappingProxyType(dict(before)),
        initially_nonfaulty=frozenset(range(n - 1)),
        rounds=[record],
        decisions={},
        terminated=True,
    )


def test_nan_honest_value_raises():
    trace = _hand_built_trace([0.0, math.nan, 1.0], [0.5, 0.5, 0.5])
    for check in (check_p1, check_p2, check_trace, reference_check_trace):
        with pytest.raises(ValueError):
            check(trace)


@pytest.mark.parametrize(
    "honest, results",
    [
        # Signed zeros: min/max and a stable sort may pick different
        # zeros, so the worded interval must come from the reference.
        ([0.0, -0.0, 0.0], [2.0, -0.0, 0.0]),
        ([-0.0, 0.0, -0.0], [0.0, -0.0, 3.0]),
        # A NaN result is out of every range and hides from min/max.
        ([0.0, 0.5, 1.0], [0.5, math.nan, 0.25]),
        # Infinite results and honest values.
        ([0.0, 0.5, 1.0], [math.inf, 0.5, -math.inf]),
        ([-math.inf, 0.0, math.inf], [0.0, 0.5, 1.0]),
        # Agreeing senders (delta(U) = 0) with and without a spread.
        ([0.25, 0.25, 0.25], [0.25, 0.25, 0.25]),
        ([0.25, 0.25, 0.25], [0.25, 0.5, 0.25]),
    ],
)
def test_hand_built_rounds_match_reference(honest, results):
    _assert_matches_reference(_hand_built_trace(honest, results))
