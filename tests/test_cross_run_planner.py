"""Plan-level identity: the cross-run planner against per-run planning.

`CrossRunPlanner.plan_many` plans one round for a whole stack of mobile
runs.  Its contract is that every run's :class:`RoundPlan` -- every
field, the iteration order of every frozenset and mapping, the sharing
of outbox and camp-assignment objects between senders -- and every
run's adversary rng state are exactly what the run's own
`MobileFaultController.plan_round` would produce on the same value
snapshot.  Iteration order matters: the order of ``positions`` is the
order in which per-sender attacks draw from the rng.

The generator draws the model, ``f`` with ``n`` at and one above the
model's bound, per-run movements and attacks (one shared pair, or a
mix), seeds, the value snapshots of each round (with signed zeros and
ties) and a random partition of the stack into ``plan_many`` calls per
round.  Named regressions are pinned as explicit examples.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import Adversary, get_semantics
from repro.faults.movement import (
    AlternatingPools,
    RandomJump,
    RoundRobinWalk,
    StaticAgents,
    TargetExtremes,
)
from repro.faults.value_strategies import (
    CampOutbox,
    CrossfireAttack,
    EchoCorrect,
    FixedValue,
    InertiaAttack,
    OscillatingAttack,
    OutlierAttack,
    RandomNoise,
    RecipientCamps,
    SplitAttack,
)
from repro.runtime.controllers import CrossRunPlanner, MobileFaultController
from repro.runtime.simulator import ArrayValues

MODELS = ("M1", "M2", "M3", "M4")
MOVEMENTS = (
    "round-robin",
    "round-robin-3",
    "random",
    "random-jump",
    "static",
    "alternating-pools",
    "target-extremes",
)
ATTACKS = (
    "split",
    "outlier",
    "noise",
    "crossfire",
    "fixed",
    "echo",
    "oscillating",
    "inertia",
    "pid-departure",
)
ROUNDS = 11


class PidDeparture(SplitAttack):
    """A split attack whose scalar corruptions read the pid.

    Overriding the scalar hooks opts out of every shared-value shortcut,
    so this strategy pins the per-pid paths of departures and computes.
    """

    def departure_value(self, view, pid):
        return view.correct_range().low - pid

    def corrupted_compute(self, view, pid):
        return view.correct_range().high + pid


def make_movement(name: str, f: int):
    if name == "round-robin":
        return RoundRobinWalk()
    if name == "round-robin-3":
        return RoundRobinWalk(stride=3)
    if name == "random":
        return RandomJump()
    if name == "random-jump":
        return RandomJump(move_probability=0.5)
    if name == "alternating-pools" and f >= 1:
        return AlternatingPools(range(f), range(f, 2 * f))
    if name == "target-extremes":
        return TargetExtremes()
    return StaticAgents()


def make_attack(name: str):
    return {
        "split": SplitAttack,
        "outlier": OutlierAttack,
        "noise": RandomNoise,
        "crossfire": CrossfireAttack,
        "fixed": lambda: FixedValue(0.25),
        "echo": EchoCorrect,
        "oscillating": OscillatingAttack,
        "inertia": InertiaAttack,
        "pid-departure": PidDeparture,
    }[name]()


def make_controller(model, n, f, movement, attack):
    adversary = Adversary(make_movement(movement, f), make_attack(attack))
    return MobileFaultController(n, f, model, adversary)


def snapshot(gen: np.random.Generator, n: int) -> np.ndarray:
    """One round's values: uniform, salted with signed zeros and ties."""
    values = gen.uniform(-1.0, 1.0, n)
    kind = gen.integers(0, 4)
    if kind == 1:
        picks = gen.integers(0, n, size=max(1, n // 3))
        values[picks] = gen.choice([0.0, -0.0, 1.0, values[0]], size=picks.size)
    elif kind == 2:
        values[:] = gen.choice([0.0, -0.0], size=n)
    return values


def bits(value) -> str:
    return float(value).hex()


def assert_mapping_identical(got, want):
    assert type(got) is type(want)
    assert [(k, bits(v)) for k, v in got.items()] == [
        (k, bits(v)) for k, v in want.items()
    ]


def sharing(mapping):
    """Which senders share one outbox / one camp-assignment object."""
    outboxes: dict[int, int] = {}
    assignments: dict[int, int] = {}
    pattern = []
    for outbox in mapping.values():
        slot = outboxes.setdefault(id(outbox), len(outboxes))
        assignment = getattr(outbox, "assignment", None)
        camp = (
            None
            if assignment is None
            else assignments.setdefault(id(assignment), len(assignments))
        )
        pattern.append((slot, camp))
    return pattern


def assert_plans_identical(got, want):
    assert got == want
    assert got.round_index == want.round_index
    for name in ("faulty_at_send", "cured_at_send", "positions_after", "forced_silent"):
        assert type(getattr(got, name)) is frozenset
        assert list(getattr(got, name)) == list(getattr(want, name)), name
    assert got.static_classes == want.static_classes
    assert_mapping_identical(got.memory_corruptions, want.memory_corruptions)
    assert_mapping_identical(got.compute_corruptions, want.compute_corruptions)
    assert type(got.send_overrides) is type(want.send_overrides)
    assert list(got.send_overrides) == list(want.send_overrides)
    for sender, outbox in got.send_overrides.items():
        expected = want.send_overrides[sender]
        assert type(outbox) is type(expected)
        assert_mapping_identical(dict(outbox), dict(expected))
        if type(outbox) is CampOutbox:
            assert [bits(v) for v in outbox.camp_values] == [
                bits(v) for v in expected.camp_values
            ]
            assert tuple(outbox.assignment) == tuple(expected.assignment)
    assert sharing(got.send_overrides) == sharing(want.send_overrides)


@st.composite
def scenarios(draw):
    model = draw(st.sampled_from(MODELS))
    f = draw(st.integers(min_value=0, max_value=5))
    extra = draw(st.integers(min_value=0, max_value=1))
    runs = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        movements = [draw(st.sampled_from(MOVEMENTS))] * runs
        attacks = [draw(st.sampled_from(ATTACKS))] * runs
    else:
        movements = draw(
            st.lists(st.sampled_from(MOVEMENTS), min_size=runs, max_size=runs)
        )
        attacks = draw(
            st.lists(st.sampled_from(ATTACKS), min_size=runs, max_size=runs)
        )
    seeds = draw(
        st.lists(st.integers(0, 2**31), min_size=runs, max_size=runs)
    )
    value_seed = draw(st.integers(0, 2**31))
    partition_seed = draw(st.integers(0, 2**31))
    return (
        model, f, extra, tuple(movements), tuple(attacks), tuple(seeds),
        value_seed, partition_seed,
    )


def run_identity(
    model, f, extra, movements, attacks, seeds, value_seed, partition_seed, n=None
):
    if n is None:
        n = get_semantics(model).required_n(f) + extra
    runs = len(seeds)
    stacked = [
        make_controller(model, n, f, movements[r], attacks[r]) for r in range(runs)
    ]
    reference = [
        make_controller(model, n, f, movements[r], attacks[r]) for r in range(runs)
    ]
    stacked_rngs = [random.Random(seed) for seed in seeds]
    reference_rngs = [random.Random(seed) for seed in seeds]
    planner = CrossRunPlanner(stacked, stacked_rngs, wrap=ArrayValues)
    gen = np.random.default_rng(value_seed)
    splitter = random.Random(partition_seed)

    stack = np.array([snapshot(gen, n) for _ in range(runs)])
    for r in range(runs):
        got = stacked[r].plan_round(0, ArrayValues(stack[r].copy()), stacked_rngs[r])
        want = reference[r].plan_round(
            0, ArrayValues(stack[r].copy()), reference_rngs[r]
        )
        assert_plans_identical(got, want)

    for round_index in range(1, ROUNDS):
        stack = np.array([snapshot(gen, n) for _ in range(runs)])
        order = list(range(runs))
        splitter.shuffle(order)
        cuts = sorted(splitter.sample(range(1, runs), splitter.randint(0, runs - 1)))
        chunks = [
            sorted(order[a:b]) for a, b in zip([0, *cuts], [*cuts, runs])
        ]
        for chunk in chunks:
            plans, patched = planner.plan_many(round_index, stack[chunk], chunk)
            assert len(plans) == len(chunk)
            for i, r in enumerate(chunk):
                want = reference[r].plan_round(
                    round_index, ArrayValues(stack[r].copy()), reference_rngs[r]
                )
                assert_plans_identical(plans[i], want)
                expected = stack[r].copy()
                if want.memory_corruptions:
                    expected[list(want.memory_corruptions)] = list(
                        want.memory_corruptions.values()
                    )
                assert patched[i].view(np.int64).tolist() == expected.view(
                    np.int64
                ).tolist()
                assert list(stacked[r].positions) == list(reference[r].positions)
                assert stacked_rngs[r].getstate() == reference_rngs[r].getstate()


@settings(max_examples=120, deadline=None)
@given(scenario=scenarios())
@example(scenario=("M3", 4, 0, ("round-robin",) * 4, ("noise",) * 4, (1, 2, 3, 4), 7, 8))
@example(scenario=("M4", 3, 1, ("random",) * 3, ("crossfire",) * 3, (5, 6, 7), 1, 2))
@example(scenario=("M1", 2, 0, ("round-robin",) * 5, ("split",) * 5, (0, 1, 2, 3, 4), 3, 4))
@example(
    scenario=("M2", 5, 0, ("random-jump",) * 3, ("pid-departure",) * 3, (9, 8, 7), 5, 6)
)
@example(
    scenario=(
        "M3", 2, 1,
        ("static", "alternating-pools", "target-extremes", "round-robin"),
        ("fixed", "echo", "oscillating", "inertia"),
        (11, 12, 13, 14), 9, 10,
    )
)
def test_plan_many_equals_per_run_plan_round(scenario):
    run_identity(*scenario)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("movement", ["round-robin", "random"])
@pytest.mark.parametrize("attack", ["split", "outlier", "noise", "crossfire"])
def test_table2_shapes_at_f8(model, movement, attack):
    """The sweep-table2 shape: eight same-shape runs, f=8, at the bound."""
    run_identity(
        model, 8, 0, (movement,) * 8, (attack,) * 8, tuple(range(8)), 3, 5
    )


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize(
    "attack", ["split", "outlier", "noise", "crossfire", "echo", "oscillating"]
)
def test_stacks_without_correct_processes(model, attack):
    """Agents and cured processes cover every pid: a degenerate shape.

    With no correct process a view ranges over every value, so the
    departure and the attack ranges differ by the memory corruptions.
    """
    f = 2
    n = f if model == "M4" else 2 * f
    run_identity(
        model, f, 0, ("round-robin", "random", "round-robin"),
        (attack,) * 3, (4, 5, 6), 7, 8, n=n,
    )


class BadCamps(SplitAttack):
    """Split camps whose indices point past the two camp values.

    Broken only once ``broken`` is set, so round 0 (planned per run)
    passes and the failure lands in the stacked planner.
    """

    broken = False

    def attack_camps(self, view, sender):
        camps = super().attack_camps(view, sender)
        if not self.broken:
            return camps
        return RecipientCamps(
            values=camps.values,
            assignment=tuple(code + 2 for code in camps.assignment),
        )

    def attack_camps_many(self, stack, senders):
        codes, values = super().attack_camps_many(stack, senders)
        return (codes + 2 if self.broken else codes), values


class Teleport(StaticAgents):
    """Stays put, then (once ``target`` is set) jumps to ``target``."""

    target = None

    def next_positions(self, view):
        return view.positions if self.target is None else self.target


def _error_pair(model, f, make_attack_, make_movement_, break_runs):
    """The plan_round and plan_many errors of one round-1 failure."""
    n = get_semantics(model).required_n(f)
    outcomes = []
    for stacked in (False, True):
        controllers = [
            MobileFaultController(n, f, model, Adversary(make_movement_(), make_attack_()))
            for _ in range(3)
        ]
        rngs = [random.Random(seed) for seed in range(3)]
        stack = np.array([snapshot(np.random.default_rng(seed), n) for seed in range(3)])
        for controller, rng, row in zip(controllers, rngs, stack):
            controller.plan_round(0, ArrayValues(row.copy()), rng)
        break_runs(controllers, n, f)
        with pytest.raises(ValueError) as error:
            if stacked:
                CrossRunPlanner(controllers, rngs, wrap=ArrayValues).plan_many(
                    1, stack, [0, 1, 2]
                )
            else:
                controllers[0].plan_round(1, ArrayValues(stack[0].copy()), rngs[0])
        outcomes.append(str(error.value))
    return outcomes


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_values_raise_the_scalar_error(model, bad):
    def break_runs(controllers, n, f):
        for controller in controllers:
            controller.adversary.values.value = bad

    reference, stacked = _error_pair(
        model, 2, lambda: FixedValue(0.5), RoundRobinWalk, break_runs
    )
    assert "non-finite" in reference
    assert stacked == reference


@pytest.mark.parametrize("model", MODELS)
def test_camp_indices_out_of_range_raise_the_scalar_error(model):
    def break_runs(controllers, n, f):
        for controller in controllers:
            controller.adversary.values.broken = True

    reference, stacked = _error_pair(model, 2, BadCamps, RoundRobinWalk, break_runs)
    assert "outside the 2 declared values" in reference
    assert stacked == reference


@pytest.mark.parametrize("model", ["M2", "M4"])
@pytest.mark.parametrize("where", ["invalid-id", "too-many"])
def test_bad_positions_raise_the_scalar_error(model, where):
    def break_runs(controllers, n, f):
        target = frozenset({n}) if where == "invalid-id" else frozenset(range(f + 1))
        for controller in controllers:
            controller.adversary.movement.target = target

    reference, stacked = _error_pair(model, 2, SplitAttack, Teleport, break_runs)
    assert "adversary placed" in reference
    assert stacked == reference
