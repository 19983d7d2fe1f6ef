"""Fault controllers: who misbehaves, when, and how, each round.

A :class:`FaultController` turns a fault model plus an adversary into a
per-round :class:`RoundPlan` the simulator executes mechanically.  Two
controllers cover the paper:

* :class:`MobileFaultController` -- the four mobile Byzantine models
  M1-M4 (paper Section 3), enforcing each model's movement timing and
  cured-state semantics;
* :class:`StaticMixedController` -- the static mixed-mode model of
  Kieckhafer-Azadmanesh [11] (benign / symmetric / asymmetric), which
  doubles as the classical static Byzantine model when only asymmetric
  faults are assigned.

Keeping the plan explicit (rather than interleaving adversary calls
with simulation steps) makes each round's fault pattern a first-class
value: traces record it, checkers inspect it, tests assert on it.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from types import MappingProxyType
from typing import Mapping

try:  # numpy is optional: scalar planning never needs it.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

from ..faults.adversary import Adversary
from ..faults.mixed_mode import FaultClass, StaticFaultAssignment
from ..faults.models import CuredSendBehavior, MobileModel, ModelSemantics, get_semantics
from ..faults.movement import MovementStrategy
from ..faults.value_strategies import (
    CampAssignment,
    CampOutbox,
    RecipientCamps,
    ValueStrategy,
    array_hook,
)
from ..faults.view import AdversaryView, StackView, batch_correct_ranges

__all__ = [
    "RoundPlan",
    "FaultController",
    "MobileFaultController",
    "StaticMixedController",
    "CrossRunPlanner",
]


def _frozen_mapping(mapping: Mapping) -> Mapping:
    return MappingProxyType(dict(mapping))


def _checked_value(value: float, context: str) -> float:
    """Reject non-finite adversary outputs at the model boundary.

    The failure model ranges over *real* values; NaN or infinities are
    artifacts of a buggy strategy, and letting them into multisets
    would surface as confusing arithmetic failures rounds later.
    """
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(
            f"adversary produced non-finite value {value!r} ({context}); "
            "value strategies must return finite reals"
        )
    return value


def _with_corruptions(
    values: Mapping[int, float], corruptions: Mapping[int, float]
) -> Mapping[int, float]:
    """The round's value snapshot with memory corruptions applied.

    Without corruptions the snapshot itself is the answer (views never
    mutate it).  With corruptions, an array-backed snapshot (see
    :class:`~repro.runtime.simulator.ArrayValues`) is patched in array
    form so the attack view keeps its fast ``correct_range`` path;
    plain dicts take the classic copy-and-update.
    """
    if not corruptions:
        return values
    array = getattr(values, "array", None)
    if array is not None:
        patched = array.copy()
        patched[list(corruptions)] = list(corruptions.values())
        return type(values)(patched)
    attack_values = dict(values)
    attack_values.update(corruptions)
    return attack_values


def _float_outbox(outbox: dict[int, float]) -> dict[int, float]:
    """Coerce every outbox entry to ``float``, preserving order.

    Matches the per-message ``float(attack(...))`` coercion of the
    pre-batch controllers, so strategies returning ints keep working.
    """
    return {recipient: float(value) for recipient, value in outbox.items()}


def _checked_outbox(outbox: dict[int, float], context: str) -> dict[int, float]:
    """Validate a whole per-recipient map in one C-level pass.

    Equivalent to `_checked_value` on every entry, but the happy path
    (always, unless a strategy is buggy) costs one ``all(map(...))``
    instead of a Python call per message -- outbox construction is the
    hottest part of fault planning.
    """
    if not all(map(math.isfinite, outbox.values())):
        for recipient, value in outbox.items():
            _checked_value(value, f"{context}->p{recipient}")
    return outbox


def _camp_outbox(
    camps, view: AdversaryView, sender: int, n: int, context: str
) -> Mapping[int, float]:
    """Validate declared camps (O(#camps) per sender) into a CampOutbox.

    The assignment tuple is shared across the senders of a round
    (strategies memoize it on the view), so its O(n) shape scan runs
    once per round, not once per sender.  The id is stable for the
    round: the tuple stays alive in the plan's outboxes.
    """
    camps.validate_values(context)
    view.memo(
        ("camps-assignment-ok", id(camps.assignment), len(camps.values)),
        lambda: camps.validate_assignment(n, context),
    )
    return CampOutbox(camps)


def _attack_override(
    adversary: Adversary, view: AdversaryView, sender: int, n: int
) -> Mapping[int, float]:
    """One faulty sender's override map, via camps when declared.

    Camp-declaring strategies (see
    :meth:`~repro.faults.value_strategies.ValueStrategy.attack_camps`)
    skip the ``n``-entry dict entirely: validation is O(#camps), the
    shared assignment is built once per round, and the round kernel
    groups recipients by camp index.  The mapping is value-identical to
    the materialized outbox either way -- the strategy suite asserts it.
    """
    camps = adversary.attack_camps(view, sender)
    if camps is not None:
        return _camp_outbox(camps, view, sender, n, f"attack camps p{sender}")
    return MappingProxyType(
        _checked_outbox(
            _float_outbox(adversary.attack_outbox(view, sender, range(n))),
            f"attack message p{sender}",
        )
    )


def _planted_override(
    adversary: Adversary, view: AdversaryView, sender: int, n: int
) -> Mapping[int, float]:
    """One cured sender's M3 planted queue, via camps when declared.

    The planted-queue counterpart of :func:`_attack_override`: since
    most strategies plant exactly what they would attack with, their
    attack camps carry over and the per-recipient dict materialization
    (the ROADMAP's remaining O(n*f) planning floor) disappears for
    them too.  Value-identical to the materialized queue either way.
    """
    camps = adversary.planted_camps(view, sender)
    if camps is not None:
        return _camp_outbox(camps, view, sender, n, f"planted camps p{sender}")
    return MappingProxyType(
        _checked_outbox(
            _float_outbox(adversary.planted_outbox(view, sender, range(n))),
            f"planted message p{sender}",
        )
    )


@dataclass(frozen=True)
class RoundPlan:
    """Everything fault-related that happens in one round.

    Attributes
    ----------
    faulty_at_send:
        Processes whose send phase the adversary controls this round.
    cured_at_send:
        Processes in the cured state during this round's send phase.
    positions_after:
        Agent hosts at the end of the round (equals ``faulty_at_send``
        except in M4, where agents move with the messages).
    memory_corruptions:
        Values the departing agents left in cured processes' memories;
        applied before the send phase.
    send_overrides:
        Per-recipient message maps for processes whose outgoing traffic
        the adversary dictates (faulty processes; M3 planted queues;
        static symmetric/asymmetric faults).
    forced_silent:
        Processes that omit regardless of protocol logic (static benign
        faults).  M1 cured silence is *not* forced here -- it is the
        protocol's own ``if cured: nop`` guard, driven by awareness.
    compute_corruptions:
        Garbage each occupied process's computation phase ends with.
    static_classes:
        For static runs, the fixed class of each non-correct process.
    """

    round_index: int
    faulty_at_send: frozenset[int]
    cured_at_send: frozenset[int]
    positions_after: frozenset[int]
    memory_corruptions: Mapping[int, float] = field(default_factory=dict)
    send_overrides: Mapping[int, Mapping[int, float]] = field(default_factory=dict)
    forced_silent: frozenset[int] = frozenset()
    compute_corruptions: Mapping[int, float] = field(default_factory=dict)
    static_classes: Mapping[int, FaultClass] | None = None


class FaultController(ABC):
    """Produces the per-round fault plan the simulator executes."""

    @abstractmethod
    def plan_round(
        self, round_index: int, values: Mapping[int, float], rng: random.Random
    ) -> RoundPlan:
        """Plan faults for ``round_index`` given the true current values."""

    @abstractmethod
    def describe(self) -> str:
        """Short description used in tables and traces."""


class MobileFaultController(FaultController):
    """Mobile Byzantine agents under one of the models M1-M4.

    The controller owns the agent positions between rounds.  Timing
    (paper Section 3):

    * M1-M3: agents move at the *beginning* of each round ``r >= 1``
      (before the send phase); the vacated processes are cured for
      round ``r``.
    * M4: agents move *with the messages*: the round-``r`` Byzantine
      senders are the current hosts, the agents then ride to their next
      hosts, whose computation phase is corrupted in round ``r`` --
      hence no process is ever cured at send time (Lemma 4).
    """

    def __init__(
        self,
        n: int,
        f: int,
        model: MobileModel,
        adversary: Adversary,
        topology=None,
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if f < 0:
            raise ValueError(f"f must be non-negative, got {f}")
        if f > n:
            raise ValueError(f"cannot place f={f} agents on n={n} processes")
        self.n = n
        self.f = f
        self.semantics: ModelSemantics = get_semantics(model)
        self.adversary = adversary
        #: The run's communication graph, exposed to strategies through
        #: the adversary view (the omniscient adversary reads wiring).
        self.topology = topology
        self._positions: frozenset[int] | None = None
        # Resolved once per run: whether the adversary's scalar
        # corruption hooks are pid-independent (see
        # Adversary.shares_scalar_values), letting the planning hot
        # path compute each round's departure/compute value once
        # instead of once per agent.
        self._shared_scalars = adversary.shares_scalar_values

    @property
    def positions(self) -> frozenset[int]:
        """Current agent hosts (after the last planned round)."""
        if self._positions is None:
            raise RuntimeError("no round planned yet")
        return self._positions

    def plan_round(
        self, round_index: int, values: Mapping[int, float], rng: random.Random
    ) -> RoundPlan:
        if self.f == 0:
            self._positions = frozenset()
            return RoundPlan(
                round_index=round_index,
                faulty_at_send=frozenset(),
                cured_at_send=frozenset(),
                positions_after=frozenset(),
            )
        if self.semantics.moves_with_message:
            plan = self._plan_buhrman(round_index, values, rng)
        else:
            plan = self._plan_round_start_movement(round_index, values, rng)
        self._positions = plan.positions_after
        return plan

    def describe(self) -> str:
        return (
            f"{self.semantics.model.value}"
            f"[{self.adversary.describe()}]"
        )

    # -- M1 / M2 / M3 -----------------------------------------------------------

    def _plan_round_start_movement(
        self, round_index: int, values: Mapping[int, float], rng: random.Random
    ) -> RoundPlan:
        if round_index == 0 or self._positions is None:
            # "During the first round r0 no Byzantine agent moved yet."
            positions = self.adversary.initial_positions(self.n, self.f, rng)
            cured: frozenset[int] = frozenset()
        else:
            movement_view = self._view(round_index, values, self._positions, frozenset(), rng)
            positions = self.adversary.next_positions(movement_view)
            self._check_positions(positions)
            cured = self._positions - positions

        # Departing agents corrupt the memories they leave behind.
        departure_view = self._view(round_index, values, positions, cured, rng)

        # Both value views this round share one exclusion mask over the
        # array snapshot (identical positions/cured); precomputing it
        # here spares each ``correct_range`` the set-union and the
        # boolean-buffer build.
        range_mask = None
        if _np is not None and getattr(values, "array", None) is not None:
            range_mask = _np.ones(self.n, dtype=bool)
            excluded = positions | cured
            if excluded:
                range_mask[list(excluded)] = False
            object.__setattr__(departure_view, "_range_mask", range_mask)

        memory_corruptions = self._departure_values(departure_view, cured)

        attack_values = _with_corruptions(values, memory_corruptions)
        attack_view = self._view(round_index, attack_values, positions, cured, rng)
        if range_mask is not None:
            # attack_values is either the same snapshot or its patched
            # ArrayValues copy -- array-backed either way.
            object.__setattr__(attack_view, "_range_mask", range_mask)

        # Sender-agnostic strategies emit the same outbox from every
        # agent, so one shared mapping per round serves all of them
        # (the values would be identical anyway; sharing skips the
        # rebuild per sender).
        shared = self.adversary.shares_round_outboxes
        send_overrides: dict[int, Mapping[int, float]] = {}
        if shared and positions:
            # One outbox for every agent: build it once (from the same
            # first pid the per-sender loop would use) and fan the
            # reference out at C speed.
            shared_attack = _attack_override(
                self.adversary, attack_view, next(iter(positions)), self.n
            )
            send_overrides = dict.fromkeys(positions, shared_attack)
        else:
            shared_attack: Mapping[int, float] | None = None
            for pid in positions:
                if shared_attack is None:
                    shared_attack = _attack_override(
                        self.adversary, attack_view, pid, self.n
                    )
                send_overrides[pid] = shared_attack
                if not shared:
                    shared_attack = None
        if self.semantics.cured_send is CuredSendBehavior.PLANTED_QUEUE:
            shared_planted: Mapping[int, float] | None = None
            for pid in cured:
                if shared_planted is None:
                    shared_planted = _planted_override(
                        self.adversary, attack_view, pid, self.n
                    )
                send_overrides[pid] = shared_planted
                if not shared:
                    shared_planted = None

        compute_corruptions = self._corrupted_computes(attack_view, positions)
        # The three mappings are freshly built above (never aliased),
        # so the read-only proxy can wrap them without the defensive
        # copy `_frozen_mapping` pays for caller-supplied dicts.
        return RoundPlan(
            round_index=round_index,
            faulty_at_send=positions,
            cured_at_send=cured,
            positions_after=positions,
            memory_corruptions=MappingProxyType(memory_corruptions),
            send_overrides=MappingProxyType(send_overrides),
            compute_corruptions=MappingProxyType(compute_corruptions),
        )

    def _departure_values(self, view, pids) -> dict[int, float]:
        """Checked departure value per pid; one shared call when legal.

        Bit-identical to the per-pid loop: under the sharing contract
        the hook is pid-independent and randomness-free, so every call
        would return the same float anyway.
        """
        if not pids:
            return {}
        adversary = self.adversary
        if self._shared_scalars:
            first = next(iter(pids))
            value = _checked_value(
                adversary.departure_value(view, first),
                f"departure value for p{first}",
            )
            return {pid: value for pid in pids}
        return {
            pid: _checked_value(
                adversary.departure_value(view, pid),
                f"departure value for p{pid}",
            )
            for pid in pids
        }

    def _corrupted_computes(self, view, pids) -> dict[int, float]:
        """Checked corrupted-compute value per pid; shared when legal."""
        if not pids:
            return {}
        adversary = self.adversary
        if self._shared_scalars:
            first = next(iter(pids))
            value = _checked_value(
                adversary.corrupted_compute(view, first),
                f"corrupted compute for p{first}",
            )
            return {pid: value for pid in pids}
        return {
            pid: _checked_value(
                adversary.corrupted_compute(view, pid),
                f"corrupted compute for p{pid}",
            )
            for pid in pids
        }

    # -- M4 ----------------------------------------------------------------------

    def _plan_buhrman(
        self, round_index: int, values: Mapping[int, float], rng: random.Random
    ) -> RoundPlan:
        if round_index == 0 or self._positions is None:
            hosts = self.adversary.initial_positions(self.n, self.f, rng)
        else:
            hosts = self._positions

        attack_view = self._view(round_index, values, hosts, frozenset(), rng)
        shared = self.adversary.shares_round_outboxes
        send_overrides: dict[int, Mapping[int, float]] = {}
        shared_attack: Mapping[int, float] | None = None
        for pid in hosts:
            if shared_attack is None:
                shared_attack = _attack_override(
                    self.adversary, attack_view, pid, self.n
                )
            send_overrides[pid] = shared_attack
            if not shared:
                shared_attack = None

        # Agents ride the messages to their next hosts, whose computation
        # phase this round is under agent control.  Vacated hosts are
        # cured *during the computation phase*, aware, and recompute
        # correctly -- so they need no plan entry beyond not being in
        # ``compute_corruptions``.
        movement_view = self._view(round_index, values, hosts, frozenset(), rng)
        next_hosts = self.adversary.next_positions(movement_view)
        self._check_positions(next_hosts)
        compute_corruptions = self._corrupted_computes(attack_view, next_hosts)
        return RoundPlan(
            round_index=round_index,
            faulty_at_send=hosts,
            cured_at_send=frozenset(),
            positions_after=next_hosts,
            send_overrides=_frozen_mapping(send_overrides),
            compute_corruptions=_frozen_mapping(compute_corruptions),
        )

    # -- helpers -----------------------------------------------------------------

    def _view(
        self,
        round_index: int,
        values: Mapping[int, float],
        positions: frozenset[int],
        cured: frozenset[int],
        rng: random.Random,
    ) -> AdversaryView:
        # The simulator hands a fresh per-round snapshot, so the view
        # can hold it directly -- no defensive copy -- and leave
        # ``correct_values`` to the view's lazy derivation (strategies
        # that only need correct_range() never pay for the dict).
        return AdversaryView(
            round_index=round_index,
            n=self.n,
            f=self.f,
            values=values,
            positions=positions,
            cured=cured,
            rng=rng,
            topology=self.topology,
        )

    def _check_positions(self, positions: frozenset[int]) -> None:
        if len(positions) > self.f:
            raise ValueError(
                f"adversary placed {len(positions)} agents, only f={self.f} exist"
            )
        bad = [pid for pid in positions if pid < 0 or pid >= self.n]
        if bad:
            raise ValueError(f"adversary placed agents on invalid ids {bad}")


class StaticMixedController(FaultController):
    """Static mixed-mode faults: the same processes misbehave forever.

    Realises Definitions 1-3 of the paper (quoting [11]):

    * benign processes omit every round (forced silence -- the
      self-incriminating fault every receiver detects);
    * symmetric processes broadcast one adversarial value, identical
      towards every receiver;
    * asymmetric processes send adversarially chosen per-recipient
      values -- classical Byzantine behaviour.
    """

    def __init__(
        self,
        n: int,
        assignment: StaticFaultAssignment,
        adversary: Adversary,
        topology=None,
    ) -> None:
        assignment.validate_for(n)
        self.n = n
        self.assignment = assignment
        self.adversary = adversary
        self.topology = topology
        self._classes = dict(assignment.items())

    def plan_round(
        self, round_index: int, values: Mapping[int, float], rng: random.Random
    ) -> RoundPlan:
        faulty = self.assignment.faulty_ids
        view = AdversaryView(
            round_index=round_index,
            n=self.n,
            f=len(faulty),
            values=values,
            positions=faulty,
            cured=frozenset(),
            rng=rng,
            topology=self.topology,
        )

        shared = self.adversary.shares_round_outboxes
        send_overrides: dict[int, Mapping[int, float]] = {}
        forced_silent: set[int] = set()
        shared_symmetric: Mapping[int, float] | None = None
        shared_asymmetric: Mapping[int, float] | None = None
        for pid, fault_class in self._classes.items():
            if fault_class is FaultClass.BENIGN:
                forced_silent.add(pid)
            elif fault_class is FaultClass.SYMMETRIC:
                if shared_symmetric is None:
                    value = _checked_value(
                        self.adversary.attack_message(view, pid, None),
                        f"symmetric message from p{pid}",
                    )
                    shared_symmetric = _frozen_mapping(
                        {q: value for q in range(self.n)}
                    )
                send_overrides[pid] = shared_symmetric
                if not shared:
                    shared_symmetric = None
            else:
                if shared_asymmetric is None:
                    shared_asymmetric = _attack_override(
                        self.adversary, view, pid, self.n
                    )
                send_overrides[pid] = shared_asymmetric
                if not shared:
                    shared_asymmetric = None

        compute_corruptions = {
            pid: _checked_value(
                self.adversary.corrupted_compute(view, pid),
                f"corrupted compute for p{pid}",
            )
            for pid in faulty
        }
        return RoundPlan(
            round_index=round_index,
            faulty_at_send=faulty,
            cured_at_send=frozenset(),
            positions_after=faulty,
            send_overrides=_frozen_mapping(send_overrides),
            forced_silent=frozenset(forced_silent),
            compute_corruptions=_frozen_mapping(compute_corruptions),
            static_classes=_frozen_mapping(self._classes),
        )

    def describe(self) -> str:
        counts = self.assignment.counts
        return f"static-mixed{counts}[{self.adversary.describe()}]"


#: Adversary methods a subclass may re-route; any override has the
#: planner plan that run whole through its controller's plan_round.
_ADVERSARY_VALUE_HOOKS = (
    "attack_message",
    "attack_outbox",
    "attack_camps",
    "departure_value",
    "planted_message",
    "planted_outbox",
    "planted_camps",
    "corrupted_compute",
    "shares_round_outboxes",
    "shares_scalar_values",
)

_EMPTY: frozenset[int] = frozenset()


def _strategy_key(strategy) -> tuple:
    """Rows whose strategies share this key may be planned by one of them.

    Same class and equal attributes (compared by ``repr``, so ``0.0``
    and ``-0.0`` stay apart): the array hooks read nothing else.  The
    key is taken once, when the planner is built, so a laned strategy
    must keep its attributes for the run.
    """
    attributes = getattr(strategy, "__dict__", None)
    if attributes is None:
        return ("instance", id(strategy))
    return (
        type(strategy),
        tuple(sorted((name, repr(value)) for name, value in attributes.items())),
    )


def _movement_lane(adversary: Adversary):
    """``(lane key, hook)`` of a run's movement step.

    Runs whose movement overrides :meth:`MovementStrategy.next_positions_many`
    (and keeps the scalar hook of the class defining it) share lanes
    with equal strategies; every other run is a lane of its own,
    planned through the scalar hooks.
    """
    if type(adversary).next_positions is not Adversary.next_positions:
        return ("instance", id(adversary)), lambda stack: [
            adversary.next_positions(stack.view(row)) for row in range(len(stack))
        ]
    movement = adversary.movement
    cls = type(movement)
    owner = next(k for k in cls.__mro__ if "next_positions_many" in vars(k))
    if owner is not MovementStrategy and cls.next_positions is owner.next_positions:
        return _strategy_key(movement), movement.next_positions_many
    return ("instance", id(movement)), partial(
        MovementStrategy.next_positions_many, movement
    )


def _value_lane(adversary: Adversary, semantics: ModelSemantics):
    """``(lane key, (attack, departure, compute) hooks)``, or ``None``.

    ``None`` -- an :class:`Adversary` subclass re-routing a value hook,
    a strategy without array forms, or customized M3 planted queues --
    has the planner plan the run whole through its controller's
    :meth:`MobileFaultController.plan_round`.
    """
    cls = type(adversary)
    if any(
        getattr(cls, name) is not getattr(Adversary, name)
        for name in _ADVERSARY_VALUE_HOOKS
    ):
        return None
    strategy = adversary.values
    hooks = tuple(
        array_hook(strategy, name)
        for name in (
            "attack_camps_many",
            "departure_values_many",
            "corrupted_computes_many",
        )
    )
    if None in hooks:
        return None
    if semantics.cured_send is CuredSendBehavior.PLANTED_QUEUE:
        kind = type(strategy)
        if not (
            kind.planted_message is ValueStrategy.planted_message
            and kind.planted_outbox is ValueStrategy.planted_outbox
            and kind.planted_camps is ValueStrategy.planted_camps
        ):
            return None
    return _strategy_key(strategy), hooks


def _flat_index(rows: list[int], sets: list) -> tuple[list[int], list[int]]:
    """``(rows, cols)`` fancy-index lists of every member of ``sets[i]``."""
    flat_rows: list[int] = []
    flat_cols: list[int] = []
    for i in rows:
        members = sets[i]
        flat_rows += [i] * len(members)
        flat_cols += members
    return flat_rows, flat_cols


def _positions_valid(moved, f: int, n: int) -> bool:
    """Whether every row holds at most ``f`` agents on valid ids."""
    if not moved:
        return True
    if max(map(len, moved)) > f:
        return False
    occupied = frozenset().union(*moved)
    return not occupied or (min(occupied) >= 0 and max(occupied) < n)


def _round_plan(
    round_index, faulty, cured, after, memory, overrides, computes
) -> "RoundPlan":
    """A mobile :class:`RoundPlan`, filled in one ``__dict__`` update.

    Field for field what the dataclass constructor stores (mobile
    plans leave ``forced_silent`` and ``static_classes`` at their
    defaults), at a third of the frozen ``__init__``'s cost -- the
    cross-run planner builds one plan per run per round.
    """
    plan = object.__new__(RoundPlan)
    plan.__dict__.update(
        round_index=round_index,
        faulty_at_send=faulty,
        cured_at_send=cured,
        positions_after=after,
        memory_corruptions=memory,
        send_overrides=overrides,
        forced_silent=_EMPTY,
        compute_corruptions=computes,
        static_classes=None,
    )
    return plan


def _exact_range(row, mask_row) -> tuple[float, float]:
    """The correct range of one row, exactly as the view computes it.

    Masked min/max with a ``0.0`` endpoint resolved by the first-wins
    scan (either signed zero compares equal); a row with no correct
    process ranges over every value (see
    :meth:`AdversaryView._correct_range_from_array`).
    """
    sub = row[mask_row]
    if not sub.shape[0]:
        sub = row
    low = sub.min()
    high = sub.max()
    if low == 0.0:
        low = sub[int(_np.argmax(sub == 0.0))]
    if high == 0.0:
        high = sub[int(_np.argmax(sub == 0.0))]
    return float(low), float(high)


class _Layout:
    """One active set's split into movement and value lanes."""

    __slots__ = (
        "runs",
        "rngs",
        "movers",
        "valuers",
        "planted",
        "m4",
        "scalar",
        "live",
        "placing",
        "moving",
        "lanes",
    )


def _value_lanes(rows: list[int], layout: _Layout) -> list[tuple]:
    """Group ``rows`` by value lane.

    Each lane is ``(rows, hooks, shared, planted, m4_moving)``:
    ``hooks`` the first run's array hooks, ``shared`` whether one
    outbox serves every sender, ``planted`` whether cured senders run
    M3 planted queues, and ``m4_moving`` the lane's M4 rows grouped by
    movement lane as ``(rows, hook)``.
    """
    grouped: dict = {}
    for i in rows:
        grouped.setdefault(
            (layout.valuers[i][0], layout.planted[i]), []
        ).append(i)
    lanes = []
    for (key, planted), lane_rows in grouped.items():
        moving: dict = {}
        for i in lane_rows:
            if layout.m4[i]:
                moving.setdefault(layout.movers[i][0], []).append(i)
        lanes.append(
            (
                lane_rows,
                layout.valuers[lane_rows[0]][1],
                key[2],
                planted,
                [(m, layout.movers[m[0]][1]) for m in moving.values()],
            )
        )
    return lanes


class CrossRunPlanner:
    """Batched per-round fault planning for R lockstep mobile runs.

    The cross-run engine (:func:`repro.runtime.simulator.simulate_many`)
    advances a whole batch of compatible runs on one ``(R, n)`` state
    matrix; this planner produces each run's :class:`RoundPlan` for a
    round in a few whole-stack passes:

    * movement -- runs are grouped into *lanes* of equal movement
      strategies, and each lane moves in one
      :meth:`~repro.faults.movement.MovementStrategy.next_positions_many`
      call (one ``(positions + stride) % n`` array pass for the
      round-robin walk);
    * exclusion masks and correct ranges -- one masked min/max over the
      stack (:func:`~repro.faults.view.batch_correct_ranges`);
    * departures, attack camps, M3 planted queues and compute
      corruptions -- lanes of equal value strategies call the array
      hooks of :class:`~repro.faults.value_strategies.ValueStrategy`
      (``departure_values_many``, ``attack_camps_many``,
      ``corrupted_computes_many``) once per lane; the memory-corruption
      patch is one fancy-indexed assignment;
    * adversary outputs are checked per lane (finite values, camp
      indices within the declared camps, agent counts and ids); a
      failing lane replays the per-sender checks to raise the scalar
      path's exact message.

    Bit-identity with :meth:`MobileFaultController.plan_round` is the
    contract, down to iteration orders: each plan is materialized per
    run with the same frozensets (built in the scalar insertion order),
    the same :class:`CampOutbox` sharing and the same mapping orders.
    The rng-order contract: a run's draws happen in per-cell order --
    movement, then departures, then attacks per sender in ``positions``
    iteration order, then planted queues, then computes (M4: attacks,
    movement, computes) -- because every stage runs lane by lane and
    each run draws only from its own rng.

    Runs whose value strategy has no array form (the base hooks) or
    whose :class:`Adversary` subclass re-routes a value hook are
    planned whole by their own :meth:`MobileFaultController.plan_round`
    inside the same call -- the scalar reference path.

    Runs may mix models, movements and attacks; they must share ``n``.
    Round 0 never reaches the planner -- the engine plans it per run,
    which also initializes agent positions.

    After each call the planner keeps the round's position arrays for
    the engine, which builds its silence and extent masks from them
    without re-reading the plans: :attr:`mask` (the ``(R, n)``
    exclusion mask, False at agent hosts and cured processes),
    :attr:`hosts_index` and :attr:`after_index` (``(rows, cols)``
    fancy-index lists of the hosts at send time and after the round).
    """

    def __init__(self, controllers, rngs, wrap) -> None:
        for controller in controllers:
            if not isinstance(controller, MobileFaultController):
                raise TypeError(
                    "CrossRunPlanner requires MobileFaultControllers, got "
                    f"{type(controller).__name__}"
                )
        self.controllers = list(controllers)
        self.rngs = list(rngs)
        #: Array-backed Mapping constructor (ArrayValues, injected to
        #: avoid a circular import with the simulator module).
        self._wrap = wrap
        self._movers = []
        self._valuers = []
        self._planted = []
        for controller in self.controllers:
            adversary = controller.adversary
            key, hook = _movement_lane(adversary)
            self._movers.append(((key, controller.f), hook))
            lane = _value_lane(adversary, controller.semantics)
            if lane is not None:
                lane = (
                    (lane[0], controller.f, adversary.shares_round_outboxes),
                    lane[1],
                )
            self._valuers.append(lane)
            self._planted.append(
                controller.semantics.cured_send is CuredSendBehavior.PLANTED_QUEUE
            )
        self._layouts: dict[tuple, _Layout] = {}
        self.mask = None
        self.hosts_index: tuple = ([], [])
        self.after_index: tuple = ([], [])

    def _layout(self, indices) -> "_Layout":
        """How the runs of ``indices`` split into lanes (cached).

        The split depends only on which runs are active, so it is
        computed once per active set -- unless some run has no agent
        positions yet (a round 0 the engine did not plan), in which
        case it is rebuilt until every run is placed.
        """
        key = tuple(indices)
        layout = self._layouts.get(key)
        if layout is not None:
            return layout
        layout = _Layout()
        layout.runs = runs = [self.controllers[r] for r in indices]
        layout.rngs = [self.rngs[r] for r in indices]
        layout.movers = movers = [self._movers[r] for r in indices]
        layout.valuers = valuers = [self._valuers[r] for r in indices]
        layout.planted = [self._planted[r] for r in indices]
        layout.m4 = m4 = [c.semantics.moves_with_message for c in runs]
        # Runs without agents or without array value forms are planned
        # whole by their own controller: the scalar reference path.
        layout.scalar = [
            i for i, c in enumerate(runs) if c.f == 0 or valuers[i] is None
        ]
        layout.live = live = [
            i for i, c in enumerate(runs) if c.f != 0 and valuers[i] is not None
        ]
        layout.placing = [i for i in live if runs[i]._positions is None]
        moving: dict = {}
        for i in live:
            if not m4[i] and runs[i]._positions is not None:
                moving.setdefault(movers[i][0], []).append(i)
        layout.moving = [(rows, movers[rows[0]][1]) for rows in moving.values()]
        layout.lanes = _value_lanes(live, layout)
        if not layout.placing:
            self._layouts[key] = layout
        return layout

    def plan_many(self, round_index: int, stack, indices):
        """Plan ``round_index`` for the runs in ``indices``.

        ``stack`` holds one row per entry of ``indices`` (the active
        runs' current values, pre-corruption).  Returns ``(plans,
        patched)`` where ``plans`` aligns with ``indices`` and
        ``patched`` is the stack with each run's memory corruptions
        applied -- the send-phase snapshot (aliases ``stack`` when no
        run corrupted memory).  Requires ``round_index >= 1``.
        """
        np = _np
        wrap = self._wrap
        count, n = stack.shape
        layout = self._layout(indices)
        runs = layout.runs
        rngs = layout.rngs
        m4 = layout.m4
        plans: list = [None] * count
        hosts: list = [_EMPTY] * count
        cured: list = [_EMPTY] * count

        # -- stage 1: scalar runs whole; movement (M1-M3) per lane ------
        for i in layout.scalar:
            plan = runs[i].plan_round(round_index, wrap(stack[i]), rngs[i])
            plans[i] = plan
            hosts[i] = plan.faulty_at_send
            cured[i] = plan.cured_at_send
        for i in layout.live:
            if m4[i]:
                hosts[i] = runs[i]._positions
        for i in layout.placing:
            controller = runs[i]
            hosts[i] = controller.adversary.initial_positions(
                controller.n, controller.f, rngs[i]
            )
        for rows, hook in layout.moving:
            current = [runs[i]._positions for i in rows]
            moved = self._move(round_index, stack, layout, rows, hook, current)
            for i, old, new in zip(rows, current, moved):
                hosts[i] = new
                cured[i] = old - new

        # -- stage 2: exclusion masks + correct ranges, whole stack -----
        everyone = range(count)
        host_rows, host_cols = _flat_index(everyone, hosts)
        cured_rows, cured_cols = _flat_index(everyone, cured)
        mask = np.ones((count, n), dtype=bool)
        mask[host_rows + cured_rows, host_cols + cured_cols] = False
        lows, highs, exact = batch_correct_ranges(stack, mask)
        # Signed-zero endpoints resolve as the view's first-wins scan
        # does.  A row with no correct process ranges over all of its
        # values -- pre- and post-corruption ones, so its attack range
        # is taken again after the patch.
        unmasked = set()
        if not all(exact):
            for i in layout.live:
                if not exact[i]:
                    lows[i], highs[i] = _exact_range(stack[i], mask[i])
                    if not mask[i].any():
                        unmasked.add(i)

        patched = stack.copy() if cured_rows else stack
        for i in layout.scalar:
            corrupted = plans[i].memory_corruptions
            if corrupted:
                patched[i, list(corrupted)] = list(corrupted.values())
        after = list(hosts) if any(m4) else hosts
        for i in layout.scalar:
            after[i] = plans[i].positions_after

        # -- stage 3: per lane -- departures, patch, attacks, computes --
        # Each lane runs the per-cell order on its own rows: departures
        # on the pre-corruption values, then the rows' corruption patch,
        # then attack camps and planted queues on the patched values,
        # then (M4) the ride to the next hosts, then compute corruptions.
        outbox = CampOutbox.of
        proxy = MappingProxyType
        for rows, hooks, shared, planted, m4_moving in layout.lanes:
            view = StackView(
                round_index,
                n,
                runs[rows[0]].f,
                [hosts[i] for i in rows],
                stack if len(rows) == count else stack[rows],
                [rngs[i] for i in rows],
                low=[lows[i] for i in rows],
                high=[highs[i] for i in rows],
            )
            pids = [cured[i] for i in rows]
            values = hooks[1](view, pids)
            _check_scalars(values, pids, "departure value")
            corruptions = [dict(zip(*pair)) for pair in zip(pids, values)]
            corr_rows: list[int] = []
            for i, row_pids in zip(rows, pids):
                corr_rows += [i] * len(row_pids)
            if corr_rows:
                patched[corr_rows, list(chain.from_iterable(pids))] = list(
                    chain.from_iterable(values)
                )
            view.values = patched if len(rows) == count else patched[rows]
            for row, i in enumerate(rows):
                if i in unmasked:
                    view.low[row], view.high[row] = _exact_range(patched[i], mask[i])

            # Sender-agnostic lanes ask for one outbox per role (the
            # first host's and the first cured's): the scalar path
            # shares them across senders.
            if shared:
                if planted:
                    senders = [
                        list(hosts[i])[:1] + list(cured[i])[:1] for i in rows
                    ]
                else:
                    senders = [list(hosts[i])[:1] for i in rows]
                attack_counts = [min(len(hosts[i]), 1) for i in rows]
            else:
                senders = [
                    [*hosts[i], *cured[i]] if planted else list(hosts[i])
                    for i in rows
                ]
                attack_counts = [len(hosts[i]) for i in rows]
            codes, camp_values = hooks[0](view, senders)
            assignments = _checked_camps(codes, camp_values, senders, attack_counts, n)
            overrides = []
            if shared:
                for i, assignment, camps in zip(rows, assignments, camp_values):
                    send = dict.fromkeys(hosts[i], outbox(camps[0], assignment))
                    if planted and cured[i]:
                        send.update(
                            dict.fromkeys(cured[i], outbox(camps[-1], assignment))
                        )
                    overrides.append(send)
            else:
                for assignment, camps, row_senders in zip(
                    assignments, camp_values, senders
                ):
                    overrides.append(
                        {
                            pid: outbox(camp, assignment)
                            for pid, camp in zip(row_senders, camps)
                        }
                    )

            for moving_rows, hook in m4_moving:
                current = [hosts[i] for i in moving_rows]
                moved = self._move(
                    round_index, stack, layout, moving_rows, hook, current
                )
                for i, new in zip(moving_rows, moved):
                    after[i] = new
            pids = [after[i] for i in rows]
            values = hooks[2](view, pids)
            _check_scalars(values, pids, "corrupted compute")
            for i, row_pids, row_values, corrupted, send in zip(
                rows, pids, values, corruptions, overrides
            ):
                computes = proxy(dict(zip(row_pids, row_values)))
                if m4[i]:
                    plans[i] = _round_plan(
                        round_index, hosts[i], _EMPTY, row_pids, {},
                        proxy(send), computes,
                    )
                else:
                    plans[i] = _round_plan(
                        round_index, row_pids, cured[i], row_pids,
                        proxy(corrupted), proxy(send), computes,
                    )
                runs[i]._positions = row_pids

        self.mask = mask
        self.hosts_index = (host_rows, host_cols)
        self.after_index = (
            _flat_index(everyone, after) if after is not hosts else self.hosts_index
        )
        return plans, patched

    def _move(self, round_index, stack, layout, rows, hook, current):
        """One lane's next positions, checked like `_check_positions`."""
        runs = layout.runs
        rngs = layout.rngs
        wrap = self._wrap
        first = runs[rows[0]]
        view = StackView(
            round_index,
            first.n,
            first.f,
            current,
            stack if len(rows) == len(stack) else stack[rows],
            [rngs[i] for i in rows],
            lambda row: runs[rows[row]]._view(
                round_index,
                wrap(stack[rows[row]]),
                current[row],
                _EMPTY,
                rngs[rows[row]],
            ),
        )
        moved = hook(view)
        if not _positions_valid(moved, first.f, first.n):
            for i, positions in zip(rows, moved):
                runs[i]._check_positions(positions)
        return moved


def _check_scalars(values, pids, what: str) -> None:
    """Every value of a lane finite, else the scalar path's exact error."""
    if math.isfinite(sum(chain.from_iterable(values))):
        return
    for row_pids, row_values in zip(pids, values):
        for pid, value in zip(row_pids, row_values):
            _checked_value(value, f"{what} for p{pid}")


def _checked_camps(codes, camp_values, senders, attack_counts, n: int):
    """Validate one lane's camps; returns each row's shared assignment.

    The happy path is a few C-level passes over the whole lane; a
    failure replays the per-sender checks of `_camp_outbox` in the
    scalar order (``senders[r][:attack_counts[r]]`` attack, the rest
    planted queues), so the error names the same sender and reason.
    """
    rows = len(senders)
    counts = list(map(len, chain.from_iterable(camp_values)))
    shared = isinstance(codes, CampAssignment)
    if shared:
        array = codes.array
        ok = len(codes) == n
    else:
        array = codes
        ok = codes.shape == (rows, n)
    if ok and counts and array.size:
        ok = int(array.min()) >= 0 and int(array.max()) < min(counts)
    # A finite sum proves every term finite; an overflowing sum of
    # finite values only sends the lane through the exact replay.
    ok = ok and len(camp_values) == rows and math.isfinite(
        sum(chain.from_iterable(chain.from_iterable(camp_values)))
    )
    if shared:
        assignments = [codes] * rows
    else:
        assignments = []
        for row_codes, row_list in zip(codes, codes.tolist()):
            assignment = CampAssignment(row_list)
            assignment.array = row_codes
            assignments.append(assignment)
    if not ok:
        for assignment, values, row_senders, attacks in zip(
            assignments, camp_values, senders, attack_counts
        ):
            for slot, (pid, camp) in enumerate(zip(row_senders, values)):
                role = "attack" if slot < attacks else "planted"
                RecipientCamps(values=camp, assignment=assignment).validate(
                    n, f"{role} camps p{pid}"
                )
        if len(assignments) != rows or len(camp_values) != rows:
            raise ValueError(
                f"recipient camps: array hook returned {len(camp_values)} "
                f"rows of camp values for a lane of {rows} runs"
            )
    return assignments
