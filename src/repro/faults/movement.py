"""Agent movement strategies: where the mobile Byzantine agents go.

Section 3 of the paper: between rounds, the adversary may move each of
its ``f`` agents arbitrarily (for M4, the move happens with the
message).  A :class:`MovementStrategy` chooses the set of occupied
processes each round; the fault controller enforces the model's timing.

Strategies must return at most ``f`` positions.  Staying put is always
allowed ("agents *can* move" -- they do not have to), which is what
:class:`StaticAgents` exploits to degenerate the mobile model into the
classical static Byzantine model for comparison experiments.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections.abc import Sequence

try:  # numpy is optional: every strategy has a scalar path.
    import numpy as _np
except Exception:  # pragma: no cover - exercised only without numpy
    _np = None

from .view import AdversaryView, StackView

__all__ = [
    "MovementStrategy",
    "StaticAgents",
    "RoundRobinWalk",
    "RandomJump",
    "AlternatingPools",
    "TargetExtremes",
    "ScriptedMovement",
]


class MovementStrategy(ABC):
    """Base class for agent movement policies."""

    @abstractmethod
    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        """Agent positions at round 0 (no process is cured yet)."""

    @abstractmethod
    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        """Agent positions for the next movement step."""

    def next_positions_many(self, stack: StackView) -> list[frozenset[int]]:
        """Next agent positions for every row of a stack of runs.

        The cross-run planner's batch form of :meth:`next_positions`:
        row ``r`` of the result must equal -- including its iteration
        order -- what :meth:`next_positions` returns on
        ``stack.view(r)``, and rows that draw randomness draw exactly
        the scalar sequence from ``stack.rngs[r]``.  The planner hands
        an override only rows whose strategies are of one class with
        equal attributes, so an override may treat them as one
        strategy.  This base form loops the scalar hook per row, in
        row order; the planner calls it once per run (a strategy with
        per-instance state, such as :class:`ScriptedMovement`, keeps
        it).
        """
        return [self.next_positions(stack.view(row)) for row in range(len(stack))]

    def describe(self) -> str:
        """Short name used in experiment tables."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

    @staticmethod
    def _validate(positions: frozenset[int], n: int, f: int) -> frozenset[int]:
        if len(positions) > f:
            raise ValueError(
                f"movement placed {len(positions)} agents but only f={f} exist"
            )
        if positions and (min(positions) < 0 or max(positions) >= n):
            bad = [pid for pid in positions if pid < 0 or pid >= n]
            raise ValueError(f"movement placed agents on invalid ids {bad}")
        return positions


class StaticAgents(MovementStrategy):
    """Agents never move: the classical static Byzantine special case."""

    def __init__(self, positions: Sequence[int] | None = None) -> None:
        self._fixed = None if positions is None else frozenset(positions)

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        positions = self._fixed if self._fixed is not None else frozenset(range(f))
        return self._validate(positions, n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        return view.positions

    def next_positions_many(self, stack: StackView) -> list[frozenset[int]]:
        return list(stack.positions)

    def describe(self) -> str:
        return "static"


class RoundRobinWalk(MovementStrategy):
    """Agents sweep the ring: positions shift by ``stride`` each round.

    With the default ``stride = f`` every process is eventually visited,
    maximising the number of distinct processes that experience the
    cured state -- the canonical "perturbation sweeping across the
    network" scenario from the paper's introduction.
    """

    def __init__(self, stride: int | None = None) -> None:
        if stride is not None and stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        return self._validate(frozenset(range(min(f, n))), n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        stride = self.stride if self.stride is not None else max(view.f, 1)
        positions = view.positions
        if _np is not None and len(positions) >= 32:
            # Same set, computed in one vector op: frozenset equality
            # (and iteration order, which hashes by value for small
            # ints) is independent of construction order.
            stepped = _np.fromiter(positions, dtype=_np.int64, count=len(positions))
            moved = frozenset(((stepped + stride) % view.n).tolist())
        else:
            moved = frozenset((pid + stride) % view.n for pid in positions)
        return self._validate(moved, view.n, view.f)

    def next_positions_many(self, stack: StackView) -> list[frozenset[int]]:
        """One ``(positions + stride) % n`` pass over the whole stack.

        Each row is laid out in its frozenset's iteration order, so
        every new frozenset is built in the scalar path's insertion
        order and iterates identically.  Rows of unequal size (only
        hand-placed starts produce them) take the scalar hook.
        """
        positions = stack.positions
        width = len(positions[0])
        if _np is None or not width or any(len(p) != width for p in positions):
            return super().next_positions_many(stack)
        stride = self.stride if self.stride is not None else max(stack.f, 1)
        hosts = _np.array([list(p) for p in positions], dtype=_np.int64)
        return list(map(frozenset, ((hosts + stride) % stack.n).tolist()))

    def describe(self) -> str:
        return f"round-robin(stride={self.stride or 'f'})"


class RandomJump(MovementStrategy):
    """Each round the agents jump to a fresh uniformly random subset.

    ``move_probability`` below 1.0 makes each round's jump conditional,
    producing bursty occupations (agents linger, then scatter).
    """

    def __init__(self, move_probability: float = 1.0) -> None:
        if not 0.0 <= move_probability <= 1.0:
            raise ValueError("move_probability must be within [0, 1]")
        self.move_probability = move_probability

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        count = min(f, n)
        return self._validate(frozenset(rng.sample(range(n), count)), n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        if view.rng.random() > self.move_probability:
            return view.positions
        count = min(view.f, view.n)
        return self._validate(
            frozenset(view.rng.sample(range(view.n), count)), view.n, view.f
        )

    def next_positions_many(self, stack: StackView) -> list[frozenset[int]]:
        """Each row's draws from its own rng, in the scalar order."""
        probability = self.move_probability
        population = range(stack.n)
        count = min(stack.f, stack.n)
        moved = []
        for positions, rng in zip(stack.positions, stack.rngs):
            if rng.random() > probability:
                moved.append(positions)
            else:
                moved.append(frozenset(rng.sample(population, count)))
        return moved

    def describe(self) -> str:
        if self.move_probability >= 1.0:
            return "random-jump"
        return f"random-jump(p={self.move_probability:g})"


class AlternatingPools(MovementStrategy):
    """Agents alternate between two disjoint pools of processes.

    The workhorse of the lower-bound stall scenarios: the pool vacated
    this round is exactly the cured set of the next round, so the
    adversary sustains ``|cured| = f`` forever (the per-round worst case
    of Corollary 1).
    """

    def __init__(self, pool_a: Sequence[int], pool_b: Sequence[int]) -> None:
        self.pool_a = frozenset(pool_a)
        self.pool_b = frozenset(pool_b)
        if self.pool_a & self.pool_b:
            raise ValueError("pools must be disjoint")
        if not self.pool_a or not self.pool_b:
            raise ValueError("pools must be non-empty")

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        return self._validate(self.pool_a, n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        target = self.pool_b if view.positions == self.pool_a else self.pool_a
        return self._validate(target, view.n, view.f)

    def describe(self) -> str:
        return "alternating-pools"


class TargetExtremes(MovementStrategy):
    """Occupy the processes holding the most extreme values.

    A greedy adversary that corrupts whichever processes currently
    anchor the ends of the correct range, maximising the information
    destroyed per move.
    """

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        return self._validate(frozenset(range(min(f, n))), n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        candidates = sorted(
            view.values, key=lambda pid: (view.values[pid], pid)
        )
        picked: set[int] = set()
        low, high = 0, len(candidates) - 1
        # Alternate ends so both extremes lose their anchors.
        while len(picked) < min(view.f, view.n) and low <= high:
            picked.add(candidates[low])
            low += 1
            if len(picked) < min(view.f, view.n) and low <= high:
                picked.add(candidates[high])
                high -= 1
        return self._validate(frozenset(picked), view.n, view.f)

    def describe(self) -> str:
        return "target-extremes"


class ScriptedMovement(MovementStrategy):
    """Positions read from an explicit per-movement script.

    ``script[0]`` is the initial placement; each subsequent call to
    :meth:`next_positions` consumes the next entry (one call happens per
    movement step).  Steps beyond the script's end repeat the last
    entry.  Used by regression tests to pin exact executions (e.g. the
    E1/E2/E3 constructions).
    """

    def __init__(self, script: Sequence[Sequence[int]]) -> None:
        if not script:
            raise ValueError("script must contain at least one entry")
        self.script = [frozenset(entry) for entry in script]
        self._step = 0

    def initial_positions(self, n: int, f: int, rng: random.Random) -> frozenset[int]:
        self._step = 1
        return self._validate(self.script[0], n, f)

    def next_positions(self, view: AdversaryView) -> frozenset[int]:
        index = min(self._step, len(self.script) - 1)
        self._step += 1
        return self._validate(self.script[index], view.n, view.f)

    def describe(self) -> str:
        return f"scripted({len(self.script)} steps)"
