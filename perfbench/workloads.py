"""One benchmark run of one workload, in its own process.

Started by ``run.py``; not meant to be run by hand.  The process sets
up (imports ``repro``, generates its inputs from the seed, warms up),
prints ``READY <factor>`` just before its first timed operation
(``factor`` scales the set-up time to the reference machine speed, from
speed readings taken at the start and the end of set-up), measures for
``--seconds``, checks the outputs outside the timed section, and
prints one JSON object as its last line.  With ``--setup-only`` it
exits right after ``READY`` (``run.py`` repeats set-up to take its
median).

``--trace 0`` reports the end-to-end metrics measured with tracing
off.  ``--trace 1`` installs the span wrappers of ``tracer.py``,
repeats the timed pass traced, replays the same operations untraced to
measure the tracing overhead, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import random
import shutil
import statistics
import sys
import threading
import time
from itertools import combinations
from pathlib import Path

from speed import REFERENCE_NS, SpeedLog, SpeedMonitor, calibrate_ns

HERE = Path(__file__).resolve().parent
LAYERS = json.loads((HERE / "layers.json").read_text())

SIZES = (13, 33, 97, 385)
#: Cycles of the single-run probe: 800 samples per size leave 40 beyond p95;
#: 400-cycle probes gave three times the run-to-run spread of their medians.
PROBE_CYCLES = 800
#: Speed readings at each end of set-up (about 0.3 ms each).
SETUP_READINGS = 5
#: Client-side timeout of one daemon request; a deadlocked server ends
#: the run as counted failures instead of a hang.
CLIENT_TIMEOUT_S = 20.0


def derive_seed(seed: int, workload: str) -> int:
    """The workload's input seed: a hash of the seed argument and its label."""
    label = LAYERS["seed_labels"][workload]
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def percentile(values, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def machine() -> dict:
    """Fingerprint of the machine as the program sees it."""
    import numpy

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "usable_cpus": affinity,
        "repro_cpus_env": os.environ.get("REPRO_CPUS"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }


def single_run(n: int, seed: int, detail: str):
    import repro

    return repro.simulate(
        model="M3", f=(n - 1) // 6, n=n, rounds=20, movement="round-robin",
        attack="split", trace_detail=detail, seed=seed,
    )


def probe_single_runs(seed: int) -> dict[str, float]:
    """Single-run latency by size, measured after a sweep or daemon pass.

    Gives the ``run_ms_*`` metrics a measured value on workloads whose
    own operations are not single runs: ``PROBE_CYCLES`` lite runs per
    size, interleaved, through the same loop as ``runs-lite``.
    """
    probe = SingleRuns(seed, "lite")
    probe.measure(cycles=PROBE_CYCLES)
    return probe.size_metrics()


class Outcome:
    """What a timed pass did: its operation count, wall time and failures."""

    def __init__(self) -> None:
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.incorrect: list[str] = []
        self.wall_s = 0.0

    def fail(self, count: int = 1) -> None:
        self.failed += count


# -- sweep-table2 ----------------------------------------------------------------


class SweepTable2:
    """Cold-cache Table-2 sweep: M1-M4 at n = required_n(f), f in {2, 4, 8}.

    The work runs in pool workers, so a :class:`speed.SpeedMonitor`
    thread samples machine speed while the sweeps run; sweep and
    delivery times are scaled to the reference speed second by second.
    """

    lanes = 2

    def __init__(self, seed: int) -> None:
        from repro.sweep import GridSpec

        self.rng = random.Random(seed)
        seeds = tuple(sorted(self.rng.sample(range(1_000_000), 8)))
        self.grid = GridSpec(
            models=("M1", "M2", "M3", "M4"), fs=(2, 4, 8),
            families=("bonomi", "tseng"), movements=("round-robin", "random"),
            attacks=("split", "outlier", "noise", "crossfire"),
            seeds=seeds, rounds=40,
        )
        self.warm_grid = GridSpec(
            models=self.grid.models, fs=(2,), families=self.grid.families,
            movements=self.grid.movements, attacks=("split",),
            seeds=seeds[:2], rounds=40,
        )
        self.first = None
        #: ``(start, end, cells, delivery times)`` per timed sweep.
        self.sweeps: list[tuple[float, float, int, list[float]]] = []
        self.speed = SpeedLog()
        self.probe_seed = self.rng.randrange(2**31)

    def warm_up(self) -> None:
        from repro.sweep import run_sweep

        run_sweep(self.warm_grid, workers=2, cross_run=True)

    def _sweep(self, outcome: Outcome, record: bool) -> None:
        from repro.sweep import run_sweep
        from repro.telemetry import parse_dispatch_label

        start = time.perf_counter()
        delivered = []

        def progress(result, done, total):
            delivered.append(time.perf_counter())

        result = run_sweep(self.grid, workers=2, cross_run=True, progress=progress)
        end = time.perf_counter()
        if record:
            self.sweeps.append((start, end, len(result), delivered))
        outcome.ops += 1
        outcome.attempted += len(result)
        unsatisfied = sum(1 for cell in result if not cell.satisfied)
        if unsatisfied:
            outcome.fail(unsatisfied)
            outcome.incorrect.append(f"{unsatisfied} cells erred or failed the spec")
        if self.first is None:
            self.first = result
        elif tuple(result.cells) != tuple(self.first.cells):
            outcome.fail(len(result))
            outcome.incorrect.append("sweep results differ between repeats")
        self.lanes = 2 if parse_dispatch_label(result.dispatch).pooled else 1

    def measure(self, seconds: float, tracer=None) -> Outcome:
        outcome = Outcome()
        with SpeedMonitor() as self.speed:
            while time.perf_counter() - self.speed.start < seconds:
                if tracer is not None:
                    tracer.set_op(outcome.ops + 1)
                self._sweep(outcome, record=True)
        outcome.wall_s = time.perf_counter() - self.speed.start
        return outcome

    def replay(self, ops: int) -> float:
        start = time.perf_counter()
        scratch = Outcome()
        for _ in range(ops):
            self._sweep(scratch, record=False)
        return time.perf_counter() - start

    def verify(self, outcome: Outcome) -> None:
        """Rerun a seeded sample of cells through run_cell; compare bit for bit."""
        from repro.sweep import run_cell

        by_key = self.first.by_key()
        for cell in self.rng.sample(list(self.grid.cells()), 8):
            direct = run_cell(cell)
            swept = by_key[cell.key]
            if direct != swept or repr(direct) != repr(swept):
                outcome.fail()
                outcome.incorrect.append(f"run_cell mismatch: {cell.describe()}")

    def end_to_end(self, outcome: Outcome) -> dict[str, float]:
        scaled = self.speed.scaled
        cells_per_s = (sum(cells for _, _, cells, _ in self.sweeps)
                       / sum(scaled(t0, t1) for t0, t1, _, _ in self.sweeps))
        delivery = [1e3 * scaled(t0, t) for t0, _, _, times in self.sweeps for t in times]
        metrics = {
            "cells_per_s": cells_per_s,
            "requests_per_s": cells_per_s,
            "request_ms_p50": percentile(delivery, 50),
            "request_ms_p99": percentile(delivery, 99),
        }
        metrics.update(probe_single_runs(self.probe_seed))
        return metrics

    def context(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# -- runs-lite / runs-full -------------------------------------------------------


class SingleRuns:
    """One caller running single simulations, sizes interleaved 13->385.

    The loop takes a speed reading (:mod:`speed`) before each cycle of
    four sizes, in its own thread, so medians and rates can be scaled
    to the reference machine speed second by second.
    """

    lanes = 1
    #: Every ``SAMPLE_EVERY``-th operation keeps its decisions for checking.
    SAMPLE_EVERY = 41

    def __init__(self, seed: int, detail: str) -> None:
        self.detail = detail
        self.seed = seed
        self.seeds: list[int] = []
        self._rng = random.Random(seed)
        #: ``(start time, n, latency ms)`` per recorded operation.
        self.log: list[tuple[float, int, float]] = []
        self.speed = SpeedLog()
        self.samples: list[tuple[int, int, dict]] = []

    def _op_seed(self, index: int) -> int:
        while len(self.seeds) <= index:
            self.seeds.append(self._rng.randrange(2**31))
        return self.seeds[index]

    def _op(self, index: int, outcome: Outcome, record: bool) -> None:
        import repro

        n = SIZES[index % len(SIZES)]
        run_seed = self._op_seed(index)
        start = time.perf_counter()
        try:
            trace = single_run(n, run_seed, self.detail)
            ok = repro.check(trace).satisfied if self.detail == "full" else True
        except Exception as exc:  # a failed operation, counted, not fatal
            print(f"op {index} (n={n}) raised {exc!r}", file=sys.stderr)
            trace, ok = None, False
        elapsed = (time.perf_counter() - start) * 1e3
        outcome.ops += 1
        outcome.attempted += 1
        if not ok:
            outcome.fail()
            outcome.incorrect.append(f"op {index} (n={n}, seed={run_seed}) failed")
        if record:
            self.log.append((start, n, elapsed))
            if trace is not None and index % self.SAMPLE_EVERY == 0:
                self.samples.append((n, run_seed, dict(trace.decisions)))

    def warm_up(self) -> None:
        rng = random.Random(self.seed + 1)
        for n in SIZES:
            single_run(n, rng.randrange(2**31), self.detail)

    def measure(self, seconds: float | None = None, tracer=None,
                cycles: int | None = None) -> Outcome:
        """Run for ``seconds``, or for exactly ``cycles`` cycles of all sizes."""
        outcome = Outcome()
        self.speed = SpeedLog()
        start = self.speed.start
        while (time.perf_counter() - start < seconds if cycles is None
               else outcome.ops < cycles * len(SIZES)):
            if outcome.ops % len(SIZES) == 0:
                self.speed.sample()
            if tracer is not None:
                tracer.set_op(outcome.ops + 1)
            self._op(outcome.ops, outcome, record=True)
        outcome.wall_s = time.perf_counter() - start
        return outcome

    def replay(self, ops: int) -> float:
        scratch = Outcome()
        start = time.perf_counter()
        for index in range(ops):
            self._op(index, scratch, record=False)
        return time.perf_counter() - start

    def verify(self, outcome: Outcome) -> None:
        """Sampled lite decisions must equal the full-trace run of the same seed."""
        if self.detail == "full":
            return
        rng = random.Random(self.seed ^ 0x5EED)
        for n, run_seed, decisions in rng.sample(self.samples, min(8, len(self.samples))):
            full = single_run(n, run_seed, "full")
            if repr(sorted(full.decisions.items())) != repr(sorted(decisions.items())):
                outcome.fail()
                outcome.incorrect.append(f"lite/full decisions differ: n={n} seed={run_seed}")

    def size_metrics(self) -> dict[str, float]:
        metrics = {}
        for n in SIZES:
            scaled = [ms * self.speed.factor(t) for t, size, ms in self.log if size == n]
            metrics[f"run_ms_p50.n{n}"] = percentile(scaled, 50)
            metrics[f"run_ms_p95.n{n}"] = percentile(scaled, 95)
        return metrics

    def end_to_end(self, outcome: Outcome) -> dict[str, float]:
        scaled = [ms * self.speed.factor(t) for t, _, ms in self.log]
        # One caller in a closed loop: its rate is the inverse of its
        # mean operation time.
        per_s = 1e3 * len(scaled) / sum(scaled)
        metrics = self.size_metrics()
        metrics.update({
            "cells_per_s": per_s,
            "requests_per_s": per_s,
            "request_ms_p50": percentile(scaled, 50),
            "request_ms_p99": percentile(scaled, 99),
        })
        return metrics

    def context(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# -- daemon-mixed ----------------------------------------------------------------


class RequestStream:
    """The daemon's request sequence, generated from the seed.

    Each request is a grid of 16 cells: one model/f/movement shape,
    both families (bonomi and tseng), two attacks, a 4-seed window and
    30 rounds.  Every block of 12 requests holds, in a seeded order, 10
    repeats of one of the last ~100 distinct grids issued, 1 grid
    shifted by half its seed window from such a grid (partly cached)
    and 1 fresh grid, so the tier mix is the same on every seed.
    Request ``i`` is the same whichever client takes it.
    """

    UNIVERSE = 100
    BLOCK = ("repeat",) * 10 + ("shift", "fresh")

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._requests: list[dict] = []
        self._kinds: list[str] = []
        self._issued: list[dict] = []
        self._known: set[str] = set()
        self._fresh = 0
        self._next = 0
        self.shapes = [
            (model, f, movement)
            for model in ("M1", "M2", "M3", "M4")
            for f in (1, 2)
            for movement in ("round-robin", "random")
        ]
        self.attack_pairs = list(combinations(("split", "outlier", "noise", "crossfire"), 2))

    @staticmethod
    def _grid(shape, attacks, start) -> dict:
        model, f, movement = shape
        return {
            "models": [model], "fs": [f], "movements": [movement],
            "families": ["bonomi", "tseng"], "attacks": list(attacks),
            "seeds": list(range(start, start + 4)), "rounds": 30,
        }

    def _add_distinct(self, grid: dict) -> dict:
        key = json.dumps(grid, sort_keys=True)
        if key not in self._known:
            self._known.add(key)
            self._issued.append(grid)
        return grid

    def _generate(self) -> dict:
        rng = self._rng
        if not self._kinds:
            self._kinds = list(self.BLOCK)
            rng.shuffle(self._kinds)
        kind = self._kinds.pop()
        live = self._issued[-self.UNIVERSE:]
        if live and kind == "repeat":
            return rng.choice(live)
        if live and kind == "shift":
            base = rng.choice(live)
            return self._add_distinct(dict(base, seeds=[s + 2 for s in base["seeds"]]))
        self._fresh += 1
        grid = self._grid(rng.choice(self.shapes), rng.choice(self.attack_pairs),
                          8 * self._fresh)
        return self._add_distinct(grid)

    def request(self, index: int) -> dict:
        with self._lock:
            while len(self._requests) <= index:
                self._requests.append(self._generate())
            return self._requests[index]

    def take(self, limit: int | None = None) -> int | None:
        """The next request index for a client, or ``None`` past ``limit``."""
        with self._lock:
            index = self._next
            if limit is not None and index >= limit:
                return None
            self._next += 1
            return index

    def rewind(self) -> None:
        with self._lock:
            self._next = 0


class DaemonMixed:
    """In-process SweepServer(workers=1), two closed-loop client threads.

    ``workers=1`` is the ``sweep serve`` default; ``workers=2``
    deadlocks when two compute requests overlap (both handler threads
    block in ``ShmCrossRunBackend.execute_many``), which would end
    every run in client timeouts.  A :class:`speed.SpeedMonitor`
    thread samples machine speed; request times are scaled to the
    reference speed.
    """

    lanes = 1
    CLIENTS = 2

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.rng = random.Random(seed)
        self.stream = RequestStream(self.rng.randrange(2**63))
        self.out_dir = out_dir
        self.probe_seed = self.rng.randrange(2**31)
        self.server = None
        self.thread = None
        self.cache_dir = None
        self.responses: list[tuple[int, dict]] = []
        #: ``(start, end, latency ms, cells)`` per answered request.
        self.log: list[tuple[float, float, float, int]] = []
        self.tier_ms = {"cache": [], "compute": [], "mixed": []}
        self.speed = SpeedLog()
        self._runs = 0
        self._start_server()

    def _start_server(self) -> None:
        from repro.sweep import SweepServer

        self._runs += 1
        self.cache_dir = self.out_dir / f"cache-{os.getpid()}-{self._runs}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        self.server = SweepServer(cache_dir=self.cache_dir, workers=1)
        self.thread = self.server.start_background()

    def _stop_server(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.server = None
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def warm_up(self) -> None:
        from repro.sweep import request_json

        request_json(f"{self.server.address}/healthz", timeout=CLIENT_TIMEOUT_S)

    def _client(self, deadline, limit, outcome, lock, tracer, record) -> None:
        from repro.sweep import request_json, submit_sweep

        url = self.server.address
        while deadline is None or time.perf_counter() < deadline:
            index = self.stream.take(limit)
            if index is None:
                return
            grid = self.stream.request(index)
            start_ns = time.perf_counter_ns()
            try:
                if tracer is None:
                    response = submit_sweep(url, grid, timeout=CLIENT_TIMEOUT_S)
                else:
                    tracer.set_op(index + 1)
                    response = request_json(
                        f"{url}/sweep",
                        {"grid": grid, "trace_detail": "lite", "bench_op": index + 1},
                        timeout=CLIENT_TIMEOUT_S,
                    )
                error = None
            except Exception as exc:  # HTTP error, dropped connection, timeout
                response, error = None, exc
            end_ns = time.perf_counter_ns()
            if tracer is not None and response is not None:
                tracer.record_span("service.request", start_ns, end_ns)
            with lock:
                outcome.ops += 1
                outcome.attempted += 1
                if response is None:
                    outcome.fail()
                    if record:
                        print(f"request {index} failed: {error!r}", file=sys.stderr)
                    continue
                if response.get("errors") or not response.get("all_satisfied"):
                    outcome.fail()
                    outcome.incorrect.append(f"request {index}: error or spec-failing cells")
                if record:
                    latency = (end_ns - start_ns) / 1e6
                    self.log.append((start_ns / 1e9, end_ns / 1e9, latency, response["cells"]))
                    self.tier_ms[response["tier"]].append(latency)
                    self.responses.append((index, response))

    def _loop(self, seconds, limit, tracer, record) -> Outcome:
        outcome = Outcome()
        lock = threading.Lock()
        start = time.perf_counter()
        deadline = None if seconds is None else start + seconds
        clients = [
            threading.Thread(
                target=self._client,
                args=(deadline, limit, outcome, lock, tracer, record),
            )
            for _ in range(self.CLIENTS)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        outcome.wall_s = time.perf_counter() - start
        return outcome

    def measure(self, seconds: float, tracer=None) -> Outcome:
        with SpeedMonitor() as self.speed:
            return self._loop(seconds, None, tracer, record=True)

    def replay(self, ops: int) -> float:
        self._stop_server()
        self._start_server()
        self.stream.rewind()
        return self._loop(None, ops, None, record=False).wall_s

    def verify(self, outcome: Outcome) -> None:
        """Sampled response summaries must equal a direct run_sweep of the grid."""
        from repro.sweep import grid_from_payload, run_sweep

        self._stop_server()
        for index, response in self.rng.sample(self.responses, min(6, len(self.responses))):
            grid = grid_from_payload(self.stream.request(index))
            direct = [[str(v) for v in row] for row in run_sweep(grid).summary_rows()]
            if direct != response["summary"]:
                outcome.fail()
                outcome.incorrect.append(f"summary mismatch on request {index}")

    def end_to_end(self, outcome: Outcome) -> dict[str, float]:
        scaled = [ms * self.speed.factor(t) for t, _, ms, _ in self.log]
        # Closed loop (Little's law): throughput is the client count over
        # the mean request time.
        requests_per_s = self.CLIENTS * 1e3 * len(scaled) / sum(scaled)
        cells = sum(c for *_, c in self.log)
        metrics = {
            "cells_per_s": requests_per_s * cells / len(self.log),
            "requests_per_s": requests_per_s,
            "request_ms_p50": percentile(scaled, 50),
            "request_ms_p99": percentile(scaled, 99),
        }
        metrics.update(probe_single_runs(self.probe_seed))
        return metrics

    def context(self) -> dict:
        tiers = {tier: len(values) for tier, values in self.tier_ms.items()}
        cached = sum(r["cached"] for _, r in self.responses)
        computed = sum(r["computed"] for _, r in self.responses)
        return {
            "tiers": tiers,
            "tier_ms": self.tier_ms,
            "hit_ratio": cached / (cached + computed) if cached + computed else 0.0,
        }

    def close(self) -> None:
        self._stop_server()


# -- cache-mixed -----------------------------------------------------------------


class CachedSweeps:
    """One caller running the daemon's request stream through a cell cache.

    Each operation is ``run_sweep(grid, cache=store, cross_run=True)``
    on a fresh per-run cache directory, followed by ``summary_rows()``:
    the compute path of ``SweepServer.handle_sweep`` without HTTP or a
    second client.  The loop takes a speed reading before every fourth
    operation, as :class:`SingleRuns` does.
    """

    lanes = 1

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.rng = random.Random(seed)
        self.stream = RequestStream(self.rng.randrange(2**63))
        self.out_dir = out_dir
        self.probe_seed = self.rng.randrange(2**31)
        self.cache_dir = None
        self._runs = 0
        self.summaries: list[tuple[int, list[list[str]]]] = []
        #: ``(start time, latency ms, cells)`` per recorded operation.
        self.log: list[tuple[float, float, int]] = []
        self.hits = 0
        self.misses = 0
        self.speed = SpeedLog()
        self._fresh_cache()

    def _fresh_cache(self) -> None:
        self._drop_cache()
        self._runs += 1
        self.cache_dir = self.out_dir / f"cells-{os.getpid()}-{self._runs}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)

    def _drop_cache(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None

    def _op(self, index: int, outcome: Outcome, record: bool) -> None:
        from repro.sweep import CellStore, grid_from_payload, run_sweep

        grid = grid_from_payload(self.stream.request(index))
        start = time.perf_counter()
        try:
            result = run_sweep(grid, trace_detail="lite", cache=CellStore(self.cache_dir),
                               cross_run=True)
            summary = [[str(v) for v in row] for row in result.summary_rows()]
        except Exception as exc:  # a failed operation, counted, not fatal
            print(f"op {index} raised {exc!r}", file=sys.stderr)
            result = None
        elapsed = (time.perf_counter() - start) * 1e3
        outcome.ops += 1
        outcome.attempted += 1
        if result is None:
            outcome.fail()
            outcome.incorrect.append(f"op {index} raised")
            return
        if result.errors() or not result.all_satisfied:
            outcome.fail()
            outcome.incorrect.append(f"op {index}: error or spec-failing cells")
        if record:
            stats = result.cache_stats
            self.hits += stats.hits
            self.misses += stats.misses
            self.log.append((start, elapsed, len(result)))
            self.summaries.append((index, summary))

    def warm_up(self) -> None:
        """One uncached sweep of a grid drawn apart from the timed stream."""
        from repro.sweep import grid_from_payload, run_sweep

        grid = grid_from_payload(RequestStream(self.rng.randrange(2**63)).request(0))
        run_sweep(grid, trace_detail="lite", cross_run=True)

    def measure(self, seconds: float, tracer=None) -> Outcome:
        outcome = Outcome()
        self.speed = SpeedLog()
        start = self.speed.start
        while time.perf_counter() - start < seconds:
            if outcome.ops % 4 == 0:
                self.speed.sample()
            if tracer is not None:
                tracer.set_op(outcome.ops + 1)
            self._op(outcome.ops, outcome, record=True)
        outcome.wall_s = time.perf_counter() - start
        return outcome

    def replay(self, ops: int) -> float:
        self._fresh_cache()
        scratch = Outcome()
        start = time.perf_counter()
        for index in range(ops):
            self._op(index, scratch, record=False)
        return time.perf_counter() - start

    def verify(self, outcome: Outcome) -> None:
        """Sampled summaries must equal a direct, uncached run_sweep of the grid."""
        from repro.sweep import grid_from_payload, run_sweep

        for index, summary in self.rng.sample(self.summaries, min(6, len(self.summaries))):
            grid = grid_from_payload(self.stream.request(index))
            direct = [[str(v) for v in row] for row in run_sweep(grid).summary_rows()]
            if direct != summary:
                outcome.fail()
                outcome.incorrect.append(f"summary mismatch on op {index}")

    def end_to_end(self, outcome: Outcome) -> dict[str, float]:
        scaled = [ms * self.speed.factor(t) for t, ms, _ in self.log]
        # One caller in a closed loop: its rate is the inverse of its
        # mean operation time.
        requests_per_s = 1e3 * len(scaled) / sum(scaled)
        cells = sum(c for *_, c in self.log)
        metrics = {
            "cells_per_s": requests_per_s * cells / len(self.log),
            "requests_per_s": requests_per_s,
            "request_ms_p50": percentile(scaled, 50),
            "request_ms_p99": percentile(scaled, 99),
        }
        metrics.update(probe_single_runs(self.probe_seed))
        return metrics

    def context(self) -> dict:
        looked_up = self.hits + self.misses
        return {"hit_ratio": self.hits / looked_up if looked_up else 0.0}

    def close(self) -> None:
        self._drop_cache()


def build(workload: str, seed: int, out_dir: Path):
    derived = derive_seed(seed, workload)
    if workload == "sweep-table2":
        return SweepTable2(derived)
    if workload == "runs-lite":
        return SingleRuns(derived, "lite")
    if workload == "runs-full":
        return SingleRuns(derived, "full")
    if workload == "cache-mixed":
        return CachedSweeps(derived, out_dir)
    if workload == "daemon-mixed":
        return DaemonMixed(derived, out_dir)
    raise SystemExit(f"unknown workload {workload!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup_speed = [calibrate_ns() for _ in range(SETUP_READINGS)]
    import repro  # noqa: F401  (set-up includes the import)

    args.out.mkdir(parents=True, exist_ok=True)
    workload = build(args.workload, args.seed, args.out)
    try:
        workload.warm_up()
        setup_speed += [calibrate_ns() for _ in range(SETUP_READINGS)]
        print(f"READY {REFERENCE_NS / statistics.median(setup_speed)!r}", flush=True)
        if args.setup_only:
            return 0
        fingerprint = machine()
        if args.trace:
            payload = traced_pass(workload, args)
        else:
            outcome = workload.measure(args.seconds)
            workload.verify(outcome)
            payload = report(outcome, workload.end_to_end(outcome))
            payload["speed"] = workload.speed.summary()
        payload["machine"] = fingerprint
        print(json.dumps(payload), flush=True)
        return 0
    finally:
        workload.close()


def traced_pass(workload, args) -> dict:
    from layer_metrics import COUNTERS, derive, make_hooks
    from tracer import Tracer, load_targets, read_spans

    # Span files are large: keep only the latest traced run per workload.
    for stale in args.out.glob(f"trace-{args.workload}-*"):
        shutil.rmtree(stale, ignore_errors=True)
    trace_dir = args.out / f"trace-{args.workload}-{args.seed}"
    tracer = Tracer(trace_dir)
    tracer.install(load_targets(LAYERS), make_hooks(tracer), COUNTERS)
    try:
        outcome = workload.measure(args.seconds, tracer=tracer)
    finally:
        tracer.close()
    untraced_s = workload.replay(outcome.ops)
    workload.verify(outcome)
    names, by_pid = read_spans(trace_dir)
    context = workload.context()
    context["overhead_pct"] = (outcome.wall_s / untraced_s - 1.0) * 100.0
    context["failed_frac"] = outcome.failed / outcome.attempted
    metrics = derive(
        names, by_pid, parent_pid=os.getpid(), wall_ns=outcome.wall_s * 1e9,
        lanes=workload.lanes, context=context,
    )
    return report(outcome, metrics)


def report(outcome: Outcome, metrics: dict) -> dict:
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "incorrect": outcome.incorrect,
        "ops": outcome.ops,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
