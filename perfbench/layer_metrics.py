"""Per-layer metrics of a traced run, derived from its span records.

:func:`make_hooks` attaches counters to the spans that need them (rows
folded, arena and steal counts, cache bytes, request ids);
:func:`derive` turns the records of every process into the named
``per_layer`` metrics of ``BENCHMARK.json``.  A layer a workload never
calls reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import records

#: Counters recorded by the hooks below; registered before any pool
#: worker forks so every process shares one name table.
COUNTERS = (
    "kernel.fold_rows_many.fallback",
    "backends.batches",
    "backends.steals",
    "backends.shm_results",
    "backends.pickle_results",
    "backends.shm_bytes",
    "backends.workers",
    "service.request",
)

#: Layers whose share of the traced wall time is reported.
SHARE_LAYERS = ("controllers", "kernel", "specification")


def make_hooks(tracer) -> dict:
    """``(before, after)`` hooks per span name, bound to ``tracer``."""
    from repro.telemetry import parse_dispatch_label

    def fold_after(state, args, kwargs, result, sid):
        entries = args[3] if len(args) > 3 else kwargs["entries"]
        fallback = sum(1 for item in result if item is None)
        tracer.count("kernel.fold_rows_many.fallback", fallback, sid)
        return len(entries)

    def length_after(state, args, kwargs, result, sid):
        return len(result)

    def execute_many_after(state, args, kwargs, result, sid):
        backend = args[0]
        record = parse_dispatch_label(backend.dispatch)
        tracer.count("backends.batches", record.batches or 0, sid)
        tracer.count("backends.steals", record.steals or 0, sid)
        tracer.count("backends.workers", backend.workers, sid)
        arena = backend.last_arena_stats if record.pooled else None
        if arena is not None:
            tracer.count("backends.shm_results", arena.shm_results, sid)
            tracer.count("backends.pickle_results", arena.pickle_results, sid)
            tracer.count("backends.shm_bytes", arena.shm_bytes, sid)
        return len(result)

    def bytes_before(field):
        return lambda args, kwargs: getattr(args[0], field)

    def bytes_after(field):
        return lambda state, args, kwargs, result, sid: getattr(args[0], field) - state

    def handle_before(args, kwargs):
        payload = args[1] if len(args) > 1 else kwargs.get("payload")
        if isinstance(payload, dict):
            tracer.set_op(int(payload.get("bench_op", 0)))

    return {
        "kernel.fold_rows_many": (None, fold_after),
        "simulator.simulate_many": (None, length_after),
        "engine.run_cell_many": (None, length_after),
        "backends.execute_many": (None, execute_many_after),
        "cache.load": (bytes_before("bytes_read"), bytes_after("bytes_read")),
        "cache.save": (bytes_before("bytes_written"), bytes_after("bytes_written")),
        "service.handle_sweep": (handle_before, None),
    }


def derive(names, by_pid, *, parent_pid, wall_ns, lanes, context) -> dict:
    """Every per-layer metric of ``layers.json`` from the span records.

    ``wall_ns`` is the traced pass's wall time and ``lanes`` the number
    of processes computing in parallel during it (pool workers on
    ``sweep-table2``, else 1): a share is busy time over
    ``wall_ns * lanes``.  ``context`` carries the client-side figures
    the spans cannot: ``hit_ratio``, ``tiers``, ``tier_ms``,
    ``overhead_pct`` and ``failed_frac``.
    """
    calls = defaultdict(int)
    busy = defaultdict(int)
    self_ns = defaultdict(int)
    values = defaultdict(int)
    outer_busy = defaultdict(int)
    many_sids = set()
    run_parents = []
    worker_cell_ns = 0
    spans_by_op = defaultdict(dict)
    lane_ns = 0
    exec_ns = {}
    exec_workers = {}
    for pid, data in by_pid.items():
        for sid, parent, nid, start, end, op, child, outer, value in records(data):
            name = names[nid]
            duration = end - start
            calls[name] += 1
            busy[name] += duration
            self_ns[name] += duration - child
            values[name] += value
            if outer:
                outer_busy[name.split(".")[0]] += duration
            if name == "simulator.simulate_many":
                many_sids.add(sid)
            if name == "simulator.run":
                run_parents.append(parent)
            if name == "engine.run_cell_many" and pid != parent_pid:
                worker_cell_ns += duration
            if name == "backends.execute_many":
                exec_ns[sid] = duration
            if name == "backends.workers":
                exec_workers[parent] = value
            if name in ("service.handle_sweep", "service.request"):
                spans_by_op[op][name] = duration
    for sid, duration in exec_ns.items():
        lane_ns += duration * exec_workers.get(sid, 1)

    def ms(ns):
        return ns / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in (
        "controllers.plan_many", "controllers.plan_round",
        "faults.next_positions", "faults.values",
        "kernel.batch_rows", "kernel.fold_rows_many", "kernel.compute_phase",
        "kernel.compute_phase_batch",
        "simulator.simulate_many", "simulator.run", "simulator.run_simulation",
        "specification.check_trace", "engine.run_sweep", "engine.run_cell_many",
        "engine.run_cell", "backends.restore", "cache.load", "cache.save",
        "aggregate.add", "service.handle_sweep",
    ):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_ms"] = ms(busy[name])
    for name in ("specification.check_p1", "specification.check_p2",
                 "backends.execute_many", "aggregate.summary_rows"):
        metrics[f"{name}.busy_ms"] = ms(busy[name])
    denominator = wall_ns * max(lanes, 1)
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.share"] = ratio(outer_busy[layer], denominator)

    rows = values["kernel.fold_rows_many"]
    metrics["kernel.fold_rows_many.rows"] = rows
    metrics["kernel.fold_fallback_ratio"] = ratio(
        values["kernel.fold_rows_many.fallback"], rows
    )

    runs = values["simulator.simulate_many"]
    per_run = sum(1 for p in run_parents if p in many_sids)
    metrics["simulator.simulate_many.runs"] = runs
    metrics["simulator.stacked_ratio"] = ratio(runs - per_run, runs)
    metrics["simulator.self_ms"] = ms(
        self_ns["simulator.simulate_many"] + self_ns["simulator.run"]
        + self_ns["simulator.run_simulation"]
    )

    metrics["engine.run_cell_many.cells"] = values["engine.run_cell_many"]
    metrics["engine.group_size_mean"] = ratio(
        runs, calls["simulator.simulate_many"]
    )

    metrics["backends.wait_ms"] = ms(self_ns["backends.execute_many"])
    for counter in ("batches", "steals", "shm_results", "pickle_results",
                    "shm_bytes"):
        metrics[f"backends.{counter}"] = values[f"backends.{counter}"]
    metrics["backends.shm_ratio"] = ratio(
        values["backends.shm_results"],
        values["backends.shm_results"] + values["backends.pickle_results"],
    )
    metrics["backends.worker_util"] = ratio(worker_cell_ns, lane_ns)

    metrics["cache.hit_ratio"] = context.get("hit_ratio", 0.0)
    metrics["cache.bytes_read"] = values["cache.load"]
    metrics["cache.bytes_written"] = values["cache.save"]

    gaps = [
        spans["service.request"] - spans["service.handle_sweep"]
        for spans in spans_by_op.values()
        if len(spans) == 2
    ]
    metrics["service.http_ms"] = ms(sum(gaps) / len(gaps)) if gaps else 0.0
    tiers = context.get("tiers", {})
    tier_ms = context.get("tier_ms", {})
    for tier in ("cache", "compute", "mixed"):
        metrics[f"service.tier.{tier}"] = tiers.get(tier, 0)
        latencies = tier_ms.get(tier)
        metrics[f"service.request_ms_p50.{tier}"] = (
            statistics.median(latencies) if latencies else 0.0
        )

    metrics["trace.overhead_pct"] = context.get("overhead_pct", 0.0)
    metrics["failed_frac"] = context.get("failed_frac", 0.0)
    return metrics
