"""Benchmark command: one run of one workload, result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-table2 --seed 1 --seconds 20 --trace 0

Workloads: ``sweep-table2``, ``runs-lite``, ``runs-full`` and
``cache-mixed`` (see ``BENCHMARK.json`` and ``perfbench/layers.json``);
``daemon-mixed`` runs by hand only (see ``perfbench/README.md``).

The command starts the workload in child processes (``workloads.py``)
against the checkout's own ``src/``.  It sets the workload up
``SETUP_REPEATS`` times in throw-away children and once more in the
measuring child, and reports the median set-up time (process start to
the first timed operation).  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run.

Timings are scaled to a reference machine speed (see ``speed.py``):
other tenants of a shared machine slow it down by up to ~65% for
seconds to minutes at a time, which would otherwise swamp any change
to the program.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give the machine fingerprint and a
readable summary.  The exit code is 0 only when every output checked
was correct; a failed set-up or a missing ``src/repro`` exits 2
without a result.  Scratch files (cell caches, span files of
traced runs) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
LAYERS = json.loads((HERE / "layers.json").read_text())
WORKLOADS = ("sweep-table2", "runs-lite", "runs-full", "cache-mixed", "daemon-mixed")
SETUP_REPEATS = 3
#: Every child must finish within this many seconds of its start.
CHILD_TIMEOUT_S = 170.0


class ChildError(RuntimeError):
    pass


def declared_metrics(root: Path, trace: int) -> dict[str, str]:
    """Metric name -> unit of the run's kind, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def run_child(cmd: list[str], env: dict, deadline: float) -> tuple[float, list[str]]:
    """Run one child; return its scaled set-up time and its lines after READY.

    Set-up is the wall time from the start of the child to its ``READY``
    line, multiplied by the speed factor that line carries.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines: queue.Queue = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line.rstrip("\n"))
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    ready_s = None
    rest: list[str] = []
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise ChildError(f"timed out: {' '.join(cmd)}")
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                raise ChildError(f"timed out: {' '.join(cmd)}") from None
            if line is None:
                break
            if ready_s is None and line.startswith("READY "):
                ready_s = (time.perf_counter() - started) * float(line.split()[1])
            elif ready_s is not None:
                rest.append(line)
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=5)
    if code != 0 or ready_s is None:
        raise ChildError(f"exit code {code}: {' '.join(cmd)}")
    return ready_s, rest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=LAYERS["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    units = declared_metrics(root, args.trace)
    out = root / ".perfbench_out"
    out.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(out),
    ]
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    try:
        setups = [
            run_child(cmd + ["--setup-only"], env, deadline)[0]
            for _ in range(SETUP_REPEATS)
        ]
        ready_s, lines = run_child(cmd, env, deadline)
        result = json.loads(lines[-1])
    except (ChildError, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    setups.append(ready_s)

    metrics = dict(result["metrics"])
    if not args.trace:
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = usage / 1024.0
        metrics["ok_frac"] = 1.0 - result["failed"] / result["attempted"]
    if set(metrics) != set(units):
        print(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
              file=sys.stderr)
        return 2
    correct = not result["incorrect"]

    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {result['ops']} operations, "
          f"{result['attempted']} attempted, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.6f})")
    if "speed" in result:
        print("speed factors (reference / measured, per second): "
              + json.dumps(result["speed"], sort_keys=True))
    for problem in result["incorrect"]:
        print(f"INCORRECT: {problem}")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:>16.6f} {units[name]}")
    record = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    (out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, machine=result["machine"], setups_s=setups), indent=1)
    )
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
