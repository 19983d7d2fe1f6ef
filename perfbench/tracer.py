"""Span tracer for the benchmark's traced runs (``--trace 1``).

The tracer wraps public functions of the program from outside: it
replaces each target named in ``layers.json`` with a wrapper that
records one span per call -- name, start, end, parent span, the id of
the operation or request it belongs to, and the time its own child
spans covered -- and restores the originals on :meth:`Tracer.close`.
Nothing in the program itself is changed.

Spans live in memory as flat ``int64`` records and are appended to
``spans-<pid>.bin`` in the output directory when the buffer fills and
when the tracer closes.  Pool workers forked while the tracer is
installed inherit the wrappers; each flushes its spans after every
outermost call of a target marked ``"flush"`` (``run_cell_many``),
because the pool terminates its workers without running exit hooks.

A span's ``outer`` flag is set when no other span of the same layer is
active on its thread, so a layer's busy time sums only its outermost
spans.  A call that re-enters a target already active on the thread
(a strategy method calling another method of the same target) records
nothing: its time belongs to the enclosing call.
"""

from __future__ import annotations

import array
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: Record layout: one ``int64`` per field, ``FIELDS`` per record.
FIELDS = ("sid", "parent", "name", "start", "end", "op", "child", "outer", "value")
_WIDTH = len(FIELDS)
_FLUSH_RECORDS = 100_000


class Tracer:
    """Installs span wrappers and collects their records."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._buffer = array.array("q")
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self.parent_pid = os.getpid()
        self._root_parent = 0
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- names and operation ids ----------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def set_op(self, op: int) -> None:
        """Tag every span this thread records from now on with ``op``."""
        self._local.op = op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording --------------------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        stack = getattr(self._local, "stack", None) or []
        op = getattr(self._local, "op", 0)
        self._root_parent = stack[-1][0] if stack else 0
        self._local = threading.local()
        self._local.op = op
        self._buffer = array.array("q")
        self._lock = threading.Lock()
        self._counter = itertools.count(1)

    def _next_sid(self) -> int:
        return (os.getpid() << 32) | next(self._counter)

    def _append(self, record: tuple) -> None:
        with self._lock:
            self._buffer.extend(record)
            full = len(self._buffer) >= _FLUSH_RECORDS * _WIDTH
        if full:
            self.flush()

    def record_span(self, name: str, start: int, end: int) -> None:
        """Record a span timed by the caller (a client round-trip)."""
        stack = self._stack()
        parent = stack[-1][0] if stack else self._root_parent
        self._append(
            (self._next_sid(), parent, self.name_id(name), start, end,
             getattr(self._local, "op", 0), 0, 1, 0)
        )

    def count(self, name: str, value: int, parent: int = 0) -> None:
        """Record a counter: a zero-length record carrying ``value``."""
        now = time.perf_counter_ns()
        self._append(
            (self._next_sid(), parent, self.name_id(name), now, now,
             getattr(self._local, "op", 0), 0, 0, int(value))
        )

    def flush(self) -> None:
        with self._lock:
            buffer, self._buffer = self._buffer, array.array("q")
            if buffer:
                path = self.out_dir / f"spans-{os.getpid()}.bin"
                with open(path, "ab") as handle:
                    buffer.tofile(handle)

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, hooks=None, flush: bool = False):
        """A span-recording wrapper around ``fn``.

        ``hooks`` is an optional ``(before, after)`` pair:
        ``before(args, kwargs)`` runs ahead of the call and its return
        value is handed to ``after(state, args, kwargs, result, sid)``,
        which runs after a successful call, may record counters under
        the span and returns the span's ``value`` (an int or ``None``).
        """
        before, after = hooks if hooks is not None else (None, None)
        tracer = self
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            for frame in stack:
                if frame[1] == nid:
                    return fn(*args, **kwargs)
            outer = 1
            for frame in stack:
                if frame[2] == layer:
                    outer = 0
                    break
            parent = stack[-1][0] if stack else tracer._root_parent
            sid = tracer._next_sid()
            frame = [sid, nid, layer, 0]
            stack.append(frame)
            state = before(args, kwargs) if before is not None else None
            start = time.perf_counter_ns()
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][3] += end - start
                value = 0
                if after is not None and ok:
                    value = after(state, args, kwargs, result, sid) or 0
                tracer._append(
                    (sid, parent, nid, start, end,
                     getattr(tracer._local, "op", 0), frame[3], outer, value)
                )
                if flush and not stack and os.getpid() != tracer.parent_pid:
                    tracer.flush()

        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str, layer: str,
                       hooks=None, flush: bool = False) -> None:
        """Replace a module function everywhere ``repro`` bound it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = self.wrap(original, name, layer, hooks, flush)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)

    def patch_method(self, cls: type, attr: str, name: str, layer: str,
                     hooks=None, subclasses: bool = False) -> None:
        """Wrap ``cls.attr`` (and every subclass's own override)."""
        classes = [cls]
        if subclasses:
            pending = list(cls.__subclasses__())
            while pending:
                sub = pending.pop()
                classes.append(sub)
                pending.extend(sub.__subclasses__())
        for klass in classes:
            original = klass.__dict__.get(attr)
            if original is None or not callable(original):
                continue
            self._patches.append((klass, attr, original))
            setattr(klass, attr, self.wrap(original, name, layer, hooks))

    def install(self, targets: list[dict], hooks: dict, counters=()) -> None:
        """Wrap every target of ``layers.json`` (see :func:`load_targets`).

        ``hooks`` maps span names to ``(before, after)`` pairs;
        ``counters`` names every counter a hook may record, registered
        now so that forked workers share the parent's name table.
        """
        for name in counters:
            self.name_id(name)
        for target in targets:
            module_name, qualname = target["target"].split(":")
            module = importlib.import_module(module_name)
            parts = qualname.split(".")
            span_hooks = hooks.get(target["span"])
            if len(parts) == 1 and "methods" not in target:
                self.patch_function(module_name, parts[0], target["span"],
                                    target["layer"], span_hooks,
                                    target.get("flush", False))
                continue
            cls = getattr(module, parts[0])
            for method in target.get("methods", parts[1:]):
                self.patch_method(cls, method, target["span"], target["layer"],
                                  span_hooks, target.get("subclasses", False))
        self.active = True

    def close(self) -> None:
        """Restore the originals and write the remaining spans and names."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.flush()
        (self.out_dir / "names.json").write_text(json.dumps(self.names))


def load_targets(spec: dict) -> list[dict]:
    """The wrap targets of the parsed ``layers.json``, tagged with their layer."""
    targets = []
    for layer in spec["layers"]:
        for timed in layer["timed"]:
            targets.append(dict(timed, layer=layer["layer"]))
    return targets


def read_spans(out_dir: Path) -> tuple[list[str], dict[int, array.array]]:
    """The name table and the raw records of each pid of a traced run."""
    out_dir = Path(out_dir)
    names = json.loads((out_dir / "names.json").read_text())
    by_pid: dict[int, array.array] = {}
    for path in sorted(out_dir.glob("spans-*.bin")):
        data = array.array("q")
        data.frombytes(path.read_bytes())
        by_pid[int(path.stem.split("-")[1])] = data
    return names, by_pid


def records(data: array.array):
    """Iterate one pid's records as :data:`FIELDS` tuples."""
    for i in range(0, len(data), _WIDTH):
        yield tuple(data[i : i + _WIDTH])
