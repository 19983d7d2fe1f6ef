"""Dispatch-label round-tripping: every backend label parses structurally.

Backends advertise how a sweep actually ran through the free-text
``SweepResult.dispatch`` label.  CI scripts and the telemetry layer key
off those strings, so the grammar is load-bearing: this suite pins down
``parse_dispatch_label`` for every label family the surviving backends
can emit (``cross-run(...)``, ``cross-run-shm(..., steals=S)``,
``cross-run-pickle(...)``, ``sharded(inner)``, ``sharded-merge``),
rejects the retired per-cell, batched and async forms, and then
harvests labels from real small sweeps to prove the parser and the
backends never drift apart.
"""

from __future__ import annotations

import dataclasses
import warnings

import pytest

from tests.helpers import small_grid

from repro.sweep import ShardedBackend, run_sweep
from repro.telemetry import DispatchRecord, parse_dispatch_label


class TestCrossRunLabels:
    def test_in_process(self):
        rec = parse_dispatch_label("cross-run(6 batches, max R=16)")
        assert rec.cross_run
        assert rec.mode == "serial"
        assert not rec.pooled
        assert rec.batches == 6
        assert rec.max_r == 16
        assert rec.rung is None
        assert rec.inner is None

    def test_shm_rung(self):
        rec = parse_dispatch_label(
            "cross-run-shm(4 batches, max R=8, steals=2)"
        )
        assert rec.cross_run and rec.pooled
        assert rec.mode == "parallel"
        assert rec.rung == "shm"
        assert rec.batches == 4
        assert rec.max_r == 8
        assert rec.steals == 2

    def test_pickle_rung(self):
        rec = parse_dispatch_label(
            "cross-run-pickle(4 batches, max R=8, steals=0)"
        )
        assert rec.rung == "pickle"
        assert rec.steals == 0


class TestWrapperLabels:
    def test_sharded_wraps_inner(self):
        rec = parse_dispatch_label("sharded(cross-run(3 batches, max R=4))")
        assert rec.sharded and rec.cross_run
        assert rec.mode == "serial"
        assert rec.batches == 3
        assert isinstance(rec.inner, DispatchRecord)
        assert rec.inner.raw == "cross-run(3 batches, max R=4)"
        assert not rec.inner.sharded

    def test_sharded_shm(self):
        rec = parse_dispatch_label(
            "sharded(cross-run-shm(2 batches, max R=4, steals=1))"
        )
        assert rec.sharded and rec.cross_run
        assert rec.rung == "shm"
        assert rec.steals == 1

    def test_sharded_merge(self):
        rec = parse_dispatch_label("sharded-merge")
        assert rec.sharded
        assert rec.mode == "merge"


class TestRejections:
    @pytest.mark.parametrize(
        "label",
        [
            "",
            "quantum",
            "cross-run(batches)",
            "parallel (because reasons)",
            "cross-run-mmap(1 batches, max R=1, steals=0)",
        ],
    )
    def test_unknown_labels_raise(self, label):
        with pytest.raises(ValueError):
            parse_dispatch_label(label)

    @pytest.mark.parametrize(
        "label",
        [
            "serial",
            "parallel",
            "batched-serial",
            "batched-parallel (forced)",
            "parallel (forced on 1 usable cpu)",
            "serial (auto-fallback: 4 workers on 1 usable cpu)",
            "async-serial",
            "async-cross-run(3 batches, max R=4)",
            "cross-run(6 batches, max R=16, parallel)",
            "sharded(batched-serial)",
        ],
    )
    def test_retired_labels_raise(self, label):
        # No surviving backend emits these; the grammar no longer
        # knows them.
        with pytest.raises(ValueError):
            parse_dispatch_label(label)

    def test_retired_fields_are_gone(self):
        names = {field.name for field in dataclasses.fields(DispatchRecord)}
        assert not names & {"batched", "asynchronous"}

    def test_non_string_rejected(self):
        with pytest.raises(ValueError):
            parse_dispatch_label(None)


class TestHarvestedLabels:
    """Labels emitted by real sweeps must parse — backends cannot drift."""

    @pytest.fixture(scope="class")
    def grid(self):
        return small_grid()

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"dispatch": "serial"}, {"workers": 4, "dispatch": "serial"}],
    )
    def test_live_in_process_label_parses(self, grid, kwargs):
        result = run_sweep(grid, **kwargs)
        rec = parse_dispatch_label(result.dispatch)
        assert rec.cross_run and rec.mode == "serial", result.dispatch
        assert rec.batches == 12 and rec.max_r == 2

    def test_live_shm_label_parses(self, grid, monkeypatch):
        monkeypatch.setenv("REPRO_CPUS", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = run_sweep(grid, workers=2, dispatch="shm")
        rec = parse_dispatch_label(result.dispatch)
        assert rec.cross_run and rec.pooled
        assert rec.rung in {"shm", "pickle"}
        assert rec.steals is not None

    def test_live_sharded_labels_parse(self, grid, tmp_path):
        partial = run_sweep(grid, backend=ShardedBackend(0, 2, tmp_path))
        rec = parse_dispatch_label(partial.dispatch)
        assert rec.sharded and rec.cross_run and rec.inner is not None
        merged = run_sweep(grid, backend=ShardedBackend(1, 2, tmp_path))
        assert parse_dispatch_label(merged.dispatch).mode == "merge"
