"""Backend-layer tests: every execution strategy yields the same sweep.

The backend contract is that a backend chooses *where and when* cells
run, never *what* they compute: in-process, shared-memory pool and
sharded execution of the same grid must produce
:class:`~repro.sweep.SweepResult` aggregates bit-identical to the
per-cell ``run_cell`` reference.  The sharded backend
additionally owns a deterministic grid partition and a spill-file merge
whose validation (missing shards, mixed trace details, foreign counts)
these tests pin down.
"""

from __future__ import annotations

import inspect
import json

import pytest

from tests.helpers import reference_sweep, small_grid

from repro.sweep import (
    SerialBackend,
    ShardedBackend,
    ShmCrossRunBackend,
    merge_shards,
    run_sweep,
)


@pytest.fixture(scope="module")
def grid():
    return small_grid()


@pytest.fixture(scope="module")
def reference(grid):
    return reference_sweep(grid)


class TestBackendEquivalence:
    def test_serial_backend_matches_default(self, grid, reference):
        result = run_sweep(grid, backend=SerialBackend())
        assert result == reference

    def test_serial_backend_by_name(self, grid, reference):
        assert run_sweep(grid, backend="serial") == reference

    def test_shm_backend_matches_serial(self, grid, reference):
        result = run_sweep(grid, backend=ShmCrossRunBackend(workers=2))
        assert result.cells == reference.cells
        assert result.summary_table() == reference.summary_table()

    def test_shm_backend_selected_by_workers(self, grid, reference, monkeypatch):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 8)
        result = run_sweep(grid, workers=2)
        assert result.dispatch.startswith(
            ("cross-run-shm(", "cross-run-pickle(")
        )
        assert result.workers == 2
        assert result.cells == reference.cells

    def test_unknown_backend_name_rejected(self, grid):
        with pytest.raises(ValueError, match="unknown backend"):
            run_sweep(grid, backend="quantum")

    def test_sharded_by_name_needs_parameters(self, grid):
        with pytest.raises(ValueError, match="shard parameters"):
            run_sweep(grid, backend="sharded")


class TestBackendValidation:
    def test_backend_constructor_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            ShmCrossRunBackend(workers=0)

    @pytest.mark.parametrize("mode", ["pool", "bogus"])
    def test_backend_constructor_rejects_unknown_dispatch_mode(self, mode):
        with pytest.raises(ValueError, match="dispatch_mode"):
            ShmCrossRunBackend(workers=2, dispatch_mode=mode)

    def test_packaging_knobs_are_gone(self):
        for callable_ in (run_sweep, ShardedBackend):
            parameters = inspect.signature(callable_).parameters
            assert "chunk_size" not in parameters
            assert "batch_size" not in parameters


class TestShardPartition:
    def test_shards_partition_the_grid(self, grid, tmp_path):
        cells = list(grid.cells())
        seen = []
        for index in range(3):
            backend = ShardedBackend(index, 3, tmp_path)
            seen.extend(cell.key for cell in backend.select(cells))
        assert sorted(seen) == sorted(cell.key for cell in cells)
        assert len(seen) == len(set(seen))

    def test_partition_is_independent_of_cell_order(self, grid, tmp_path):
        cells = list(grid.cells())
        backend = ShardedBackend(1, 3, tmp_path)
        shuffled = list(reversed(cells))
        assert backend.select(cells) == backend.select(shuffled)

    @pytest.mark.parametrize(
        "index,count", [(-1, 3), (3, 3), (7, 3), (0, 0), (0, -2)]
    )
    def test_invalid_shard_parameters_rejected(self, index, count, tmp_path):
        with pytest.raises(ValueError):
            ShardedBackend(index, count, tmp_path)


class TestShardedExecution:
    def test_any_shard_order_merges_to_the_serial_result(
        self, grid, reference, tmp_path
    ):
        spill = tmp_path / "spill"
        last = None
        for index in (2, 0, 1):
            last = run_sweep(grid, backend=ShardedBackend(index, 3, spill))
        # The last shard to finish sees every spill file and reports
        # the merged whole, bit-identical to the serial sweep.
        assert last == reference
        assert merge_shards(spill) == reference

    def test_incomplete_family_returns_partial_result(self, grid, tmp_path):
        result = run_sweep(grid, backend=ShardedBackend(0, 3, tmp_path))
        assert not result.complete
        assert 0 < len(result) < len(grid)

    def test_sharded_with_inner_workers_matches(self, grid, reference, tmp_path):
        spill = tmp_path / "spill"
        for index in range(3):
            last = run_sweep(
                grid, backend=ShardedBackend(index, 3, spill, workers=2)
            )
        assert last.cells == reference.cells

    def test_sharded_inner_follows_dispatch_mode(self, grid, tmp_path):
        result = run_sweep(
            grid,
            backend=ShardedBackend(0, 2, tmp_path, workers=2),
            dispatch="serial",
        )
        assert not result.complete
        assert result.dispatch.startswith("sharded(cross-run(")


class TestMergeValidation:
    def _spill_all(self, grid, spill, trace_detail="lite"):
        for index in range(3):
            run_sweep(
                grid,
                backend=ShardedBackend(index, 3, spill),
                trace_detail=trace_detail,
            )

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no shard files"):
            merge_shards(tmp_path)

    def test_missing_shard_named(self, grid, tmp_path):
        self._spill_all(grid, tmp_path)
        (tmp_path / "shard-0001-of-0003.json").unlink()
        with pytest.raises(ValueError, match=r"missing shard\(s\) \[1\]"):
            merge_shards(tmp_path)

    def test_mixed_trace_detail_names_both(self, grid, tmp_path):
        self._spill_all(grid, tmp_path)
        path = tmp_path / "shard-0001-of-0003.json"
        payload = json.loads(path.read_text())
        payload["trace_detail"] = "full"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError) as excinfo:
            merge_shards(tmp_path)
        message = str(excinfo.value)
        assert "mixed trace details" in message
        assert "'full'" in message and "'lite'" in message

    def test_disagreeing_shard_count_rejected(self, grid, tmp_path):
        self._spill_all(grid, tmp_path)
        rogue = tmp_path / "shard-0003-of-0004.json"
        payload = json.loads((tmp_path / "shard-0000-of-0003.json").read_text())
        payload["shard_count"] = 4
        payload["shard_index"] = 3
        rogue.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="disagree on shard_count"):
            merge_shards(tmp_path)

    def test_duplicate_shard_index_rejected(self, grid, tmp_path):
        # A payload whose index disagrees with its filename (truncated
        # copy, hand edit) duplicates a sibling's index.
        self._spill_all(grid, tmp_path)
        path = tmp_path / "shard-0002-of-0003.json"
        payload = json.loads(path.read_text())
        payload["shard_index"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="multiple files"):
            merge_shards(tmp_path)

    def test_stale_family_of_other_count_never_merges(self, grid, tmp_path):
        # A finished 3-shard sweep leaves its spill files behind; a new
        # 2-shard sweep of a smaller grid lands in the same directory.
        # The stale family must fail the merge loudly, not win it.
        self._spill_all(grid, tmp_path)
        smaller = [cell for cell in grid.cells() if cell.seed == 0]
        run_sweep(smaller, backend=ShardedBackend(0, 2, tmp_path))
        with pytest.raises(ValueError, match="disagree on shard_count"):
            run_sweep(smaller, backend=ShardedBackend(1, 2, tmp_path))

    def test_stale_shard_of_other_grid_never_merges(self, grid, tmp_path):
        # Same shard count, different grid: one fresh shard over a
        # stale sibling must be caught by the grid fingerprint.
        cells = list(grid.cells())
        for index in range(2):
            run_sweep(cells, backend=ShardedBackend(index, 2, tmp_path))
        other = [cell for cell in cells if cell.seed == 0]
        with pytest.raises(ValueError, match="mixed grids"):
            run_sweep(other, backend=ShardedBackend(0, 2, tmp_path))

    def test_mixed_probe_shards_rejected(self, grid, tmp_path):
        cells = [next(iter(grid.cells()))]
        probed = [cells[0]]
        run_sweep(
            probed,
            backend=ShardedBackend(0, 2, tmp_path),
            trace_detail="full",
            probe="send-classification",
        )
        with pytest.raises(ValueError, match="mixed probes"):
            run_sweep(
                probed,
                backend=ShardedBackend(1, 2, tmp_path),
                trace_detail="full",
            )

    def test_foreign_schema_rejected(self, grid, tmp_path):
        self._spill_all(grid, tmp_path)
        path = tmp_path / "shard-0002-of-0003.json"
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="schema"):
            merge_shards(tmp_path)

    def test_duplicate_cell_across_shards_rejected(self, grid, tmp_path):
        self._spill_all(grid, tmp_path)
        source = json.loads((tmp_path / "shard-0000-of-0003.json").read_text())
        target_path = tmp_path / "shard-0001-of-0003.json"
        target = json.loads(target_path.read_text())
        target["results"].append(source["results"][0])
        target_path.write_text(json.dumps(target))
        with pytest.raises(ValueError, match="multiple shards"):
            merge_shards(tmp_path)


class TestPoolPackaging:
    """The worker count changes how batches are seeded, split and
    stolen, never what they compute."""

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_worker_count_never_changes_results(
        self, grid, reference, workers, monkeypatch
    ):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 8)
        result = run_sweep(grid, backend=ShmCrossRunBackend(workers=workers))
        assert result.dispatch.startswith(
            ("cross-run-shm(", "cross-run-pickle(")
        )
        assert result.cells == reference.cells
        assert result.workers == workers
        assert result.summary_table() == reference.summary_table()
        assert result.diameter_series() == reference.diameter_series()

    def test_pooled_sweep_with_cache_writes_through(
        self, grid, reference, tmp_path, monkeypatch
    ):
        from repro.sweep import CellStore, backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 8)
        store = CellStore(tmp_path / "cache")
        cold = run_sweep(grid, workers=2, cache=store)
        assert cold.dispatch.startswith(("cross-run-shm(", "cross-run-pickle("))
        assert cold.cells == reference.cells
        assert store.misses == len(list(grid.cells()))
        warm = run_sweep(grid, workers=2, cache=store)
        assert warm.cells == reference.cells
        assert store.hits == len(list(grid.cells()))


class TestDispatchDecision:
    """Backends record how cells actually ran, and pools that cannot
    win (one usable CPU) auto-fall back to in-process dispatch."""

    def test_in_process_dispatch_recorded(self, grid):
        # 3 models x 2 algorithms x 2 attacks, 2 seeds per shape.
        assert run_sweep(grid).dispatch == "cross-run(12 batches, max R=2)"

    def test_pool_falls_back_to_in_process_on_one_cpu(
        self, grid, reference, monkeypatch
    ):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 1)
        result = run_sweep(grid, backend=ShmCrossRunBackend(workers=4))
        assert result.dispatch.startswith("cross-run(")
        assert result.workers == 4
        assert result.cells == reference.cells

    def test_pool_used_when_cpus_allow(self, grid, reference, monkeypatch):
        from repro.sweep import backends

        monkeypatch.setattr(backends, "_usable_cpus", lambda: 8)
        result = run_sweep(grid, backend=ShmCrossRunBackend(workers=2))
        assert result.dispatch.startswith(
            ("cross-run-shm(", "cross-run-pickle(")
        )
        assert result.cells == reference.cells

    def test_single_cell_grid_runs_in_process(self, grid):
        cells = list(grid.cells())[:1]
        result = run_sweep(cells, backend=ShmCrossRunBackend(workers=4))
        assert result.dispatch == "cross-run(1 batches, max R=1)"

    def test_dispatch_excluded_from_equality(self, reference):
        from dataclasses import replace

        shm = "cross-run-shm(12 batches, max R=2, steals=0)"
        assert replace(reference, dispatch=shm) == reference
