"""Tests for trace export and the realsys timeline sampler."""

import time

import pytest

from repro.realsys import ControlledPool, TimelineSampler
from repro.realsys import tasks
from repro.sim import TraceLog
from repro.sim.export import dump_trace, load_trace


class TestTraceExport:
    def test_round_trip(self, tmp_path):
        trace = TraceLog()
        trace.emit(0, "kernel.spawn", pid=1, name="a")
        trace.emit(10, "server.update", updates=2, targets={"x": 2})
        path = tmp_path / "trace.jsonl"
        assert dump_trace(trace, path) == 2
        loaded = load_trace(path)
        assert len(loaded) == 2
        records = loaded.records()
        assert records[0].time == 0
        assert records[0].category == "kernel.spawn"
        assert records[1].data == {"updates": 2, "targets": {"x": 2}}

    def test_non_jsonable_payload_stringified(self, tmp_path):
        trace = TraceLog()
        trace.emit(5, "odd", payload=object())
        path = tmp_path / "trace.jsonl"
        dump_trace(trace, path)
        loaded = load_trace(path)
        assert "object" in loaded.records()[0].data["payload"]

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": 1, "cat": "x", "data": {}}\nnot-json\n')
        with pytest.raises(ValueError, match="malformed"):
            load_trace(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "sparse.jsonl"
        path.write_text('\n{"t": 1, "cat": "x", "data": {}}\n\n')
        assert len(load_trace(path)) == 1


class TestTimelineSampler:
    def test_samples_runnable_counts(self):
        pool = ControlledPool(n_workers=2, name="tl")
        pool.start()
        sampler = TimelineSampler(interval=0.01)
        sampler.watch(pool)
        sampler.start()
        try:
            pool.submit_many([(tasks.sum_squares, (500,))] * 8)
            pool.join_results(8, timeout=30.0)
            time.sleep(0.1)
        finally:
            sampler.stop()
            pool.shutdown()
        samples = sampler.samples["tl"]
        assert len(samples) >= 3
        assert all(0 <= count <= 2 for _, count in samples)
        times = [t for t, _ in samples]
        assert times == sorted(times)

    def test_total_series_sums_pools(self):
        a = ControlledPool(n_workers=2, name="a")
        b = ControlledPool(n_workers=3, name="b")
        a.start()
        b.start()
        sampler = TimelineSampler(interval=0.01)
        sampler.watch(a)
        sampler.watch(b)
        sampler.start()
        try:
            time.sleep(0.08)
        finally:
            sampler.stop()
            a.shutdown()
            b.shutdown()
        total = sampler.total_series()
        assert total
        assert all(count == 5 for _, count in total)
        assert "total" in sampler.render()

    def test_validation(self):
        with pytest.raises(ValueError):
            TimelineSampler(interval=0)
        sampler = TimelineSampler()
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
        sampler.stop()
        sampler.stop()  # idempotent

    def test_render_empty(self):
        assert TimelineSampler().render() == "(no samples)"
