"""Unit tests for random streams, trace log, and time units."""

from repro.sim import RandomStreams, TraceLog, units


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(seed=7).get("x")
        b = RandomStreams(seed=7).get("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=7)
        first = [streams.get("x").random() for _ in range(5)]
        # Interleave draws from another stream; "x" must be unaffected.
        streams2 = RandomStreams(seed=7)
        for _ in range(5):
            streams2.get("y").random()
        second = [streams2.get("x").random() for _ in range(5)]
        assert first == second

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("x").random()
        b = RandomStreams(seed=2).get("x").random()
        assert a != b

    def test_stream_is_cached(self):
        streams = RandomStreams(seed=0)
        assert streams.get("s") is streams.get("s")

    def test_fork_is_deterministic(self):
        a = RandomStreams(seed=3).fork("child").get("x").random()
        b = RandomStreams(seed=3).fork("child").get("x").random()
        assert a == b

    def test_clear_restarts_streams_from_their_seed(self):
        streams = RandomStreams(seed=5)
        old = streams.get("x")
        for _ in range(3):
            old.random()
        streams.clear()
        restarted = streams.get("x")
        assert restarted is not old
        assert restarted.random() == RandomStreams(seed=5).get("x").random()


class TestTraceLog:
    def test_emit_and_query(self):
        log = TraceLog()
        log.emit(5, "kernel.dispatch", pid=1)
        log.emit(9, "kernel.exit", pid=1)
        assert len(log) == 2
        assert [r.time for r in log] == [5, 9]
        assert log.records("kernel.exit")[0].data == {"pid": 1}
        assert log.categories() == {"kernel.dispatch", "kernel.exit"}

    def test_category_filter(self):
        log = TraceLog(categories=["keep.me"])
        log.emit(1, "keep.me")
        log.emit(2, "drop.me")
        assert len(log) == 1
        assert log.wants("keep.me")
        assert not log.wants("drop.me")

    def test_disabled_log_keeps_nothing(self):
        log = TraceLog(enabled=False)
        log.emit(1, "anything")
        assert len(log) == 0
        assert not log.wants("anything")

    def test_clear(self):
        log = TraceLog()
        log.emit(1, "a")
        log.clear()
        assert len(log) == 0


class TestUnits:
    def test_conversions_roundtrip(self):
        assert units.seconds(6) == 6_000_000
        assert units.ms(100) == 100_000
        assert units.us(5) == 5
        assert units.to_seconds(units.seconds(2.5)) == 2.5
        assert units.to_ms(units.ms(7)) == 7.0

    def test_rounding(self):
        assert units.ms(0.0015) == 2  # rounds, not truncates
