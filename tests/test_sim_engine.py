"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, SimulationError


def test_events_fire_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(30, lambda: order.append("c"))
    engine.schedule(10, lambda: order.append("a"))
    engine.schedule(20, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]
    assert engine.now == 30


def test_same_time_events_fire_in_insertion_order():
    engine = Engine()
    order = []
    for label in "abcde":
        engine.schedule(5, lambda label=label: order.append(label))
    engine.run()
    assert order == list("abcde")


def test_zero_delay_event_fires_at_current_time():
    engine = Engine()
    seen = []
    engine.schedule(10, lambda: engine.schedule(0, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [10]


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5, lambda: None)
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    handle = engine.schedule(10, lambda: fired.append("cancelled"))
    engine.schedule(10, lambda: fired.append("kept"))
    handle.cancel()
    engine.run()
    assert fired == ["kept"]
    assert not handle.pending


def test_cancel_is_idempotent():
    engine = Engine()
    handle = engine.schedule(10, lambda: None)
    handle.cancel()
    handle.cancel()
    assert engine.run() == 0


def test_events_scheduled_during_run_fire():
    engine = Engine()
    seen = []

    def chain(depth):
        seen.append(engine.now)
        if depth:
            engine.schedule(7, lambda: chain(depth - 1))

    engine.schedule(1, lambda: chain(3))
    engine.run()
    assert seen == [1, 8, 15, 22]


def test_run_until_advances_clock_past_last_event():
    engine = Engine()
    seen = []
    engine.schedule(10, lambda: seen.append("x"))
    fired = engine.run_until(100)
    assert fired == 1
    assert seen == ["x"]
    assert engine.now == 100


def test_run_until_does_not_fire_later_events():
    engine = Engine()
    seen = []
    engine.schedule(10, lambda: seen.append("early"))
    engine.schedule(200, lambda: seen.append("late"))
    engine.run_until(100)
    assert seen == ["early"]
    engine.run()
    assert seen == ["early", "late"]


def test_run_until_in_past_rejected():
    engine = Engine()
    engine.schedule(50, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.run_until(10)


def test_max_events_guard_trips():
    engine = Engine()

    def forever():
        engine.schedule(1, forever)

    engine.schedule(1, forever)
    with pytest.raises(SimulationError):
        engine.run(max_events=100)


def test_step_returns_false_on_empty_calendar():
    engine = Engine()
    assert engine.step() is False
    engine.schedule(5, lambda: None)
    assert engine.step() is True
    assert engine.step() is False


def test_pending_count_ignores_cancelled():
    engine = Engine()
    keep = engine.schedule(5, lambda: None)
    drop = engine.schedule(6, lambda: None)
    drop.cancel()
    assert engine.pending_count == 1
    assert keep.pending


def test_max_events_bound_is_exact_in_run():
    """The guard fires after exactly max_events events, not max_events+1."""
    engine = Engine()
    fired = []

    def forever():
        fired.append(engine.now)
        engine.schedule(1, forever)

    engine.schedule(1, forever)
    with pytest.raises(SimulationError, match="max_events=100"):
        engine.run(max_events=100)
    assert len(fired) == 100


def test_max_events_equal_to_workload_does_not_trip():
    """A run that needs exactly max_events events completes cleanly."""
    engine = Engine()
    for i in range(100):
        engine.schedule(i, lambda: None)
    assert engine.run(max_events=100) == 100
    # And the same holds for run_until.
    engine2 = Engine()
    for i in range(100):
        engine2.schedule(i, lambda: None)
    assert engine2.run_until(200, max_events=100) == 100


def test_max_events_bound_is_exact_in_run_until():
    engine = Engine()
    fired = []

    def forever():
        fired.append(engine.now)
        engine.schedule(1, forever)

    engine.schedule(1, forever)
    with pytest.raises(SimulationError, match="max_events=50"):
        engine.run_until(10_000, max_events=50)
    assert len(fired) == 50


def test_max_events_bound_is_exact_in_run_until_done():
    engine = Engine()
    fired = []

    def forever():
        fired.append(engine.now)
        engine.schedule(1, forever)

    engine.schedule(1, forever)
    with pytest.raises(SimulationError, match="max_events=75"):
        engine.run_until_done(lambda: False, max_events=75)
    assert len(fired) == 75


def test_max_events_ignores_cancelled_entries():
    """Cancelled calendar entries do not count against the bound."""
    engine = Engine()
    for i in range(50):
        engine.schedule(i, lambda: None).cancel()
    for i in range(10):
        engine.schedule(100 + i, lambda: None)
    assert engine.run(max_events=10) == 10


def test_compaction_during_run_keeps_future_events():
    """A mid-run compaction (triggered inside a callback) must not strand
    the run loop on a stale heap binding: events scheduled after the
    compaction still fire."""
    engine = Engine()
    fired = []
    handles = [engine.schedule(10, lambda: None) for _ in range(300)]

    def cancel_all():
        for handle in handles:
            handle.cancel()  # crosses the compaction threshold mid-run
        engine.schedule(5, lambda: fired.append(engine.now))

    engine.schedule(1, cancel_all)
    engine.run_until_done(lambda: bool(fired), max_events=1000)
    assert fired == [6]


def test_same_timestamp_cohort_fires_in_seq_order():
    """A large same-timestamp cohort drains strictly in insertion (seq)
    order, including entries appended to the cohort by its own callbacks
    at zero delay."""
    engine = Engine()
    order = []

    def late(tag):
        order.append(tag)

    def early(tag):
        order.append(tag)
        # Zero-delay schedules from inside the draining cohort must land
        # behind the already-scheduled entries of the same instant.
        engine.schedule(0, lambda t=f"zero-{tag}": order.append(t))

    for i in range(5):
        engine.schedule(50, lambda t=f"a{i}": early(t))
    for i in range(5):
        engine.schedule(50, lambda t=f"b{i}": late(t))
    engine.run()
    assert order == (
        [f"a{i}" for i in range(5)]
        + [f"b{i}" for i in range(5)]
        + [f"zero-a{i}" for i in range(5)]
    )
    assert engine.now == 50


def test_cohort_ordering_survives_interleaved_cancels():
    """Cancelling every other member of a same-timestamp cohort leaves the
    survivors firing in their original insertion order."""
    engine = Engine()
    order = []
    handles = [
        engine.schedule(10, lambda i=i: order.append(i)) for i in range(20)
    ]
    for i in range(0, 20, 2):
        handles[i].cancel()
    engine.run()
    assert order == list(range(1, 20, 2))


def test_compaction_under_cancel_heavy_repeating_churn():
    """RepeatingEvent churn (arm, fire, cancel, re-arm) with mass
    cancellation keeps the calendar compacted: garbage never dominates the
    live entries by more than the compaction threshold, and the survivors
    keep firing on schedule."""
    engine = Engine()
    fired = []
    repeaters = [
        engine.schedule_every(
            7 + (i % 5), (lambda i=i: fired.append(i)), label=f"rep{i}"
        )
        for i in range(40)
    ]
    cancelled = set()

    def churn():
        # Cancel a wave of repeaters each tick; each cancel orphans that
        # repeater's armed calendar entry as garbage.
        for i in range(len(repeaters)):
            if len(cancelled) >= 36:
                break
            if i not in cancelled:
                cancelled.add(i)
                repeaters[i].cancel()
                break
        # And spray short-lived one-shots that are cancelled immediately,
        # to pile garbage into many distinct slots.
        for k in range(50):
            engine.schedule(3 + k, lambda: None).cancel()

    ticker = engine.schedule_every(5, churn, label="churn")
    engine.run_until(2_000)
    ticker.cancel()
    for repeater in repeaters:
        repeater.cancel()

    # The compaction invariant: garbage (dead entries still in the
    # calendar) never exceeds max(threshold, live).  The engine's
    # cancelled-entry count is exact: it matches a walk of the calendar.
    garbage = engine._garbage
    assert garbage == sum(
        1 for _, handle in engine.calendar_entries() if handle.callback is None
    )
    assert garbage <= max(256, engine._live)
    # Survivors fired all the way to the horizon.
    survivors = set(range(40)) - cancelled
    assert survivors
    for i in survivors:
        assert any(tag == i for tag in fired)
    # And cancelled repeaters stopped firing promptly: no survivor gap.
    assert engine.pending_count == engine._live


def test_repeating_cancel_heavy_calendar_stays_consistent():
    """After heavy churn the calendar's bookkeeping still agrees with a
    from-scratch walk of its entries."""
    engine = Engine()
    for i in range(500):
        handle = engine.schedule(10 + i, lambda: None)
        if i % 3:
            handle.cancel()
    live_walked = sum(
        1 for _, handle in engine.calendar_entries() if handle.pending
    )
    assert live_walked == engine._live == engine.pending_count
    assert engine.run() == live_walked
