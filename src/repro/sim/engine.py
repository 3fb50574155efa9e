"""The discrete-event engine.

The engine owns the simulation clock and an event calendar.  Events are
plain callbacks scheduled for an absolute or relative time; ties are broken
by insertion order so runs are exactly reproducible.

Hot-path layout: the calendar is *slot-batched*.  A binary heap orders the
distinct pending timestamps (bare ints, so sifting is C-level integer
comparison), and a dict maps each timestamp to its *slot*: either a single
:class:`EventHandle` (the overwhelmingly common case at paper scale) or a
*cohort* -- a list of handles for that instant, in insertion order.  The
run loops pop a timestamp once and then drain the whole cohort by list
index, so N events at one instant cost one heap operation instead of N,
and a zero-delay schedule appends to the live cohort without touching the
heap at all.  A cohort list is in insertion order, which is the whole
tie-break: no sequence number or per-event tuple is ever built.

Cancellation stays O(1) and lazy (the entry is skipped when it surfaces); a
live-event counter keeps :attr:`Engine.pending_count` O(1), and a count of
the cancelled entries still in the calendar -- touched only on cancel, on
skip and at compaction, never on schedule or fire -- compacts the calendar
when they outnumber live ones, so pathological cancel traffic cannot bloat
the slot table.

Nothing in this module knows about processors, processes, or scheduling --
those live in :mod:`repro.machine` and :mod:`repro.kernel`.
"""

from __future__ import annotations

import heapq
from heapq import heappop as _heappop, heappush as _heappush
from typing import Callable, Iterator, Optional, Tuple

#: Compaction threshold: rebuild the slot table when it holds more than
#: this many cancelled entries *and* they outnumber the live ones.  Small
#: calendars are never worth compacting.
_COMPACT_MIN_GARBAGE = 256


class SimulationError(RuntimeError):
    """Raised when the simulation is driven incorrectly.

    Examples: scheduling an event in the past, or running an engine that has
    been stopped with a fatal error.
    """


class EventHandle:
    """A cancellable reference to a scheduled event.

    The engine never removes cancelled events from the calendar eagerly; it
    simply skips them when they surface.  This makes :meth:`cancel` O(1).
    """

    __slots__ = ("time", "callback", "cancelled", "label", "_engine")

    def __init__(
        self,
        time: int,
        callback: Callable[[], None],
        label: str,
        engine: "Engine",
    ):
        self.time = time
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.label = label
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.callback is None:  # already fired or already cancelled
            self.cancelled = True
            return
        self.cancelled = True
        self.callback = None  # drop the reference so closures can be collected
        self._engine._note_cancel()

    @property
    def pending(self) -> bool:
        """True if the event has neither fired nor been cancelled."""
        return not self.cancelled and self.callback is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} {self.label!r} {state}>"


#: Allocate an EventHandle without the ``type.__call__``/``__init__`` hops;
#: the schedule methods fill the slots inline.
_new_handle = EventHandle.__new__


class RepeatingEvent:
    """A self-rearming event minted by :meth:`Engine.schedule_every`.

    Fires *callback* every *period* microseconds until :meth:`cancel` is
    called or the next firing would land after *until* (absolute time).
    The recurrence is driven by ordinary calendar entries, so repeated
    events interleave deterministically with everything else.
    """

    __slots__ = ("period", "callback", "until", "label", "cancelled", "_engine", "_handle")

    def __init__(
        self,
        engine: "Engine",
        period: int,
        callback: Callable[[], None],
        label: str,
        until: Optional[int],
    ) -> None:
        if period <= 0:
            raise SimulationError(f"repeating period must be positive, got {period}")
        self.period = period
        self.callback = callback
        self.until = until
        self.label = label
        self.cancelled = False
        self._engine = engine
        self._handle: Optional[EventHandle] = None
        self._arm()

    def _arm(self) -> None:
        next_time = self._engine.now + self.period
        if self.until is not None and next_time > self.until:
            self._handle = None
            return
        self._handle = self._engine.schedule(self.period, self._fire, self.label)

    def _fire(self) -> None:
        self._handle = None
        self.callback()
        if not self.cancelled:
            self._arm()

    def cancel(self) -> None:
        """Stop the recurrence.  Idempotent."""
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def pending(self) -> bool:
        """True while another firing is scheduled."""
        return self._handle is not None and self._handle.pending


class Engine:
    """A deterministic discrete-event simulation loop.

    Usage::

        engine = Engine()
        engine.schedule(100, lambda: print("at t=100us"))
        engine.run()

    Determinism guarantees:

    * integer microsecond clock -- no float tie ambiguity;
    * FIFO among same-time events (insertion order);
    * no wall-clock or OS entropy is consulted anywhere.

    ``now`` and ``events_fired`` are plain attributes (hot paths read them
    millions of times per run); treat them as read-only.

    Calendar invariants (see the module docstring for the layout):

    * ``_slots[t]`` is either one ``EventHandle`` or a list of them in
      insertion order; ``_times`` holds each key of ``_slots`` exactly once.
    * ``_garbage`` counts the cancelled entries not yet consumed (in
      ``_slots`` and in ``_cur_slot`` past ``_cur_index``).
    * ``_cur_slot`` is the cohort currently being drained.  It has been
      popped from ``_slots``/``_times``; entries before ``_cur_index`` are
      consumed.  It is *kept* after exhaustion so a schedule at the current
      timestamp appends to it (preserving FIFO) instead of re-entering the
      heap; singleton firings update ``_cur_time`` only.
    """

    def __init__(self) -> None:
        #: Current simulation time in microseconds (read-only).
        self.now = 0
        #: Number of events executed so far (diagnostics / loop guards).
        self.events_fired = 0
        #: Gate for :meth:`run_until_done`'s ``exit_gated`` mode: a driver
        #: (the kernel) clears this while its completion predicate cannot
        #: possibly be true and sets it when the predicate is worth
        #: consulting again.  Ignored unless the caller opts in.
        self.done_hint = True
        #: Heap of distinct pending timestamps (bare ints).
        self._times: list = []
        #: timestamp -> EventHandle (singleton) or list of EventHandles.
        self._slots: dict = {}
        self._cur_slot: Optional[list] = None
        self._cur_index = 0
        self._cur_time = -1
        self._live = 0  # scheduled, not yet fired, not cancelled
        self._garbage = 0  # cancelled, not yet consumed
        self._running = False

    @property
    def pending_count(self) -> int:
        """Number of not-yet-fired, not-cancelled events in the calendar."""
        return self._live

    def schedule(
        self, delay: int, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule *callback* to run *delay* microseconds from now.

        Returns an :class:`EventHandle` that may be cancelled any time before
        the event fires.  A zero delay schedules the event for the current
        time, after all events already scheduled for this time.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}us in the past")
        time = self.now + delay
        # Inlined EventHandle construction (~40% cheaper than the ctor
        # call); this runs once per scheduled event, i.e. millions of
        # times per experiment sweep.
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.callback = callback
        handle.cancelled = False
        handle.label = label
        handle._engine = self
        if time == self._cur_time and self._cur_slot is not None:
            self._cur_slot.append(handle)
        else:
            # One dict probe: a new instant inserts its singleton slot.
            slot = self._slots.setdefault(time, handle)
            if slot is handle:
                _heappush(self._times, time)
            elif slot.__class__ is list:
                slot.append(handle)
            else:
                self._slots[time] = [slot, handle]
        self._live += 1
        return handle

    def schedule_at(
        self, time: int, callback: Callable[[], None], label: str = ""
    ) -> EventHandle:
        """Schedule *callback* at absolute simulation *time*."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}us, already at t={self.now}us"
            )
        handle = _new_handle(EventHandle)
        handle.time = time
        handle.callback = callback
        handle.cancelled = False
        handle.label = label
        handle._engine = self
        if time == self._cur_time and self._cur_slot is not None:
            self._cur_slot.append(handle)
        else:
            slot = self._slots.setdefault(time, handle)
            if slot is handle:
                _heappush(self._times, time)
            elif slot.__class__ is list:
                slot.append(handle)
            else:
                self._slots[time] = [slot, handle]
        self._live += 1
        return handle

    def schedule_every(
        self,
        period: int,
        callback: Callable[[], None],
        label: str = "",
        until: Optional[int] = None,
    ) -> RepeatingEvent:
        """Schedule *callback* every *period* microseconds, first firing
        one period from now.

        *until* (absolute time) stops the recurrence: no firing is
        scheduled past it.  Returns a :class:`RepeatingEvent` whose
        ``cancel()`` stops the recurrence at any point.  Used by the
        fault injectors (preemption storms) and available to policies.
        """
        return RepeatingEvent(self, period, callback, label, until)

    def calendar_entries(self) -> Iterator[Tuple[int, EventHandle]]:
        """Yield ``(time, handle)`` for every un-consumed calendar entry,
        cancelled ones included, in no particular order.

        Diagnostics only (the sanitizer's calendar invariants); the hot
        loops never call this.
        """
        cur = self._cur_slot
        if cur is not None:
            time = self._cur_time
            for idx in range(self._cur_index, len(cur)):
                yield time, cur[idx]
        for time, slot in self._slots.items():
            if slot.__class__ is list:
                for handle in slot:
                    yield time, handle
            else:
                yield time, slot

    def _note_cancel(self) -> None:
        """A live entry became garbage; compact if garbage dominates."""
        self._live -= 1
        garbage = self._garbage = self._garbage + 1
        if garbage > _COMPACT_MIN_GARBAGE and garbage > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the slot table and rebuild the time
        heap (insertion order within each cohort is untouched).

        Mutates the time heap and slot dict IN PLACE: :meth:`run_until_done`
        holds local bindings to both across callbacks (one of which may be
        the cancel that triggers this compaction), so the objects'
        identities must survive.  The cohort currently being drained is
        deliberately left alone -- the run loops hold a position in it, and
        its garbage is consumed within the current instant anyway.
        """
        slots = self._slots
        dead_times = []
        for time, slot in slots.items():
            if slot.__class__ is list:
                live = [h for h in slot if h.callback is not None]
                if live:
                    if len(live) != len(slot):
                        slot[:] = live
                else:
                    dead_times.append(time)
            elif slot.callback is None:
                dead_times.append(time)
        for time in dead_times:
            del slots[time]
        self._times[:] = slots.keys()
        heapq.heapify(self._times)
        cur = self._cur_slot
        self._garbage = 0 if cur is None else sum(
            h.callback is None for h in cur[self._cur_index:]
        )

    def step(self) -> bool:
        """Fire the single next event.

        Returns ``True`` if an event was fired, ``False`` if the calendar is
        empty (skipping over cancelled events does not count as firing).
        May not be called from inside an event callback (the run loops own
        the drain position).
        """
        if self._running:
            raise SimulationError("step() called re-entrantly from a callback")
        return self._step()

    def _step(self) -> bool:
        times = self._times
        slots = self._slots
        while True:
            cur = self._cur_slot
            i = self._cur_index
            if cur is not None and i < len(cur):
                handle = cur[i]
                self._cur_index = i + 1
                callback = handle.callback
                if callback is None:  # cancelled; skip lazily
                    self._garbage -= 1
                    continue
                self.now = self._cur_time
                handle.callback = None  # the event is consumed; free the closure
                self._live -= 1
                self.events_fired += 1
                callback()
                return True
            if times:
                time = _heappop(times)
                slot = slots.pop(time)
                if slot.__class__ is list:
                    self._cur_slot = slot
                    self._cur_index = 0
                    self._cur_time = time
                    continue
                # Singleton slot: fire without any cohort bookkeeping.
                self._cur_time = time
                callback = slot.callback
                if callback is None:
                    self._garbage -= 1
                    continue
                self.now = time
                slot.callback = None
                self._live -= 1
                self.events_fired += 1
                callback()
                return True
            return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the calendar is empty.

        *max_events*, if given, bounds the number of events fired in this
        call *exactly*: the guard raises :class:`SimulationError` (a
        runaway-loop guard for tests) as soon as a (max_events+1)-th live
        event is due, without firing it.  Returns the number of events fired.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        fired = 0
        try:
            if max_events is None:
                while self._step():
                    fired += 1
            else:
                while fired < max_events and self._step():
                    fired += 1
                if fired >= max_events and self._next_pending_time() is not None:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
        finally:
            self._running = False
        return fired

    def run_until(self, time: int, max_events: Optional[int] = None) -> int:
        """Run events up to and including absolute *time*.

        The clock is advanced to *time* even if the calendar empties earlier.
        *max_events* is an exact bound, as in :meth:`run`.  Returns the
        number of events fired.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot run until t={time}us, already at t={self.now}us"
            )
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        fired = 0
        try:
            while True:
                upcoming = self._next_pending_time()
                if upcoming is None or upcoming > time:
                    break
                if max_events is not None and fired >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                self._step()
                fired += 1
        finally:
            self._running = False
        if self.now < time:
            self.now = time
        return fired

    def run_until_done(
        self,
        done: Callable[[], bool],
        max_events: Optional[int] = None,
        max_time: Optional[int] = None,
        exit_gated: bool = False,
    ) -> int:
        """Fire events until *done()* returns True.

        The predicate is consulted before every event, exactly as a caller
        looping over :meth:`step` would -- this method exists because that
        outer loop is the hottest frame of a whole-experiment run, and
        fusing it with the cohort drain removes one Python call per event.

        With ``exit_gated=True`` the caller promises that *done()* can only
        be true while :attr:`done_hint` is set (the kernel maintains the
        hint from its process-exit path), letting the loop replace most
        predicate calls with a single attribute test.  Since simulation
        state only changes inside event callbacks, gating the check this
        way fires exactly the same events as calling *done()* every time.

        Raises :class:`SimulationError` if the calendar empties while
        *done()* is still False, if *max_events* events have fired and
        more work remains (exact bound, as in :meth:`run`), or if the
        clock passes *max_time*.  Returns the number of events fired.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        times = self._times
        slots = self._slots
        pop = _heappop
        ungated = not exit_gated
        unbounded_events = max_events is None
        untimed = max_time is None
        # The drain position lives in locals across events (callbacks may
        # *append* to the current cohort -- same list object, so the length
        # re-check per iteration sees it -- but only this loop, step(), and
        # _next_pending_time() move the position, and none of them can run
        # re-entrantly).  ``_cur_index`` is synced back before every
        # callback so diagnostics (calendar_entries) stay exact.
        cur = self._cur_slot
        i = self._cur_index
        cur_time = self._cur_time
        fired = 0
        try:
            while not ((ungated or self.done_hint) and done()):
                if not unbounded_events and fired >= max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                # -- inlined _step(): drain the current cohort by index,
                # falling back to one heap pop per distinct timestamp --
                while True:
                    if cur is not None and i < len(cur):
                        handle = cur[i]
                        i += 1
                        callback = handle.callback
                        if callback is None:  # cancelled; skip lazily
                            self._garbage -= 1
                            continue
                        self._cur_index = i
                        self.now = cur_time
                        handle.callback = None
                        self._live -= 1
                        fired += 1
                        callback()
                        break
                    if times:
                        self._cur_index = i
                        time = pop(times)
                        slot = slots.pop(time)
                        if slot.__class__ is list:
                            self._cur_slot = cur = slot
                            self._cur_index = i = 0
                            self._cur_time = cur_time = time
                            continue
                        # Singleton slot: fire with no cohort bookkeeping.
                        # ``_cur_time`` still advances so a zero-delay
                        # schedule from the callback appends to the (kept,
                        # exhausted) cohort list and fires at this instant.
                        self._cur_time = cur_time = time
                        callback = slot.callback
                        if callback is None:
                            self._garbage -= 1
                            continue
                        self.now = time
                        slot.callback = None
                        self._live -= 1
                        fired += 1
                        callback()
                        break
                    if done():  # defensive re-check, mirroring step() callers
                        return fired
                    raise SimulationError(
                        "event calendar empty but the completion predicate "
                        "is still false: the workload is deadlocked"
                    )
                if not untimed and self.now > max_time:
                    raise SimulationError(
                        f"simulated time exceeded max_time={max_time}us"
                    )
        finally:
            self._running = False
            self._cur_index = i
            # events_fired is tallied per run rather than per event --
            # nothing observes it mid-run, and the loop above is the
            # hottest code in the tree.
            self.events_fired += fired
        return fired

    def _next_pending_time(self) -> Optional[int]:
        """Time of the next live event, discarding cancelled entries that
        surface at the head of the calendar (mirrors what the run loops
        would skip)."""
        cur = self._cur_slot
        if cur is not None:
            i = self._cur_index
            n = len(cur)
            while i < n and cur[i].callback is None:
                i += 1
            self._garbage -= i - self._cur_index
            self._cur_index = i
            if i < n:
                return self._cur_time
        times = self._times
        slots = self._slots
        while times:
            time = times[0]
            slot = slots[time]
            if slot.__class__ is list:
                if slot[0].callback is not None:
                    return time
                live = [h for h in slot if h.callback is not None]
                if live:
                    self._garbage -= len(slot) - len(live)
                    slot[:] = live
                    return time
                _heappop(times)
                del slots[time]
                self._garbage -= len(slot)
            else:
                if slot.callback is not None:
                    return time
                _heappop(times)
                del slots[time]
                self._garbage -= 1
        return None
