"""Sync transitions driven directly, with no kernel and no calendar.

Each primitive decides its own transitions (``repro.sync``).  These tests
play the kernel's part with stub processes that carry only a ``pid`` and
an ``alive`` flag.  The random walks at the end apply every outcome the
way the kernel does and check the lock invariants after each step.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError
from repro.sync import Barrier, ConditionVariable, Mutex, Semaphore, SpinLock
from repro.sync.lock import CULL, GRANT, QUEUE, SPIN


class Proc:
    """All a lock reads of a waiter."""

    __slots__ = ("pid", "alive")

    def __init__(self, pid):
        self.pid = pid
        self.alive = True

    def __repr__(self):
        return f"P{self.pid}"


def procs(n):
    return [Proc(pid) for pid in range(1, n + 1)]


KINDS = [(SpinLock, SPIN), (Mutex, QUEUE)]


@pytest.mark.parametrize("cls,waits", KINDS)
class TestAcquire:
    def test_free_lock_is_granted(self, cls, waits):
        lock = cls("l")
        (p,) = procs(1)
        assert lock.acquire(p, 0) is GRANT
        assert lock.holder_pid == p.pid
        assert lock.acquisitions == 1 and lock.contended_acquisitions == 0
        assert lock.wait_hist == {0: 1}

    def test_waiters_join_under_the_bound_and_are_culled_past_it(self, cls, waits):
        lock = cls("l", admission=2)
        h, a, b, c = procs(4)
        assert lock.acquire(h, 0) is GRANT
        assert lock.acquire(a, 1) is waits
        assert lock.acquire(b, 2) is waits
        assert lock.acquire(c, 3) is CULL
        assert lock.active == [a, b] and lock.culled == [c]
        assert lock.passivations == 1 and lock.culled_peak == 1
        assert lock.n_culled == 1 and lock.waiting == 3
        assert set(lock.wait_started) == {a.pid, b.pid, c.pid}
        # The holder's uncontended acquire, then the depth each waiter saw.
        assert lock.wait_hist == {0: 2, 1: 1, 2: 1}

    def test_no_admission_never_culls(self, cls, waits):
        lock = cls("l")
        h, *rest = procs(6)
        lock.acquire(h, 0)
        assert all(lock.acquire(p, 1) is waits for p in rest)
        assert not lock.culled and lock.active == rest


class TestRelease:
    def test_spin_handoff_is_fifo(self):
        lock = SpinLock("l")
        h, a, b = procs(3)
        lock.acquire(h, 0)
        lock.acquire(a, 5)
        lock.acquire(b, 6)
        assert lock.release(h.pid, 10) is a and lock.holder_pid == a.pid
        assert lock.release(a.pid, 20) is b and lock.holder_pid == b.pid
        assert lock.release(b.pid, 30) is None and not lock.held
        assert lock.handoffs == 2 and lock.total_wait_time == (10 - 5) + (20 - 6)
        assert lock.total_hold_time == 30

    def test_handoff_is_priced_before_the_grantee_leaves(self):
        lock = SpinLock("l", handoff_cost=3, contention_penalty=10)
        h, *spinners = procs(4)
        lock.acquire(h, 0)
        for p in spinners:
            lock.acquire(p, 1)
        # Two spinners keep storming after the grant.
        assert lock.handoff_charge() == 3 + 10 * 2
        lock.release(h.pid, 5)
        assert lock.handoff_charge() == 3 + 10 * 1

    def test_spin_release_does_not_skip_a_dead_spinner(self):
        # A spinner is on its processor, so a corpse in the spin set is a
        # kill-path bug: it is handed to the kernel, which rejects it.
        lock = SpinLock("l")
        h, a, b = procs(3)
        for p in (h, a, b):
            lock.acquire(p, 0)
        a.alive = False
        assert lock.release(h.pid, 10) is a
        assert lock.spinners == [b]

    def test_mutex_release_skips_a_killed_waiter(self):
        lock = Mutex("m")
        h, a, b = procs(3)
        for p in (h, a, b):
            lock.acquire(p, 0)
        a.alive = False
        assert lock.release(h.pid, 10) is b
        assert not lock.waiters

    def test_release_by_a_non_holder_raises(self):
        lock = Mutex("m")
        h, a = procs(2)
        lock.acquire(h, 0)
        with pytest.raises(RuntimeError, match="release by 2 but held by 1"):
            lock.release(a.pid, 1)


class TestReadmit:
    @pytest.mark.parametrize("cls,order", [(SpinLock, "fifo"), (Mutex, "lifo")])
    def test_spin_readmits_fifo_and_mutex_lifo(self, cls, order):
        lock = cls("l", admission=1)
        h, a, b, c = procs(4)
        for p in (h, a, b, c):
            lock.acquire(p, 0)
        assert lock.culled == [b, c]
        assert lock.release(h.pid, 10) is a
        readmitted = lock.readmit(10)
        assert readmitted is (b if order == "fifo" else c)
        # Readmitted into the active set, not granted: a holds the lock.
        assert lock.holder_pid == a.pid
        if cls is Mutex:
            assert lock.waiters == [readmitted]  # rejoins the FIFO asleep
        else:
            assert not lock.spinners  # woken to retry its acquire
        assert lock.readmissions == 1

    @pytest.mark.parametrize("cls,waits", KINDS)
    def test_readmit_waits_for_room_in_the_active_set(self, cls, waits):
        lock = cls("l", admission=1)
        h, a, b = procs(3)
        for p in (h, a, b):
            lock.acquire(p, 0)
        assert lock.readmit(5) is None
        assert lock.culled == [b]

    @pytest.mark.parametrize("cls,waits", KINDS)
    def test_direct_grant_when_the_lock_went_free(self, cls, waits):
        lock = cls("l", admission=1)
        h, a, b = procs(3)
        for p in (h, a, b):
            lock.acquire(p, 0)
        # The only active waiter goes away: a preempted spinner leaves the
        # spin set, a killed mutex waiter is skipped by the release.
        if cls is SpinLock:
            lock.stop_spinning(a)
        else:
            a.alive = False
        assert lock.release(h.pid, 10) is None
        assert lock.readmit(10) is b
        assert lock.holder_pid == b.pid  # granted, no barging window
        assert lock.handoffs == 1 and lock.total_wait_time == 10

    def test_killed_culled_waiter_is_skipped(self):
        lock = SpinLock("l", admission=1)
        h, a, b, c = procs(4)
        for p in (h, a, b, c):
            lock.acquire(p, 0)
        b.alive = False
        lock.release(h.pid, 10)
        assert lock.readmit(10) is c
        assert not lock.culled and lock.readmissions == 1

    def test_nothing_culled_readmits_nothing(self):
        lock = Mutex("m", admission=1)
        (h,) = procs(1)
        lock.acquire(h, 0)
        lock.release(h.pid, 1)
        assert lock.readmit(1) is None


class TestDetach:
    @pytest.mark.parametrize("cls,waits", KINDS)
    def test_detach_drops_the_wait_anchor(self, cls, waits):
        lock = cls("l", admission=1)
        h, a, b = procs(3)
        for p in (h, a, b):
            lock.acquire(p, 0)
        lock.detach(b)
        assert not lock.culled and b.pid not in lock.wait_started
        lock.detach(a)
        assert not lock.active and a.pid not in lock.wait_started
        assert lock.holder_pid == h.pid  # detach never releases

    def test_stop_spinning_keeps_the_anchor_for_the_retry(self):
        lock = SpinLock("l")
        h, a = procs(2)
        lock.acquire(h, 0)
        lock.acquire(a, 3)
        lock.stop_spinning(a)
        assert not lock.spinners and lock.wait_started == {a.pid: 3}
        lock.acquire(a, 8)  # the retry keeps the earliest start
        lock.release(h.pid, 10)
        assert lock.total_wait_time == 7


class TestBlockingPrimitives:
    def test_semaphore_counts_then_queues(self):
        sem = Semaphore("s", initial=1)
        a, b, c = procs(3)
        assert sem.wait(a) is True
        assert sem.wait(b) is False and sem.wait(c) is False
        b.alive = False
        assert sem.post() is c  # the killed waiter is skipped
        assert sem.post() is None and sem.count == 1
        assert (sem.waits, sem.posts) == (3, 2)

    def test_barrier_trips_on_the_last_party(self):
        barrier = Barrier(parties=3)
        a, b, c = procs(3)
        assert barrier.arrive(a) is None and barrier.arrive(b) is None
        assert barrier.arrive(c) == [a, b]
        assert barrier.generation == 1 and barrier.trips == 1
        assert not barrier.waiters

    def test_cond_wait_requires_the_mutex(self):
        cond = ConditionVariable(Mutex("m"), "c")
        with pytest.raises(SimulationError, match="without holding 'm'"):
            cond.wait(Proc(1))

    def test_signal_and_broadcast_take_live_waiters_in_order(self):
        mutex = Mutex("m")
        cond = ConditionVariable(mutex, "c")
        ps = procs(4)
        for p in ps:
            mutex.acquire(p, 0)
            cond.wait(p)
            mutex.release(p.pid, 0)
        ps[0].alive = False
        assert cond.signal() is ps[1]
        assert cond.broadcast() == ps[2:]
        assert (cond.signals, cond.broadcasts) == (1, 1) and not cond.waiters

    def test_requeue_grants_a_free_mutex_and_honours_admission(self):
        mutex = Mutex("m", admission=1)
        a, b, c = procs(3)
        assert mutex.requeue(a, 0) is GRANT
        assert mutex.requeue(b, 0) is QUEUE
        assert mutex.requeue(c, 0) is CULL
        # A condition waiter has no mutex wait to record.
        assert not mutex.wait_started and mutex.handoffs == 0


# ----------------------------------------------------------------------
# Random walks: acquire, release, kill (and preempt, cond wait, signal)
# ----------------------------------------------------------------------

N_PROCS = 8
#: Weighted: acquires and releases drive contention, the rest perturb it.
OPS = ("acquire",) * 4 + ("release",) * 3 + (
    "kill", "preempt", "cond_wait", "signal", "broadcast"
)


class Walk:
    """The kernel's side of the protocol, applied to stub processes.

    ``where`` says what each process is doing: ``None`` (running, free to
    acquire), ``"holds"``, ``"spins"``, ``"sleeps"`` (blocked with its
    acquire pending), ``"cond"`` (waiting on the condition), ``"mesa"``
    (signalled, asleep on the mutex with no acquire pending) or ``"dead"``.
    """

    #: The states from which each operation applies.
    ENABLED = {
        "acquire": (None,),
        "release": ("holds",),
        "cond_wait": ("holds",),
        "signal": (None, "holds"),
        "broadcast": (None, "holds"),
        "preempt": ("spins",),
        # A killed holder never releases (the modelled crash), which would
        # freeze the walk, so kills pick waiters and idle processes.
        "kill": (None, "spins", "sleeps", "cond", "mesa"),
    }

    def __init__(self, lock, cond):
        self.lock = lock
        self.cond = cond
        self.procs = procs(N_PROCS)
        self.where = {p.pid: None for p in self.procs}
        self.dead = set()
        self.now = 0

    def step(self, op, k):
        if self.cond is None and op in ("cond_wait", "signal", "broadcast"):
            return
        enabled = self.ENABLED[op]
        candidates = [p for p in self.procs if self.where[p.pid] in enabled]
        if not candidates:
            return
        p = candidates[k % len(candidates)]
        state = self.where[p.pid]
        lock = self.lock
        self.now += 1
        if op == "acquire":
            outcome = lock.acquire(p, self.now)
            self.where[p.pid] = {
                GRANT: "holds", SPIN: "spins", QUEUE: "sleeps", CULL: "sleeps"
            }[outcome]
        elif op == "release":
            self.where[p.pid] = None
            self._released(lock.release(p.pid, self.now))
        elif op == "cond_wait":
            self.cond.wait(p)
            self.where[p.pid] = "cond"
            self._released(lock.release(p.pid, self.now))
        elif op == "signal":
            waiter = self.cond.signal()
            self._requeue([waiter] if waiter is not None else [])
        elif op == "broadcast":
            self._requeue(self.cond.broadcast())
        elif op == "preempt":
            lock.stop_spinning(p)
            self.where[p.pid] = None  # retries its acquire when redispatched
        else:  # kill; a fresh process takes the slot
            p.alive = False
            self.where[p.pid] = "dead"
            self.dead.add(p.pid)
            fresh = Proc(max(self.where) + 1)
            self.procs[self.procs.index(p)] = fresh
            self.where[fresh.pid] = None
            if state == "spins":
                lock.stop_spinning(p)
            if state == "cond":
                self.cond.detach(p)
            elif state != "mesa":
                # A "mesa" corpse has no acquire pending: it stays on the
                # mutex, and the release or the readmit skips it.
                lock.detach(p)

    def _requeue(self, woken):
        for waiter in woken:
            outcome = self.lock.requeue(waiter, self.now)
            self.where[waiter.pid] = "holds" if outcome is GRANT else "mesa"

    def _released(self, grantee):
        if grantee is not None:
            self.where[grantee.pid] = "holds"
        waiter = self.lock.readmit(self.now)
        if waiter is None:
            return
        if self.lock.holder_pid == waiter.pid:
            self.where[waiter.pid] = "holds"
        elif isinstance(self.lock, SpinLock):
            self.where[waiter.pid] = None  # woken to retry
        # A readmitted mutex waiter sleeps on in the FIFO.

    def check(self):
        lock = self.lock
        holders = [pid for pid, state in self.where.items() if state == "holds"]
        assert len(holders) <= 1, f"two holders {holders}"
        assert lock.holder_pid == (holders[0] if holders else None)
        assert lock.holder_pid not in self.dead, "granted to a killed process"
        if lock.admission is not None:
            assert len(lock.active) <= lock.admission, "admission exceeded"
        if lock.holder_pid is None:
            assert not [w for w in lock.culled if w.alive], (
                "free lock left with only culled waiters"
            )
        waiting = lock.active + lock.culled + (self.cond.waiters if self.cond else [])
        live = [w.pid for w in waiting if w.alive]
        assert len(live) == len(set(live)), "a process waits twice"


WALK_STEPS = 150


def random_walk(walk, seed):
    rng = random.Random(seed)
    for _ in range(WALK_STEPS):
        walk.step(rng.choice(OPS), rng.randrange(N_PROCS))
        walk.check()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(admission=st.sampled_from([None, 1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_spinlock_random_walk_keeps_the_invariants(admission, seed):
    random_walk(Walk(SpinLock("l", admission=admission), cond=None), seed)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(admission=st.sampled_from([None, 1, 2, 3]), seed=st.integers(0, 2**32 - 1))
def test_mutex_random_walk_with_condition_waits_keeps_the_invariants(
    admission, seed
):
    mutex = Mutex("m", admission=admission)
    random_walk(Walk(mutex, cond=ConditionVariable(mutex, "c")), seed)
