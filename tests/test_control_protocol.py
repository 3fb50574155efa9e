"""Exhaustive walk of the suspend/resume protocol.

:class:`~repro.threads.control.ControlState` owns the transitions both
substrates run: the simulated runtimes call them between yields, and
:mod:`repro.realsys` calls them over shared memory under its lock.  This
module needs no kernel.  It walks, breadth first, every state reachable
from a fresh block of one to four workers by every step a worker, the
server or the finish can take:

* park any runnable worker at the current target;
* unpark, wake_next, close;
* set the target to ``None`` or to 0..n.

The walk stops at six suspensions.  After each step it checks the
protocol's invariants, and from each state it checks that a finish or
shutdown drain wakes every parked worker.  A failure names the step
sequence that reached it, so the counterexample replays by hand.
"""

from collections import deque

import pytest

from repro.threads.control import ControlState

MAX_SUSPENSIONS = 6


def _key(state, drained):
    """The state's identity.  Slots past ``n_parked`` are stale and never
    read, so they are left out."""
    return (
        state.target,
        state.runnable_workers,
        tuple(state.parked[: state.n_parked]),
        state.closed,
        state.suspensions,
        state.resumes,
        drained,
    )


def _restore(n, key):
    target, runnable, parked, closed, suspensions, resumes, drained = key
    state = ControlState(n)
    state.target = target
    state.runnable_workers = runnable
    state.parked[: len(parked)] = parked
    state.n_parked = len(parked)
    state.closed = closed
    state.suspensions = suspensions
    state.resumes = resumes
    return state, drained


def _steps(n, key):
    parked, suspensions = key[2], key[4]
    if suspensions < MAX_SUSPENSIONS:
        for worker in range(n):
            if worker not in parked:
                yield ("park", worker)
    yield ("unpark", None)
    yield ("wake_next", None)
    yield ("close", None)
    for target in (None, *range(n + 1)):
        yield ("target", target)


def _take(state, step, drained, path):
    """Run *step* and check what that step alone promises."""
    kind, arg = step
    queue = list(state.parked[: state.n_parked])
    if kind == "park":
        was_closed = state.closed
        if state.park(arg, state.target):
            assert not was_closed, f"parked after close: {path}"
            queue.append(arg)
    elif kind in ("unpark", "wake_next"):
        worker = getattr(state, kind)()
        if worker is not None:
            assert worker == queue.pop(0), f"{kind} skipped the head: {path}"
            if kind == "wake_next":
                drained += 1
    elif kind == "close":
        state.close()
    else:
        state.target = arg
    assert list(state.parked[: state.n_parked]) == queue, f"FIFO broken: {path}"
    return drained


def _check(n, state, drained, path):
    parked = state.parked[: state.n_parked]
    assert state.runnable_workers + state.n_parked == n, path
    assert state.runnable_workers >= 1, f"nobody runnable: {path}"
    assert len(set(parked)) == len(parked), f"parked twice: {path}"
    assert state.suspensions - state.resumes - drained == state.n_parked, path


def _check_drain(n, key, path):
    """Finish or shutdown from this state wakes every parked worker, in
    queue order."""
    state, _ = _restore(n, key)
    state.close()
    woken = []
    while (worker := state.wake_next()) is not None:
        woken.append(worker)
    assert woken == list(key[2]), f"drain skipped a worker: {path}"
    assert state.runnable_workers == n, f"drain stranded a worker: {path}"


def walk(n):
    """Visit every reachable state of an *n*-worker block; return them."""
    start = _key(ControlState(n), 0)
    paths = {start: ()}
    frontier = deque([start])
    while frontier:
        key = frontier.popleft()
        _check_drain(n, key, paths[key])
        for step in _steps(n, key):
            path = paths[key] + (step,)
            state, drained = _restore(n, key)
            drained = _take(state, step, drained, path)
            _check(n, state, drained, path)
            reached = _key(state, drained)
            if reached not in paths:
                paths[reached] = path
                frontier.append(reached)
    return paths


@pytest.mark.parametrize("n,n_states", [(1, 6), (2, 560), (3, 1810), (4, 6384)])
def test_every_reachable_state_keeps_the_invariants(n, n_states):
    reached = walk(n)
    # The walk really explores: it parks down to the one-worker floor, and
    # its size is pinned, so a step that silently stops firing shows up.
    assert max(len(key[2]) for key in reached) == n - 1
    assert len(reached) == n_states

