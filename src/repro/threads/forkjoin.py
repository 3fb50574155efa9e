"""The fork-join runtime: phases separated by real barriers.

The task-queue package can suspend a worker between *any* two tasks; an
OpenMP-style fork-join runtime cannot.  Its workers belong to a phase
team: they run their share of the phase, then wait at a barrier until the
whole phase has drained.  The barrier is the **only** safe suspension
point -- suspending a mid-phase worker would stall the barrier for
everyone (exactly the pathology Section 3 of the paper ascribes to
barrier applications under time-slicing).

:class:`ForkJoinPackage` ports the phased applications in
:mod:`repro.apps` (Jacobi, FFT, Gaussian elimination -- anything built on
:class:`~repro.apps.base.PhasedApplication`) onto that model:

* workers pull the current phase's tasks from the shared queue; a worker
  that finds the queue empty *parks* at the barrier (blocks on a signal)
  instead of busy-waiting;
* the worker whose task completion drains the phase (``on_task_done``
  returns the next phase) is the **closer**: with every peer parked, it
  runs the barrier point (poll + pending-target adoption) and releases
  exactly the adopted width of workers into the next phase;
* a shrink published mid-phase therefore takes effect one barrier later
  -- the adoption lag the compliance telemetry reports.

Barrier parking is not process-control suspension: it uses its own
bookkeeping (``parked`` / ``active_workers``) and stays off the
``pc.suspend``/``pc.resume``/``pc.wake`` trace protocol, whose pairing
the trace lint enforces for the poll-driven runtimes.  Control-driven
*withholding* (a parked worker not released because the target shrank) is
what increments the ``suspensions``/``resumes`` counters.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Set

from repro.kernel import Kernel, syscalls as sc
from repro.threads.control import FINISH, RESUME
from repro.threads.package import DeferredAdoptionPackage, ThreadsPackageConfig
from repro.threads.task import Task


class ForkJoinPackage(DeferredAdoptionPackage):
    """Run a phased application as a fork-join team with real barriers."""

    runtime = "forkjoin"

    def __init__(
        self,
        kernel: Kernel,
        app: Any,
        n_processes: int,
        config: Optional[ThreadsPackageConfig] = None,
    ) -> None:
        super().__init__(kernel, app, n_processes, config=config)
        #: Pids parked at the barrier (ran out of phase work, or withheld
        #: by a shrunken target), FIFO.
        self.parked: Deque[int] = deque()
        #: Workers licensed to run the current phase and not parked.
        self.active_workers = n_processes
        #: Pids currently withheld *by control* (parked across a barrier
        #: because the adopted target was below the team size).
        self._withheld: Set[int] = set()
        self.phases_closed = 0

    def report_demand(self) -> int:
        """Demand of a fork-join team: the width the next phase staffs.

        The team polls only at barriers -- the one instant its queue is
        empty by construction -- so the task-queue backlog snapshot is
        always zero there and would cap the team at one processor.  The
        figure that means something for a phased runtime is the worker
        pool the coming phase will use: every live worker (active or
        parked at the barrier) runs again the moment the phase opens.
        """
        live = self.active_workers + len(self.parked)
        return max(self._outstanding, live)

    # ------------------------------------------------------------------
    # Worker program
    # ------------------------------------------------------------------

    def _worker_program(self, index: int):
        if index == 0:
            initial = yield from self._root_tasks()
            yield from self._enqueue_tasks(initial)
            # Workers spawned behind us may already be parked (they found
            # an empty queue before the seed arrived): wake them.
            yield from self._release_to_width()
        control = self.control
        queue_items = self.queue._items
        while True:
            if self.finished:
                return
            # A worker that raced past a barrier close parks when the
            # adopted width says the new phase is already fully staffed.
            if (
                control.target is not None
                and self.active_workers > max(control.target, 1)
            ):
                payload = yield from self._park(index)
                if payload == FINISH or self.finished:
                    return
                continue
            item = None
            if queue_items:
                item = yield from self._locked_pop()
            if item is None:
                if self.finished:
                    return
                # Out of phase work: wait at the barrier for the closer.
                payload = yield from self._park(index)
                if payload == FINISH or self.finished:
                    return
                continue
            yield from self._run_body(item)
            yield from self._task_done(item)

    def _park(self, index: int):
        """Block at the barrier until released (returns the wake payload)."""
        my_pid = self.worker_pids[index]
        self.active_workers -= 1
        self.parked.append(my_pid)
        payload = yield sc.WaitSignal()
        # The releaser already re-counted us among the active workers.
        return payload

    # Fork-join teams never use the blocking-semaphore queue mode: the
    # barrier protocol replaces the idle policy entirely.
    def _enqueue_tasks(self, tasks: List[Task]):
        self._outstanding += len(tasks)
        yield from self._locked_push(tasks)

    # ------------------------------------------------------------------
    # Task completion and the barrier
    # ------------------------------------------------------------------

    def _task_done(self, task: Task):
        if task.meta:
            self._note_service_completion(task)
        follow = list(self.app.on_task_done(task))
        self._outstanding -= 1
        if follow:
            if self._outstanding == 0:
                # My completion drained the phase: I am the closer.
                yield from self._close_phase(follow)
            else:
                # Dynamic same-phase continuation (non-barrier app on the
                # fork-join runtime): extend the current phase and wake
                # parked peers to help drain it.
                yield from self._enqueue_tasks(follow)
                yield from self._release_to_width()
        elif self._outstanding == 0:
            yield from self._finish()

    def _release_to_width(self):
        """Wake parked workers until the team reaches the adopted width."""
        control = self.control
        target = control.target
        live = self.active_workers + len(self.parked)
        width = live if target is None else max(min(target, live), 1)
        released: List[int] = []
        while self.active_workers < width and self.parked:
            pid = self.parked.popleft()
            self.active_workers += 1
            if pid in self._withheld:
                self._withheld.discard(pid)
                control.resumes += 1
            released.append(pid)
        for pid in released:
            yield sc.SendSignal(pid, RESUME)

    def _barrier_point(self):
        """The phase barrier's safe point (closer only; every peer is
        parked): poll if due and adopt any pending shrink.

        Workers never suspend mid-phase, so adoption lags a shrink by up
        to one full phase -- the figure the compliance telemetry reports.
        """
        if self.config.control is None:
            return
        yield from self._poll_if_due()
        if self.pending_target is not None:
            # With the whole pool parked, a shrink is honoured by simply
            # releasing fewer workers: adopt it now.  _close_phase records
            # conformance once it has set the next phase's width.
            self.control.target = self._effective_target(self.pending_target)
            self.pending_target = None

    def _close_phase(self, follow: List[Task]):
        """Close the phase barrier and open the next (closer only)."""
        self.phases_closed += 1
        yield from self._barrier_point()
        yield from self._enqueue_tasks(follow)
        yield from self._release_to_width()
        control = self.control
        for pid in self.parked:
            if pid not in self._withheld:
                # Parked across the barrier because the target shrank:
                # this is the fork-join form of a control suspension.
                self._withheld.add(pid)
                control.suspensions += 1
        control.runnable_workers = self.active_workers
        self.tracker.note_conformed(control.runnable_workers, self.kernel.now)

    def _finish(self):
        """Run by whichever worker completes the last task."""
        self._mark_finished()
        self._withheld.clear()
        while self.parked:
            pid = self.parked.popleft()
            self.active_workers += 1
            yield sc.SendSignal(pid, FINISH)
        # No poison tasks: workers exit on the finished flag.
