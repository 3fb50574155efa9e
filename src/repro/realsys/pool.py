"""A process pool whose worker count is dynamically controlled.

This is the paper's modified threads package on real OS processes:

* workers pull ``(task_id, fn, args)`` work items from a shared queue;
* **between tasks** -- the safe suspension point of Section 4.1 -- each
  worker wakes a parked peer while under target or parks itself (on an
  Event) while over it, through the simulator's own
  :class:`~repro.threads.control.ControlState` run over shared memory;
* suspension never drops below one runnable worker (starvation avoidance).

The target is set externally -- by a
:class:`~repro.realsys.controller.CentralController`, or directly by the
application via :meth:`ControlledPool.set_target`.

All coordination uses primitive shared state (Arrays, a Lock, Events,
Queues), no Manager server, so the pool works with fork and spawn start
methods alike.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.threads.control import ControlState

#: Sentinel telling a worker to exit.
_POISON = ("__poison__", None, None)


def _cell(index: int) -> property:
    return property(
        lambda self: self.cells[index],
        lambda self, value: self.cells.__setitem__(index, value),
    )


class SharedControlState(ControlState):
    """:class:`ControlState` over shared memory, for real processes.

    The protocol fields are cells of one shared int array and the parked
    FIFO is a second one, so the inherited transitions run unchanged in
    every worker; callers hold the pool's ``state_lock`` around them.  The
    poll and TTL fields stay unused: a real pool has no board.
    """

    __slots__ = ("cells",)

    target = _cell(0)
    runnable_workers = _cell(1)
    n_parked = _cell(2)
    closed = _cell(3)
    suspensions = _cell(4)
    resumes = _cell(5)

    def __init__(self, cells: Any, parked: Any) -> None:
        self.cells = cells
        self.parked = parked

    @classmethod
    def allocate(cls, ctx: Any, n_workers: int) -> "SharedControlState":
        """A fresh block: every worker runnable, the target at full width."""
        return cls(
            ctx.Array("i", [n_workers, n_workers, 0, 0, 0, 0], lock=False),
            ctx.Array("i", n_workers, lock=False),
        )

    def __reduce__(self) -> Tuple[Any, Tuple[Any, Any]]:
        # A spawned worker must rebuild the block around the parent's
        # shared arrays, not around a private copy of their values.
        return (type(self), (self.cells, self.parked))


def _worker_main(
    index: int,
    task_queue: "mp.JoinableQueue",
    result_queue: "mp.Queue",
    control: SharedControlState,
    state_lock: "mp.Lock",
    resume_events: Sequence["mp.Event"],
) -> None:
    """Worker process body.  Module-level so it is picklable under spawn."""
    my_event = resume_events[index]
    while True:
        # --- safe suspension point: between tasks ---------------------
        # Shutdown closes and drains the block under the same lock, so a
        # worker either parks before the drain wakes it or never parks.
        with state_lock:
            peer = control.unpark()
            if peer is not None:
                resume_events[peer].set()
            parked = control.park(index, control.target)
            if parked:
                my_event.clear()
        if parked:
            my_event.wait()
        # --- dequeue and run one task ----------------------------------
        item = task_queue.get()
        try:
            task_id, fn, args = item
            if task_id == "__poison__":
                return
            try:
                result: Any = fn(*args)
                result_queue.put((task_id, True, result, index))
            except Exception as exc:  # noqa: BLE001 - report, don't die
                result_queue.put((task_id, False, repr(exc), index))
        finally:
            task_queue.task_done()


class ControlledPool:
    """A dynamically controllable pool of real worker processes.

    Usage::

        pool = ControlledPool(n_workers=4, name="fft")
        pool.start()
        pool.submit_many([(tasks.sum_squares, (10_000,))] * 32)
        pool.set_target(2)          # or let a CentralController do it
        results = pool.join_results(32)
        pool.shutdown()
    """

    def __init__(
        self,
        n_workers: int,
        name: str = "pool",
        ctx: Optional[Any] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.name = name
        self.n_workers = n_workers
        self._ctx = ctx or mp.get_context()
        self._task_queue: Optional[Any] = None
        self._result_queue: Optional[Any] = None
        self._workers: List[Any] = []
        # Answers the properties until start() allocates the shared block.
        self._control: ControlState = ControlState(n_workers)
        self._control.target = n_workers
        self._state_lock: Optional[Any] = None
        self._resume_events: List[Any] = []
        self._next_task_id = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Create the shared state and spawn the worker processes."""
        if self._workers:
            raise RuntimeError(f"pool {self.name!r} already started")
        ctx = self._ctx
        self._task_queue = ctx.JoinableQueue()
        self._result_queue = ctx.Queue()
        # Guarded by state_lock, so its arrays need no locks of their own.
        self._control = SharedControlState.allocate(ctx, self.n_workers)
        self._state_lock = ctx.Lock()
        self._resume_events = [ctx.Event() for _ in range(self.n_workers)]
        for event in self._resume_events:
            event.set()
        for index in range(self.n_workers):
            process = ctx.Process(
                target=_worker_main,
                args=(
                    index,
                    self._task_queue,
                    self._result_queue,
                    self._control,
                    self._state_lock,
                    self._resume_events,
                ),
                name=f"{self.name}-w{index}",
                daemon=True,
            )
            process.start()
            self._workers.append(process)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Wake everyone, poison the queue, and join the workers."""
        if not self._workers:
            return
        # Wake every parked worker so it can consume its poison; a worker
        # not yet parked finds the block closed and never parks.
        control = self._control
        with self._state_lock:
            control.close()
            while (index := control.wake_next()) is not None:
                self._resume_events[index].set()
        for _ in self._workers:
            self._task_queue.put(_POISON)
        deadline = time.monotonic() + timeout
        for process in self._workers:
            process.join(max(0.0, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(1.0)
        self._workers = []

    # -- work submission -----------------------------------------------------

    def submit(self, fn: Callable, args: Tuple = ()) -> int:
        """Enqueue one task; returns its task id."""
        if not self._workers:
            raise RuntimeError(f"pool {self.name!r} is not running")
        task_id = self._next_task_id
        self._next_task_id += 1
        self._task_queue.put((task_id, fn, args))
        return task_id

    def submit_many(self, items: Sequence[Tuple[Callable, Tuple]]) -> List[int]:
        """Enqueue many ``(fn, args)`` items; returns their task ids."""
        return [self.submit(fn, args) for fn, args in items]

    def join_results(
        self, n_results: int, timeout: float = 60.0
    ) -> Dict[int, Any]:
        """Collect *n_results* completed task results (id -> value).

        Raises ``TimeoutError`` if they do not all arrive in time and
        ``RuntimeError`` if any task failed or the pool was never started.
        """
        if self._result_queue is None:
            raise RuntimeError(f"pool {self.name!r} is not running")
        results: Dict[int, Any] = {}
        deadline = time.monotonic() + timeout
        while len(results) < n_results:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"pool {self.name!r}: got {len(results)}/{n_results} "
                    "results before timeout"
                )
            try:
                task_id, ok, value, _worker = self._result_queue.get(
                    timeout=min(remaining, 0.5)
                )
            except queue_module.Empty:
                continue
            if not ok:
                raise RuntimeError(f"task {task_id} failed: {value}")
            results[task_id] = value
        return results

    # -- control interface -----------------------------------------------------

    def set_target(self, target: int) -> None:
        """Set the allowed number of runnable workers (the server's verdict).

        Suspension happens lazily at each worker's next safe point; a raise
        of the target wakes suspended peers immediately.
        """
        if self._state_lock is None:
            raise RuntimeError(f"pool {self.name!r} is not running")
        if target < 1:
            raise ValueError("target must be >= 1")
        control = self._control
        with self._state_lock:
            control.target = min(target, self.n_workers)
            while (index := control.unpark()) is not None:
                self._resume_events[index].set()

    @property
    def target(self) -> int:
        return self._control.target

    @property
    def runnable_workers(self) -> int:
        """Workers currently not suspended by control."""
        return self._control.runnable_workers

    @property
    def suspensions(self) -> int:
        """Times a worker parked itself at a safe suspension point.

        The real-system counterpart of the simulator's per-application
        ``suspensions`` statistic; the co-simulation oracle diffs the two.
        """
        return self._control.suspensions

    @property
    def resumes(self) -> int:
        """Times a suspended worker was woken (by a peer or a target raise)."""
        return self._control.resumes

    @property
    def alive_workers(self) -> int:
        """Worker processes still alive on the OS (crash visibility)."""
        return sum(1 for process in self._workers if process.is_alive())

    @property
    def pending_tasks(self) -> int:
        """Approximate queued-but-unfinished task count."""
        if self._task_queue is None:
            return 0
        return self._task_queue.qsize()
