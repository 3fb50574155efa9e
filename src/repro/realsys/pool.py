"""A process pool whose worker count is dynamically controlled.

This is the paper's modified threads package on real OS processes:

* workers pull ``(task_id, fn, args)`` work items from a shared queue;
* **between tasks** -- the safe suspension point of Section 4.1 -- each
  worker compares the pool's current *target* with the number of
  non-suspended workers and suspends itself (parks on an Event) or wakes a
  suspended peer, exactly mirroring
  :meth:`repro.threads.package.ThreadsPackage._control_point`;
* suspension never drops below one runnable worker (starvation avoidance).

The target is set externally -- by a
:class:`~repro.realsys.controller.CentralController`, or directly by the
application via :meth:`ControlledPool.set_target`.

All coordination uses primitive shared state (Values, Arrays, Events,
Queues), no Manager server, so the pool works with fork and spawn start
methods alike.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Sentinel telling a worker to exit.
_POISON = ("__poison__", None, None)


def _pop_parked(parked: Any, n_parked: Any) -> Optional[int]:
    """Take the longest-parked worker off the FIFO (caller holds
    ``state_lock``); ``None`` when nobody is parked."""
    n = n_parked.value
    if n == 0:
        return None
    index = parked[0]
    parked[: n - 1] = parked[1:n]
    n_parked.value = n - 1
    return index


def _worker_main(
    index: int,
    task_queue: "mp.JoinableQueue",
    result_queue: "mp.Queue",
    target: "mp.Value",
    runnable: "mp.Value",
    state_lock: "mp.Lock",
    parked: "mp.Array",
    n_parked: "mp.Value",
    resume_events: Sequence["mp.Event"],
    shutting_down: "mp.Event",
    suspend_count: "mp.Value",
    resume_count: "mp.Value",
) -> None:
    """Worker process body.  Module-level so it is picklable under spawn."""
    my_event = resume_events[index]
    while True:
        # --- safe suspension point: between tasks ---------------------
        # The flag check and the park decision share one critical section
        # with shutdown's flag-set-and-drain, so no wakeup can be lost.
        with state_lock:
            running = not shutting_down.is_set()
            should_suspend = running and runnable.value > max(target.value, 1)
            if should_suspend:
                runnable.value -= 1
                suspend_count.value += 1
                my_event.clear()
                parked[n_parked.value] = index
                n_parked.value += 1
            elif running and runnable.value < target.value:
                peer = _pop_parked(parked, n_parked)
                if peer is not None:
                    runnable.value += 1
                    resume_count.value += 1
                    resume_events[peer].set()
        if should_suspend:
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
        self._target: Optional[Any] = None
        self._runnable: Optional[Any] = None
        self._state_lock: Optional[Any] = None
        self._parked: Optional[Any] = None
        self._n_parked: Optional[Any] = None
        self._resume_events: List[Any] = []
        self._shutting_down: Optional[Any] = None
        self._suspend_count: Optional[Any] = None
        self._resume_count: Optional[Any] = None
        self._next_task_id = 0
        self._submitted = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Create the shared state and spawn the worker processes."""
        if self._workers:
            raise RuntimeError(f"pool {self.name!r} already started")
        ctx = self._ctx
        self._task_queue = ctx.JoinableQueue()
        self._result_queue = ctx.Queue()
        self._target = ctx.Value("i", self.n_workers)
        self._runnable = ctx.Value("i", self.n_workers)
        self._state_lock = ctx.Lock()
        # Guarded by state_lock, so they need no locks of their own.
        self._parked = ctx.Array("i", self.n_workers, lock=False)
        self._n_parked = ctx.Value("i", 0, lock=False)
        self._resume_events = [ctx.Event() for _ in range(self.n_workers)]
        for event in self._resume_events:
            event.set()
        self._shutting_down = ctx.Event()
        self._suspend_count = ctx.Value("i", 0)
        self._resume_count = ctx.Value("i", 0)
        for index in range(self.n_workers):
            process = ctx.Process(
                target=_worker_main,
                args=(
                    index,
                    self._task_queue,
                    self._result_queue,
                    self._target,
                    self._runnable,
                    self._state_lock,
                    self._parked,
                    self._n_parked,
                    self._resume_events,
                    self._shutting_down,
                    self._suspend_count,
                    self._resume_count,
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
        # Wake any parked workers so they can consume their poison; a
        # worker not yet parked sees the flag and never parks.
        with self._state_lock:
            self._shutting_down.set()
            while True:
                index = _pop_parked(self._parked, self._n_parked)
                if index is None:
                    break
                self._runnable.value += 1
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
        self._submitted += 1
        return task_id

    def submit_many(self, items: Sequence[Tuple[Callable, Tuple]]) -> List[int]:
        """Enqueue many ``(fn, args)`` items; returns their task ids."""
        return [self.submit(fn, args) for fn, args in items]

    def join_results(
        self, n_results: int, timeout: float = 60.0
    ) -> Dict[int, Any]:
        """Collect *n_results* completed task results (id -> value).

        Raises ``TimeoutError`` if they do not all arrive in time and
        ``RuntimeError`` if any task failed.
        """
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
        if target < 1:
            raise ValueError("target must be >= 1")
        self._target.value = min(target, self.n_workers)
        with self._state_lock:
            while self._runnable.value < self._target.value:
                index = _pop_parked(self._parked, self._n_parked)
                if index is None:
                    break
                self._runnable.value += 1
                if self._resume_count is not None:
                    self._resume_count.value += 1
                self._resume_events[index].set()

    @property
    def target(self) -> int:
        return self._target.value if self._target is not None else self.n_workers

    @property
    def runnable_workers(self) -> int:
        """Workers currently not suspended by control."""
        return (
            self._runnable.value if self._runnable is not None else self.n_workers
        )

    @property
    def suspensions(self) -> int:
        """Times a worker parked itself at a safe suspension point.

        The real-system counterpart of the simulator's per-application
        ``suspensions`` statistic; the co-simulation oracle diffs the two.
        """
        return self._suspend_count.value if self._suspend_count is not None else 0

    @property
    def resumes(self) -> int:
        """Times a suspended worker was woken (by a peer or a target raise)."""
        return self._resume_count.value if self._resume_count is not None else 0

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
