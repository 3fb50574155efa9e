"""The UMAX-like baseline: one shared FIFO run queue, round-robin quanta.

This is the discipline the paper's Figure 1 discussion assumes:
"unscheduled processes are placed on a FIFO queue, and the more unscheduled
processes there are, the longer it takes for a preempted process to get to
the front of the queue and be rescheduled."

Preempted, yielded, newly created, and newly unblocked processes all join
the tail.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.kernel.process import Process, ProcessState
from repro.kernel.scheduler.base import SchedulerPolicy


class FifoScheduler(SchedulerPolicy):
    """Single shared FIFO run queue (the paper's baseline kernel policy)."""

    shared_queue = True

    def __init__(self) -> None:
        super().__init__()
        self._queue: Deque[Process] = deque()
        #: Queue entries per pid, so an exit scans the queue only for a
        #: process that is actually on it (most exit from a CPU).
        self._queued: Dict[int, int] = {}

    def enqueue(self, process: Process, reason: str) -> None:
        if process.state is not ProcessState.READY:
            raise ValueError(
                f"enqueue of process {process.pid} in state {process.state.name}"
            )
        self._queue.append(process)
        queued = self._queued
        queued[process.pid] = queued.get(process.pid, 0) + 1

    def dequeue(self, cpu: int) -> Optional[Process]:
        # Skip any process that terminated while queued (defensive; the
        # kernel never leaves terminated processes queued today).
        while self._queue:
            process = self._queue.popleft()
            self._unqueue(process.pid)
            if process.state is ProcessState.READY:
                return process
        return None

    def has_waiting(self, cpu: int) -> bool:
        return any(p.state is ProcessState.READY for p in self._queue)

    def queue_length(self) -> int:
        """Current run-queue length (diagnostics and tests)."""
        return len(self._queue)

    def queued_census(self):
        census = {}
        for process in self._queue:
            census[process.pid] = census.get(process.pid, 0) + 1
        return census

    def on_process_exit(self, process: Process) -> None:
        # A READY process killed off-CPU leaves the queue, so the census
        # stays exact; one exiting from a CPU is not queued and costs no scan.
        if process.pid in self._queued:
            self._queue.remove(process)
            self._unqueue(process.pid)

    def _unqueue(self, pid: int) -> None:
        queued = self._queued
        count = queued.pop(pid, 0)
        if count > 1:
            queued[pid] = count - 1
