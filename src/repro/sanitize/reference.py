"""Reference implementations that production replaced with faster paths.

:class:`TableScanServer` is the paper's literal Section 5 server.  The
equivalence tests run it against the production server, which reaches
the same targets from the kernel's census journal, and require identical
targets, update times and event counts.

:class:`ReferenceDecayScheduler` is the decay oracle's ground truth for
:class:`~repro.kernel.scheduler.decay.PriorityDecayScheduler`, whose
O(log n) dequeue rests on two tricks that are easy to get subtly wrong:
epoch-normalized heap keys (so entries minted at different times stay
comparable without re-keying) and lazy invalidation of stale entries via
per-pid sequence numbers.  The reference keeps the same usage-decay
arithmetic (``_decayed_usage`` and ``_normalized_key`` are inherited, so
usage estimates evolve through the identical sequence of float
operations) but reimplements the queue from scratch: a plain list, a
linear scan for the minimum key on ``dequeue``, and stale entries pruned
eagerly during the scan.  :func:`repro.sanitize.oracle.reference_decay`
builds it in place of every ``decay`` scheduler, and the two must produce
bit-identical dispatch traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.server import ProcessControlServer
from repro.kernel import syscalls as sc
from repro.kernel.process import Process, ProcessState, RunnableProcessInfo
from repro.kernel.scheduler.decay import PriorityDecayScheduler


class TableScanServer(ProcessControlServer):
    """A control server that reads the whole process table every round
    and posts the complete target map (the production load summary is
    charged like this table read, so the timelines must match)."""

    def _scan(self):
        table = yield sc.GetProcessTable()
        return self.compute_targets(table, self.kernel.now)

    def _publish(self, targets: Dict[str, int]) -> None:
        self.board.post(targets, self.kernel.now)

    def compute_targets(
        self, table: List[RunnableProcessInfo], now: int
    ) -> Dict[str, int]:
        """One partitioning decision from a process-table snapshot (tests
        drive it directly with a synthetic table)."""
        plane = self.plane
        # Sibling shard servers are system daemons too; none of them is
        # load the applications should be charged for.
        own_pids = plane.server_pids()
        uncontrolled = sum(
            1
            for row in table
            if row.runnable and not row.controllable and row.pid not in own_pids
        )
        app_totals: Dict[str, int] = {}
        app_runnable: Dict[str, int] = {}
        for row in table:
            if row.controllable and row.app_id is not None:
                app_totals[row.app_id] = app_totals.get(row.app_id, 0) + 1
                if row.runnable:
                    app_runnable[row.app_id] = (
                        app_runnable.get(row.app_id, 0) + 1
                    )
        # Filtering assigns unrouted applications in table (first-spawn)
        # order, the order production's journal reconciliation replays.
        index = self.shard_index
        app_totals = {
            app_id: total
            for app_id, total in app_totals.items()
            if plane.shard_of(app_id) == index
        }
        return self.policy.allocate(
            self._request(
                plane.shard_capacity(index),
                plane.shard_uncontrolled(index, uncontrolled),
                app_totals,
                app_runnable,
                now,
            )
        )


class ReferenceDecayScheduler(PriorityDecayScheduler):
    """Priority-decay scheduling by O(n) rescan over a plain list."""

    def __init__(self, half_life: Optional[int] = None) -> None:
        if half_life is None:
            super().__init__()
        else:
            super().__init__(half_life=half_life)
        # Shadow the heap with a plain insertion-ordered list of
        # (key, seq, process).  ``_queued`` keeps its base-class meaning:
        # pid -> seq of the live entry.
        self._entries: List[Tuple[float, int, Process]] = []

    @staticmethod
    def _rank(entry: Tuple[float, int, Process]) -> Tuple[float, int]:
        """The total order the heap pops in: key, then FIFO by seq (seqs
        are unique, so no two entries tie)."""
        return entry[0], entry[1]

    def enqueue(self, process: Process, reason: str) -> None:
        if process.state is not ProcessState.READY:
            raise ValueError(
                f"enqueue of process {process.pid} in state {process.state.name}"
            )
        usage = self._decayed_usage(process)
        key = self._normalized_key(usage, self.kernel.engine.now)
        seq = self._next_seq
        self._next_seq += 1
        self._queued[process.pid] = seq
        self._entries.append((key, seq, process))

    def dequeue(self, cpu: int) -> Optional[Process]:
        queued = self._queued
        while True:
            # Prune stale entries (superseded or exited) eagerly, then scan
            # the survivors for the minimum rank.
            live = [
                entry
                for entry in self._entries
                if queued.get(entry[2].pid) == entry[1]
            ]
            self._entries = live
            if not live:
                return None
            best = min(live, key=self._rank)
            self._entries.remove(best)
            process = best[2]
            del queued[process.pid]
            if process.state is not ProcessState.READY:
                continue  # defensive: never hand out a non-READY process
            self._decayed_usage(process)
            return process

    def _rebase(self, now: int) -> None:
        self._epoch = now
        rebuilt: List[Tuple[float, int, Process]] = []
        for _key, seq, process in self._entries:
            if self._queued.get(process.pid) != seq:
                continue
            usage = self._decayed_usage(process)  # exponent is now zero
            rebuilt.append((usage, seq, process))
        self._entries = rebuilt

    def queued_census(self):
        return {pid: 1 for pid in self._queued}
