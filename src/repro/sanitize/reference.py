"""Reference implementations that production replaced with faster paths.

:class:`TableScanServer` is the paper's literal Section 5 server.  The
equivalence tests run it against the production server, which reaches
the same targets from the kernel's census journal, and require identical
targets, update times and event counts.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.server import ProcessControlServer
from repro.kernel import syscalls as sc
from repro.kernel.process import RunnableProcessInfo


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
