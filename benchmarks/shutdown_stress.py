"""Stress ``ControlledPool.shutdown`` against workers parking at start-up.

Each cycle starts a 4-worker pool, cuts its target to 2 and shuts it
down at once, so two workers decide to park at their first safe point
while the shutdown runs.  Two CPU-bound processes run alongside to widen
that window.  The script exits nonzero if any shutdown takes longer than
1 s: a healthy one takes a few tens of milliseconds, and a stranded
worker costs the whole join timeout.  Run from the repository root::

    PYTHONPATH=src python benchmarks/shutdown_stress.py
"""

from __future__ import annotations

import multiprocessing as mp
import sys
import time

from repro.realsys import ControlledPool

CYCLES = 200
HOGS = 2
LIMIT_S = 1.0
JOIN_TIMEOUT_S = 3.0


def _hog() -> None:
    while True:
        pass


def main() -> int:
    hogs = [mp.Process(target=_hog, daemon=True) for _ in range(HOGS)]
    for hog in hogs:
        hog.start()
    slow = []
    worst = 0.0
    try:
        for cycle in range(CYCLES):
            pool = ControlledPool(n_workers=4, name=f"stress{cycle}")
            pool.start()
            pool.set_target(2)
            started = time.monotonic()
            pool.shutdown(timeout=JOIN_TIMEOUT_S)
            elapsed = time.monotonic() - started
            worst = max(worst, elapsed)
            if elapsed > LIMIT_S:
                slow.append((cycle, elapsed))
    finally:
        for hog in hogs:
            hog.terminate()
    print(
        f"{CYCLES} shutdowns with {HOGS} CPU hogs: worst {worst:.3f}s, "
        f"{len(slow)} over {LIMIT_S:.0f}s"
    )
    for cycle, elapsed in slow:
        print(f"  cycle {cycle}: {elapsed:.2f}s")
    return 1 if slow else 0


if __name__ == "__main__":
    sys.exit(main())
