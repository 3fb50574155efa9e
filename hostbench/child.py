"""One benchmark repeat, in a fresh process.

Builds one workload's scenario list, runs it serially, and prints one
JSON line: set-up and loop times, peak RSS, each run's fingerprint, the
simulator's own work counts and, when traced, the per-layer breakdown.

    python -m hostbench.child WORKLOAD SEED [--trace] [--last N]

``--last N`` runs only the workload's last N cells; ``--last 0`` only
sets up.  The parent (``run.py``) spawns it with ``src`` and the
repository root on ``PYTHONPATH`` and every ``REPRO_*`` variable removed.
"""

import time

_START = time.perf_counter()  # set-up time counts from here: imports included

import argparse
import cProfile
import hashlib
import json
import resource
import sys
import traceback
from typing import Dict, Optional

from hostbench.layers import attribute
from hostbench.workloads import WORKLOADS
from repro.workloads import ScenarioResult, run_scenario

#: Work counts read from each ScenarioResult, summed over the workload.
COUNTS = (
    "engine.events",
    "kernel.dispatches",
    "core.scans",
    "threads.polls",
    "threads.suspensions",
    "sync.acquisitions",
)


def fingerprint(result: ScenarioResult) -> str:
    """A digest of everything a speed-only change must leave identical."""
    apps = sorted(
        (a.app_id, a.finished_at, a.tasks_completed, a.polls, a.suspensions, a.resumes)
        for a in result.apps.values()
    )
    locks = sorted((name, s.acquisitions) for name, s in result.locks.items())
    state = (result.events_fired, result.sim_time, apps, locks)
    return hashlib.sha256(repr(state).encode()).hexdigest()[:16]


def counts(result: ScenarioResult) -> Dict[str, int]:
    apps = result.apps.values()
    return {
        "engine.events": result.events_fired,
        "kernel.dispatches": result.total_context_switches,
        "core.scans": result.server_updates,
        "threads.polls": sum(a.polls for a in apps),
        "threads.suspensions": sum(a.suspensions for a in apps),
        "sync.acquisitions": sum(s.acquisitions for s in result.locks.values()),
    }


def repeat(workload: str, seed: int, trace: bool, last: Optional[int]) -> dict:
    cells = WORKLOADS[workload](seed)
    if last is not None:
        cells = cells[len(cells) - last :]
    setup_s = time.perf_counter() - _START
    profile = cProfile.Profile() if trace else None
    wall_s = 0.0
    runs: Dict[str, Optional[str]] = {}
    totals = dict.fromkeys(COUNTS, 0)
    for label, scenario in cells:
        try:
            if profile is not None:
                profile.enable()
            start = time.perf_counter()
            result = run_scenario(scenario)
            wall_s += time.perf_counter() - start
        except Exception:
            # A run that raises is a failed run, not a failed benchmark:
            # record it and keep measuring the rest of the workload.
            traceback.print_exc()
            runs[label] = None
            continue
        finally:
            if profile is not None:
                profile.disable()
        runs[label] = fingerprint(result)
        for name, value in counts(result).items():
            totals[name] += value
        del result
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "runs": runs,
        "counts": totals,
        "layers": attribute(profile) if profile is not None else None,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m hostbench.child")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--last", type=int, default=None)
    args = parser.parse_args(argv)
    record = repeat(args.workload, args.seed, args.trace, args.last)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
