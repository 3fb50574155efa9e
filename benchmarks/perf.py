"""Perf-trajectory harness: events/sec, wall time and peak RSS per experiment.

Records each headline experiment's wall-clock time, simulator event count,
event throughput and the process's peak resident set size into
``BENCH_perf.json`` at the repository root, so successive PRs can see the
speedup and footprint curves instead of guessing from CI noise.  Peak RSS
is the process-wide high-water mark after the tier ran: when several tiers
run in one process, a tier's figure includes the tiers before it.  The
cyclic garbage collector's share is on the ledger too: ``gc_pause_s`` is
the time spent inside collections during the tier, and ``gc_young``,
``gc_middle`` and ``gc_full`` count the collections of each generation.
They come from a ``gc.callbacks`` hook registered only around the tier,
so nothing runs on the simulator's event path.

The file is merge-written: re-measuring one experiment updates its entry
and leaves the others alone.  Sweeps run serially (``Runs(jobs=1)``) --
the event meter only sees the measuring process, and serial runs make the
throughput number comparable across hosts with different core counts.

Run directly::

    PYTHONPATH=src:. python -m benchmarks.perf [--check] [--sanitize] [experiment ...]

``--sanitize`` runs every scenario under the strict invariant checker.

or via pytest (``benchmarks/test_bench_perf.py``).
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Optional

from repro.apps.synthetic import UniformApp
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.parallel import Runs
from repro.experiments.steady_state import run_steady_state
from repro.kernel import KernelConfig
from repro.machine import MachineConfig
from repro.sim import units
from repro.workloads import runner
from repro.workloads.scenario import AppSpec, Scenario

#: Where the trajectory lands: the repository root.
PERF_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

def scale_scenario(
    n_residents: int = 2_000,
    n_churn: int = 8_000,
    seed: int = 0,
) -> Scenario:
    """The ``scale`` tier: 1024 CPUs, 10k applications, 32 shards.

    Two populations stress the two different hot paths:

    * *residents* (2 workers, ~200 ms of work each) arrive in the first
      100 ms and stay for most of the run, keeping the census, the shard
      boards, and the water-filling cap structure populated by the
      thousands -- with 1024 processors and >2000 resident caps the
      machine runs overcommitted, so targets sit below caps and the
      packages actually suspend and resume workers;
    * *churn* applications (1 worker, ~4 ms of work) arrive every 187 us
      for 1.5 s -- each arrival and departure is one O(log n) cap update
      against the incremental water-filler and one census-journal entry,
      never a full rescan.

    Everything is deterministic (fixed arrival grid, no generator RNG), so
    the fired-event count is an exact fingerprint for ``--check``.
    """
    apps = []
    for i in range(n_residents):
        app_id = f"res{i:04d}"
        apps.append(
            AppSpec(
                factory=lambda app_id=app_id, i=i: UniformApp(
                    app_id=app_id,
                    n_tasks=40,
                    task_cost=units.ms(5),
                    seed=seed + i,
                ),
                n_processes=2,
                arrival=i * 50,
                app_id=app_id,
            )
        )
    for i in range(n_churn):
        app_id = f"chn{i:04d}"
        apps.append(
            AppSpec(
                factory=lambda app_id=app_id, i=i: UniformApp(
                    app_id=app_id,
                    n_tasks=2,
                    task_cost=units.ms(2),
                    seed=seed + n_residents + i,
                ),
                n_processes=1,
                arrival=i * 187,
                app_id=app_id,
            )
        )
    return Scenario(
        apps=apps,
        control="centralized",
        machine=MachineConfig(n_processors=1024),
        # Nothing reads Figure 5's series at this scale; leaving them on
        # would keep a point per census change for the whole run.
        kernel=KernelConfig(runnable_trace=False),
        server_interval=units.ms(100),
        poll_interval=units.ms(100),
        shards=32,
        seed=seed,
        max_time=units.seconds(60),
    )


def run_scale(runs: Runs):
    """Run the scale tier once (see :func:`scale_scenario`)."""
    return runner.run_scenario(scale_scenario(), sanitize=runs.sanitize)


#: How every tier runs unless told otherwise: serial, unchecked.
SERIAL = Runs(jobs=1)

#: Quick-preset slices: tens of thousands of events each (enough to put
#: the measurement in the hot loops), small enough for a CI smoke job.
#: The ``scale`` tier is the exception -- a single seven-figure-event run
#: proving the 1024-CPU / 10k-app configuration completes within a CI
#: wall budget (see ``--budget``).  Each entry takes the :class:`Runs`.
EXPERIMENTS = {
    "figure1": lambda runs: run_figure1(preset="quick", counts=(8, 16, 24), runs=runs),
    "figure3": lambda runs: run_figure3(
        preset="quick", apps=("fft", "matmul"), counts=(4, 16, 24), runs=runs
    ),
    "figure4": lambda runs: run_figure4(preset="quick", runs=runs),
    "steady_state": lambda runs: run_steady_state(preset="quick", runs=runs),
    "scale": run_scale,
}


class GcLedger:
    """A ``gc.callbacks`` hook: time spent in collections, and how many
    collections ran per generation (young, middle, full)."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1


def measure(name: str, runs: Runs = SERIAL) -> Dict[str, object]:
    """Run one experiment once, metered; return its perf record."""
    fn = EXPERIMENTS[name]
    ledger = GcLedger()
    gc.callbacks.append(ledger)
    try:
        with runner.metered() as meter:
            start = time.perf_counter()
            fn(runs)
            wall = time.perf_counter() - start
    finally:
        gc.callbacks.remove(ledger)
    young, middle, full = ledger.collections
    return {
        "wall_s": round(wall, 4),
        "peak_rss_mb": peak_rss_mb(),
        "events": meter.events,
        "events_per_sec": round(meter.events / wall) if wall > 0 else 0,
        "scenario_runs": meter.runs,
        "gc_pause_s": round(ledger.pause_s, 4),
        "gc_young": young,
        "gc_middle": middle,
        "gc_full": full,
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux but in bytes on macOS.
    return round(peak / (2**20 if sys.platform == "darwin" else 1024), 1)


def record(
    names: Optional[Iterable[str]] = None,
    path: Path = PERF_PATH,
    runs: Runs = SERIAL,
) -> Dict:
    """Measure *names* (default: all experiments) and merge into *path*."""
    selected = list(names) if names is not None else list(EXPERIMENTS)
    data: Dict[str, object] = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError):
            data = {}  # corrupt or unreadable: start the trajectory over
    for name in selected:
        data[name] = measure(name, runs)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def check(
    names: Optional[Iterable[str]] = None,
    path: Path = PERF_PATH,
    budget_s: Optional[float] = None,
    runs: Runs = SERIAL,
) -> bool:
    """Re-measure and compare ``events`` against the committed trajectory.

    The simulator is deterministic, so each experiment's event count is an
    exact fingerprint of its default behaviour: any drift means a change
    perturbed the simulated runs (intentionally or not).  Nothing is
    written.  Returns True when every measured count matches.
    """
    if not path.exists():
        print(f"no committed trajectory at {path}; nothing to check")
        return False
    committed = json.loads(path.read_text())
    selected = list(names) if names is not None else list(EXPERIMENTS)
    clean = True
    for name in selected:
        expected = (committed.get(name) or {}).get("events")
        if expected is None:
            print(f"{name:>14}: MISSING from {path.name}")
            clean = False
            continue
        entry = measure(name, runs)
        got = entry["events"]
        if got == expected:
            print(f"{name:>14}: {got:>9} events  ok  ({entry['wall_s']:.2f}s)")
        else:
            print(
                f"{name:>14}: {got:>9} events  MISMATCH "
                f"(committed {expected})"
            )
            clean = False
        if budget_s is not None and entry["wall_s"] > budget_s:
            print(
                f"{name:>14}: OVER BUDGET "
                f"({entry['wall_s']:.2f}s > {budget_s:.0f}s wall-clock cap)"
            )
            clean = False
    return clean


def main(argv: Optional[Iterable[str]] = None) -> None:
    names = list(argv if argv is not None else sys.argv[1:])
    checking = "--check" in names
    if checking:
        names.remove("--check")
    runs = SERIAL
    if "--sanitize" in names:
        names.remove("--sanitize")
        runs = Runs(jobs=1, sanitize="strict")
    budget_s: Optional[float] = None
    if "--budget" in names:
        at = names.index("--budget")
        try:
            budget_s = float(names[at + 1])
        except (IndexError, ValueError):
            raise SystemExit("--budget requires a wall-clock limit in seconds")
        del names[at : at + 2]
    for name in names:
        if name not in EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
            )
    if checking:
        if not check(names or None, budget_s=budget_s, runs=runs):
            raise SystemExit(
                "event counts drifted from BENCH_perf.json"
                + (" (or a tier blew its wall budget)" if budget_s else "")
            )
        return
    data = record(names or None, runs=runs)
    for name, entry in sorted(data.items()):
        print(
            f"{name:>14}: {entry['wall_s']:8.3f}s  "
            f"{entry['events']:>9} events  {entry['events_per_sec']:>9} ev/s  "
            f"{entry.get('peak_rss_mb', float('nan')):6.1f} MB  "
            f"gc {entry.get('gc_pause_s', float('nan')):.3f}s "
            f"({entry.get('gc_young')}/{entry.get('gc_middle')}/"
            f"{entry.get('gc_full')} young/middle/full)"
        )
    print(f"wrote {PERF_PATH}")


if __name__ == "__main__":
    main()
