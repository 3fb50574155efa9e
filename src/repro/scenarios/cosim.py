"""Co-simulation oracle: simulator vs real OS processes.

The simulator and :mod:`repro.realsys` implement the *same* design -- a
central server partitioning processors with
:func:`repro.core.policy.partition_processors`, and task-queue worker
pools that suspend/resume between tasks to track their target.  This
module runs one declared workload through **both** implementations and
diffs the observable timelines:

- **decision sequence** -- the ordered, deduplicated list of target maps
  the server published.  Both sides call the same partition function over
  the same register/depart order, so this must match *exactly*.
- **per-pool adoption order** -- the sequence of distinct targets each
  pool adopted.  Exact match expected; a declared slack tolerates one
  side observing a transient decision the other's poll cadence skipped.
- **census** -- completed tasks per pool; exact on both sides.
- **suspension counts** -- per pool, both sides must land inside the same
  declared band (at least ``workers - min adopted target``, at most a
  cap) and must agree on whether control engaged at all.
- **cadence** -- server updates per second, within a declared ratio band
  of the configured interval (wall-clock scheduling on a loaded host is
  jittery; simulation time is not).

This is the keep-each-other-honest structure Libre-SOC gets from
co-simulating its ISA simulator against qemu: a divergence means either
the simulator's control plane or the real one stopped implementing the
paper's protocol.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.templates import AppTemplate
from repro.realsys import CentralController, ControlledPool
from repro.realsys import tasks as realsys_tasks
from repro.scenarios import builders
from repro.sim import TraceLog, units
from repro.workloads.runner import run_scenario
from repro.workloads.scenario import AppSpec, Scenario

ms = units.ms


@dataclass(frozen=True)
class CosimPool:
    """One application of a co-sim workload (same record drives both sides).

    Pools register in list order on both sides; they depart in ascending
    ``n_tasks`` order, so task counts must be separated widely enough that
    the simulator's natural finish order matches.
    """

    name: str
    n_workers: int
    n_tasks: int


@dataclass(frozen=True)
class Tolerance:
    """Declared tolerance bands for the cross-implementation diff."""

    #: The decision sequences must be identical.  (Kept as a knob so a
    #: deliberately-asymmetric experiment can downgrade it to subsequence.)
    exact_decisions: bool = True
    #: Per-pool adopted-target sequences: allow one side to be a strict
    #: subsequence of the other (a poll can skip a short-lived decision).
    adoption_subsequence_ok: bool = True
    #: Suspension cap per pool: ``factor * n_tasks + slack`` (a worker can
    #: suspend at most once per safe point it passes).
    suspension_cap_factor: float = 1.0
    suspension_cap_slack: int = 4
    #: Server-update cadence must be within this ratio band of the
    #: configured interval rate.
    cadence_band: Tuple[float, float] = (0.2, 5.0)


@dataclass(frozen=True)
class CosimCase:
    """A co-simulation workload: machine, pools, and timing for each side."""

    name: str
    n_cpus: int
    pools: Tuple[CosimPool, ...]
    #: Simulator side: per-task cost and control cadence (sim microseconds).
    sim_task_cost: int = ms(5)
    sim_interval: int = ms(20)
    #: Real side: per-task CPU burn size and controller period (seconds).
    real_iterations: int = 20_000
    real_interval: float = 0.04
    tolerance: Tolerance = field(default_factory=Tolerance)

    def __post_init__(self) -> None:
        if not self.pools:
            raise ValueError("a co-sim case needs at least one pool")
        names = [pool.name for pool in self.pools]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate pool names in {self.name!r}")


@dataclass
class Observation:
    """What one implementation exposed while running the workload."""

    side: str
    #: Ordered, consecutive-deduplicated, non-empty target maps.
    decisions: List[Dict[str, int]] = field(default_factory=list)
    #: pool -> ordered distinct targets it adopted.
    adopted: Dict[str, List[int]] = field(default_factory=dict)
    #: pool -> completed tasks.
    census: Dict[str, int] = field(default_factory=dict)
    #: pool -> control suspensions.
    suspensions: Dict[str, int] = field(default_factory=dict)
    updates: int = 0
    duration_s: float = 0.0


def _dedup(seq: Sequence) -> List:
    """Drop consecutive duplicates (cadence-invariant view of a timeline)."""
    out: List = []
    for item in seq:
        if not out or out[-1] != item:
            out.append(item)
    return out


def _is_subsequence(small: Sequence, big: Sequence) -> bool:
    it = iter(big)
    return all(any(x == y for y in it) for x in small)


# -- simulator side ------------------------------------------------------------


def observe_sim(case: CosimCase) -> Observation:
    """Run the workload on the simulator and extract the observables.

    Pools arrive two server intervals apart, so every registration is
    separated by at least one control decision -- the same spacing the
    real-side harness gets from its sequential ``register`` calls.
    """
    specs: List[AppSpec] = []
    for index, pool in enumerate(case.pools):
        specs.append(
            AppSpec(
                factory=AppTemplate(
                    "uniform",
                    pool.name,
                    n_tasks=pool.n_tasks,
                    task_cost=case.sim_task_cost,
                ),
                n_processes=pool.n_workers,
                arrival=2 * case.sim_interval * index,
                app_id=pool.name,
            )
        )
    scenario = Scenario(
        apps=specs,
        control="centralized",
        scheduler="fifo",
        machine=builders.small_machine(case.n_cpus),
        server_interval=case.sim_interval,
        poll_interval=case.sim_interval,
        policy="equal",
        shards=1,
    )
    trace = TraceLog(categories=("server.update", "pc.poll"))
    result = run_scenario(scenario, trace=trace)

    decisions = _dedup(
        [
            dict(record.data["targets"])
            for record in trace.records("server.update")
            if record.data["targets"]
        ]
    )
    adopted: Dict[str, List[int]] = {pool.name: [] for pool in case.pools}
    for record in trace.records("pc.poll"):
        target = record.data.get("target")
        if target is not None:
            adopted[record.data["app_id"]].append(target)
    observation = Observation(side="sim")
    observation.decisions = decisions
    observation.adopted = {name: _dedup(seq) for name, seq in adopted.items()}
    observation.census = {
        name: app.tasks_completed for name, app in result.apps.items()
    }
    observation.suspensions = {
        name: app.suspensions for name, app in result.apps.items()
    }
    observation.updates = result.server_updates
    observation.duration_s = result.sim_time / 1e6
    return observation


# -- real side -----------------------------------------------------------------


def observe_real(case: CosimCase, join_timeout: float = 120.0) -> Observation:
    """Run the same workload on real OS processes and extract observables.

    Pools register in list order; each pool is joined and unregistered in
    ascending-work order (smallest task count first), matching the finish
    order the simulator's run naturally produces.
    """
    controller = CentralController(
        interval=case.real_interval, n_cpus=case.n_cpus
    )
    pools: Dict[str, ControlledPool] = {}
    started = time.monotonic()
    try:
        for spec in case.pools:
            pool = ControlledPool(n_workers=spec.n_workers, name=spec.name)
            pool.start()
            pool.submit_many(
                [(realsys_tasks.burn_cpu, (case.real_iterations,))]
                * spec.n_tasks
            )
            pools[spec.name] = pool
            controller.register(pool)
        controller.start()

        census: Dict[str, int] = {}
        for spec in sorted(case.pools, key=lambda s: (s.n_tasks, s.name)):
            results = pools[spec.name].join_results(
                spec.n_tasks, timeout=join_timeout
            )
            census[spec.name] = len(results)
            controller.unregister(pools[spec.name])
        controller.stop()
        duration = time.monotonic() - started

        observation = Observation(side="real")
        observation.decisions = _dedup(
            [dict(targets) for _, targets in controller.history if targets]
        )
        observation.adopted = {
            spec.name: _dedup(
                [
                    targets[spec.name]
                    for _, targets in controller.history
                    if spec.name in targets
                ]
            )
            for spec in case.pools
        }
        observation.census = census
        observation.suspensions = {
            name: pool.suspensions for name, pool in pools.items()
        }
        observation.updates = controller.updates
        observation.duration_s = duration
        return observation
    finally:
        controller.stop()
        for pool in pools.values():
            pool.shutdown()


# -- the diff ------------------------------------------------------------------


@dataclass
class CosimReport:
    """Outcome of one co-simulation: both observations plus the diffs."""

    case: CosimCase
    sim: Observation
    real: Observation
    diffs: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diffs

    def format_report(self) -> str:
        lines = [f"co-sim {self.case.name}: " + ("OK" if self.ok else "DIVERGED")]
        lines.append(f"  decisions sim : {self.sim.decisions}")
        lines.append(f"  decisions real: {self.real.decisions}")
        for pool in self.case.pools:
            lines.append(
                f"  {pool.name}: adopted sim={self.sim.adopted.get(pool.name)} "
                f"real={self.real.adopted.get(pool.name)}  "
                f"census sim={self.sim.census.get(pool.name)} "
                f"real={self.real.census.get(pool.name)}  "
                f"suspensions sim={self.sim.suspensions.get(pool.name)} "
                f"real={self.real.suspensions.get(pool.name)}"
            )
        lines.append(
            f"  cadence: sim {self.sim.updates} updates / "
            f"{self.sim.duration_s:.3f}s vs real {self.real.updates} / "
            f"{self.real.duration_s:.3f}s"
        )
        for diff in self.diffs:
            lines.append(f"  !! {diff}")
        return "\n".join(lines)

    def assert_within(self) -> None:
        if not self.ok:
            raise AssertionError(
                "simulator and realsys diverged beyond tolerance:\n"
                + self.format_report()
            )


def diff_observations(
    case: CosimCase, sim: Observation, real: Observation
) -> List[str]:
    """Compare two observations under the case's declared tolerance bands.

    Pure function of its inputs so the band semantics are unit-testable
    without spawning a single OS process.
    """
    tolerance = case.tolerance
    diffs: List[str] = []

    if sim.decisions != real.decisions:
        if tolerance.exact_decisions or not (
            _is_subsequence(sim.decisions, real.decisions)
            or _is_subsequence(real.decisions, sim.decisions)
        ):
            diffs.append(
                f"decision sequences differ: sim={sim.decisions} "
                f"real={real.decisions}"
            )

    for pool in case.pools:
        sim_adopted = sim.adopted.get(pool.name, [])
        real_adopted = real.adopted.get(pool.name, [])
        if sim_adopted != real_adopted:
            subsequence = _is_subsequence(
                sim_adopted, real_adopted
            ) or _is_subsequence(real_adopted, sim_adopted)
            if not (tolerance.adoption_subsequence_ok and subsequence):
                diffs.append(
                    f"{pool.name}: adoption order differs: "
                    f"sim={sim_adopted} real={real_adopted}"
                )

        for side, observation in (("sim", sim), ("real", real)):
            done = observation.census.get(pool.name)
            if done != pool.n_tasks:
                diffs.append(
                    f"{pool.name}: {side} census {done} != "
                    f"submitted {pool.n_tasks}"
                )

        # Suspension band: if a side adopted a target that undercut the
        # worker count, at least (workers - min target) suspensions must
        # have happened on that side; either way no more than one per
        # safe point passed.
        cap = (
            int(tolerance.suspension_cap_factor * pool.n_tasks)
            + tolerance.suspension_cap_slack
        )
        for side, observation in (("sim", sim), ("real", real)):
            adopted_here = observation.adopted.get(pool.name, [])
            floor = 0
            if adopted_here:
                floor = max(0, pool.n_workers - min(adopted_here))
            count = observation.suspensions.get(pool.name, 0)
            if not floor <= count <= cap:
                diffs.append(
                    f"{pool.name}: {side} suspensions {count} outside "
                    f"band [{floor}, {cap}]"
                )
        sim_engaged = sim.suspensions.get(pool.name, 0) > 0
        real_engaged = real.suspensions.get(pool.name, 0) > 0
        if sim_engaged != real_engaged:
            diffs.append(
                f"{pool.name}: control engaged on one side only "
                f"(sim={sim.suspensions.get(pool.name, 0)}, "
                f"real={real.suspensions.get(pool.name, 0)})"
            )

    # Cadence: updates per second vs the configured rate, per side.  On
    # the real side, register/unregister each force an extra decision on
    # top of the periodic ones, so the band is applied to the periodic
    # share; the simulated server only fires on its interval.
    lo, hi = tolerance.cadence_band
    for side, observation, interval_s, forced in (
        ("sim", sim, case.sim_interval / 1e6, 0),
        ("real", real, case.real_interval, 2 * len(case.pools)),
    ):
        if observation.duration_s <= 0:
            continue
        expected = observation.duration_s / interval_s
        observed = max(0, observation.updates - forced)
        if not (lo * expected <= observed <= hi * expected + 1):
            diffs.append(
                f"cadence ({side}): {observation.updates} updates in "
                f"{observation.duration_s:.3f}s is outside "
                f"[{lo:.1f}, {hi:.1f}]x the configured "
                f"{1 / interval_s:.1f}/s"
            )
    return diffs


def run_cosim(case: CosimCase, join_timeout: float = 120.0) -> CosimReport:
    """Run *case* through both implementations and diff the timelines."""
    sim = observe_sim(case)
    real = observe_real(case, join_timeout=join_timeout)
    report = CosimReport(case=case, sim=sim, real=real)
    report.diffs = diff_observations(case, sim, real)
    return report


# -- the smoke corpus ----------------------------------------------------------

#: Two-pool asymmetric workload: the canonical Figure-5 shape (a long
#: application throttled while a short one passes through, then the
#: machine handed back).
SMOKE_CASES: Tuple[CosimCase, ...] = (
    CosimCase(
        name="two-pools-handback",
        n_cpus=4,
        pools=(
            CosimPool("longapp", n_workers=4, n_tasks=48),
            CosimPool("shortapp", n_workers=4, n_tasks=12),
        ),
    ),
    #: Shrink-to-one on a two-processor machine: each pool is throttled
    #: to a *single* runnable worker while the other passes through --
    #: the tightest target the starvation-avoidance floor allows.
    CosimCase(
        name="shrink-to-one",
        n_cpus=2,
        pools=(
            CosimPool("steady", n_workers=2, n_tasks=48),
            CosimPool("visitor", n_workers=2, n_tasks=10),
        ),
    ),
)


def get_smoke_case(name: str) -> CosimCase:
    for case in SMOKE_CASES:
        if case.name == name:
            return case
    raise KeyError(
        f"no co-sim smoke case named {name!r}; "
        f"available: {[c.name for c in SMOKE_CASES]}"
    )
