"""Tail latency under rising offered load: the SLO policy's case.

An interactive request-serving tenant (open Poisson arrivals, small
fan-out/reduce DAG per request, a per-request latency objective) shares
an 8-processor machine with a long-lived batch application.  The service
needs more than its equipartition share at the offered loads swept here,
but less than the whole machine -- the regime where *which* allocation
rule the control server runs decides whether the tail is bounded or
grows without limit:

* ``uncontrolled`` -- no process control at all; both applications keep
  all their workers runnable and the kernel time-slices 16 workers over
  8 processors.
* ``equal`` -- the paper's equipartition: the service is pinned at half
  the machine no matter how its latency looks, and its queue grows
  without bound.
* ``demand`` -- backlog feedback: *worse* than equal for the service,
  because an open-arrival tenant's backlog snapshot (taken between
  arrivals) is not a demand signal, and the policy starves it whenever
  the snapshot is small.
* ``slo`` -- the QoS feedback loop: the threads package piggybacks the
  service's latency slowdown and tier tag on its polls, and the policy
  boosts the missing tenant's water-filling weight so the batch
  application absorbs the slack.

The batch workload is sized to outlast the whole arrival stream at its
equipartition share, so the comparison is never contaminated by the
batch job finishing early and donating its processors.  Service
scenarios run the blocking (``idle_spin=False``) package: a busy-wait
worker deep in its idle backoff is just as deaf to a fresh request as a
blocked one, but the backoff adds milliseconds of pickup noise that
would drown the allocation signal the experiment is after.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.apps.service import ServiceApp
from repro.apps.synthetic import UniformApp
from repro.experiments.parallel import Runs
from repro.machine import MachineConfig
from repro.metrics import format_table
from repro.sim import units
from repro.workloads import AppSpec, Scenario, run_scenario

#: Arms the sweep compares; ``uncontrolled`` disables process control.
SWEEP_ARMS: Tuple[str, ...] = ("uncontrolled", "equal", "demand", "slo")

#: Offered request rates (per second) per preset.  Per-request work is
#: 4 x 4 ms stages + 2 ms reduce = 18 ms, so the machine-share the
#: service needs is rate * 0.018: ~3.2 CPUs at 180/s up to ~5.4 at 300/s
#: -- past its 4-CPU equipartition share from the middle of the sweep on.
SWEEP_RATES: Dict[str, Tuple[float, ...]] = {
    "quick": (250.0,),
    "paper": (180.0, 250.0, 300.0),
}


def service_mix_scenario(
    arm: str, rate_per_s: float, preset: str = "quick", seed: int = 0
) -> Scenario:
    """Interactive service + long batch job on 8 processors.

    Exposed separately so tests can replay the exact runs the experiment
    measures (the acceptance test pins the quick-preset digest).
    """
    n_requests = 160 if preset == "paper" else 120
    machine = MachineConfig(n_processors=8)

    def service() -> ServiceApp:
        return ServiceApp(
            app_id="svc",
            rate_per_s=rate_per_s,
            n_requests=n_requests,
            fanout=4,
            stage_cost=units.ms(4),
            reduce_cost=units.ms(2),
            slo_us=units.ms(60),
            seed=seed,
        )

    def batch() -> UniformApp:
        # 3.2 s of work: >= 800 ms at its 4-CPU equipartition share,
        # which outlasts every arrival stream in the sweep.
        return UniformApp(
            "batch", n_tasks=400, task_cost=units.ms(8), seed=seed
        )

    return Scenario(
        apps=[
            AppSpec(service, n_processes=8),
            AppSpec(batch, n_processes=8),
        ],
        control=None if arm == "uncontrolled" else "centralized",
        scheduler="fifo",
        machine=machine,
        server_interval=units.ms(10),
        poll_interval=units.ms(10),
        idle_spin=False,
        policy=None if arm == "uncontrolled" else arm,
        seed=seed,
        max_time=units.seconds(60),
    )


@dataclass
class ServiceCell:
    """One (arm, rate) outcome, reduced to the latency figures."""

    arm: str
    rate_per_s: float
    requests: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    violation_rate: float
    goodput_per_s: float
    batch_finished_ms: float
    suspensions: int


def _service_cell(runs: Runs, args) -> ServiceCell:
    """Sweep cell (module-level so it pickles for the process pool)."""
    arm, rate, preset, seed = args
    result = run_scenario(
        service_mix_scenario(arm, rate, preset, seed), sanitize=runs.sanitize
    )
    stats = result.service["svc"]
    return ServiceCell(
        arm=arm,
        rate_per_s=rate,
        requests=stats.count,
        p50_ms=stats.p50 / 1e3,
        p95_ms=stats.p95 / 1e3,
        p99_ms=stats.p99 / 1e3,
        violation_rate=stats.violation_rate,
        goodput_per_s=stats.goodput_per_s,
        batch_finished_ms=result.apps["batch"].finished_at / 1e3,
        suspensions=sum(app.suspensions for app in result.apps.values()),
    )


def run_service(
    preset: str = "quick",
    seed: int = 0,
    runs: Runs = Runs(),
    arms: Tuple[str, ...] = SWEEP_ARMS,
) -> List[ServiceCell]:
    """Run the mix once per (arm, offered rate); cells fan out."""
    rates = SWEEP_RATES.get(preset, SWEEP_RATES["quick"])
    return runs.map(
        _service_cell,
        [(arm, rate, preset, seed) for rate in rates for arm in arms],
    )


def format_service(cells: List[ServiceCell]) -> str:
    headers = [
        "rate/s",
        "arm",
        "requests",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "viol%",
        "goodput/s",
        "batch_done_ms",
        "suspensions",
    ]
    rows = [
        [
            f"{cell.rate_per_s:.0f}",
            cell.arm,
            cell.requests,
            f"{cell.p50_ms:.1f}",
            f"{cell.p95_ms:.1f}",
            f"{cell.p99_ms:.1f}",
            f"{100.0 * cell.violation_rate:.1f}",
            f"{cell.goodput_per_s:.1f}",
            f"{cell.batch_finished_ms:.0f}",
            cell.suspensions,
        ]
        for cell in cells
    ]
    lines = [
        "Interactive service + batch mix, rising offered load "
        "(8 CPUs, 60 ms SLO)",
        format_table(headers, rows),
    ]
    by_key = {(cell.arm, cell.rate_per_s): cell for cell in cells}
    for rate in sorted({cell.rate_per_s for cell in cells}):
        equal = by_key.get(("equal", rate))
        slo = by_key.get(("slo", rate))
        if equal and slo:
            lines.append(
                f"\n{rate:.0f}/s: slo p99 {slo.p99_ms:.1f} ms vs equal "
                f"{equal.p99_ms:.1f} ms "
                f"({100.0 * (1 - slo.p99_ms / equal.p99_ms):.0f}% lower tail)"
            )
    return "\n".join(lines)


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    print(format_service(run_service(preset, runs=runs)))
