"""Section 2's four degradation mechanisms, each isolated and measured.

The paper enumerates why performance collapses when runnable processes
exceed processors:

1. preemption inside spinlock-controlled critical sections;
2. producer/consumer stalls (consumers scheduled with nothing to do);
3. context-switch overhead;
4. processor cache corruption.

Each ``run_m*`` function below builds a minimal raw-kernel workload that
exhibits exactly one mechanism and sweeps the number of runnable processes
across the processor count, producing the "degradation grows with
oversubscription" rows that justify the paper's central hypothesis.  When
the :class:`Runs` record sets a sanitizer mode, every kernel runs under the
invariant checker.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.config import paper_machine
from repro.experiments.parallel import Runs
from repro.kernel import Kernel, syscalls as sc
from repro.machine import Machine
from repro.metrics import format_table
from repro.sanitize.invariants import SchedSanitizer
from repro.sim import Engine, units
from repro.sync import Barrier, Semaphore, SpinBarrier, SpinLock, spin_barrier_wait

#: Default oversubscription sweep: 1x, 1.5x, 2x, 3x the processor count.
OVERSUBSCRIPTION = (1.0, 1.5, 2.0, 3.0)


def _build_kernel(
    n_processors: int, cache: bool, runs: Runs
) -> Tuple[Kernel, Optional[SchedSanitizer]]:
    """A raw kernel, with the sanitizer attached when *runs* sets a mode."""
    machine_config = paper_machine(n_processors)
    machine_config.cache_affinity_enabled = cache
    kernel = Kernel(machine=Machine(machine_config), engine=Engine())
    if runs.sanitize is None:
        return kernel, None
    return kernel, SchedSanitizer(kernel, mode=runs.sanitize).attach()


def _finish(kernel: Kernel, sanitizer: Optional[SchedSanitizer]) -> None:
    kernel.run_until_quiescent(max_time=units.seconds(3600))
    kernel.finalize_accounting()
    if sanitizer is not None:
        sanitizer.finish()


def run_m1_spinlock_preemption(
    n_processors: int = 8,
    iterations: int = 40,
    work: int = units.ms(8),
    critical: int = units.ms(1),
    runs: Runs = Runs(),
) -> List[Dict[str, object]]:
    """M1: spin waste explodes once lock holders can be preempted.

    N processes share one spinlock; each loops (compute, lock, critical
    section, unlock).  At N <= processors, contention is the only cost; at
    N > processors, holders get preempted inside the critical section and
    every waiter burns its quantum spinning.
    """
    rows = []
    for factor in OVERSUBSCRIPTION:
        n = int(n_processors * factor)
        kernel, sanitizer = _build_kernel(n_processors, False, runs)
        lock = SpinLock("m1")

        def worker():
            for _ in range(iterations):
                yield sc.Compute(work)
                yield sc.SpinAcquire(lock)
                yield sc.Compute(critical)
                yield sc.SpinRelease(lock)

        for i in range(n):
            kernel.spawn(worker(), name=f"w{i}", app_id="m1")
        _finish(kernel, sanitizer)
        useful = n * iterations * (work + critical)
        total_spin = sum(
            p.stats.spin_time for p in kernel.processes.values()
        )
        rows.append(
            {
                "processes": n,
                "spin_waste_pct": 100.0 * total_spin / useful,
                "holder_preempted": lock.holder_preempted_encounters,
                "cs_preemptions": sum(
                    p.stats.preemptions_in_critical_section
                    for p in kernel.processes.values()
                ),
            }
        )
    return rows


def run_m2_producer_consumer(
    n_processors: int = 8,
    items_per_consumer: int = 30,
    produce_cost: int = units.ms(4),
    consume_cost: int = units.ms(4),
    runs: Runs = Runs(),
) -> List[Dict[str, object]]:
    """M2: consumers stall while the producer is preempted.

    One producer feeds N-1 consumers through a semaphore.  Consumer wait
    time (blocked on an empty buffer) grows once the producer must share a
    processor -- "the consumer process may be scheduled to run on a
    processor only to realize that there is nothing for it to do".
    """
    rows = []
    for factor in OVERSUBSCRIPTION:
        n = max(2, int(n_processors * factor))
        kernel, sanitizer = _build_kernel(n_processors, False, runs)
        items = Semaphore("m2")
        n_consumers = n - 1
        total_items = n_consumers * items_per_consumer

        def producer():
            for _ in range(total_items):
                yield sc.Compute(produce_cost)
                yield sc.SemPost(items)

        def consumer():
            for _ in range(items_per_consumer):
                yield sc.SemWait(items)
                yield sc.Compute(consume_cost)

        kernel.spawn(producer(), name="producer", app_id="m2")
        for i in range(n_consumers):
            kernel.spawn(consumer(), name=f"c{i}", app_id="m2")
        _finish(kernel, sanitizer)
        consumers = [
            p for p in kernel.processes.values() if p.name.startswith("c")
        ]
        stall = sum(p.stats.block_time for p in consumers)
        useful = total_items * consume_cost
        rows.append(
            {
                "processes": n,
                "consumer_stall_pct": 100.0 * stall / useful,
                "makespan_s": kernel.now / 1e6,
            }
        )
    return rows


def run_m2b_barrier_styles(
    n_processors: int = 8,
    phases: int = 15,
    work: int = units.ms(10),
    jitter: float = 0.3,
    runs: Runs = Runs(),
) -> List[Dict[str, object]]:
    """M2 variant: busy-wait barriers vs blocking barriers.

    Era threads packages busy-waited at barriers; modern ones block.  With
    processes <= processors both are fine; oversubscribed, spin-barrier
    pollers burn the very quanta the stragglers need.  This is the
    synchronization-flavoured face of the producer/consumer problem and
    the reason the uncontrolled busy-wait package collapses.
    """
    import random as random_module

    rows = []
    for factor in OVERSUBSCRIPTION:
        n = int(n_processors * factor)
        walls = {}
        for style in ("spin", "blocking"):
            kernel, sanitizer = _build_kernel(n_processors, False, runs)
            rng = random_module.Random(42)
            if style == "spin":
                barrier = SpinBarrier(parties=n, poll_gap=units.us(500))
            else:
                barrier = Barrier(parties=n)

            def worker(style=style, barrier=barrier, rng=rng):
                for _ in range(phases):
                    burst = int(work * (1.0 + rng.uniform(-jitter, jitter)))
                    yield sc.Compute(max(burst, 1))
                    if style == "spin":
                        yield from spin_barrier_wait(barrier)
                    else:
                        yield sc.BarrierWait(barrier)

            for i in range(n):
                kernel.spawn(worker(), name=f"w{i}", app_id="m2b")
            _finish(kernel, sanitizer)
            walls[style] = kernel.now
        rows.append(
            {
                "processes": n,
                "spin_makespan_s": walls["spin"] / 1e6,
                "blocking_makespan_s": walls["blocking"] / 1e6,
                "spin_penalty": walls["spin"] / walls["blocking"],
            }
        )
    return rows


def run_m3_context_switching(
    n_processors: int = 8, work_per_process: int = units.seconds(2), runs: Runs = Runs()
) -> List[Dict[str, object]]:
    """M3: pure context-switch overhead grows with oversubscription
    (cache model disabled to isolate the switch cost itself)."""
    rows = []
    for factor in OVERSUBSCRIPTION:
        n = int(n_processors * factor)
        kernel, sanitizer = _build_kernel(n_processors, False, runs)

        def hog():
            yield sc.Compute(work_per_process)

        for i in range(n):
            kernel.spawn(hog(), name=f"w{i}", app_id="m3")
        _finish(kernel, sanitizer)
        summary = kernel.machine.utilization_summary()
        elapsed = sum(summary.values())
        rows.append(
            {
                "processes": n,
                "overhead_pct": 100.0 * summary["overhead"] / elapsed,
                "dispatches": sum(
                    p.stats.dispatches for p in kernel.processes.values()
                ),
            }
        )
    return rows


def run_m4_cache_corruption(
    n_processors: int = 8, work_per_process: int = units.seconds(2), runs: Runs = Runs()
) -> List[Dict[str, object]]:
    """M4: with the cache model on, each reschedule refetches the purged
    working set -- the dominant cost on high-miss-penalty machines."""
    rows = []
    for factor in OVERSUBSCRIPTION:
        n = int(n_processors * factor)
        kernel, sanitizer = _build_kernel(n_processors, True, runs)

        def hog():
            yield sc.Compute(work_per_process)

        for i in range(n):
            kernel.spawn(hog(), name=f"w{i}", app_id="m4")
        _finish(kernel, sanitizer)
        summary = kernel.machine.utilization_summary()
        elapsed = sum(summary.values())
        useful = n * work_per_process
        rows.append(
            {
                "processes": n,
                "overhead_pct": 100.0 * summary["overhead"] / elapsed,
                "slowdown": kernel.now / (useful / n_processors),
            }
        )
    return rows


def run_all_mechanisms(
    n_processors: int = 8, runs: Runs = Runs()
) -> Dict[str, List[Dict[str, object]]]:
    """All four mechanism tables (Section 2's taxonomy, quantified)."""
    return {
        "m1_spinlock_preemption": run_m1_spinlock_preemption(n_processors, runs=runs),
        "m2_producer_consumer": run_m2_producer_consumer(n_processors, runs=runs),
        "m2b_barrier_styles": run_m2b_barrier_styles(n_processors, runs=runs),
        "m3_context_switching": run_m3_context_switching(n_processors, runs=runs),
        "m4_cache_corruption": run_m4_cache_corruption(n_processors, runs=runs),
    }


def format_mechanisms(tables: Dict[str, List[Dict[str, object]]]) -> str:
    blocks = ["Section 2 mechanisms, isolated (8 processors):"]
    for name, rows in tables.items():
        headers = list(rows[0].keys())
        blocks.append(
            f"\n[{name}]\n"
            + format_table(headers, [[r[h] for h in headers] for r in rows])
        )
    return "\n".join(blocks)


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    print(format_mechanisms(run_all_mechanisms(runs=runs)))
