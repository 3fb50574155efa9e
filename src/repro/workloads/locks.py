"""Lock-saturation workloads: collapse, restriction, and their algebra.

The closed workloads measure process control; the service workloads
measure tail latency under open arrivals.  This family measures the
third axis: what happens to *lock throughput* as the thread count grows
past a saturated critical section, and what each of the two available
remedies buys:

* **processor control** (the paper's 1989 answer) -- the server caps the
  *machine-level* parallelism, which removes holder preemption and
  time-slicing waste but leaves every scheduled thread free to pile onto
  the lock;
* **concurrency restriction at the lock** (the Malthusian answer --
  Dice & Kogan 2019) -- the lock itself passivates waiters beyond its
  ``admission`` limit, which caps the invalidation-storm cost no matter
  how many threads the scheduler runs.

:func:`lock_saturation_scenario` builds the head-to-head cell: one
:class:`~repro.apps.locks.LockSaturationApp` hammering a shared lock,
optionally sharing the machine with a compute-bound background tenant so
the machine is genuinely overcommitted (the regime where the two
remedies attack *different* pathologies and compose).

:func:`predicted_throughput` is the back-of-envelope model the unit
tests pin the simulator against: below the saturation knee throughput
grows linearly with threads; above it the lock serializes everything and
each extra spinner *subtracts* throughput via the per-spinner hand-off
penalty.
"""

from __future__ import annotations

from typing import Optional

from repro.apps.locks import LockSaturationApp
from repro.apps.synthetic import UniformApp
from repro.machine import MachineConfig
from repro.sim import units
from repro.workloads.scenario import AppSpec, Scenario

#: Default microbenchmark shape: ~5.0 threads saturate the lock
#: (think/cs + 1), and the contention penalty is large enough that the
#: collapse is unmistakable within a handful of extra threads.
DEFAULT_THINK_US = 600
DEFAULT_CS_US = 150
DEFAULT_PENALTY_US = 40


def locks_machine(n_processors: int = 8, **overrides) -> MachineConfig:
    """A small exact-time machine for lock experiments.

    The cache model is off (lock cache behaviour is modelled by the
    lock's own hand-off costs, not the process-migration cache model)
    and the quantum is short enough that holder preemption actually
    happens within a quick run.
    """
    overrides.setdefault("quantum", units.ms(10))
    overrides.setdefault("context_switch_cost", 100)
    overrides.setdefault("cache_affinity_enabled", False)
    return MachineConfig(n_processors=n_processors, **overrides)


def lock_app_factory(
    name: str = "locks",
    n_tasks: int = 64,
    think_time: int = DEFAULT_THINK_US,
    cs_time: int = DEFAULT_CS_US,
    contention_penalty: int = DEFAULT_PENALTY_US,
    admission: Optional[int] = None,
    blocking: bool = False,
    seed: int = 0,
):
    """An application factory building a fresh LockSaturationApp per run."""
    return lambda: LockSaturationApp(
        app_id=name,
        n_tasks=n_tasks,
        think_time=think_time,
        cs_time=cs_time,
        contention_penalty=contention_penalty,
        admission=admission,
        blocking=blocking,
        seed=seed,
    )


def lock_saturation_scenario(
    threads: int,
    n_tasks: int = 64,
    think_time: int = DEFAULT_THINK_US,
    cs_time: int = DEFAULT_CS_US,
    contention_penalty: int = DEFAULT_PENALTY_US,
    admission: Optional[int] = None,
    control: Optional[str] = None,
    background_workers: int = 0,
    background_tasks: int = 0,
    background_cost: int = units.ms(3),
    n_processors: int = 8,
    seed: int = 0,
    blocking: bool = False,
) -> Scenario:
    """One cell of the collapse head-to-head.

    *threads* workers run the lock application.  When
    *background_workers* is nonzero a compute-bound
    :class:`~repro.apps.synthetic.UniformApp` shares the machine, so the
    run is overcommitted and holder preemption joins the spinner storm
    as a second, independent pathology.  *admission* restricts waiters
    at the lock (scenario-wide, so the package queue lock is restricted
    too); *control* arms the server's processor control.  The four
    (admission x control) combinations are exactly the experiment arms.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    apps = [
        AppSpec(
            factory=lock_app_factory(
                n_tasks=n_tasks,
                think_time=think_time,
                cs_time=cs_time,
                contention_penalty=contention_penalty,
                blocking=blocking,
                seed=seed,
            ),
            n_processes=threads,
        )
    ]
    if background_workers:
        apps.append(
            AppSpec(
                factory=lambda: UniformApp(
                    app_id="bg",
                    n_tasks=background_tasks or 8 * background_workers,
                    task_cost=background_cost,
                    seed=seed + 1,
                ),
                n_processes=background_workers,
            )
        )
    return Scenario(
        apps=apps,
        control=control,
        machine=locks_machine(n_processors),
        server_interval=units.ms(10),
        poll_interval=units.ms(10),
        lock_admission=admission,
        seed=seed,
    )


def predicted_throughput(
    threads: int,
    think_time: int = DEFAULT_THINK_US,
    cs_time: int = DEFAULT_CS_US,
    contention_penalty: int = DEFAULT_PENALTY_US,
    admission: Optional[int] = None,
    n_processors: Optional[int] = None,
) -> float:
    """Analytic tasks/second for the preemption-free closed loop.

    Each thread cycles think -> wait -> critical section.  Below the
    saturation knee the lock is idle between acquires and aggregate
    throughput is ``threads / (think + cs)``.  At and past the knee the
    critical path is the serial section plus the hand-off storm, which
    grows with the number of *active* spinners: everyone not in the
    critical section and not culled is spinning.  Restriction caps that
    spinner count at ``admission``; processor control caps it at the
    processor count.  The model ignores fixed acquire/release micro-costs
    (a few us against a 100s-of-us cycle), so it is an upper bound the
    simulator should track within ~15%.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    unsaturated = threads / (think_time + cs_time) * 1e6
    spinners = threads - 1
    if n_processors is not None:
        spinners = min(spinners, n_processors - 1)
    if admission is not None:
        spinners = min(spinners, admission)
    serial = cs_time + contention_penalty * max(0, spinners - 1)
    saturated = 1e6 / serial
    return min(unsaturated, saturated)
