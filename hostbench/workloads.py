"""The four benchmark workloads, each a seeded list of labelled scenarios.

Every workload is assembled from the repository's public scenario
builders; ``seed`` changes the generated inputs of all four.  Labels do
not contain the seed, so the same label names the same cell at every
seed and pins can be compared label by label.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, List, Tuple

from benchmarks.perf import scale_scenario
from repro.experiments import lock_collapse, mixed_runtime, service
from repro.experiments.config import (
    app_factories,
    paper_scenario_defaults,
    poll_interval,
    process_counts,
)
from repro.experiments.figure1 import figure1_scenario
from repro.experiments.figure3 import FIGURE3_APPS
from repro.experiments.figure4 import figure4_scenario
from repro.workloads import AppSpec, Scenario
from repro.workloads.locks import (
    DEFAULT_CS_US,
    DEFAULT_THINK_US,
    lock_saturation_scenario,
)

Cells = List[Tuple[str, Scenario]]

#: Task-cost jitter of the ``scale`` workload's applications: without it
#: the scale scenario never draws from its seeded streams.
SCALE_JITTER = 0.1

#: Rounds of the ``contention`` workload, each with its own lock timings.
CONTENTION_ROUNDS = 10

#: Seeds per ``service`` cell: ``seed .. seed + SERVICE_SEEDS - 1``.
SERVICE_SEEDS = 4


def paper(seed: int) -> Cells:
    """Figures 1, 3 and 4 at the paper preset: 80 runs on 16 CPUs."""
    preset = "paper"
    defaults = paper_scenario_defaults(preset, seed)
    factories = app_factories(preset, seed)
    interval = poll_interval(preset)

    def alone(app: str, n: int, control) -> Scenario:
        return Scenario(
            apps=[AppSpec(factories[app], n)],
            control=control,
            machine=defaults.machine,
            scheduler=defaults.scheduler,
            poll_interval=interval,
            server_interval=interval,
            seed=seed,
        )

    cells: Cells = [
        (f"fig1-t1-{app}", alone(app, 1, None)) for app in ("matmul", "fft")
    ]
    cells += [
        (f"fig1-n{n}", figure1_scenario(n, preset, seed))
        for n in process_counts(preset)
    ]
    for app in FIGURE3_APPS:
        cells.append((f"fig3-{app}-t1", alone(app, 1, None)))
        for n in process_counts(preset):
            cells.append((f"fig3-{app}-n{n}-off", alone(app, n, None)))
            cells.append((f"fig3-{app}-n{n}-on", alone(app, n, "centralized")))
    cells += [
        (f"fig4-{name}", figure4_scenario(control, preset, seed))
        for name, control in (("off", None), ("on", "centralized"))
    ]
    return cells


def _jittered(factory: Callable[[], object]) -> Callable[[], object]:
    """Wrap a ``UniformApp`` factory so its tasks draw seeded cost jitter.

    ``scale_scenario`` has no jitter knob; the app reads the fraction
    only when it builds its tasks, after the factory returns.
    """

    def build():
        app = factory()
        app.jitter_fraction = SCALE_JITTER
        return app

    return build


def scale(seed: int) -> Cells:
    """The perf ledger's 1024-CPU, 10k-application scale tier, jittered."""
    scenario = scale_scenario(seed=seed)
    apps = [replace(spec, factory=_jittered(spec.factory)) for spec in scenario.apps]
    return [("scale", replace(scenario, apps=apps))]


def service_mix(seed: int) -> Cells:
    """The service experiment's paper sweep at seeds seed..seed+3: 48 runs."""
    return [
        (
            f"svc+{offset}-{arm}-{rate:.0f}",
            service.service_mix_scenario(arm, rate, "paper", seed + offset),
        )
        for offset in range(SERVICE_SEEDS)
        for arm in service.SWEEP_ARMS
        for rate in service.SWEEP_RATES["paper"]
    ]


def contention(seed: int) -> Cells:
    """Lock collapse and mixed runtimes: 10 rounds of 28 runs.

    The lock application ignores its seed, so each round instead draws
    its think and critical-section times within +/-25% of the defaults
    from ``random.Random(f"{seed}:{round}")``.
    """
    n_tasks, thread_counts, head_threads = lock_collapse._SIZES["paper"]
    cells: Cells = []
    for k in range(CONTENTION_ROUNDS):
        rng = random.Random(f"{seed}:{k}")
        timing = dict(
            think_time=round(DEFAULT_THINK_US * rng.uniform(0.75, 1.25)),
            cs_time=round(DEFAULT_CS_US * rng.uniform(0.75, 1.25)),
            n_tasks=n_tasks,
            seed=seed,
        )
        for arm in lock_collapse.SWEEP_ARMS:
            admission, control = lock_collapse.arm_knobs(arm)
            for threads in thread_counts:
                cells.append((
                    f"r{k}-sweep-{arm}-t{threads}",
                    lock_saturation_scenario(
                        threads,
                        admission=admission,
                        control=control,
                        n_processors=16,
                        **timing,
                    ),
                ))
        for arm in lock_collapse.HEAD_TO_HEAD_ARMS:
            admission, control = lock_collapse.arm_knobs(arm)
            cells.append((
                f"r{k}-h2h-{arm}",
                lock_saturation_scenario(
                    head_threads,
                    admission=admission,
                    control=control,
                    background_workers=lock_collapse._BACKGROUND_WORKERS,
                    n_processors=8,
                    **timing,
                ),
            ))
        # The mixed-runtime tenants draw no jitter, so these four runs are
        # the same in every round and at every seed.
        cells += [
            (
                f"r{k}-mixed-{arm}",
                mixed_runtime.mixed_runtime_scenario(arm, "paper", seed),
            )
            for arm in mixed_runtime.SWEEP_ARMS
        ]
    return cells


#: Workload name -> builder, in the order the benchmark runs them.
WORKLOADS: Dict[str, Callable[[int], Cells]] = {
    "paper": paper,
    "scale": scale,
    "service": service_mix,
    "contention": contention,
}
