"""Random multiprogramming workload generation.

Section 1's environment is "a multiprogrammed shared-memory multiprocessor
with multiple simultaneously running parallel applications ... where the
number of running applications is continuously changing".  The figure
experiments use fixed three-application scripts; this module generates the
*continuous* version: applications of a weighted mix arriving as a Poisson
process over a window, each with its own process count and size.

Everything is driven by named seeded streams, so a generated workload is a
reproducible object: the same config and seed always yield the same
scenario, which can then be run with control on and off for a paired
comparison (see :mod:`repro.experiments.steady_state`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Tuple

from repro.apps.templates import AppTemplate
from repro.sim import units
from repro.sim.rand import RandomStreams
from repro.workloads.scenario import AppSpec


@dataclass
class GeneratedWorkloadConfig:
    """Parameters of the random arrival process.

    Attributes:
        window: arrival window in microseconds; applications arrive within
            ``[0, window)`` (the run itself lasts until the last finishes).
        arrival_rate_per_s: mean application arrivals per second (Poisson).
        mix: application template name
            (:data:`repro.apps.templates.TEMPLATE_NAMES`) -> relative weight.
        process_counts: choices for each application's process count.
        scale_range: (lo, hi) uniform range for per-application size scale.
        min_apps: regenerate-with-extension floor -- the generator
            guarantees at least this many arrivals by extending draws.
    """

    window: int = field(default_factory=lambda: units.seconds(60))
    arrival_rate_per_s: float = 0.25
    mix: Mapping[str, float] = field(
        default_factory=lambda: {"fft": 1.0, "gauss": 1.0, "matmul": 1.0, "sort": 1.0}
    )
    process_counts: Tuple[int, ...] = (8, 12, 16, 24)
    scale_range: Tuple[float, float] = (0.15, 0.5)
    min_apps: int = 2

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.arrival_rate_per_s <= 0:
            raise ValueError("arrival_rate_per_s must be positive")
        if not self.mix:
            raise ValueError("mix must not be empty")
        if any(weight <= 0 for weight in self.mix.values()):
            raise ValueError("mix weights must be positive")
        if not self.process_counts:
            raise ValueError("process_counts must not be empty")
        lo, hi = self.scale_range
        if not 0 < lo <= hi:
            raise ValueError("scale_range must satisfy 0 < lo <= hi")
        if self.min_apps < 1:
            raise ValueError("min_apps must be >= 1")


@dataclass(frozen=True)
class GeneratedApp:
    """One generated arrival (metadata kept for reporting)."""

    app_id: str
    template: str
    arrival: int
    n_processes: int
    scale: float


def generate_arrivals(
    config: GeneratedWorkloadConfig, seed: int = 0
) -> List[GeneratedApp]:
    """Draw the arrival sequence for one workload instance."""
    streams = RandomStreams(seed).fork("workload-generator")
    arrivals_rng = streams.get("arrivals")
    mix_rng = streams.get("mix")
    size_rng = streams.get("sizes")

    names = sorted(config.mix)
    weights = [config.mix[name] for name in names]
    mean_gap = units.seconds(1.0 / config.arrival_rate_per_s)

    apps: List[GeneratedApp] = []
    t = 0
    index = 0
    while True:
        gap = int(arrivals_rng.expovariate(1.0) * mean_gap)
        t += gap
        if t >= config.window and len(apps) >= config.min_apps:
            break
        if t >= config.window:
            # Guarantee the floor by folding the arrival into the window.
            t = int(arrivals_rng.uniform(0, config.window))
        template = mix_rng.choices(names, weights=weights)[0]
        apps.append(
            GeneratedApp(
                app_id=f"{template}-{index}",
                template=template,
                arrival=t,
                n_processes=size_rng.choice(config.process_counts),
                scale=size_rng.uniform(*config.scale_range),
            )
        )
        index += 1
    apps.sort(key=lambda app: app.arrival)
    return apps


def build_app_specs(arrivals: List[GeneratedApp], seed: int = 0) -> List[AppSpec]:
    """Turn generated arrivals into scenario AppSpecs, each application an
    :class:`~repro.apps.templates.AppTemplate` of its drawn template and
    scale (an unknown template name raises ``ValueError``)."""
    return [
        AppSpec(
            factory=AppTemplate(
                generated.template, generated.app_id, seed=seed, scale=generated.scale
            ),
            n_processes=generated.n_processes,
            arrival=generated.arrival,
            app_id=generated.app_id,
        )
        for generated in arrivals
    ]
