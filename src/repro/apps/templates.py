"""Applications named as data.

An :class:`AppTemplate` is a frozen, picklable record that names one
entry of the template registry (``"uniform"``, ``"csection"``,
``"fft"``, ...) together with the application's id, seed and workload
fields.  Calling it builds a fresh application, so it serves directly as
an :class:`~repro.workloads.scenario.AppSpec` factory, and a run built
from templates round-trips through dicts and YAML (the scenario corpus,
:mod:`repro.scenarios`).  The arrival generator
(:mod:`repro.workloads.generator`) builds its tenants the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.apps.fft import FFT
from repro.apps.gauss import Gauss
from repro.apps.locks import LockSaturationApp
from repro.apps.matmul import MatMul
from repro.apps.pipeline import PipelineApp
from repro.apps.service import ServiceApp
from repro.apps.sort import MergeSort
from repro.apps.synthetic import BarrierHeavyApp, CriticalSectionApp, UniformApp
from repro.sim import units
from repro.workloads.service import SERVICE_TIERS

#: Default synthetic-template task parameters (kept small so a 100-case
#: corpus stays a seconds-scale pytest run).
DEFAULT_N_TASKS = 16
DEFAULT_TASK_COST = units.ms(3)
DEFAULT_SCALE = 0.08

#: The ``pipeline`` template's fixed stage count: three stages whose
#: middle stage costs 1.5x the outer ones (the classic decode/filter/
#: encode shape with a bottleneck stage), all riding the shared
#: ``task_cost`` knob.  A fixed count keeps the task census knowable.
PIPELINE_STAGES = 3

#: Service-template defaults: a modest interactive stream (~a tenth of an
#: 8-CPU machine), small enough that a corpus case stays a sub-second
#: pytest item.  The stage cost rides the shared ``task_cost`` knob.
DEFAULT_SERVICE_RATE = 150.0
DEFAULT_SERVICE_REQUESTS = 24
DEFAULT_SERVICE_FANOUT = 2

#: ``locks``-template defaults, matching the lock-saturation workload
#: family (:mod:`repro.workloads.locks`): a 150 us critical section under
#: a 40 us-per-spinner hand-off surcharge.  ``task_cost`` rides in as the
#: think time, so the one cost knob still sets the duty cycle.
DEFAULT_LOCK_CS = 150
DEFAULT_LOCK_PENALTY = 40


def _or(value: Any, default: Any) -> Any:
    return default if value is None else value


# -- the registry ----------------------------------------------------------------
#
# Each entry: name -> builder(template, n_tasks, task_cost, scale) returning
# a fresh Application.  The three shared knobs arrive with their defaults
# resolved; a builder reads its own fields (service, lock) off the record.


def _uniform(t: "AppTemplate", n_tasks, task_cost, scale):
    return UniformApp(
        app_id=t.app_id, n_tasks=n_tasks, task_cost=task_cost, seed=t.seed
    )


def _csection(t: "AppTemplate", n_tasks, task_cost, scale):
    return CriticalSectionApp(
        app_id=t.app_id, n_tasks=n_tasks, task_cost=task_cost, seed=t.seed
    )


def _barrier(t: "AppTemplate", n_tasks, task_cost, scale):
    # n_tasks is interpreted as the phase count; each phase runs four tasks
    # so the straggler sensitivity the template probes survives small cases.
    return BarrierHeavyApp(
        app_id=t.app_id,
        phases=n_tasks,
        tasks_per_phase=4,
        task_cost=task_cost,
        seed=t.seed,
    )


def _pipeline(t: "AppTemplate", n_tasks, task_cost, scale):
    # n_tasks is interpreted as the item count; each item crosses all
    # three stages, so the census expects n_tasks * PIPELINE_STAGES.
    return PipelineApp(
        app_id=t.app_id,
        n_items=n_tasks,
        stage_costs=(task_cost, task_cost * 3 // 2, task_cost),
        seed=t.seed,
    )


def _service(t: "AppTemplate", n_tasks, task_cost, scale):
    # ``task_cost`` doubles as the per-stage cost so service tenants reuse
    # the one cost knob every other template already exposes.
    kwargs = dict(
        app_id=t.app_id,
        rate_per_s=_or(t.rate_per_s, DEFAULT_SERVICE_RATE),
        n_requests=_or(t.n_requests, DEFAULT_SERVICE_REQUESTS),
        fanout=_or(t.fanout, DEFAULT_SERVICE_FANOUT),
        stage_cost=task_cost,
        slo_us=t.slo_us,
        burst_factor=t.burst_factor,
        seed=t.seed,
    )
    if t.tier is not None:
        kwargs["tier"] = t.tier
    return ServiceApp(**kwargs)


def _locks(t: "AppTemplate", n_tasks, task_cost, scale):
    return LockSaturationApp(
        app_id=t.app_id,
        n_tasks=n_tasks,
        think_time=task_cost,
        cs_time=_or(t.cs_cost, DEFAULT_LOCK_CS),
        contention_penalty=_or(t.contention_penalty, DEFAULT_LOCK_PENALTY),
        admission=t.admission,
        blocking=t.blocking,
        seed=t.seed,
    )


def _scaled(cls):
    def build(t: "AppTemplate", n_tasks, task_cost, scale):
        return cls(app_id=t.app_id, scale=scale, seed=t.seed)

    return build


_TEMPLATES: Dict[str, Callable] = {
    "uniform": _uniform,
    "csection": _csection,
    "barrier": _barrier,
    "pipeline": _pipeline,
    "service": _service,
    "locks": _locks,
    "fft": _scaled(FFT),
    "gauss": _scaled(Gauss),
    "matmul": _scaled(MatMul),
    "sort": _scaled(MergeSort),
}

#: Template names an :class:`AppTemplate` accepts.
TEMPLATE_NAMES = tuple(sorted(_TEMPLATES))


@dataclass(frozen=True)
class AppTemplate:
    """One application described as data; calling it builds a fresh one.

    ``template`` names a registry entry (:data:`TEMPLATE_NAMES`), and the
    built application carries ``app_id`` and draws from ``seed``.
    ``n_tasks`` / ``task_cost`` parametrize the synthetic templates
    (``barrier`` reads ``n_tasks`` as its phase count, ``pipeline`` as its
    item count), ``scale`` the paper applications.  ``None`` selects the
    template default.

    The ``service`` template reads the open-arrival fields instead:
    ``rate_per_s`` / ``n_requests`` parametrize the seeded arrival stream
    (``burst_factor`` switches it to the two-rate bursty wave),
    ``fanout`` / ``task_cost`` shape the per-request DAG (``task_cost``
    doubles as the stage cost), and ``slo_us`` / ``tier`` feed the
    latency objective the SLO-aware policy steers toward.

    The ``locks`` template reads the contention fields: ``task_cost``
    doubles as the per-iteration think time, ``cs_cost`` is the
    critical-section length, ``contention_penalty`` the per-spinner
    hand-off surcharge, ``admission`` the lock's concurrency-restriction
    limit, and ``blocking`` switches the shared lock from a spinlock to
    a mutex.  Other templates ignore these fields.
    """

    template: str
    app_id: str
    seed: int = 0
    n_tasks: Optional[int] = None
    task_cost: Optional[int] = None
    scale: Optional[float] = None
    rate_per_s: Optional[float] = None
    n_requests: Optional[int] = None
    fanout: Optional[int] = None
    slo_us: Optional[int] = None
    tier: Optional[str] = None
    burst_factor: Optional[float] = None
    cs_cost: Optional[int] = None
    contention_penalty: Optional[int] = None
    admission: Optional[int] = None
    blocking: bool = False

    def __post_init__(self) -> None:
        if self.template not in _TEMPLATES:
            raise ValueError(
                f"unknown app template {self.template!r}; valid names: "
                f"{', '.join(TEMPLATE_NAMES)}"
            )
        if not (isinstance(self.app_id, str) and self.app_id):
            raise ValueError(
                f"app_id must be a non-empty string, got {self.app_id!r}"
            )
        if self.tier is not None and self.tier not in SERVICE_TIERS:
            raise ValueError(
                f"unknown service tier {self.tier!r}; "
                f"expected one of {SERVICE_TIERS}"
            )
        if self.admission is not None and self.admission < 1:
            raise ValueError(f"admission must be >= 1, got {self.admission}")

    def __call__(self) -> Any:
        return _TEMPLATES[self.template](
            self,
            _or(self.n_tasks, DEFAULT_N_TASKS),
            _or(self.task_cost, DEFAULT_TASK_COST),
            _or(self.scale, DEFAULT_SCALE),
        )

    def expected_tasks(self) -> Optional[int]:
        """The completed-task count this application is known to produce,
        or ``None`` when it depends on the application's internal
        decomposition (the scale-parametrized paper applications)."""
        n_tasks = _or(self.n_tasks, DEFAULT_N_TASKS)
        if self.template in ("uniform", "csection", "locks"):
            return n_tasks
        if self.template == "barrier":
            return n_tasks * 4
        if self.template == "pipeline":
            # Every item crosses every stage; each crossing is one task.
            return n_tasks * PIPELINE_STAGES
        if self.template == "service":
            # One dispatcher segment, ``fanout`` stages, one reduce per request.
            n_requests = _or(self.n_requests, DEFAULT_SERVICE_REQUESTS)
            return n_requests * (_or(self.fanout, DEFAULT_SERVICE_FANOUT) + 2)
        return None
