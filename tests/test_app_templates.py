"""Tests for :class:`repro.apps.templates.AppTemplate`: applications named
as data, the one way a corpus case, the arrival generator and the
co-simulation oracle build their tenants."""

import pickle

import pytest

from repro.apps import (
    FFT,
    BarrierHeavyApp,
    LockSaturationApp,
    PipelineApp,
    ServiceApp,
    UniformApp,
)
from repro.apps.templates import TEMPLATE_NAMES, AppTemplate
from repro.sync import Mutex
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    build_app_specs,
    generate_arrivals,
)


def test_unknown_template_rejected_naming_it():
    with pytest.raises(ValueError, match="'unifrom'"):
        AppTemplate("unifrom", "a")


@pytest.mark.parametrize(
    "fields, named",
    [
        ({"app_id": ""}, "app_id"),
        ({"tier": "gold"}, "'gold'"),
        ({"admission": 0}, "admission"),
    ],
)
def test_invalid_fields_rejected_naming_them(fields, named):
    with pytest.raises(ValueError, match=named):
        AppTemplate(**{"template": "uniform", "app_id": "a", **fields})


@pytest.mark.parametrize("name", TEMPLATE_NAMES)
def test_every_call_builds_a_fresh_application(name):
    template = AppTemplate(name, "x", seed=3)
    first, second = template(), template()
    assert first is not second
    assert first.app_id == second.app_id == "x"
    assert first.seed == 3


def test_fields_reach_the_application():
    uniform = AppTemplate("uniform", "u", n_tasks=7, task_cost=900)()
    assert isinstance(uniform, UniformApp)
    assert (uniform.n_tasks, uniform.task_cost) == (7, 900)
    barrier = AppTemplate("barrier", "b", n_tasks=3)()
    assert isinstance(barrier, BarrierHeavyApp)
    pipeline = AppTemplate("pipeline", "p", n_tasks=5, task_cost=1000)()
    assert isinstance(pipeline, PipelineApp)
    assert (pipeline.n_items, pipeline.stage_costs) == (5, (1000, 1500, 1000))
    locks = AppTemplate(
        "locks", "l", task_cost=600, cs_cost=120, admission=2, blocking=True
    )()
    assert isinstance(locks, LockSaturationApp)
    assert (locks.think_time, locks.cs_time) == (600, 120)
    assert isinstance(locks.lock, Mutex) and locks.lock.admission == 2
    service = AppTemplate(
        "service", "s", rate_per_s=300.0, n_requests=10, fanout=3, tier="batch"
    )()
    assert isinstance(service, ServiceApp)
    assert (service.n_requests, service.fanout, service.tier) == (10, 3, "batch")
    assert isinstance(AppTemplate("fft", "f", scale=0.05)(), FFT)


def test_expected_tasks():
    assert AppTemplate("uniform", "u", n_tasks=7).expected_tasks() == 7
    assert AppTemplate("csection", "c").expected_tasks() == 16  # the default
    assert AppTemplate("barrier", "b", n_tasks=3).expected_tasks() == 12
    assert AppTemplate("pipeline", "p", n_tasks=5).expected_tasks() == 15
    assert (
        AppTemplate("service", "s", n_requests=10, fanout=3).expected_tasks()
        == 50
    )
    assert AppTemplate("fft", "f", scale=0.05).expected_tasks() is None


def test_picklable_and_compared_by_value():
    template = AppTemplate("service", "svc", seed=2, rate_per_s=300.0)
    assert pickle.loads(pickle.dumps(template)) == template
    assert template != AppTemplate("service", "svc", seed=3, rate_per_s=300.0)


def test_generated_specs_are_templates_of_the_drawn_arrivals():
    arrivals = generate_arrivals(GeneratedWorkloadConfig(min_apps=2), seed=1)
    specs = build_app_specs(arrivals, seed=4)
    for spec, generated in zip(specs, arrivals):
        assert spec.factory == AppTemplate(
            generated.template, generated.app_id, seed=4, scale=generated.scale
        )
        assert spec.app_id == generated.app_id
