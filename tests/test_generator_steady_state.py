"""Tests for the workload generator and the steady-state experiment."""

import pytest

from repro.sim import units
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    build_app_specs,
    generate_arrivals,
)


class TestGeneratedWorkloadConfig:
    def test_defaults_valid(self):
        config = GeneratedWorkloadConfig()
        assert config.window > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"arrival_rate_per_s": 0},
            {"mix": {}},
            {"mix": {"fft": 0}},
            {"process_counts": ()},
            {"scale_range": (0, 1)},
            {"scale_range": (2.0, 1.0)},
            {"min_apps": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GeneratedWorkloadConfig(**kwargs)


class TestGenerateArrivals:
    def config(self, **kwargs):
        defaults = dict(
            window=units.seconds(30),
            arrival_rate_per_s=0.3,
            min_apps=3,
        )
        defaults.update(kwargs)
        return GeneratedWorkloadConfig(**defaults)

    def test_deterministic(self):
        a = generate_arrivals(self.config(), seed=7)
        b = generate_arrivals(self.config(), seed=7)
        assert a == b

    def test_seed_changes_workload(self):
        a = generate_arrivals(self.config(), seed=1)
        b = generate_arrivals(self.config(), seed=2)
        assert a != b

    def test_minimum_app_floor(self):
        # A rate so low the window would normally produce zero arrivals.
        config = self.config(arrival_rate_per_s=0.001, min_apps=3)
        arrivals = generate_arrivals(config, seed=0)
        assert len(arrivals) >= 3

    def test_arrivals_sorted_and_in_window(self):
        arrivals = generate_arrivals(self.config(), seed=5)
        times = [a.arrival for a in arrivals]
        assert times == sorted(times)
        assert all(0 <= t < units.seconds(30) for t in times)

    def test_fields_within_choices(self):
        config = self.config(process_counts=(4, 8), scale_range=(0.2, 0.4))
        for app in generate_arrivals(config, seed=3):
            assert app.n_processes in (4, 8)
            assert 0.2 <= app.scale <= 0.4
            assert app.template in config.mix
            assert app.app_id.startswith(app.template)

    def test_unique_app_ids(self):
        arrivals = generate_arrivals(self.config(), seed=9)
        ids = [a.app_id for a in arrivals]
        assert len(ids) == len(set(ids))


class TestBuildAppSpecs:
    def test_specs_match_arrivals(self):
        arrivals = generate_arrivals(
            GeneratedWorkloadConfig(
                window=units.seconds(20), arrival_rate_per_s=0.4, min_apps=2
            ),
            seed=1,
        )
        specs = build_app_specs(arrivals, seed=1)
        assert len(specs) == len(arrivals)
        for spec, generated in zip(specs, arrivals):
            assert spec.arrival == generated.arrival
            assert spec.n_processes == generated.n_processes
            app = spec.factory()
            assert app.app_id == generated.app_id

    def test_unknown_template_rejected(self):
        arrivals = generate_arrivals(
            GeneratedWorkloadConfig(
                window=units.seconds(20),
                arrival_rate_per_s=0.4,
                mix={"mystery": 1.0},
                min_apps=1,
            ),
            seed=0,
        )
        with pytest.raises(ValueError, match="mystery"):
            build_app_specs(arrivals, seed=0)


class TestSteadyState:
    def test_quick_run_improves_slowdown(self):
        from repro.experiments.steady_state import (
            format_steady_state,
            run_steady_state,
        )

        result = run_steady_state(preset="quick", seed=0)
        assert result.n_apps >= 3
        assert result.mean_slowdown_on < result.mean_slowdown_off
        assert result.makespan_gain > 1.0
        text = format_steady_state(result)
        assert "mean slowdown" in text
