"""Tests for the experiment harnesses.

The claim-evaluation and series logic is tested against synthetic data
(fast); a few miniature end-to-end runs check the harness plumbing.
"""

import pytest

from repro.experiments.claims import evaluate_claims
from repro.experiments.config import (
    app_factories,
    paper_machine,
    paper_scenario_defaults,
    poll_interval,
    process_counts,
)
from repro.experiments.figure1 import Figure1Result, Figure1Row, format_figure1, run_figure1
from repro.experiments.figure2 import run_figure2, format_figure2
from repro.experiments.figure3 import Figure3Curve, Figure3Result, format_figure3, run_figure3_app
from repro.experiments.figure4 import figure4_scenario, figure4_stagger
from repro.experiments.figure5 import Figure5Series
from repro.metrics.timeseries import StepSeries
from repro.sim import units


class TestConfig:
    def test_paper_machine_is_sixteen_processors(self):
        machine = paper_machine()
        assert machine.n_processors == 16
        assert machine.quantum == units.ms(50)

    def test_presets(self):
        assert len(app_factories("paper")) == 4
        assert len(app_factories("quick")) == 4
        assert process_counts("paper")[-1] == 24
        assert poll_interval("paper") == units.seconds(6)
        with pytest.raises(ValueError):
            app_factories("huge")
        with pytest.raises(ValueError):
            process_counts("huge")
        with pytest.raises(ValueError):
            poll_interval("huge")

    def test_quick_apps_are_smaller(self):
        quick = app_factories("quick")["fft"]()
        paper = app_factories("paper")["fft"]()
        assert quick.total_work() < paper.total_work()

    def test_defaults_bundle(self):
        defaults = paper_scenario_defaults("paper", seed=3)
        assert defaults.scheduler == "decay"
        assert defaults.seed == 3


class TestFigure4Scenario:
    def test_arrivals_staggered(self):
        scenario = figure4_scenario(None, preset="paper")
        arrivals = [spec.arrival for spec in scenario.apps]
        assert arrivals == [0, units.seconds(10), units.seconds(20)]
        assert all(spec.n_processes == 16 for spec in scenario.apps)

    def test_quick_preset_shrinks_stagger(self):
        assert figure4_stagger("quick") < figure4_stagger("paper")

    def test_control_mode_plumbed(self):
        scenario = figure4_scenario("centralized", preset="quick")
        assert scenario.control == "centralized"


class TestClaimEvaluation:
    def make_fig3(self, off_beyond=3.0, on_beyond=9.0):
        counts = [1, 8, 16, 24]
        curves = {}
        for app in ("fft", "sort", "gauss", "matmul"):
            curves[app] = Figure3Curve(
                app=app,
                t1=100_000_000,
                counts=counts,
                speedup_off=[1.0, 7.0, 10.0, off_beyond],
                speedup_on=[1.0, 7.0, 10.0, on_beyond],
            )
        return Figure3Result(curves=curves, preset="synthetic")

    def make_fig4(self, ratios):
        class FakeApp:
            def __init__(self, wall):
                self.wall_time = wall

        class FakeResult:
            def __init__(self, apps):
                self.apps = apps

        off = FakeResult({k: FakeApp(int(v * 1e6)) for k, v in ratios.items()})
        on = FakeResult({k: FakeApp(int(1e6)) for k in ratios})
        from repro.experiments.figure4 import Figure4Result

        return Figure4Result(uncontrolled=off, controlled=on, preset="synthetic")

    def test_all_claims_pass_on_paper_shaped_data(self):
        result = evaluate_claims(
            self.make_fig3(),
            self.make_fig4({"fft": 1.6, "gauss": 2.4, "matmul": 1.1}),
        )
        assert result.all_hold

    def test_c4_fails_without_2x(self):
        result = evaluate_claims(
            self.make_fig3(off_beyond=8.0, on_beyond=9.0),
            self.make_fig4({"fft": 1.6, "gauss": 2.4, "matmul": 1.1}),
        )
        claims = {c.claim_id: c.holds for c in result.claims}
        assert not claims["C4"]

    def test_c5_fails_if_gauss_not_best(self):
        result = evaluate_claims(
            self.make_fig3(),
            self.make_fig4({"fft": 2.6, "gauss": 1.4, "matmul": 1.1}),
        )
        claims = {c.claim_id: c.holds for c in result.claims}
        assert not claims["C5"]


class TestFigure5Series:
    def make_series(self):
        total = StepSeries(
            [(0, 16), (units.seconds(10), 32), (units.seconds(13), 16)]
        )
        return Figure5Series(
            controlled=True,
            total=total,
            per_app={"fft": StepSeries([(0, 16)])},
            sim_time=units.seconds(20),
        )

    def test_sample_grid(self):
        series = self.make_series()
        rows = series.sample_grid(units.seconds(5))
        assert rows[0]["total"] == 16
        assert rows[2]["total"] == 32  # t=10s
        assert rows[3]["total"] == 16  # t=15s

    def test_convergence_time(self):
        series = self.make_series()
        t = series.convergence_time(target=16, after=units.seconds(10))
        assert t == units.seconds(13)

    def test_convergence_none_when_never(self):
        series = self.make_series()
        assert series.convergence_time(target=99) is None


class TestMiniEndToEnd:
    """Miniature real runs through the harness plumbing."""

    def test_figure1_mini(self):
        result = run_figure1(preset="quick", counts=(1, 4))
        assert [r.n_processes for r in result.rows] == [1, 4]
        assert result.rows[0].speedup_matmul == pytest.approx(1.0)
        assert result.rows[1].speedup_matmul > 2.0
        text = format_figure1(result)
        assert "Figure 1" in text and "speedup(fft)" in text

    def test_figure2_worked_example(self):
        result = run_figure2()
        # The paper's arithmetic: 8 CPUs - 2 uncontrolled = 6; three apps
        # with equal priority get 2 each.
        assert result.targets == {"app1": 2, "app2": 2, "app3": 2}
        assert result.suspensions["app1"] == 0
        assert result.suspensions["app2"] >= 1
        assert result.suspensions["app3"] >= 1
        assert "server targets" in format_figure2(result)

    def test_figure3_single_app_mini(self):
        curve = run_figure3_app("matmul", preset="quick", counts=(1, 4))
        assert curve.counts == [1, 4]
        assert curve.speedup_off[0] == pytest.approx(1.0)
        assert curve.speedup_on[1] > 2.0
        text = format_figure3(
            Figure3Result(curves={"matmul": curve}, preset="quick")
        )
        assert "matmul" in text

    def test_format_figure1_synthetic(self):
        result = Figure1Result(
            rows=[Figure1Row(1, 1.0, 1.0), Figure1Row(8, 7.5, 7.0)],
            t1={"matmul": 1, "fft": 1},
            preset="synthetic",
        )
        assert result.peak_processes == 8


class TestRunnableSeriesGoldens:
    """Byte pins of what the runnable-census series feed: Figure 5's
    quick-preset table (total and per-application step series) and
    Figure 2's mid-run runnable counts.  Regenerate with::

        REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \\
            tests/test_experiments.py -k RunnableSeriesGoldens

    and commit the diff (a golden update is a behaviour change).
    """

    @staticmethod
    def _check(name: str, text: str) -> None:
        from pathlib import Path

        from repro.scenarios.golden import update_requested

        path = Path(__file__).parent / "golden" / name
        if update_requested():
            path.write_text(text)
        assert path.exists(), f"missing golden file {path}; REPRO_UPDATE_GOLDEN=1"
        assert text == path.read_text(), (
            f"{name} diverged from the committed golden copy; if intentional, "
            "regenerate with REPRO_UPDATE_GOLDEN=1 and commit"
        )

    def test_figure5_quick_table(self):
        from repro.experiments.figure5 import format_figure5, run_figure5

        self._check("figure5_quick.txt", format_figure5(run_figure5("quick")) + "\n")

    def test_figure2_mid_run_runnable_counts(self):
        result = run_figure2()
        text = (
            f"runnable at mid-run:   {result.final_runnable_per_app!r}\n"
            f"uncontrolled runnable: {result.uncontrolled_runnable!r}\n"
        )
        self._check("figure2_mid_run_runnable.txt", text)
