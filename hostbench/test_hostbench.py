"""Tests of the host-time benchmark harness itself.

    PYTHONPATH=src:. python -m pytest hostbench -q

They run small slices (the last cells of each workload), so they check
the harness's plumbing, not the simulator's speed.
"""

import json

import pytest

from hostbench import compare, run
from hostbench.layers import LAYER_NAMES, LAYERS, SRC, layer_of, module_of

#: Packages that no benchmark layer covers, named so a new one must be placed.
OTHER = {
    "repro.__init__",
    "repro.__main__",
    "repro.analysis",
    "repro.experiments",
    "repro.faults",
    "repro.realsys",
    "repro.sanitize",
    "repro.scenarios",
    "repro.viz",
}


def test_every_source_module_maps_to_exactly_one_layer():
    prefixes = [p for layer in LAYERS.values() for p in layer]
    assert len(prefixes) == len(set(prefixes)), "a prefix is listed under two layers"
    assert set(LAYERS["other"]) == OTHER
    modules = [module_of(path) for path in sorted((SRC / "repro").rglob("*.py"))]
    assert modules
    unmapped = [m for m in modules if layer_of(m) is None]
    assert not unmapped, f"modules with no layer: {unmapped}"
    for prefix in prefixes:
        assert any(m == prefix or m.startswith(prefix + ".") for m in modules), (
            f"layer prefix {prefix} names no module"
        )


def test_compare_verdicts():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, True, 0.1, pairs=10) == "improved"
    # The same gain over fewer than ten pairs is not claimed.
    assert compare.verdict(parent, faster, True, 0.1, pairs=5) == "unchanged"
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, slower, True, 0.1, pairs=10) == "worse"
    # For a higher-is-better metric, a 20% drop is worse.
    assert compare.verdict(parent, faster, False, 0.1, pairs=10) == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    wobble = [v * 1.05 for v in noisy]
    assert compare.verdict(noisy, wobble, True, 0.1, pairs=10) == "unresolved"


def test_child_env_drops_repro_knobs(monkeypatch):
    monkeypatch.setenv("REPRO_POLICY", "demand")
    assert not [k for k in run.child_env() if k.startswith("REPRO_")]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_seed_reaches_every_workload(workload):
    digests = [
        run.combine(run.spawn(workload, seed, False, 8)["runs"]) for seed in (0, 1)
    ]
    assert digests[0] != digests[1]


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_smoke_every_metric_with_its_unit(tmp_path, capsys):
    out = tmp_path / "records.jsonl"
    argv = ["--seed", "0", "--seconds", "0", "--trace", "1", "--last", "2"]
    assert run.main(argv + ["--out", str(out)]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    # One untraced and one traced repeat of 2, 1 (scale has one), 2, 2 cells.
    assert result["attempted"] == 2 * (2 + 1 + 2 + 2)
    records = {r["workload"]: r for r in map(json.loads, out.read_text().splitlines())}
    assert list(records) == run.WORKLOAD_NAMES
    specs = run.BENCHMARK["end_to_end"] + run.BENCHMARK["per_layer"]
    for record in records.values():
        metrics = record["metrics"]
        for spec in specs:
            assert metrics[spec["name"]]["unit"] == spec["unit"]
        shares = sum(metrics[f"{layer}.share"]["median"] for layer in LAYER_NAMES)
        assert shares == pytest.approx(1.0, abs=0.01)
        assert metrics["wall_s"]["median"] > 0


def test_corrupted_pin_fails_the_run(tmp_path, monkeypatch, capsys):
    pins = json.loads(run.PINS_PATH.read_text())
    pins["paper"]["runs"]["fig4-on"] = "0" * 16
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    monkeypatch.setattr(run, "PINS_PATH", path)
    argv = ["--workload", "paper", "--seconds", "0", "--trace", "0", "--last", "2"]
    assert run.main(argv) != 0
    result = _last_json(capsys)
    assert not result["correct"]
    assert result["failed"] > 0 and result["failed"] / result["attempted"] > 0


def test_repro_env_in_parent_leaves_fingerprint_pinned(monkeypatch, capsys):
    # The last paper cell is Figure 4 with process control and no explicit
    # policy, which REPRO_POLICY would switch from equal to demand.
    monkeypatch.setenv("REPRO_POLICY", "demand")
    argv = ["--workload", "paper", "--seconds", "0", "--trace", "0", "--last", "2"]
    assert run.main(argv) == 0
    assert _last_json(capsys)["failed"] == 0
