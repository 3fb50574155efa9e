"""Golden-trace regression tests: bit-identical replay of key experiments.

Each case runs one experiment scenario (quick preset) with the
``kernel.dispatch`` trace category enabled and checksums the full
``(time, pid, cpu)`` dispatch sequence via
:func:`repro.sim.trace.dispatch_digest`.  The digests -- plus sim_time and
makespan -- are pinned in ``tests/golden/*.json``: any change to engine,
kernel, scheduler, threads package, or server that perturbs even one
dispatch fails here.

With fault injection *disabled* (the default), every one of these runs
must stay byte-identical to the healthy world the paper experiments
measure -- that is the acceptance bar for the fault subsystem riding along
in the same process.  Each case also replays with the six retired run
variables set (:data:`RETIRED_RUN_VARIABLES`): a run is described by its
``Scenario`` alone, so the environment must not move a single dispatch.

To regenerate after an intentional behaviour change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_traces.py

and commit the diff (review it first: a golden update is a behaviour
change, not a formality).
"""

import json
from pathlib import Path

import pytest

from repro.experiments.figure1 import figure1_scenario
from repro.experiments.figure4 import figure4_scenario
from repro.experiments.steady_state import steady_state_scenario
from repro.scenarios.golden import (
    UPDATE_ENV_VAR,
    mismatch_message,
    update_requested,
)
from repro.sim import TraceLog, dispatch_digest
from repro.workloads import run_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"

REGEN_HINT = "PYTHONPATH=src python -m pytest tests/test_golden_traces.py -q"

#: name -> zero-arg scenario builder (quick preset keeps the suite fast).
CASES = {
    "figure1_quick_n8": lambda: figure1_scenario(8, "quick", 0),
    "figure1_quick_n16": lambda: figure1_scenario(16, "quick", 0),
    "figure1_quick_n24": lambda: figure1_scenario(24, "quick", 0),
    "figure4_quick_centralized": lambda: figure4_scenario(
        "centralized", "quick", 0
    ),
    "steady_state_quick_centralized": lambda: steady_state_scenario(
        "centralized", "quick", 0
    ),
}


#: Variables that once set run knobs (policy, weight table, shards, fault
#: plan, supervision, lock admission) behind the scenario's back.
RETIRED_RUN_VARIABLES = {
    "REPRO_POLICY": "demand",
    "REPRO_WEIGHTS": "fft=3",
    "REPRO_SHARDS": "2",
    "REPRO_FAULTS": "cpu-offline:cpu=1,at=10ms,duration=40ms",
    "REPRO_SUPERVISE": "1",
    "REPRO_LOCK_ADMISSION": "1",
}


def _measure(name: str) -> dict:
    trace = TraceLog(categories={"kernel.dispatch"})
    result = run_scenario(CASES[name](), trace=trace)
    return {
        "dispatch_digest": dispatch_digest(trace),
        "dispatches": len(trace.records("kernel.dispatch")),
        "sim_time": result.sim_time,
        "makespan": result.makespan,
    }


@pytest.mark.parametrize(
    "name, environ",
    [pytest.param(name, {}, id=name) for name in sorted(CASES)]
    + [
        pytest.param(name, RETIRED_RUN_VARIABLES, id=f"{name}-retired-variables")
        for name in sorted(CASES)
    ],
)
def test_golden_trace(name, environ, monkeypatch):
    for variable, value in environ.items():
        monkeypatch.setenv(variable, value)
    golden_path = GOLDEN_DIR / f"{name}.json"
    measured = _measure(name)
    if update_requested() and not environ:
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(measured, indent=2) + "\n")
        return
    if not golden_path.exists():
        pytest.fail(
            f"no golden pin at {golden_path}; generate it with: "
            f"{UPDATE_ENV_VAR}=1 {REGEN_HINT}"
        )
    golden = json.loads(golden_path.read_text())
    if measured != golden:
        pytest.fail(mismatch_message(name, measured, golden, REGEN_HINT))


def test_golden_replay_is_deterministic():
    """Two in-process replays of the same scenario are bit-identical."""
    first = _measure("figure1_quick_n8")
    second = _measure("figure1_quick_n8")
    assert first == second
