"""Host-time benchmark of the simulator: where does wall time go?

    python3 hostbench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]
    python3 hostbench/run.py --update-pins [--workload NAME ...]
    python3 hostbench/run.py compare PARENT.jsonl CHANGE.jsonl

Each repeat of a workload runs in a fresh child process (``child.py``),
one after another, never two at once: the load is a closed loop of one
simulation at a time.  Repeats of the selected workloads interleave
round-robin until ``--seconds`` per workload are spent, after one
untimed warm-up child and ``SETUP_PROBES`` set-up-only children per
workload; ``setup_s`` is sampled from every untraced child.  With
``--trace 1`` one extra cProfile-traced repeat per workload gives the
per-layer breakdown; end-to-end numbers never come from it.

Every run's fingerprint must match the other repeats of the same seed
and, at seed 0, the pins in ``pins.json``; a run that differs or raises
is a failed run.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The exit code is 0 when every run
passed, 1 when some failed, and 2 when a repeat could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from hostbench import compare  # noqa: E402
from hostbench.layers import LAYER_FIELDS, LAYER_NAMES  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
PINS_PATH = HERE / "pins.json"
#: Per-layer metrics printed as a layer x field matrix, not one per row.
LAYER_METRICS = {f"{layer}.{f}" for layer in LAYER_NAMES for f in LAYER_FIELDS}

#: Untraced rounds a ``--trace 0`` invocation runs even past its budget.
MIN_ROUNDS = 3
#: Set-up-only children per workload before the timed rounds: set-up is
#: ~0.1 s against a noisy host, so it gets more samples than the loop.
SETUP_PROBES = 5
#: Traced repeat length as a multiple of the untraced one (measured
#: 3.5-4x), used only to reserve time for the traced repeat.
TRACE_SLOWDOWN = 4.0
#: A repeat that runs longer than this is killed and the benchmark fails.
CHILD_TIMEOUT_S = 170


class RepeatError(RuntimeError):
    """A child repeat crashed or printed no record."""


def child_env() -> Dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` knob.

    Library code still reads ``REPRO_POLICY`` and friends; a knob left
    set in the shell would silently change what the workloads simulate.
    ``PYTHONDONTWRITEBYTECODE`` goes too, so that the warm-up child leaves
    the bytecode cache an installed package has and ``setup_s`` does not
    measure compiling every module.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def spawn(workload: str, seed: int, trace: bool, last: Optional[int]) -> dict:
    """Run one repeat in a fresh interpreter and return its record."""
    cmd = [sys.executable, "-m", "hostbench.child", workload, str(seed)]
    if trace:
        cmd.append("--trace")
    if last is not None:
        cmd += ["--last", str(last)]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise RepeatError(f"{workload}: repeat exceeded {CHILD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepeatError(f"{workload}: repeat exited with code {proc.returncode}")
    return json.loads(lines[-1])


def combine(runs: Dict[str, Optional[str]]) -> str:
    """One fingerprint for a workload from its per-run fingerprints."""
    text = ";".join(f"{label}={digest}" for label, digest in sorted(runs.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def quartiles(values: List[float]) -> tuple:
    """(median, first quartile, third quartile) of *values*."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


class Workload:
    """All repeats of one workload at one seed, and what they mean."""

    def __init__(self, name: str, seed: int, pins: dict) -> None:
        self.name = name
        self.seed = seed
        self.pinned = pins.get(name, {}).get("runs", {}) if seed == 0 else {}
        self.samples: List[dict] = []
        self.setups: List[float] = []
        self.traced: Optional[dict] = None
        self.reference: Dict[str, Optional[str]] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, record: dict) -> None:
        """Check every run of *record* and keep it (set-up-only or not)."""
        for label, digest in record["runs"].items():
            if digest is not None:
                self.reference.setdefault(label, digest)
            expected = self.pinned.get(label, self.reference.get(label))
            self.attempted += 1
            if digest is None or digest != expected:
                self.failed += 1
                print(
                    f"FAIL {self.name} seed {self.seed} {label}: "
                    f"fingerprint {digest} != {expected}",
                    file=sys.stderr,
                )
        if record["layers"] is not None:
            self.traced = record
            return
        self.setups.append(record["setup_s"])
        if record["runs"]:
            self.samples.append(record)

    def median_wall(self) -> float:
        return quartiles([s["wall_s"] for s in self.samples])[0]

    @property
    def fingerprint(self) -> str:
        return combine(self.reference)

    def end_to_end(self) -> Dict[str, List[float]]:
        """Per-repeat samples of each end-to-end metric."""
        return {
            "wall_s": [s["wall_s"] for s in self.samples],
            "events_per_s": [
                s["counts"]["engine.events"] / s["wall_s"] for s in self.samples
            ],
            "setup_s": self.setups,
            "peak_rss_mb": [s["peak_rss_mb"] for s in self.samples],
        }

    def per_layer(self) -> Dict[str, float]:
        """Per-layer metrics of the traced repeat."""
        traced = self.traced
        values: Dict[str, float] = {}
        for layer, fields in traced["layers"].items():
            for field, value in fields.items():
                values[f"{layer}.{field}"] = value
        work = traced["counts"]
        values.update(work)

        def per(layer: str, count: str, scale: float) -> float:
            n = work[count]
            return values[f"{layer}.self_s"] * scale / n if n else 0.0

        values["engine.ns_per_event"] = per("engine", "engine.events", 1e9)
        values["kernel.ns_per_dispatch"] = per("kernel", "kernel.dispatches", 1e9)
        values["core.us_per_scan"] = per("core", "core.scans", 1e6)
        values["threads.us_per_poll"] = per("threads", "threads.polls", 1e6)
        values["sync.ns_per_acquire"] = per("sync", "sync.acquisitions", 1e9)
        values["trace_overhead"] = traced["wall_s"] / self.median_wall()
        return values


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def measure(
    names: List[str],
    seed: int,
    seconds: float,
    trace: bool,
    last: Optional[int],
    pins: dict,
) -> List[Workload]:
    """Interleave untraced repeats until the budget is spent, then trace."""
    runs = [Workload(name, seed, pins) for name in names]
    budget = seconds * len(names)
    start = time.perf_counter()
    for workload in runs:
        # Untimed warm-up: compiles bytecode in a fresh checkout and pulls
        # the sources into the page cache, so neither lands in setup_s.
        spawn(workload.name, seed, False, 0)
    for _ in range(SETUP_PROBES):
        for workload in runs:
            workload.add(spawn(workload.name, seed, False, 0))
    loop_start = time.perf_counter()
    rounds = 0
    while True:
        for workload in runs:
            workload.add(spawn(workload.name, seed, False, last))
        rounds += 1
        now = time.perf_counter()
        next_round = (now - loop_start) / rounds
        reserve = 0.0
        if trace:
            reserve = sum(
                TRACE_SLOWDOWN * w.median_wall() + statistics.median(w.setups)
                for w in runs
            )
        if rounds >= (1 if trace else MIN_ROUNDS) and (
            now - start + next_round + reserve > budget
        ):
            break
    if trace:
        for workload in runs:
            workload.add(spawn(workload.name, seed, True, last))
    return runs


def metric_table(runs: List[Workload], trace: bool) -> Dict[str, Dict[str, dict]]:
    """name -> metric -> {unit, median, q1, q3, n, samples} per workload."""
    specs = BENCHMARK["end_to_end"] + (BENCHMARK["per_layer"] if trace else [])
    table: Dict[str, Dict[str, dict]] = {}
    for workload in runs:
        samples = workload.end_to_end()
        if trace:
            samples.update({k: [v] for k, v in workload.per_layer().items()})
        rows = {}
        for spec in specs:
            values = samples[spec["name"]]
            median, q1, q3 = quartiles(values)
            rows[spec["name"]] = {
                "unit": spec["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "n": len(values),
                "samples": values,
            }
        table[workload.name] = rows
    return table


def report(runs: List[Workload], table: Dict[str, Dict[str, dict]], pins: dict) -> None:
    """Print every metric by name, with its unit, median, quartiles and n."""
    for workload in runs:
        pin = pins.get(workload.name, {}).get("fingerprint")
        events = workload.samples[0]["counts"]["engine.events"]
        print(
            f"== {workload.name}  seed {workload.seed}  "
            f"runs {len(workload.reference)}  events {events}  "
            f"fingerprint {workload.fingerprint}"
            + (f"  (seed-0 pin {pin})" if workload.seed == 0 and pin else "")
        )
        rows = table[workload.name]
        print(f"   {'metric':<24} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
        for name, row in rows.items():
            if name in LAYER_METRICS:
                continue
            print(
                f"   {name:<24} {row['unit']:<6} {row['median']:>14.6g} "
                f"{row['q1']:>14.6g} {row['q3']:>14.6g} {row['n']:>3}"
            )
        if workload.traced is not None:
            units = "/".join(rows[f"engine.{f}"]["unit"] for f in LAYER_FIELDS)
            print(f"   per layer, traced repeat (n=1; {units}):")
            print(f"   {'layer':<10}" + "".join(f"{f:>14}" for f in LAYER_FIELDS))
            for layer in LAYER_NAMES:
                print(f"   {layer:<10}" + "".join(
                    f"{rows[f'{layer}.{f}']['median']:>14.6g}" for f in LAYER_FIELDS
                ))
        print(f"   failed runs: {workload.failed}/{workload.attempted}")


def update_pins(names: List[str]) -> None:
    """Re-pin the seed-0 fingerprints of *names* (run only on purpose)."""
    pins = load_pins()
    for name in names:
        record = spawn(name, 0, False, None)
        if any(digest is None for digest in record["runs"].values()):
            raise SystemExit(f"{name}: a run raised; refusing to pin it")
        pins[name] = {
            "fingerprint": combine(record["runs"]),
            "events": record["counts"]["engine.events"],
            "runs": record["runs"],
        }
        print(f"{name}: pinned {pins[name]['fingerprint']} ({pins[name]['events']} events)")
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], BENCHMARK)
    parser = argparse.ArgumentParser(prog="hostbench/run.py")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, help="append this run's record (JSON line)")
    parser.add_argument("--update-pins", action="store_true")
    parser.add_argument("--last", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.workload or WORKLOAD_NAMES
    if args.update_pins:
        update_pins(names)
        return 0
    pins = load_pins()
    try:
        runs = measure(
            names, args.seed, args.seconds, bool(args.trace), args.last, pins
        )
    except RepeatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = metric_table(runs, bool(args.trace))
    report(runs, table, pins)
    attempted = sum(w.attempted for w in runs)
    failed = sum(w.failed for w in runs)
    if args.out is not None:
        with args.out.open("a") as out:
            for workload in runs:
                out.write(json.dumps({
                    "workload": workload.name,
                    "seed": args.seed,
                    "fingerprint": workload.fingerprint,
                    "attempted": workload.attempted,
                    "failed": workload.failed,
                    "metrics": table[workload.name],
                }) + "\n")
    kind = "per_layer" if args.trace else "end_to_end"
    declared = [spec["name"] for spec in BENCHMARK[kind]]
    prefix = len(runs) > 1
    metrics = {
        (f"{w.name}/{name}" if prefix else name): {
            "value": table[w.name][name]["median"],
            "unit": table[w.name][name]["unit"],
        }
        for w in runs
        for name in declared
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
