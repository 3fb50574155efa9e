"""Command-line entry point for the experiment harnesses.

Usage::

    python -m repro.experiments figure1 [--preset paper|quick]
    python -m repro.experiments all --preset quick
"""

from __future__ import annotations

import argparse

from repro.experiments.parallel import Runs
from repro.faults.campaign import main as chaos_main
from repro.experiments import (
    ablations,
    claims,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    lock_collapse,
    mechanisms,
    mixed_runtime,
    policies,
    recovery,
    service,
    steady_state,
)

_EXPERIMENTS = {
    "figure1": figure1.main,
    "figure2": figure2.main,
    "figure3": figure3.main,
    "figure4": figure4.main,
    "figure5": figure5.main,
    "claims": claims.main,
    "ablations": ablations.main,
    "mechanisms": mechanisms.main,
    "lock-collapse": lock_collapse.main,
    "mixed-runtime": mixed_runtime.main,
    "policies": policies.main,
    "service": service.main,
    "steady-state": steady_state.main,
    "chaos": chaos_main,
    "recovery": recovery.main,
}


def main() -> None:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures and ablations.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["all"],
        help="which experiment to run",
    )
    parser.add_argument(
        "--preset",
        choices=["paper", "quick"],
        default="paper",
        help="paper = full-size workloads; quick = reduced (for smoke runs)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep fan-out (default: the CPU "
        "count); 1 forces serial execution",
    )
    parser.add_argument(
        "--sanitize",
        nargs="?",
        const="strict",
        default=None,
        choices=["strict", "record"],
        metavar="MODE",
        help="run every scenario under the SchedSanitizer invariant "
        "checker (default mode: strict, which aborts on the first "
        "violation; 'record' keeps running, tallies them and warns "
        "once per violation on stderr)",
    )
    args = parser.parse_args()
    try:
        runs = Runs(jobs=args.jobs, sanitize=args.sanitize)
    except ValueError as error:
        parser.error(str(error))
    if args.experiment == "all":
        for name in sorted(_EXPERIMENTS):
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
            _EXPERIMENTS[name](args.preset, runs)
    else:
        _EXPERIMENTS[args.experiment](args.preset, runs)


if __name__ == "__main__":
    main()
