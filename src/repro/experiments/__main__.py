"""Command-line entry point for the experiment harnesses.

Usage::

    python -m repro.experiments figure1 [--preset paper|quick]
    python -m repro.experiments all --preset quick
"""

from __future__ import annotations

import argparse
import os

from repro.core.allocation import (
    POLICY_ENV_VAR,
    POLICY_NAMES,
    WEIGHTS_ENV_VAR,
    make_policy,
    parse_weights,
)
from repro.core.plane import SHARDS_ENV_VAR
from repro.experiments.parallel import JOBS_ENV_VAR
from repro.faults.campaign import main as chaos_main
from repro.faults.plan import FAULTS_ENV_VAR
from repro.resilience.watchdog import SUPERVISE_ENV_VAR
from repro.sanitize.invariants import SANITIZE_ENV_VAR
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
        help="worker processes for sweep fan-out (default: $REPRO_JOBS, "
        "then the CPU count); 1 forces serial execution",
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
        "violation; 'record' keeps running and tallies them)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="fault-injection plan applied to every scenario, e.g. "
        "'cpu-offline:cpu=1,at=10ms;server-crash:at=20ms,down=60ms' "
        "(see docs/FAULTS.md; equivalent to setting $REPRO_FAULTS)",
    )
    parser.add_argument(
        "--policy",
        default=None,
        choices=sorted(POLICY_NAMES) + ["space"],
        help="allocation policy the control server runs in every scenario "
        "that does not pin one itself (equivalent to setting "
        "$REPRO_POLICY; 'space' requires the partition scheduler)",
    )
    parser.add_argument(
        "--weights",
        default=None,
        metavar="SPEC",
        help="per-application priority shares for the control servers, "
        "e.g. 'fft=2,sort=0.5' (apps not named default to 1.0; "
        "equivalent to setting $REPRO_WEIGHTS): the --policy's weight "
        "table, or the 'weighted' policy when no --policy is given; "
        "ignored by scenarios that pin a policy",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="process-control server shards in every scenario that does "
        "not pin a count itself (equivalent to setting $REPRO_SHARDS; "
        "default 1 = the paper's single server)",
    )
    parser.add_argument(
        "--supervise",
        action="store_true",
        help="arm the control-plane watchdog (heartbeat monitoring, shard "
        "restart/failover) in every scenario that does not pin "
        "Scenario.supervise itself (equivalent to setting "
        "$REPRO_SUPERVISE=1; see docs/RESILIENCE.md)",
    )
    args = parser.parse_args()
    if args.jobs is not None:
        # The sweep runners consult REPRO_JOBS; routing the flag through
        # the environment reaches every experiment without threading a
        # jobs parameter into each main().
        os.environ[JOBS_ENV_VAR] = str(args.jobs)
    if args.sanitize is not None:
        # Same routing trick as --jobs: run_scenario consults the env var,
        # and the sweep runners re-export it to their worker processes.
        os.environ[SANITIZE_ENV_VAR] = args.sanitize
    if args.faults is not None:
        os.environ[FAULTS_ENV_VAR] = args.faults
    if args.policy is not None:
        # Same env routing as --jobs: run_scenario resolves the policy for
        # every scenario that leaves Scenario.policy unset.
        os.environ[POLICY_ENV_VAR] = args.policy
    if args.weights is not None:
        # Fail fast, before any runs: the table must parse and the policy
        # it is handed to must take one.
        name = os.environ.get(POLICY_ENV_VAR) or "weighted"
        if name == "space":
            parser.error("--weights: policy 'space' takes no weight table")
        try:
            make_policy(name, weights=parse_weights(args.weights))
        except ValueError as exc:
            parser.error(f"--weights: {exc}")
        os.environ[WEIGHTS_ENV_VAR] = args.weights
    if args.shards is not None:
        if args.shards < 1:
            parser.error("--shards must be >= 1")
        os.environ[SHARDS_ENV_VAR] = str(args.shards)
    if args.supervise:
        os.environ[SUPERVISE_ENV_VAR] = "1"
    if args.experiment == "all":
        for name in sorted(_EXPERIMENTS):
            print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
            _EXPERIMENTS[name](args.preset)
    else:
        _EXPERIMENTS[args.experiment](args.preset)


if __name__ == "__main__":
    main()
