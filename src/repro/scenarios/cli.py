"""``python -m repro scenarios`` -- the corpus front end.

Subcommands:

- ``list`` -- enumerate catalog cases (with coordinate filters);
- ``show <case>`` -- dump one case record in full;
- ``run [case ...]`` -- execute cases (or a filtered subset, or the whole
  corpus) through the shared catalog runner, with digest-pin checking;
- ``cosim [case ...]`` -- run the simulator-vs-real-processes oracle.

All execution goes through :func:`repro.scenarios.runner.run_catalog`, so
the CLI, pytest, and CI observe identical semantics.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.parallel import Runs
from repro.scenarios import catalog
from repro.scenarios.runner import open_golden_store, run_catalog
from repro.scenarios.spec import FAMILIES, ScenarioCase


def _add_filter_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("filters")
    group.add_argument(
        "--scheduler", help="only cases using this kernel scheduler"
    )
    group.add_argument(
        "--policy",
        help="only cases pinning this allocation policy "
        "('default' for unpinned)",
    )
    group.add_argument(
        "--fault",
        help="only cases injecting this fault kind "
        "('any' = all faulted, 'none' = healthy only)",
    )
    group.add_argument(
        "--family", choices=FAMILIES, help="only cases of this family"
    )
    group.add_argument(
        "--filter",
        dest="name_filter",
        metavar="SUBSTRING",
        help="only cases whose name contains SUBSTRING",
    )


def _select(args: argparse.Namespace, names: List[str]) -> List[ScenarioCase]:
    if names:
        cases: List[ScenarioCase] = [catalog.get_case(name) for name in names]
    else:
        cases = catalog.all_cases()
    policy = args.policy
    if policy == "default":
        cases = [case for case in cases if case.policy is None]
        policy = None
    return catalog.filter_cases(
        cases,
        scheduler=args.scheduler,
        policy=policy,
        fault=args.fault,
        family=args.family,
        name=args.name_filter,
    )


def _command_list(args: argparse.Namespace) -> int:
    cases = _select(args, [])
    for case in cases:
        faults = ",".join(case.fault_kinds) or "-"
        print(
            f"{case.name:<38} {case.family:<9} {case.scheduler:<13} "
            f"{case.policy_label:<9} shards={case.shards} faults={faults}"
        )
    summary = catalog.coverage_summary(cases)
    print(
        f"\n{summary['total']} cases, {summary['schedulers']} schedulers, "
        f"{summary['policies']} policy labels, "
        f"{summary['digest_pinned']} digest-pinned"
    )
    return 0


def _command_show(args: argparse.Namespace) -> int:
    case = catalog.get_case(args.case)
    record = case.to_dict()
    for key, value in record.items():
        print(f"{key}: {value!r}")
    print(f"fault_kinds: {case.fault_kinds}")
    print(f"expected_census: {case.expected_census()}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    cases = _select(args, args.cases)
    if not cases:
        print("no catalog cases match the given filters", file=sys.stderr)
        return 2
    try:
        runs = Runs(jobs=args.jobs, sanitize="record" if args.sanitize else None)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    golden = None if args.no_digests else open_golden_store()
    report = run_catalog(
        cases,
        runs=runs,
        golden=golden,
        check_digests=not args.no_digests,
    )
    print(report.format_report(verbose=args.verbose))
    return 0 if report.ok else 1


def _command_cosim(args: argparse.Namespace) -> int:
    # Imported lazily: the oracle spawns OS processes and is only needed
    # by this subcommand.
    from repro.scenarios import cosim

    if args.list:
        for case in cosim.SMOKE_CASES:
            pools = ", ".join(
                f"{p.name}({p.n_workers}w x {p.n_tasks}t)" for p in case.pools
            )
            print(f"{case.name:<24} {case.n_cpus} cpus: {pools}")
        return 0
    selected = (
        [cosim.get_smoke_case(name) for name in args.cases]
        if args.cases
        else list(cosim.SMOKE_CASES)
    )
    failed = 0
    for case in selected:
        report = cosim.run_cosim(case)
        print(report.format_report())
        print()
        if not report.ok:
            failed += 1
    return 1 if failed else 0


def add_scenarios_parser(subparsers) -> None:
    """Attach the ``scenarios`` subcommand tree to ``python -m repro``."""
    parser = subparsers.add_parser(
        "scenarios",
        help="declarative scenario corpus: list, show, run, cosim",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="scenario_command", required=True)

    list_parser = commands.add_parser("list", help="enumerate catalog cases")
    _add_filter_arguments(list_parser)
    list_parser.set_defaults(handler=_command_list)

    show_parser = commands.add_parser("show", help="dump one case record")
    show_parser.add_argument("case", help="catalog case name")
    show_parser.set_defaults(handler=_command_show)

    run_parser = commands.add_parser(
        "run", help="execute catalog cases and check their invariants"
    )
    run_parser.add_argument(
        "cases", nargs="*", help="case names (default: all, post-filter)"
    )
    _add_filter_arguments(run_parser)
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="parallel worker processes (default: the CPU count)",
    )
    run_parser.add_argument(
        "--sanitize",
        action="store_true",
        help="attach the invariant sanitizer in record mode",
    )
    run_parser.add_argument(
        "--no-digests",
        action="store_true",
        help="skip golden digest-pin checking",
    )
    run_parser.add_argument(
        "--verbose", action="store_true", help="print every case outcome"
    )
    run_parser.set_defaults(handler=_command_run)

    cosim_parser = commands.add_parser(
        "cosim",
        help="co-simulate: the same workload on the simulator and on "
        "real OS processes, diffed within tolerance bands",
    )
    cosim_parser.add_argument(
        "cases", nargs="*", help="smoke case names (default: all)"
    )
    cosim_parser.add_argument(
        "--list", action="store_true", help="list smoke cases and exit"
    )
    cosim_parser.set_defaults(handler=_command_cosim)


def run_from_args(args: argparse.Namespace) -> int:
    """Dispatch a parsed ``scenarios`` invocation (shared with tests)."""
    handler = getattr(args, "handler", None)
    if handler is None:  # pragma: no cover - argparse enforces a subcommand
        raise SystemExit(2)
    return handler(args)


def main(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point (``python -m repro.scenarios.cli``)."""
    parser = argparse.ArgumentParser(prog="python -m repro.scenarios.cli")
    subparsers = parser.add_subparsers(dest="command", required=True)
    add_scenarios_parser(subparsers)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
