"""Where one perf tier's memory sits: top allocation lines at its peak.

Runs one tier of :mod:`benchmarks.perf` twice under ``tracemalloc``.
The simulator is deterministic, so both passes spawn the same processes
in the same order:

1. The first pass reads the traced memory at every ``Kernel.spawn`` and
   finds the spawn at which it peaks.
2. The second pass takes a snapshot at that spawn, and another at run
   end while the tier's result is still held.

It prints the largest allocation sites (file and line) at both points.
The traced figures count Python allocations only; they sit below the
process's resident set size, but they say which line holds the bytes.
Run from the repository root::

    PYTHONPATH=src:. python benchmarks/footprint.py scale --top 15
"""

from __future__ import annotations

import argparse
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, List, Optional

from benchmarks.perf import EXPERIMENTS, SERIAL
from repro.kernel import Kernel

MB = 2**20

#: Allocation sites inside the tracer itself are left out of every table.
_EXCLUDE = (
    tracemalloc.Filter(False, tracemalloc.__file__),
    tracemalloc.Filter(False, __file__),
)


@dataclass
class Footprint:
    """The two snapshots of one tier and where the first was taken."""

    tier: str
    spawns: int
    peak_spawn: int
    peak_traced: int
    end_traced: int
    #: The tracer's own high-water mark over the first pass, which also
    #: sees the peaks between spawns (the result reduction, for one).
    run_peak: int
    peak: tracemalloc.Snapshot
    end: tracemalloc.Snapshot


@contextmanager
def _on_spawn(hook: Callable[[int], None]) -> Iterator[None]:
    """Call ``hook(n)`` after the n-th ``Kernel.spawn`` (1-based)."""
    spawn = Kernel.spawn
    count = 0

    def counting_spawn(self, *args, **kwargs):
        nonlocal count
        process = spawn(self, *args, **kwargs)
        count += 1
        hook(count)
        return process

    Kernel.spawn = counting_spawn
    try:
        yield
    finally:
        Kernel.spawn = spawn


@contextmanager
def _traced() -> Iterator[None]:
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def run_peak(tier: str) -> int:
    """The tracer's high-water mark over one run of *tier*, in bytes."""
    with _traced():
        EXPERIMENTS[tier](SERIAL)
        return tracemalloc.get_traced_memory()[1]


def measure(tier: str) -> Footprint:
    """Run *tier* twice and snapshot it at its peak spawn and at run end."""
    run = EXPERIMENTS[tier]
    samples: List[int] = []
    with _traced(), _on_spawn(
        lambda n: samples.append(tracemalloc.get_traced_memory()[0])
    ):
        run(SERIAL)
        run_peak = tracemalloc.get_traced_memory()[1]
    if not samples:
        raise ValueError(f"tier {tier!r} spawned no process")
    peak_spawn = 1 + max(range(len(samples)), key=samples.__getitem__)

    taken = {}

    def snapshot_at_peak(n: int) -> None:
        if n == peak_spawn:
            taken["peak_traced"] = tracemalloc.get_traced_memory()[0]
            taken["peak"] = tracemalloc.take_snapshot()

    with _traced(), _on_spawn(snapshot_at_peak):
        result = run(SERIAL)  # held while the run-end snapshot is taken
        end_traced = tracemalloc.get_traced_memory()[0]
        end = tracemalloc.take_snapshot()
    del result
    if "peak" not in taken:
        raise RuntimeError(
            f"tier {tier!r} spawned differently on its second pass"
        )
    return Footprint(
        tier=tier,
        spawns=len(samples),
        peak_spawn=peak_spawn,
        peak_traced=taken["peak_traced"],
        end_traced=end_traced,
        run_peak=run_peak,
        peak=taken["peak"],
        end=end,
    )


def _site(frame: tracemalloc.Frame) -> str:
    """``repro/threads/task.py:97`` for repository files, else the name."""
    parts = Path(frame.filename).parts
    # The innermost match, so a checkout directory named like a package
    # does not lengthen every site.
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] in ("repro", "benchmarks"):
            return f"{'/'.join(parts[i:])}:{frame.lineno}"
    return f"{parts[-1]}:{frame.lineno}"


def top_lines(snapshot: tracemalloc.Snapshot, top: int) -> List[str]:
    """The *top* allocation lines of *snapshot*, largest first."""
    stats = snapshot.filter_traces(_EXCLUDE).statistics("lineno")
    lines = []
    for stat in stats[:top]:
        lines.append(
            f"  {stat.size / MB:8.2f} MB  {stat.count:>9,}  "
            f"{stat.size // max(stat.count, 1):>6} B  {_site(stat.traceback[0])}"
        )
    return lines


def report(footprint: Footprint, top: int = 10) -> str:
    """Both tables of *footprint* as printable text."""
    header = f"  {'size':>11}  {'blocks':>9}  {'avg':>8}  line"
    return "\n".join(
        [
            f"{footprint.tier}: {footprint.peak_traced / MB:.1f} MB traced "
            f"at spawn {footprint.peak_spawn:,} of {footprint.spawns:,}, "
            f"the largest at any spawn (whole-run traced peak "
            f"{footprint.run_peak / MB:.1f} MB)",
            header,
            *top_lines(footprint.peak, top),
            "",
            f"{footprint.tier}: run end, result held: "
            f"{footprint.end_traced / MB:.1f} MB traced",
            header,
            *top_lines(footprint.end, top),
        ]
    )


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tier", choices=sorted(EXPERIMENTS))
    parser.add_argument(
        "--top", type=int, default=10, help="allocation lines per table"
    )
    args = parser.parse_args(argv)
    if args.top < 1:
        parser.error("--top must be >= 1")
    print(report(measure(args.tier), args.top))


if __name__ == "__main__":
    main()
