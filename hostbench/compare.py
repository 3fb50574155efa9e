"""Compare two commits' benchmark records metric by metric.

    python3 hostbench/run.py compare PARENT.jsonl CHANGE.jsonl

Each file holds the JSON lines that ``run.py --out FILE`` appends, one
per workload per invocation.  For a fair comparison run the two commits
alternately, ten times each, switching which side goes first, appending
to one file per side.  The i-th record of a workload in one file is
paired with the i-th in the other.

For every (workload, end-to-end metric) pair the verdict is:

* ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the parent's own spread (interquartile range over
  median) is wider than the bound, unless every change value beats
  every parent value;
* ``improved`` -- with at least ten pairs, the change wins at least nine
  tenths of them (ties count for neither) and the medians differ by more
  than the parent's interquartile range;
* ``unchanged`` -- otherwise.

With a single record per side, the values compared are that record's
per-repeat samples and no gain can be claimed.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List

#: Pairs needed before a gain may be claimed, and the share it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> Dict[str, List[dict]]:
    """Workload -> its records, in file order."""
    records: Dict[str, List[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            records.setdefault(record["workload"], []).append(record)
    return records


def _values(records: List[dict], metric: str) -> List[float]:
    if len(records) == 1:
        return list(records[0]["metrics"][metric]["samples"])
    return [record["metrics"][metric]["median"] for record in records]


def _iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: List[float], change: List[float], lower: bool, bound: float,
            pairs: int) -> str:
    """The verdict for one metric (see the module docstring)."""
    sign = 1.0 if lower else -1.0
    base = statistics.median(parent)
    delta = statistics.median(change) - base
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    all_better = all(better(c, p) for c in change for p in parent)
    if _iqr(parent) > bound * abs(base) and not all_better:
        return "unresolved"
    if sign * delta > bound * abs(base):
        return "worse"
    wins = sum(better(c, p) for c, p in zip(change[:pairs], parent[:pairs]))
    if (
        pairs >= MIN_PAIRS
        and wins >= WIN_SHARE * pairs
        and sign * delta < 0
        and abs(delta) > _iqr(parent)
    ):
        return "improved"
    return "unchanged"


def main(argv: List[str], benchmark: dict) -> int:
    """Print one verdict per (workload, metric); exit 1 if any is worse."""
    if len(argv) != 2:
        print("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
        return 2
    parent, change = load(Path(argv[0])), load(Path(argv[1]))
    worse = False
    for workload in [w["name"] for w in benchmark["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        p_recs, c_recs = parent[workload], change[workload]
        pairs = min(len(p_recs), len(c_recs)) if len(p_recs) > 1 else 0
        p_failed = sum(r["failed"] for r in p_recs)
        c_failed = sum(r["failed"] for r in c_recs)
        same = {r["fingerprint"] for r in p_recs} == {r["fingerprint"] for r in c_recs}
        print(
            f"== {workload}: {len(p_recs)} parent / {len(c_recs)} change records, "
            f"failed {p_failed} -> {c_failed}, fingerprints "
            + ("identical" if same else "DIFFER")
        )
        if c_failed > p_failed:
            worse = True
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            p_vals, c_vals = _values(p_recs, name), _values(c_recs, name)
            result = verdict(
                p_vals, c_vals, spec["better"] == "lower", spec["bound"], pairs
            )
            worse |= result == "worse"
            p_med, c_med = statistics.median(p_vals), statistics.median(c_vals)
            print(
                f"   {name:<14} {spec['unit']:<4} {p_med:>12.6g} -> {c_med:>12.6g} "
                f"({100.0 * (c_med - p_med) / p_med:+6.1f}%, bound "
                f"{100.0 * spec['bound']:.0f}%)  {result}"
            )
    return 1 if worse else 0
