"""SchedSanitizer: opt-in invariant checking for the simulator.

Three layers, all zero-cost when off (nothing here is imported into a hot
path and the kernel is never wrapped unless a sanitizer is attached):

* :mod:`repro.sanitize.invariants` -- :class:`SchedSanitizer`, an online
  checker that wraps the kernel's transition points (dispatch, preempt,
  block, wake, exit, enqueue, dequeue) and verifies scheduling invariants
  as the simulation runs, plus the kernel's and the control server's
  incremental structures against from-scratch recomputation.
* :mod:`repro.sanitize.lint` -- :func:`lint_trace`, a post-hoc pass that
  replays a :class:`~repro.sim.trace.TraceLog` and cross-checks causality
  (matching suspend/resume pairs, dispatches landing on idle processors,
  sane server decisions).
* :mod:`repro.sanitize.oracle` -- a differential harness running the
  epoch-normalized lazy-decay scheduler against a reference O(n) rescan,
  and the fused event loop against the plain one (which lives there),
  asserting identical dispatch traces.  Imported on demand (``from
  repro.sanitize import oracle``); it pulls in the workload runner, which
  the other two layers deliberately do not.
  :mod:`repro.sanitize.reference` (the full-table-scan control server) is
  imported on demand too.

Enable with ``run_scenario(..., sanitize="strict")`` (first violation
raises) or ``sanitize="record"`` (accumulate violations, warn with a
:class:`SanitizerWarning` per violation, and keep running),
with ``Runs(sanitize=...)`` for a sweep, or with the ``--sanitize`` flag of
``python -m repro.experiments``.
"""

from repro.sanitize.invariants import (
    SanitizerError,
    SanitizerWarning,
    SchedSanitizer,
    Violation,
)
from repro.sanitize.lint import LintIssue, LintReport, lint_trace

__all__ = [
    "SanitizerError",
    "SanitizerWarning",
    "SchedSanitizer",
    "Violation",
    "LintIssue",
    "LintReport",
    "lint_trace",
]
