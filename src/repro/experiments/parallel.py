"""How a sweep's runs execute: the :class:`Runs` record.

Every figure and ablation is a sweep of independent, deterministic
simulations -- a perfect fan-out.  :meth:`Runs.map` runs sweep cells
across worker processes (simulations are CPU-bound, so threads would gain
nothing under the GIL) while keeping the results in input order, which
together with the per-cell determinism of the simulator makes the parallel
path bit-identical to the serial one.

A :class:`Runs` holds the only two execution settings: the worker count
and the sanitizer mode.  The command-line front ends build one from their
``--jobs`` and ``--sanitize`` flags; library callers pass one (the default
``Runs()`` uses every CPU, unchecked).  Each cell receives the record, so
the mode reaches pool workers as an argument.

The worker count is clamped to the number of sweep cells, and anything
that prevents multiprocessing (a sandbox that forbids fork, a broken
worker) degrades to the plain serial loop rather than failing the
experiment -- cells are pure functions, so re-running them is always safe.

Cells must be picklable: module-level functions taking ``(runs, item)``
with a plain-data *item* and returning plain data (no ``ScenarioResult``,
whose scenario holds closures).  Each experiment module defines its own
cell functions.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, List, Optional, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class Runs:
    """How runs execute: *jobs* sweep workers (``None``: every CPU) and
    the *sanitize* mode of each run (``None``: off, ``"strict"``: raise on
    the first invariant violation, ``"record"``: tally and keep going)."""

    jobs: Optional[int] = None
    sanitize: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"Runs.jobs must be >= 1 or None, got {self.jobs!r}")
        if self.sanitize not in (None, "strict", "record"):
            raise ValueError(
                "Runs.sanitize must be None, 'strict' or 'record', "
                f"got {self.sanitize!r}"
            )

    def map(self, cell: Callable[["Runs", _T], _R], items: Iterable[_T]) -> List[_R]:
        """``[cell(self, item) for item in items]``, possibly across
        processes; order-preserving.

        With one worker (``jobs=1``, a single-CPU host, or a single item)
        this is exactly the serial loop -- no pool, no pickling.  Falls
        back to that loop if the pool cannot be created or breaks
        (sandboxed environments, killed workers).  Exceptions raised by
        *cell* itself propagate unchanged in both modes.
        """
        todo = list(items)
        run = partial(cell, self)
        workers = min(self.jobs or os.cpu_count() or 1, len(todo))
        if workers <= 1:
            return [run(item) for item in todo]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(run, todo))
        except (BrokenProcessPool, OSError):
            # Pool creation or a worker died (fork forbidden, OOM-killed, ...):
            # cells are pure, so redo the whole sweep serially.
            return [run(item) for item in todo]
