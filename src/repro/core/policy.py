"""Processor partitioning policy (the server's decision rule, Section 5).

"[The server] first determines the number of runnable processes not
belonging to controllable applications.  It then subtracts this from the
number of processors in the system, to determine the number of processors
available ...  It then partitions these processors among the applications
fairly ...  Special provisions are made so that an application will not be
'assigned' more processors than it can use ...  It also ensures that each
application has at least one runnable process to avoid starvation."

The fair division is a water-filling allocation: applications are
considered in increasing order of their process-count cap, each taking
``min(cap, remaining // apps_left)`` (but at least one), so capacity an
application cannot use flows to the applications that can.  The worked
example of Section 5 (8 processors, 2 uncontrollable processes, three
applications with 2, 6 and 6 processes) yields 2/2/2, exactly as the paper
describes.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple


def partition_processors(
    n_processors: int,
    uncontrolled_runnable: int,
    app_totals: Mapping[str, int],
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, int]:
    """Compute per-application runnable-process targets.

    Args:
        n_processors: processors in the machine.
        uncontrolled_runnable: runnable processes of uncontrollable
            applications (subtracted from the pool).
        app_totals: total (alive) process count per controllable
            application -- the cap on what each can use.
        weights: optional relative priorities; equal weights reproduce the
            paper's policy ("given that all three have the same priority,
            each of them gets two processors").  Every key must name an
            application in *app_totals* (unknown names raise
            ``ValueError``); applications without a weight default to 1.0.

    Returns:
        target runnable-process count per application; every application
        gets at least 1 (starvation avoidance) and at most its total.
    """
    if n_processors < 1:
        raise ValueError("n_processors must be >= 1")
    if uncontrolled_runnable < 0:
        raise ValueError("uncontrolled_runnable must be >= 0")
    for app_id, total in app_totals.items():
        if total < 1:
            raise ValueError(f"application {app_id!r} has no processes")
    if weights is not None:
        unknown = sorted(set(weights) - set(app_totals))
        if unknown:
            # A weight naming no application is a caller bug (a typo'd app
            # id would otherwise silently fall back to equal shares).
            # Callers with long-lived priority tables filter first -- see
            # repro.core.allocation.WaterFillPolicy.
            raise ValueError(
                f"weights name unknown application(s): {', '.join(map(repr, unknown))}"
            )
    if not app_totals:
        return {}

    available = max(n_processors - uncontrolled_runnable, 0)
    if weights is None:
        weight_of = {app_id: 1.0 for app_id in app_totals}
    else:
        weight_of = {app_id: float(weights.get(app_id, 1.0)) for app_id in app_totals}
        for app_id, weight in weight_of.items():
            if weight <= 0:
                raise ValueError(f"weight for {app_id!r} must be positive")

    # Water-filling: visit applications in increasing cap order (per unit
    # of weight) so unused share flows to larger applications; ties break
    # on the application id for determinism.
    order = sorted(
        app_totals, key=lambda a: (app_totals[a] / weight_of[a], a)
    )
    targets: Dict[str, int] = {}
    remaining = available
    weight_left = sum(weight_of.values())
    for app_id in order:
        cap = app_totals[app_id]
        fair = int(remaining * weight_of[app_id] / weight_left) if weight_left else 0
        give = min(cap, max(1, fair))
        targets[app_id] = give
        remaining = max(remaining - give, 0)
        weight_left -= weight_of[app_id]

    # Distribute any leftover (from integer truncation) to applications
    # still below their cap, smallest allocation first.
    while remaining > 0:
        candidates = [a for a in order if targets[a] < app_totals[a]]
        if not candidates:
            break
        candidates.sort(key=lambda a: (targets[a] / weight_of[a], a))
        targets[candidates[0]] += 1
        remaining -= 1
    return targets


class IncrementalWaterFiller:
    """Equal-weight water-filling against a *persistent* sorted-cap
    structure, so one application arriving, leaving, or changing its
    process count costs O(log C) instead of re-partitioning the world.

    :func:`partition_processors` recomputes the whole allocation from a
    fresh snapshot every round -- O(n log n) per scan, which the paper's
    16-processor machine never notices but a 1024-CPU / 10k-application
    deployment pays on every control-server interval.  This structure
    maintains the same allocation incrementally:

    * a Fenwick (binary indexed) tree over cap *values* holds, for every
      process-count cap ``c``, how many applications sit at ``c`` and the
      sum of their caps.  :meth:`set_cap` / :meth:`remove` are O(log C)
      where ``C`` is the largest cap ever seen;
    * :meth:`targets` finds the water level ``L`` -- the largest level
      with ``sum(min(cap_i, L)) <= available`` -- by binary search over
      Fenwick prefix sums (O(log^2 C), no sorting), then hands the
      truncation remainder to the lexicographically-last applications
      above the level, which is provably where the batch loop's floor
      arithmetic deposits it.

    The result is **bit-identical** to ``partition_processors(...,
    weights=None)`` on the same inputs; ``tests/test_incremental_filler.py``
    drives the two against each other over randomized churn (the
    incremental-vs-batch oracle), and the control server re-checks every
    round under the sanitizer.  Weighted allocations keep the batch
    path: their water levels move in weight-space where the integer cap
    multiset no longer sorts the visit order.
    """

    __slots__ = ("_caps", "_ids_by_cap", "_cnt", "_sum", "_limit", "_n", "_total")

    def __init__(self) -> None:
        self._caps: Dict[str, int] = {}
        #: cap value -> sorted application ids at that cap (bisect-managed).
        self._ids_by_cap: Dict[int, list] = {}
        # 1-based Fenwick trees over cap values.
        self._limit = 1
        self._cnt = [0, 0]
        self._sum = [0, 0]
        self._n = 0
        self._total = 0

    def __len__(self) -> int:
        return self._n

    def __contains__(self, app_id: str) -> bool:
        return app_id in self._caps

    def caps(self) -> Dict[str, int]:
        """Current cap per application (a copy; oracle/diagnostic use)."""
        return dict(self._caps)

    # -- Fenwick plumbing ------------------------------------------------

    def _grow(self, cap: int) -> None:
        limit = self._limit
        while limit < cap:
            limit *= 2
        self._limit = limit
        self._cnt = cnt = [0] * (limit + 1)
        self._sum = sm = [0] * (limit + 1)
        for value, ids in self._ids_by_cap.items():
            k = len(ids)
            if not k:
                continue
            i = value
            dc, ds = k, value * k
            while i <= limit:
                cnt[i] += dc
                sm[i] += ds
                i += i & -i

    def _add(self, cap: int, dc: int, ds: int) -> None:
        if cap > self._limit:
            self._grow(cap)
        cnt, sm, limit = self._cnt, self._sum, self._limit
        i = cap
        while i <= limit:
            cnt[i] += dc
            sm[i] += ds
            i += i & -i

    def _prefix(self, cap: int) -> Tuple[int, int]:
        """(applications, cap mass) over cap values ``<= cap``."""
        cnt, sm = self._cnt, self._sum
        i = cap if cap < self._limit else self._limit
        c = s = 0
        while i > 0:
            c += cnt[i]
            s += sm[i]
            i -= i & -i
        return c, s

    # -- Mutations (the O(log) hot path) ---------------------------------

    def set_cap(self, app_id: str, cap: int) -> None:
        """Insert *app_id* or move it to a new process-count cap."""
        if cap < 1:
            raise ValueError(f"application {app_id!r} has no processes")
        from bisect import insort

        old = self._caps.get(app_id)
        if old == cap:
            return
        if old is not None:
            ids = self._ids_by_cap[old]
            ids.remove(app_id)
            self._add(old, -1, -old)
            self._n -= 1
            self._total -= old
        self._caps[app_id] = cap
        # Fenwick first: _add may grow the tree, and _grow rebuilds from
        # the id buckets -- the new entry must not be in them yet or it
        # would be counted twice.
        self._add(cap, 1, cap)
        bucket = self._ids_by_cap.get(cap)
        if bucket is None:
            self._ids_by_cap[cap] = [app_id]
        else:
            insort(bucket, app_id)
        self._n += 1
        self._total += cap

    def remove(self, app_id: str) -> bool:
        """Forget *app_id*; returns False if it was not tracked."""
        cap = self._caps.pop(app_id, None)
        if cap is None:
            return False
        self._ids_by_cap[cap].remove(app_id)
        self._add(cap, -1, -cap)
        self._n -= 1
        self._total -= cap
        return True

    # -- The allocation --------------------------------------------------

    def level(self, available: int) -> int:
        """The water level for *available* processors: the largest ``L >= 1``
        with ``sum(min(cap_i, L)) <= available``, or 0 when even one
        processor per application overcommits (the starvation floor)."""
        if self._n == 0 or available < self._n:
            return 0
        lo, hi = 1, self._limit
        while lo < hi:  # invariant: S(lo) <= available
            mid = (lo + hi + 1) // 2
            c, s = self._prefix(mid)
            if s + mid * (self._n - c) <= available:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def targets(self, n_processors: int, uncontrolled_runnable: int) -> Dict[str, int]:
        """Per-application targets, identical to ``partition_processors``
        with equal weights on the same (caps, pool) snapshot."""
        if self._n == 0:
            return {}
        available = n_processors - uncontrolled_runnable
        if available < 0:
            available = 0
        caps = self._caps
        level = self.level(available)
        if level == 0:
            # Overcommitted: the >=1 floor hands every application exactly
            # one (caps are >= 1 by construction).
            return {app_id: 1 for app_id in caps}
        c_at, s_at = self._prefix(level)
        above = self._n - c_at
        extras = available - (s_at + level * above)
        bonus_cap = 0
        bonus_ids: Tuple[str, ...] = ()
        if extras > 0 and above > 0:
            # The batch loop's floor-division remainders accrete on the
            # *last* applications in ascending (cap, id) order.  Find the
            # smallest threshold T whose strictly-above population fits in
            # the remainder; full cap-classes above T all take +1, and the
            # partial class at T contributes its largest ids.
            lo, hi = level, self._limit
            while lo < hi:  # find min T with count(cap > T) <= extras
                mid = (lo + hi) // 2
                if self._n - self._prefix(mid)[0] <= extras:
                    hi = mid
                else:
                    lo = mid + 1
            bonus_cap = lo
            partial = extras - (self._n - self._prefix(lo)[0])
            if partial > 0:
                ids = self._ids_by_cap[lo]
                bonus_ids = tuple(ids[len(ids) - partial :])
        out: Dict[str, int] = {}
        bonus_set = set(bonus_ids)
        for app_id, cap in caps.items():
            if cap <= level:
                out[app_id] = cap
            elif cap > bonus_cap and bonus_cap:
                out[app_id] = level + 1
            elif cap == bonus_cap and app_id in bonus_set:
                out[app_id] = level + 1
            else:
                out[app_id] = level
        return out
