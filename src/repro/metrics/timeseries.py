"""Step-function time series.

Figure 5 plots runnable processes over time, in total and per
application.  The kernel's runnable census writes those step series, one
O(1) append per change (see
:meth:`repro.kernel.Kernel.detach_runnable_series`).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple


class StepSeries:
    """A right-continuous step function sampled at change points."""

    def __init__(self, points: Optional[Iterable[Tuple[int, float]]] = None) -> None:
        self._points: List[Tuple[int, float]] = []
        if points is not None:
            for time, value in points:
                self.append(time, value)

    def append(self, time: int, value: float) -> None:
        """Record that the series takes *value* from *time* onward."""
        if self._points and time < self._points[-1][0]:
            raise ValueError(
                f"non-monotonic time {time} after {self._points[-1][0]}"
            )
        if self._points and self._points[-1][0] == time:
            self._points[-1] = (time, value)
        else:
            self._points.append((time, value))

    @property
    def points(self) -> List[Tuple[int, float]]:
        return list(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def value_at(self, time: int) -> float:
        """Series value at *time* (0 before the first point)."""
        value = 0.0
        for point_time, point_value in self._points:
            if point_time > time:
                break
            value = point_value
        return value

    def sample(self, times: Iterable[int]) -> List[float]:
        """Values at each of *times* (each resolved independently)."""
        return [self.value_at(t) for t in times]

    def maximum(self) -> float:
        """Largest value the series ever takes (0 for an empty series)."""
        return max((v for _, v in self._points), default=0.0)

    def time_average(self, start: int, end: int) -> float:
        """Mean value over ``[start, end)`` weighted by duration."""
        if end <= start:
            raise ValueError("end must exceed start")
        total = 0.0
        current = self.value_at(start)
        last_time = start
        for point_time, point_value in self._points:
            if point_time <= start:
                continue
            if point_time >= end:
                break
            total += current * (point_time - last_time)
            current = point_value
            last_time = point_time
        total += current * (end - last_time)
        return total / (end - start)
