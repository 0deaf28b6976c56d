"""Exact piecewise-constant power profiles of schedules.

Between consecutive segment boundaries the set of active (core, frequency)
pairs is constant, so total power ``P(t)`` is a step function.  This module
computes it exactly (no sampling), provides the integral cross-check
``∫P dt = total energy``, peak/average power, and an SVG step-chart export —
the observable a lab power meter would record when replaying a schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.schedule import Schedule

__all__ = ["PowerTrace", "power_trace"]


@dataclass(frozen=True)
class PowerTrace:
    """A step function ``P(t)``: power ``levels[k]`` on ``[times[k], times[k+1])``."""

    times: np.ndarray  # (K+1,) breakpoints
    levels: np.ndarray  # (K,) total power per piece

    def __post_init__(self) -> None:
        if len(self.times) != len(self.levels) + 1:
            raise ValueError("times must have one more entry than levels")
        self.times.setflags(write=False)
        self.levels.setflags(write=False)

    @property
    def energy(self) -> float:
        """``∫ P dt`` — must equal the schedule's energy exactly."""
        return float(np.sum(self.levels * np.diff(self.times)))

    @property
    def peak_power(self) -> float:
        """Maximum instantaneous power."""
        return float(self.levels.max()) if len(self.levels) else 0.0

    @property
    def average_power(self) -> float:
        """Energy over the trace span."""
        span = self.times[-1] - self.times[0]
        return self.energy / span if span > 0 else 0.0

    def at(self, t: float) -> float:
        """Power at time ``t`` (right-continuous; 0 outside the span)."""
        if t < self.times[0] or t >= self.times[-1]:
            return 0.0
        k = int(np.searchsorted(self.times, t, side="right") - 1)
        return float(self.levels[min(k, len(self.levels) - 1)])

    def to_svg(self, title: str = "", width: int = 640, height: int = 300) -> str:
        """Render the step profile as an SVG chart."""
        from ..analysis.svg import line_chart

        # duplicate points to draw true steps with a line chart
        xs: list[float] = []
        ys: list[float] = []
        for k, p in enumerate(self.levels):
            xs.extend([float(self.times[k]), float(self.times[k + 1])])
            ys.extend([float(p), float(p)])
        return line_chart(
            xs,
            {"P(t)": ys},
            title=title or "power profile",
            x_label="time",
            y_label="total power",
            width=width,
            height=height,
        )


def power_trace(schedule: Schedule) -> PowerTrace:
    """Compute the exact total-power step function of a schedule."""
    if len(schedule) == 0:
        lo, _ = schedule.tasks.horizon
        return PowerTrace(times=np.array([lo, lo]), levels=np.array([0.0]))

    starts, ends = schedule.start, schedule.end
    boundaries = np.unique(np.concatenate([starts, ends]))
    powers = np.asarray(schedule.power.power(schedule.frequency), dtype=np.float64)

    levels = np.zeros(len(boundaries) - 1)
    mids = 0.5 * (boundaries[:-1] + boundaries[1:])
    # piece k is covered by segment s iff start <= mid < end
    for k, t in enumerate(mids):
        active = (starts <= t) & (t < ends)
        levels[k] = powers[active].sum()
    return PowerTrace(times=boundaries, levels=levels)
