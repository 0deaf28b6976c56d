"""Discrete-frequency (practical processor) evaluation — §VI-C machinery.

Planning happens on the fitted continuous model; execution happens on the
finite menu of operating points.  :func:`discrete_evaluation` converts any
planned schedule to its practical counterpart: each segment's frequency is
rounded **up** to the next operating point (preserving deadlines), work is
re-timed at the chosen point, and energy is charged at the *measured* table
power.  A task whose plan demands more than ``f_max`` cannot meet its
deadline on this hardware; it is clamped to ``f_max`` and flagged as a miss
(the paper reports miss probabilities per scheduling method).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.metrics import NecSample
from ..core.schedule import Schedule
from ..core.scheduler import SubintervalScheduler
from ..core.task import TaskSet
from ..optimal import solve_optimal
from ..power.discrete import DiscreteFrequencySet

__all__ = ["DiscreteEvaluation", "discrete_evaluation", "evaluate_practical"]


@dataclass(frozen=True)
class DiscreteEvaluation:
    """A planned schedule's outcome on discrete-frequency hardware."""

    energy: float
    missed_tasks: tuple[int, ...]

    @property
    def missed(self) -> bool:
        """True when at least one task cannot meet its deadline."""
        return bool(self.missed_tasks)


def discrete_evaluation(
    schedule: Schedule, fset: DiscreteFrequencySet
) -> DiscreteEvaluation:
    """Quantize a planned schedule onto operating points and re-account energy.

    Per segment: work ``w = f_plan·Δ`` executes at the rounded-up point
    ``f_k`` for time ``w/f_k`` and energy ``p_k·w/f_k``.  Since ``f_k ≥
    f_plan``, every execution still fits inside its planned slot, so the
    quantized schedule inherits the plan's feasibility — except where the
    plan exceeds ``f_max``, which is a deadline miss (executed at ``f_max``
    and flagged).
    """
    if len(schedule) == 0:
        return DiscreteEvaluation(energy=0.0, missed_tasks=())
    freqs = schedule.frequency
    works = freqs * schedule.durations
    task_ids = schedule.task
    q = fset.quantize_up(freqs)
    chosen = q.frequencies.copy()
    chosen[~q.feasible] = fset.f_max
    powers = np.asarray(fset.power(chosen))
    energy = float(np.sum(powers * works / chosen))
    missed = tuple(sorted({int(t) for t in task_ids[~q.feasible]}))
    return DiscreteEvaluation(energy=energy, missed_tasks=missed)


def evaluate_practical(
    tasks: TaskSet, m: int, fset: DiscreteFrequencySet
) -> NecSample:
    """Fig. 11's per-replication evaluation on a practical processor.

    NEC values are normalized by the *continuous-fit* optimal energy (the
    planner's reference), so values reflect both heuristic loss and
    quantization overhead.  ``extra`` carries one 0/1 miss flag per series.
    """
    if fset.continuous_fit is None:
        raise ValueError("fset must carry a continuous fit for planning")
    power = fset.continuous_fit
    opt = solve_optimal(tasks, m, power)
    sch = SubintervalScheduler(tasks, m, power)

    results = sch.run_all()
    values: dict[str, float] = {}
    extra: dict[str, float] = {}

    # ideal reference, quantized the same way for comparability
    ideal_freqs = sch.ideal.frequencies
    q = fset.quantize_up(ideal_freqs)
    chosen = q.frequencies.copy()
    chosen[~q.feasible] = fset.f_max
    ideal_energy = float(
        np.sum(np.asarray(fset.power(chosen)) * tasks.works / chosen)
    )
    values["Idl"] = ideal_energy / opt.energy
    extra["miss_Idl"] = float(bool((~q.feasible).any()))

    for kind, res in results.items():
        ev = discrete_evaluation(res.schedule, fset)
        values[kind] = ev.energy / opt.energy
        extra[f"miss_{kind}"] = float(ev.missed)

    return NecSample(optimal_energy=opt.energy, values=values, extra=extra)
