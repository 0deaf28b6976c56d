"""Schedule validation: every invariant of problem definition §III-C.

:func:`validate_schedule` checks a concrete :class:`~repro.core.schedule.Schedule`
against the constraints the optimization problem imposes:

1. every segment lies inside its task's ``[R_i, D_i]`` window,
2. no core executes two segments simultaneously,
3. no task executes on two cores simultaneously (``Σ_i exc(i,t) ≤ m`` is then
   implied by (2) plus the core count),
4. every task's completed work equals its requirement ``C_i``.

Violations are returned as structured records (or raised in ``strict``
mode), so tests can assert on specific failure categories and the failure
injection suite can confirm each detector fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..core.schedule import Schedule

__all__ = ["ViolationKind", "Violation", "validate_schedule", "assert_valid"]


class ViolationKind(Enum):
    """Categories of schedule invariant violations."""

    OUTSIDE_WINDOW = "segment outside task window"
    CORE_CONFLICT = "two segments overlap on one core"
    TASK_PARALLEL = "task executes on two cores at once"
    WORK_MISMATCH = "completed work != requirement"


@dataclass(frozen=True, slots=True)
class Violation:
    """One detected violation with enough context to debug it."""

    kind: ViolationKind
    detail: str
    task_id: int | None = None
    core: int | None = None

    def __str__(self) -> str:
        return f"[{self.kind.name}] {self.detail}"


def _overlap_violations(
    schedule: Schedule, key: str, kind: ViolationKind, tol: float
) -> list[Violation]:
    """Overlaps between time-consecutive segments sharing a ``key`` column.

    One stable lexsort by (``key``, start) lines up each group's segments
    in time order; a pair overlaps when the later one starts before the
    earlier one ends (less ``tol``).
    """
    group = getattr(schedule, key)
    order = np.lexsort((schedule.start, group))
    g = group[order]
    task, core = schedule.task[order], schedule.core[order]
    start, end = schedule.start[order], schedule.end[order]
    hits = np.flatnonzero((g[1:] == g[:-1]) & (start[1:] < end[:-1] - tol))
    out: list[Violation] = []
    for a in hits.tolist():
        b = a + 1
        out.append(
            Violation(
                kind=kind,
                detail=(
                    f"{key} {g[a]} segments [{start[a]:g},{end[a]:g}] (task "
                    f"{task[a]}, core {core[a]}) and [{start[b]:g},{end[b]:g}] "
                    f"(task {task[b]}, core {core[b]}) overlap"
                ),
                task_id=int(task[a]),
                core=int(core[a]),
            )
        )
    return out


def validate_schedule(
    schedule: Schedule,
    tol: float = 1e-9,
    check_completion: bool = True,
) -> list[Violation]:
    """Return all invariant violations of ``schedule`` (empty list = valid).

    Every check is an array operation over the schedule's columns; Python
    only runs per violation found, to format it.
    """
    violations: list[Violation] = []
    tasks = schedule.tasks
    task, core = schedule.task, schedule.core
    start, end = schedule.start, schedule.end

    # 1. window containment
    r = tasks.releases[task]
    d = tasks.deadlines[task]
    for k in np.flatnonzero((start < r - tol) | (end > d + tol)).tolist():
        violations.append(
            Violation(
                kind=ViolationKind.OUTSIDE_WINDOW,
                detail=(
                    f"task {task[k]} segment [{start[k]:g},{end[k]:g}] outside "
                    f"window [{r[k]:g},{d[k]:g}]"
                ),
                task_id=int(task[k]),
                core=int(core[k]),
            )
        )

    # 2. per-core conflicts
    violations.extend(
        _overlap_violations(schedule, "core", ViolationKind.CORE_CONFLICT, tol)
    )
    # 3. intra-task parallelism
    violations.extend(
        _overlap_violations(schedule, "task", ViolationKind.TASK_PARALLEL, tol)
    )

    # 4. work completion
    if check_completion:
        done = schedule.work_completed()
        need = tasks.works
        short = np.abs(done - need) > tol * np.maximum(need, 1.0) + tol
        for tid in np.flatnonzero(short).tolist():
            violations.append(
                Violation(
                    kind=ViolationKind.WORK_MISMATCH,
                    detail=(
                        f"task {tid} completed {done[tid]:g} of required "
                        f"{need[tid]:g}"
                    ),
                    task_id=tid,
                )
            )
    return violations


def assert_valid(schedule: Schedule, tol: float = 1e-9, check_completion: bool = True) -> None:
    """Raise ``AssertionError`` listing every violation, if any."""
    violations = validate_schedule(schedule, tol=tol, check_completion=check_completion)
    if violations:
        summary = "\n  ".join(str(v) for v in violations[:20])
        extra = "" if len(violations) <= 20 else f"\n  … and {len(violations) - 20} more"
        raise AssertionError(
            f"schedule has {len(violations)} invariant violation(s):\n  {summary}{extra}"
        )
