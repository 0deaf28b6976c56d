"""Reference validator: the per-segment loop form of §III-C's checks.

:func:`repro.sim.validate.validate_schedule` checks a schedule with array
operations over its columns.  This module keeps the straightforward loop
over :class:`~repro.core.schedule.Segment` records — one scan per core and
per task — as the oracle the vectorized validator is compared against.
"""

from __future__ import annotations

from repro.core.schedule import Schedule
from repro.sim.validate import Violation, ViolationKind


def _overlap_violations(
    items: list, key: str, kind: ViolationKind, tol: float
) -> list[Violation]:
    """Detect pairwise overlaps within a pre-grouped, time-sorted list."""
    out: list[Violation] = []
    for a, b in zip(items, items[1:]):
        if b.start < a.end - tol:
            out.append(
                Violation(
                    kind=kind,
                    detail=(
                        f"{key} segments [{a.start:g},{a.end:g}] (task {a.task_id}, "
                        f"core {a.core}) and [{b.start:g},{b.end:g}] (task "
                        f"{b.task_id}, core {b.core}) overlap"
                    ),
                    task_id=a.task_id,
                    core=a.core,
                )
            )
    return out


def loop_validate_schedule(
    schedule: Schedule,
    tol: float = 1e-9,
    check_completion: bool = True,
) -> list[Violation]:
    """Return all invariant violations of ``schedule`` (empty list = valid)."""
    violations: list[Violation] = []
    tasks = schedule.tasks

    # 1. window containment
    for s in schedule:
        r = tasks.releases[s.task_id]
        d = tasks.deadlines[s.task_id]
        if s.start < r - tol or s.end > d + tol:
            violations.append(
                Violation(
                    kind=ViolationKind.OUTSIDE_WINDOW,
                    detail=(
                        f"task {s.task_id} segment [{s.start:g},{s.end:g}] outside "
                        f"window [{r:g},{d:g}]"
                    ),
                    task_id=s.task_id,
                    core=s.core,
                )
            )

    # 2. per-core conflicts
    for core in range(schedule.n_cores):
        segs = sorted(schedule.segments_of_core(core), key=lambda s: s.start)
        violations.extend(
            _overlap_violations(segs, f"core {core}", ViolationKind.CORE_CONFLICT, tol)
        )

    # 3. intra-task parallelism
    for tid in range(len(tasks)):
        segs = sorted(schedule.segments_of_task(tid), key=lambda s: s.start)
        violations.extend(
            _overlap_violations(segs, f"task {tid}", ViolationKind.TASK_PARALLEL, tol)
        )

    # 4. work completion
    if check_completion:
        done = [0.0] * len(tasks)
        for s in schedule:
            done[s.task_id] += s.work
        for tid in range(len(tasks)):
            need = tasks.works[tid]
            if abs(done[tid] - need) > tol * max(need, 1.0) + tol:
                violations.append(
                    Violation(
                        kind=ViolationKind.WORK_MISMATCH,
                        detail=(
                            f"task {tid} completed {done[tid]:g} of required "
                            f"{need:g}"
                        ),
                        task_id=tid,
                    )
                )
    return violations
