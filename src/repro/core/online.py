"""Online (non-clairvoyant) variant of the subinterval scheduler.

The paper's algorithms are offline: all releases, deadlines, and execution
requirements are known up front.  In deployment, aperiodic tasks *arrive* —
the scheduler only learns a task at its release.  The natural online
adaptation (noted as easy to implement in practical systems, §VI-D) is
**re-planning**: at every release instant, rebuild the subinterval plan over
the currently-known unfinished work and execute it until the next arrival.

Because the continuous frequency range is unbounded, every re-plan is
feasible for whatever work remains, so the online scheduler inherits the
offline pipeline's guarantee that all deadlines are met — it just pays an
energy premium for its ignorance of the future.  The premium is measured by
the ``ablation_online`` experiment.

Two interchangeable engines drive the re-planning:

* ``engine="session"`` (default) — a single
  :class:`~repro.core.incremental.ScheduleSession` carried across arrival
  instants.  Each instant becomes a handful of deltas (retire finished
  tasks, :meth:`~repro.core.incremental.ScheduleSession.advance_to` the
  current time, admit the new arrivals) instead of a full pipeline rebuild.
* ``engine="rebuild"`` — the original full-batch re-plan at every release,
  kept verbatim as the equivalence oracle.

Both engines produce the same executed schedule (the session's plan is
bit-identical to a batch rebuild over the same rows; see
:mod:`repro.core.incremental`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from ..power.models import PolynomialPower
from .allocation import AllocationMethod
from .incremental import ScheduleSession
from .schedule import Schedule
from .scheduler import SubintervalScheduler
from .task import Task, TaskSet

__all__ = ["OnlineResult", "OnlineSubintervalScheduler"]

_EPS = 1e-9

OnlineEngine = Literal["session", "rebuild"]


@dataclass(frozen=True)
class OnlineResult:
    """Outcome of an online run.

    ``touched_subintervals`` / ``total_subintervals`` aggregate the delta
    cost accounting over the whole run: how many subinterval allocations
    were actually recomputed versus how many existed across all re-plans.
    The rebuild engine recomputes everything, so its ratio is 1.
    """

    schedule: Schedule
    replans: int
    touched_subintervals: int = 0
    total_subintervals: int = 0

    @cached_property
    def energy(self) -> float:
        """Total energy of the executed schedule (integrated once, cached)."""
        return self.schedule.total_energy()

    @property
    def touched_ratio(self) -> float:
        """Fraction of subinterval allocations recomputed across the run."""
        if self.total_subintervals == 0:
            return 1.0
        return self.touched_subintervals / self.total_subintervals


class OnlineSubintervalScheduler:
    """Event-driven re-planning wrapper around the offline pipeline.

    Parameters
    ----------
    tasks:
        The ground-truth task set (revealed to the scheduler release by
        release).
    m, power:
        Platform definition.
    method:
        Heavy-subinterval allocation policy used at every re-plan.
    engine:
        ``"session"`` re-plans by delta on a persistent
        :class:`~repro.core.incremental.ScheduleSession`; ``"rebuild"``
        re-runs the full batch pipeline at every release (the oracle).
    """

    def __init__(
        self,
        tasks: TaskSet,
        m: int,
        power: PolynomialPower,
        method: AllocationMethod = "der",
        engine: OnlineEngine = "session",
    ):
        if m < 1:
            raise ValueError("m must be >= 1")
        if engine not in ("session", "rebuild"):
            raise ValueError(f"unknown online engine {engine!r}")
        self.tasks = tasks
        self.m = int(m)
        self.power = power
        self.method: AllocationMethod = method
        self.engine: OnlineEngine = engine

    def run(self) -> OnlineResult:
        """Simulate the arrival process and return the executed schedule."""
        if self.engine == "rebuild":
            return self._run_rebuild()
        return self._run_session()

    # -- shared plumbing --------------------------------------------------------

    def _release_instants(self) -> np.ndarray:
        return np.unique(self.tasks.releases)

    @staticmethod
    def _execute_until(
        plan: tuple[np.ndarray, ...],
        horizon_end: float | None,
        executed: list[tuple[np.ndarray, ...]],
        remaining: np.ndarray,
    ) -> None:
        """Execute the plan's columns up to ``horizon_end``, clipping at it.

        ``plan`` is ``(task, core, start, end, frequency)`` in schedule
        order; the last arrival (``horizon_end is None``) runs it to
        completion.
        """
        task, core, start, end, freq = plan
        if horizon_end is not None:
            end = np.minimum(end, horizon_end)
            keep = (start < horizon_end - _EPS) & (end - start > _EPS)
            task, core, start, end, freq = (
                c[keep] for c in (task, core, start, end, freq)
            )
        executed.append((task, core, start, end, freq))
        # in schedule order, one segment at a time, as execution would
        np.subtract.at(remaining, task, freq * (end - start))

    def _finish(
        self,
        executed: list[tuple[np.ndarray, ...]],
        remaining: np.ndarray,
        replans: int,
        touched: int = 0,
        total: int = 0,
    ) -> OnlineResult:
        remaining = np.where(
            remaining < 1e-7 * np.maximum(self.tasks.works, 1.0), 0.0, remaining
        )
        if np.any(remaining > 0):
            leftover = {int(i): float(w) for i, w in enumerate(remaining) if w > 0}
            raise AssertionError(f"online run left work unfinished: {leftover}")
        columns = (np.concatenate(c) for c in zip(*executed))
        schedule = Schedule.from_columns(self.tasks, self.m, self.power, *columns)
        return OnlineResult(
            schedule=schedule,
            replans=replans,
            touched_subintervals=touched,
            total_subintervals=total,
        )

    # -- incremental engine -----------------------------------------------------

    def _run_session(self) -> OnlineResult:
        tasks = self.tasks
        n = len(tasks)
        remaining = tasks.works.copy()
        release_times = self._release_instants()
        executed: list[tuple[np.ndarray, ...]] = []
        replans = 0

        session = ScheduleSession(self.m, self.power, method=self.method)
        handles: dict[int, int] = {}  # global task index -> session handle
        order: list[int] = []  # global indices in session row order (ascending)

        for k, now in enumerate(release_times):
            now = float(now)
            horizon_end = (
                float(release_times[k + 1]) if k + 1 < len(release_times) else None
            )
            known = [
                i
                for i in range(n)
                if tasks.releases[i] <= now + _EPS and remaining[i] > _EPS
            ]
            known_set = set(known)

            # retire tasks that finished inside the last window *before*
            # advancing time — their deadlines may not be after ``now``
            for g in [g for g in order if g not in known_set]:
                session.complete_task(handles.pop(g))
                order.remove(g)

            if not known:
                continue

            for g in known:
                if float(tasks.deadlines[g]) <= now + _EPS:
                    raise AssertionError(
                        f"task {g} has remaining work past its deadline (bug)"
                    )

            # re-anchor the carried-over tasks to ``now`` with their
            # remaining work — the delta analogue of rebuilding over
            # Task(now, D_i, remaining_i)
            if not session.is_empty:
                session.advance_to(
                    now, works={handles[g]: float(remaining[g]) for g in order}
                )

            # admit this instant's arrivals, preserving ascending original
            # index as the row order (bit-exactness against the batch
            # oracle requires identical row order)
            for g in known:
                if g not in handles:
                    idx = int(np.searchsorted(np.asarray(order), g))
                    handles[g] = session.add_task(
                        Task(now, float(tasks.deadlines[g]), float(remaining[g])),
                        index=idx,
                    )
                    order.insert(idx, g)
            replans += 1

            task, *rest = session.final_columns(before=horizon_end)
            plan = (np.asarray(order, dtype=np.int64)[task], *rest)
            self._execute_until(plan, horizon_end, executed, remaining)

        return self._finish(
            executed,
            remaining,
            replans,
            touched=session.touched_columns,
            total=session.total_columns,
        )

    # -- full-rebuild engine (equivalence oracle) -------------------------------

    def _run_rebuild(self) -> OnlineResult:
        tasks = self.tasks
        n = len(tasks)
        remaining = tasks.works.copy()
        release_times = self._release_instants()
        executed: list[tuple[np.ndarray, ...]] = []
        replans = 0
        columns = 0

        for k, now in enumerate(release_times):
            horizon_end = (
                float(release_times[k + 1]) if k + 1 < len(release_times) else None
            )
            known = [
                i
                for i in range(n)
                if tasks.releases[i] <= now + _EPS and remaining[i] > _EPS
            ]
            if not known:
                continue

            plan, n_cols = self._replan(known, remaining, float(now))
            replans += 1
            columns += n_cols
            self._execute_until(plan, horizon_end, executed, remaining)

        return self._finish(
            executed, remaining, replans, touched=columns, total=columns
        )

    def _replan(
        self, known: list[int], remaining: np.ndarray, now: float
    ) -> tuple[tuple[np.ndarray, ...], int]:
        """Offline-plan the remaining work of the known tasks from ``now``."""
        sub_tasks = []
        id_map: list[int] = []
        for i in known:
            deadline = float(self.tasks.deadlines[i])
            if deadline <= now + _EPS:
                raise AssertionError(
                    f"task {i} has remaining work past its deadline (bug)"
                )
            sub_tasks.append(Task(now, deadline, float(remaining[i])))
            id_map.append(i)
        scheduler = SubintervalScheduler(TaskSet(sub_tasks), self.m, self.power)
        s = scheduler.final(self.method).schedule
        plan = (np.asarray(id_map)[s.task], s.core, s.start, s.end, s.frequency)
        return plan, len(scheduler.timeline)
