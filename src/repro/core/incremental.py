"""Incremental scheduling core: delta re-planning without full rebuilds.

The batch pipeline (§IV-§V) recomputes everything — event sort, coverage,
allocation, packing, frequencies — from scratch for every task-set change.
But the subinterval structure is *local*: one arrival inserts at most two
boundaries and perturbs only the subintervals its window ``[R_i, D_i]``
intersects; one departure removes at most two boundaries and merges their
neighbours.  Everything outside that window keeps its exact allocation,
because the per-column assembly (:func:`repro.core.allocation.assemble_columns`)
treats columns independently and a non-covering task contributes an exact
``0.0`` row to every column reduction.

:class:`ScheduleSession` exploits this: it holds the task rows, the current
boundaries, and the allocation matrix ``x`` across deltas and applies

* :meth:`~ScheduleSession.add_task` — splice ≤2 boundaries in, recompute
  only the columns inside the perturbed window, splice the rest through;
* :meth:`~ScheduleSession.remove_task` / :meth:`~ScheduleSession.complete_task`
  — drop ≤2 boundaries, merge neighbours, recompute the merged window;
* :meth:`~ScheduleSession.advance_to` — re-anchor released tasks to ``t``
  (the online re-planning step), copying every column whose coverage and
  weights provably did not change.

The session's state after every delta is *bit-identical* to a full batch
:class:`~repro.core.scheduler.SubintervalScheduler` rebuild over the same
task rows (the batch path stays in the tree as the equivalence oracle —
``python -m repro.core.incremental_smoke`` compares the two on random
event streams).  Materializing Python objects (``TaskSet``, ``Timeline``
subintervals, ``Schedule`` segments) is deferred to
:meth:`~ScheduleSession.result` / :meth:`~ScheduleSession.final_columns`,
which is where the batch path spends most of its time on large instances.

Observability: every delta emits a ``session.delta`` span (when a trace is
being captured) recording the operation, the number of subintervals
recomputed, and the total — the service surfaces these as the
``stage_ms:session.delta`` histogram.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from ..obs import context as obs
from ..power.models import PolynomialPower
from .allocation import AllocationPlan, assemble_columns
from .frequency import FrequencyAssignment, refine_frequencies
from .intervals import Timeline
from .schedule import Segment
from .scheduler import SchedulingResult, SubintervalScheduler, cut_slots
from .task import Task, TaskSet
from .wrap_schedule import pack_matrix_flat

__all__ = ["DeltaStats", "ScheduleSession"]

#: Allocation policies the incremental engine supports (the vectorized batch
#: methods; the ``*_scalar`` reference loops stay batch-only oracles).
SESSION_METHODS = ("even", "der")


@dataclass(frozen=True)
class DeltaStats:
    """Cost accounting for one applied delta.

    ``touched`` counts the subintervals whose allocation was recomputed;
    ``total`` is the subinterval count after the delta.  Their ratio is the
    incremental engine's whole value proposition, so it is also exported on
    the ``session.delta`` span and aggregated on the session.
    """

    op: str
    touched: int
    total: int
    wall_s: float


class ScheduleSession:
    """A stateful scheduling instance that re-plans by delta.

    Parameters
    ----------
    m, power:
        Platform definition (homogeneous DVFS cores, continuous model).
    method:
        Heavy-subinterval allocation policy, ``"even"`` or ``"der"``.
    tasks:
        Optional initial task set; each task is added in order (the returned
        handles are ``0..n-1``).

    The session identifies tasks by integer *handles* (stable across row
    insertions/removals).  Row order matters for bit-exactness against a
    batch rebuild — rows are compared positionally — so :meth:`add_task`
    accepts an explicit insertion ``index`` for drivers that must keep a
    particular order (the online scheduler keeps ascending original index).
    """

    def __init__(
        self,
        m: int,
        power: PolynomialPower,
        method: str = "der",
        tasks: TaskSet | None = None,
    ):
        if m < 1:
            raise ValueError("m must be >= 1")
        if method not in SESSION_METHODS:
            raise ValueError(
                f"unsupported session method {method!r}; "
                f"supported: {SESSION_METHODS}"
            )
        self.m = int(m)
        self.power = power
        self.method = method
        self._f_crit = float(power.critical_frequency())
        self._next_handle = 0
        self._clear()
        # lifetime aggregates for the touched-vs-total ratio
        self.last_delta: DeltaStats | None = None
        self.touched_columns = 0
        self.total_columns = 0
        self.deltas_applied = 0
        if tasks is not None:
            for t in tasks:
                self.add_task(t)

    def _clear(self) -> None:
        self._handles: list[int] = []
        # one column per task row: release, deadline, work, and the ideal
        # schedule's frequency and end — a splice inserts or deletes one
        # column of one array
        self._tab = np.zeros((5, 0))
        self._b = np.zeros(0)  # distinct event times, (J+1,) when non-empty
        self._x = np.zeros((0, 0))
        self._assign: FrequencyAssignment | None = None

    _rel = property(lambda self: self._tab[0])
    _dls = property(lambda self: self._tab[1])
    _wrk = property(lambda self: self._tab[2])
    _ideal_f = property(lambda self: self._tab[3])
    _ideal_end = property(lambda self: self._tab[4])

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._handles)

    @property
    def is_empty(self) -> bool:
        return not self._handles

    @property
    def handles(self) -> tuple[int, ...]:
        """Current task handles in row order."""
        return tuple(self._handles)

    @property
    def n_subintervals(self) -> int:
        return max(self._b.size - 1, 0)

    @property
    def boundaries(self) -> np.ndarray:
        return self._b

    @property
    def coverage(self) -> np.ndarray:
        """The ``(n_tasks, n_subintervals)`` coverage matrix of the current rows."""
        return self._covers(self._b[:-1], self._b[1:])

    @property
    def energy(self) -> float:
        """Total energy of the current final plan (0 when empty)."""
        return self._assign.total_energy if self._assign is not None else 0.0

    @property
    def frequencies(self) -> np.ndarray:
        if self._assign is None:
            return np.zeros(0)
        return self._assign.frequencies

    @property
    def available_times(self) -> np.ndarray:
        """Per-task total available time ``A_i`` of the current plan."""
        return self._x.sum(axis=1)

    def _row(self, handle: int) -> int:
        try:
            return self._handles.index(handle)
        except ValueError:
            raise KeyError(f"unknown task handle {handle}") from None

    def task_of(self, handle: int) -> Task:
        """The current ``(R, D, C)`` of one handle (post re-anchoring)."""
        row = self._row(handle)
        return Task(
            float(self._rel[row]), float(self._dls[row]), float(self._wrk[row])
        )

    # -- delta tracing ---------------------------------------------------------

    def _traced(self, op: str):
        if not obs.active():
            return nullcontext()
        return obs.span("session.delta", op=op)

    def _note(
        self, op: str, touched: int, t0: float, sp=None
    ) -> DeltaStats:
        total = self.n_subintervals
        stats = DeltaStats(op, int(touched), total, time.perf_counter() - t0)
        self.last_delta = stats
        self.touched_columns += stats.touched
        self.total_columns += total
        self.deltas_applied += 1
        if sp is not None:
            sp.set("touched", stats.touched)
            sp.set("total", total)
            sp.set("n_tasks", len(self))
        return stats

    # -- shared numeric kernels ------------------------------------------------

    def _ideal(self, rel, dls, wrk) -> tuple:
        """Ideal frequency and execution end (same IEEE ops as batch)."""
        window = dls - rel
        f = np.maximum(self._f_crit, wrk / window)
        return f, rel + np.minimum(wrk / f, window)

    def _covers(self, starts: np.ndarray, ends: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Coverage of the columns ``[starts, ends]`` by ``rows``.

        The batch :class:`~repro.core.intervals.Timeline` predicate
        ``R_i <= t_j and D_i >= t_{j+1}``: coverage is a function of the task
        rows and the boundaries, so the session derives it where a delta
        needs it and stores none.
        """
        return (self._rel[rows, None] <= starts[None, :]) & (
            self._dls[rows, None] >= ends[None, :]
        )

    def _recompute_cols(self, cols: np.ndarray | slice) -> None:
        """Re-run the shared column assembly over ``cols`` only."""
        starts = self._b[:-1][cols]
        ends = self._b[1:][cols]
        cov = self._covers(starts, ends)
        lengths = ends - starts
        der = None
        if self.method == "der":
            # same elementwise chain as IdealSolution.overlap_with/der_matrix,
            # restricted to the touched columns
            lo = np.maximum(self._rel[:, None], starts[None, :])
            hi = np.minimum(self._ideal_end[:, None], ends[None, :])
            np.subtract(hi, lo, out=hi)
            o = np.maximum(hi, 0.0, out=hi)
            der = o * self._ideal_f[:, None]
        self._x[:, cols] = assemble_columns(cov, lengths, self.m, self.method, der)

    def _refresh(self) -> None:
        """Recompute the per-task frequency refinement from the full plan."""
        if not self._handles:
            self._assign = None
            return
        # the full-matrix row sum matches the batch plan.available_times
        # reduction bit-for-bit (identical matrix, identical reduction)
        self._assign = refine_frequencies(
            self._wrk, self._x.sum(axis=1), self.power
        )

    # -- deltas ----------------------------------------------------------------

    def add_task(self, task: Task, index: int | None = None) -> int:
        """Admit one task; returns its handle.

        Inserts ≤2 boundaries and recomputes only the subintervals inside
        the perturbed window (the old column containing ``R`` through the
        old column containing ``D``); every other column's allocation is
        spliced through unchanged.  ``index`` chooses the row position
        (default: append).
        """
        if not isinstance(task, Task):
            task = Task(*task)
        n = len(self._handles)
        row = n if index is None else int(index)
        if not 0 <= row <= n:
            raise IndexError(f"insertion index {row} out of range 0..{n}")
        t0 = time.perf_counter()
        with self._traced("add_task") as sp:
            handle = self._next_handle
            self._next_handle += 1
            R, D, C = float(task.release), float(task.deadline), float(task.work)
            if n == 0:
                touched = self._bootstrap(R, D, C)
            else:
                touched = self._splice_in(row, R, D, C)
            self._handles.insert(row, handle)
            self._refresh()
            self._note("add_task", touched, t0, sp)
        return handle

    def _bootstrap(self, R: float, D: float, C: float) -> int:
        self._tab = np.array([R, D, C, *self._ideal(R, D, C)]).reshape(5, 1)
        self._b = np.array([R, D])
        self._x = np.zeros((1, 1))
        self._recompute_cols(slice(0, 1))
        return 1

    def _splice_in(self, row: int, R: float, D: float, C: float) -> int:
        old_b = self._b
        J = old_b.size - 1
        n = len(self._handles)
        iR, iD = np.searchsorted(old_b, (R, D), side="right").tolist()

        # perturbed window: if R (D) splits an old column, the whole old
        # column is perturbed; otherwise the window starts (ends) at R (D)
        lo = float(old_b[iR - 1]) if 0 < iR <= J else R
        hi = float(old_b[iD]) if 0 < iD <= J and old_b[iD - 1] < D else D

        new_b = np.union1d(old_b, (R, D))
        c0, c1 = _column_run(new_b, lo, hi)
        x = np.zeros((n + 1, new_b.size - 1))  # the new task's row starts empty
        shift = new_b.size - old_b.size
        _carry_columns(x[:row], self._x[:row], c0, c1, shift)
        _carry_columns(x[row + 1 :], self._x[row:], c0, c1, shift)
        self._x = x

        self._tab = np.insert(self._tab, row, (R, D, C, *self._ideal(R, D, C)), axis=1)
        self._b = new_b
        self._recompute_cols(slice(c0, c1))
        return c1 - c0

    def complete_task(self, handle: int) -> DeltaStats:
        """Retire a finished task (structurally identical to removal)."""
        return self._remove(handle, "complete_task")

    def remove_task(self, handle: int) -> DeltaStats:
        """Withdraw a task from the plan."""
        return self._remove(handle, "remove_task")

    def _remove(self, handle: int, op: str) -> DeltaStats:
        row = self._row(handle)
        t0 = time.perf_counter()
        with self._traced(op) as sp:
            if len(self._handles) == 1:
                self._clear()
                return self._note(op, 0, t0, sp)
            touched = self._splice_out(row)
            del self._handles[row]
            self._refresh()
            return self._note(op, touched, t0, sp)

    def _splice_out(self, row: int) -> int:
        old_b = self._b
        J = old_b.size - 1
        n = len(self._handles)
        R, D = float(self._rel[row]), float(self._dls[row])

        iR, iD = np.searchsorted(old_b, (R, D)).tolist()
        self._tab = np.delete(self._tab, row, axis=1)
        # R (D) stays a boundary while another task has an event there
        events = self._tab[:2]
        dead = [i for i, v in ((iR, R), (iD, D)) if not (events == v).any()]

        # perturbed window: a removed interior boundary merges its two
        # neighbour columns, so the window widens to the surviving boundary
        lo = float(old_b[iR - 1]) if iR in dead and iR > 0 else R
        hi = float(old_b[iD + 1]) if iD in dead and iD < J else D
        new_b = np.delete(old_b, dead) if dead else old_b

        c0, c1 = _column_run(new_b, lo, hi)
        x = np.zeros((n - 1, new_b.size - 1))
        shift = new_b.size - old_b.size
        _carry_columns(x[:row], self._x[:row], c0, c1, shift)
        _carry_columns(x[row:], self._x[row + 1 :], c0, c1, shift)
        self._x = x
        self._b = new_b
        self._recompute_cols(slice(c0, c1))
        return c1 - c0

    def advance_to(
        self, t: float, works: Mapping[int, float] | None = None
    ) -> DeltaStats:
        """Re-anchor every released task's window to start at ``t``.

        This is the online re-planning step: tasks released before ``t``
        have their release moved to ``t`` (their past is already executed)
        and, via ``works`` (handle → remaining work), their execution
        requirement replaced by what is left.  Tasks with a future release
        are untouched.  A deadline at or before ``t`` with work remaining is
        a driver bug and raises.

        Under the ``"even"`` policy only columns whose structure changed are
        recomputed; under ``"der"`` any column covered by a re-anchored task
        carries new weights, so the copy set is correspondingly smaller.
        """
        t = float(t)
        if self.is_empty:
            raise ValueError("cannot advance an empty session")
        if np.any(self._dls <= t):
            bad = int(np.argmax(self._dls <= t))
            raise ValueError(
                f"task handle {self._handles[bad]} has remaining work "
                f"but its deadline {self._dls[bad]} is not after t={t}"
            )
        if works:
            for h, w in works.items():
                self._row(h)
                if float(w) <= 0:
                    raise ValueError(
                        f"remaining work for handle {h} must be positive; "
                        "complete_task() finished tasks instead"
                    )
        t0 = time.perf_counter()
        with self._traced("advance_to") as sp:
            changed = np.zeros(len(self._handles), dtype=bool)
            if works:
                for h, w in works.items():
                    row = self._row(h)
                    w = float(w)
                    if w != self._wrk[row]:
                        self._wrk[row] = w
                        changed[row] = True
            touched = self._reanchor(t, changed)
            self._refresh()
            return self._note("advance_to", touched, t0, sp)

    def _reanchor(self, t: float, changed: np.ndarray) -> int:
        old_b = self._b
        J = old_b.size - 1
        moved = self._rel < t
        changed = changed | moved
        if moved.any():
            self._rel[moved] = t
        self._tab[3:, changed] = self._ideal(*self._tab[:3, changed])

        # the boundary multiset is rebuilt outright (sorting 2n floats is
        # cheap; the savings live in the column copies and the deferred
        # object materialization) — same values as TaskSet.event_times()
        events = np.concatenate([self._rel, self._dls])
        new_b = np.unique(events)
        starts, ends = new_b[:-1], new_b[1:]

        j_old = np.searchsorted(old_b, starts)
        safe = np.minimum(j_old, J - 1)
        valid = (
            (j_old < J)
            & (old_b[safe] == starts)
            & (old_b[safe + 1] == ends)
        )
        # every new column starts at or after t (all releases are >= t now),
        # so a re-anchored task covers the same surviving columns as before;
        # its DER weights do not survive — under the "der" policy a changed
        # task invalidates the columns it covers
        if self.method == "der" and changed.any():
            copy = valid.copy()
            copy[valid] = ~self._covers(starts[valid], ends[valid], changed).any(axis=0)
        else:
            copy = valid

        n = len(self._handles)
        x_rows = np.zeros((n, starts.size))
        x_rows[:, copy] = self._x[:, j_old[copy]]
        self._x = x_rows

        self._b = new_b
        cols = np.flatnonzero(~copy)
        if cols.size:
            self._recompute_cols(cols)
        return cols.size

    # -- materialization -------------------------------------------------------

    def taskset(self) -> TaskSet:
        """The current rows as a :class:`TaskSet` (materializes Task objects)."""
        if self.is_empty:
            raise ValueError("session is empty")
        return TaskSet.from_arrays(self._rel, self._dls, self._wrk)

    def plan(self) -> AllocationPlan:
        """The current allocation as a batch-compatible :class:`AllocationPlan`."""
        tasks = self.taskset()
        timeline = Timeline.from_arrays(tasks, self._b, self.coverage)
        return AllocationPlan(
            timeline=timeline, m=self.m, method=self.method, x=self._x.copy()
        )

    def result(self) -> SchedulingResult:
        """Materialize the full final schedule for the current state.

        Routes through the batch :meth:`SubintervalScheduler.final_from_plan`
        (including its ``plan.check()`` validation), so the produced
        ``SchedulingResult`` is exactly what a batch rebuild would return.
        """
        plan = self.plan()
        scheduler = SubintervalScheduler(
            plan.tasks, self.m, self.power, timeline=plan.timeline
        )
        kind = "F1" if self.method == "even" else "F2"
        return scheduler.final_from_plan(plan, kind=kind)

    def batch_oracle(self) -> SubintervalScheduler:
        """A fresh batch scheduler over the current rows (equivalence oracle)."""
        return SubintervalScheduler(self.taskset(), self.m, self.power)

    def final_columns(self, before: float | None = None) -> tuple[np.ndarray, ...]:
        """Final-schedule ``(task, core, start, end, frequency)`` columns.

        The batch scheduler's slot cut (:func:`~repro.core.scheduler.
        cut_slots`) on the session's arrays, in schedule order — sorted by
        ``(start, core, task)`` exactly as :class:`~repro.core.schedule.
        Schedule` orders its columns — without materializing a task set.
        ``before`` drops segments starting at or beyond it: the online
        driver only ever executes the plan up to the next arrival.
        """
        if self.is_empty or self._assign is None:
            ids, times = np.zeros(0, dtype=np.int64), np.zeros(0)
            return (ids, ids, times, times, times)
        ps = pack_matrix_flat(self._b, self._x, self.m, self.coverage.sum(axis=0))
        columns = cut_slots(
            ps, self._assign.used_times, self._assign.frequencies
        )
        if before is not None:
            keep = columns[2] < before
            columns = tuple(c[keep] for c in columns)
        task, core, start = columns[:3]
        order = np.lexsort((task, core, start))
        return tuple(c[order] for c in columns)

    def final_segments(self, before: float | None = None) -> list[Segment]:
        """:meth:`final_columns` as :class:`Segment` records."""
        return list(map(Segment, *(c.tolist() for c in self.final_columns(before))))

    def __repr__(self) -> str:
        return (
            f"ScheduleSession({len(self)} tasks, {self.n_subintervals} "
            f"subintervals, method={self.method!r}, m={self.m})"
        )


def _column_run(b: np.ndarray, lo: float, hi: float) -> tuple[int, int]:
    """Indices ``[c0, c1)`` of the columns of boundaries ``b`` inside ``[lo, hi]``.

    ``lo`` and ``hi`` are boundaries of ``b`` or lie beyond its ends.
    """
    c0, c1 = np.searchsorted(b, (lo, hi)).tolist()
    return c0, min(c1, b.size - 1)


def _carry_columns(
    dst: np.ndarray, src: np.ndarray, c0: int, c1: int, shift: int
) -> None:
    """Copy the columns of ``src`` that a delta left alone into ``dst``.

    The perturbed window ``[c0, c1)`` (new column indices) splits the new
    timeline into three runs: left of it every old column keeps its index,
    right of it every old column moves by ``shift``, the number of
    boundaries the delta inserted (negative when it removed some).  Window
    columns are recomputed; a column with no old counterpart (the gap
    between the old horizon and a task lying wholly outside it) stays zero.
    """
    left = min(c0, src.shape[1])
    dst[:, :left] = src[:, :left]
    right = max(c1 - shift, 0)
    dst[:, right + shift :] = src[:, right:]


def _row_iter(session: ScheduleSession) -> Iterator[tuple[int, Task]]:
    """(handle, task) pairs in row order — debugging/inspection helper."""
    for h in session.handles:
        yield h, session.task_of(h)
