"""Concrete schedules: per-core, per-frequency execution segments.

A :class:`Schedule` is the fully-resolved artifact every method in this
library ultimately produces: a set of segments, each saying *task i runs on
core k over [start, end] at frequency f*, stored as one numpy column per
field.  It is what the discrete-event simulator replays, what the validator
checks, and what the Gantt renderers draw.

Energy bookkeeping lives here too because for the paper's model it is a pure
function of the segments: an active core at frequency ``f`` for duration
``Δ`` consumes ``p(f)·Δ``; idle cores sleep at zero power.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..power.models import PowerModel
from .task import TaskSet

__all__ = ["Segment", "Schedule"]

#: the per-segment columns of a :class:`Schedule`, in ``Segment`` field order
_COLUMNS = ("task", "core", "start", "end", "frequency")


@dataclass(frozen=True, slots=True)
class Segment:
    """One contiguous execution of one task on one core.

    Work completed by the segment is ``frequency · (end − start)``.
    """

    task_id: int
    core: int
    start: float
    end: float
    frequency: float

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task_id must be nonnegative")
        if self.core < 0:
            raise ValueError("core must be nonnegative")
        if not self.end > self.start:
            raise ValueError(
                f"segment must have positive length, got [{self.start}, {self.end}]"
            )
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")

    @property
    def duration(self) -> float:
        """Segment length in time units."""
        return self.end - self.start

    @property
    def work(self) -> float:
        """Cycles completed: ``frequency × duration``."""
        return self.frequency * self.duration

    def overlaps(self, other: "Segment") -> bool:
        """True when the two segments overlap in time (open-interval sense)."""
        return self.start < other.end and other.start < self.end

    def shifted(self, dt: float) -> "Segment":
        """Copy moved by ``dt`` in time."""
        return replace(self, start=self.start + dt, end=self.end + dt)


class Schedule(Sequence[Segment]):
    """An immutable collection of segments bound to a task set and platform.

    Storage is columnar: five read-only arrays ``task``, ``core``, ``start``,
    ``end`` and ``frequency``, one entry per segment, ordered by ``(start,
    core, task)`` (a stable sort, so exact ties keep their input order).
    Every aggregate below is an array operation over these columns.
    :class:`Segment` stays the element type of the sequence protocol; the
    segment tuple is built lazily, at most once per schedule.

    Construction checks what a :class:`Segment` checks (ids ≥ 0, ``end >
    start``, ``frequency > 0``) plus task ids ``< len(tasks)`` and cores
    ``< n_cores``.  The scheduling invariants (no core executes two segments
    at once, no task executes on two cores at once, every segment lies
    inside its task's window, each task's total work equals its requirement)
    are enforced by :mod:`repro.sim.validate`, not by construction, so
    partially-built or deliberately-broken schedules can be represented for
    testing.
    """

    __slots__ = ("tasks", "n_cores", "power", *_COLUMNS, "_segments")

    def __init__(
        self,
        tasks: TaskSet,
        n_cores: int,
        power: PowerModel,
        segments: Iterable[Segment],
    ):
        rows = [(s.task_id, s.core, s.start, s.end, s.frequency) for s in segments]
        columns = np.array(rows, dtype=np.float64).reshape(-1, 5).T
        self._bind(tasks, n_cores, power, columns)

    @classmethod
    def from_columns(
        cls, tasks: TaskSet, n_cores: int, power: PowerModel, *columns
    ) -> "Schedule":
        """Build a schedule from parallel ``task, core, start, end,
        frequency`` arrays, one entry per segment, in any order."""
        self = cls.__new__(cls)
        self._bind(tasks, n_cores, power, columns)
        return self

    def _bind(self, tasks, n_cores, power, columns) -> None:
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        self.tasks, self.n_cores, self.power = tasks, int(n_cores), power
        task, core = (np.asarray(c, dtype=np.int64) for c in columns[:2])
        start, end, freq = (np.asarray(c, dtype=np.float64) for c in columns[2:])
        if np.any(task < 0) or np.any(core < 0):
            raise ValueError("task ids and cores must be nonnegative")
        if not np.all(end > start):
            raise ValueError("segments must have positive length")
        if not np.all(freq > 0):
            raise ValueError("frequency must be positive")
        if np.any(task >= len(tasks)):
            raise ValueError(f"segment references unknown task {task.max()}")
        if np.any(core >= n_cores):
            raise ValueError(f"segment on core {core.max()}; platform has {n_cores}")
        order = np.lexsort((task, core, start))
        for name, col in zip(_COLUMNS, (task, core, start, end, freq)):
            col = col[order]
            col.flags.writeable = False
            setattr(self, name, col)
        self._segments: tuple[Segment, ...] | None = None

    # -- Sequence protocol ---------------------------------------------------------

    @property
    def segments(self) -> tuple[Segment, ...]:
        """The segments as :class:`Segment` records, in schedule order."""
        if self._segments is None:
            self._segments = tuple(
                map(Segment, *(getattr(self, c).tolist() for c in _COLUMNS))
            )
        return self._segments

    def __len__(self) -> int:
        return self.task.size

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __getitem__(self, i):  # type: ignore[override]
        return self.segments[i]

    def __repr__(self) -> str:
        return (
            f"Schedule({len(self)} segments, {len(self.tasks)} tasks, "
            f"{self.n_cores} cores, E={self.total_energy():.6g})"
        )

    # -- energy ---------------------------------------------------------------------

    @property
    def durations(self) -> np.ndarray:
        """Per-segment lengths ``end − start``."""
        return self.end - self.start

    def _energies(self, mask=slice(None)) -> np.ndarray:
        f = self.frequency[mask]
        return np.asarray(self.power.power(f)) * self.durations[mask]

    def total_energy(self) -> float:
        """Total energy of all segments: ``Σ p(f)·Δ``."""
        if not len(self):
            return 0.0
        return float(np.sum(self._energies()))

    def task_energy(self, task_id: int) -> float:
        """Energy attributable to one task's segments."""
        mask = self.task == task_id
        if not mask.any():
            return 0.0
        return float(np.sum(self._energies(mask)))

    def energy_breakdown(self) -> np.ndarray:
        """Per-task energy as an array indexed by task id."""
        return np.bincount(
            self.task, weights=self._energies(), minlength=len(self.tasks)
        )

    # -- work accounting --------------------------------------------------------------

    def work_completed(self, task_id: int | None = None):
        """Cycles completed — per task id, or the full per-task array."""
        out = np.bincount(
            self.task,
            weights=self.frequency * self.durations,
            minlength=len(self.tasks),
        )
        return out if task_id is None else float(out[task_id])

    def completes_all(self, rtol: float = 1e-9, atol: float = 1e-9) -> bool:
        """True when every task's completed work matches its requirement."""
        return bool(
            np.allclose(self.work_completed(), self.tasks.works, rtol=rtol, atol=atol)
        )

    # -- structure ----------------------------------------------------------------------

    def segments_of_task(self, task_id: int) -> list[Segment]:
        """Segments of one task, in time order."""
        segs = self.segments
        return [segs[k] for k in np.flatnonzero(self.task == task_id)]

    def segments_of_core(self, core: int) -> list[Segment]:
        """Segments on one core, in time order."""
        segs = self.segments
        return [segs[k] for k in np.flatnonzero(self.core == core)]

    def busy_time(self) -> np.ndarray:
        """Per-core total active time."""
        return np.bincount(self.core, weights=self.durations, minlength=self.n_cores)

    def span(self) -> tuple[float, float]:
        """``(earliest start, latest end)`` over all segments."""
        if not len(self):
            r, d = self.tasks.horizon
            return (r, r)
        return (float(self.start.min()), float(self.end.max()))

    def preemption_count(self) -> int:
        """Number of task segment boundaries beyond the first per task."""
        return len(self) - np.unique(self.task).size

    def migration_count(self) -> int:
        """Number of times a task's consecutive segments change core."""
        order = np.lexsort((self.start, self.task))
        task, core = self.task[order], self.core[order]
        return int(np.count_nonzero((task[1:] == task[:-1]) & (core[1:] != core[:-1])))

    def with_power(self, power: PowerModel) -> "Schedule":
        """Same segments evaluated under a different power model."""
        return Schedule.from_columns(
            self.tasks, self.n_cores, power, *(getattr(self, c) for c in _COLUMNS)
        )
