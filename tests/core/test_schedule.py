"""Unit tests for the Schedule/Segment data model."""

import numpy as np
import pytest

from repro.core import Schedule, Segment, TaskSet
from repro.power import PolynomialPower


@pytest.fixture
def two_tasks():
    return TaskSet.from_tuples([(0, 10, 4), (0, 10, 2)])


class TestSegment:
    def test_derived_quantities(self):
        s = Segment(0, 1, 2.0, 5.0, 0.5)
        assert s.duration == 3.0
        assert s.work == pytest.approx(1.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Segment(0, 0, 2.0, 2.0, 1.0)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            Segment(-1, 0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Segment(0, -1, 0.0, 1.0, 1.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            Segment(0, 0, 0.0, 1.0, 0.0)

    def test_overlaps(self):
        a = Segment(0, 0, 0.0, 2.0, 1.0)
        b = Segment(1, 0, 1.0, 3.0, 1.0)
        c = Segment(2, 0, 2.0, 4.0, 1.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)  # touching endpoints don't overlap

    def test_shifted(self):
        s = Segment(0, 0, 1.0, 2.0, 1.0).shifted(3.0)
        assert (s.start, s.end) == (4.0, 5.0)


class TestSchedule:
    def _schedule(self, tasks, power=None, segments=()):
        power = power or PolynomialPower(3.0, 0.0)
        return Schedule(tasks, 2, power, segments)

    def test_energy_matches_formula(self, two_tasks):
        power = PolynomialPower(alpha=3.0, static=0.1)
        segs = [Segment(0, 0, 0.0, 8.0, 0.5), Segment(1, 1, 0.0, 4.0, 0.5)]
        sched = Schedule(two_tasks, 2, power, segs)
        expected = (0.5**3 + 0.1) * 8 + (0.5**3 + 0.1) * 4
        assert sched.total_energy() == pytest.approx(expected)

    def test_task_energy_and_breakdown(self, two_tasks):
        power = PolynomialPower(3.0, 0.0)
        segs = [Segment(0, 0, 0.0, 8.0, 0.5), Segment(1, 1, 0.0, 4.0, 0.5)]
        sched = Schedule(two_tasks, 2, power, segs)
        assert sched.task_energy(0) == pytest.approx(0.5**3 * 8)
        bd = sched.energy_breakdown()
        assert bd.sum() == pytest.approx(sched.total_energy())

    def test_work_completed(self, two_tasks):
        segs = [Segment(0, 0, 0.0, 8.0, 0.5), Segment(1, 1, 0.0, 4.0, 0.5)]
        sched = self._schedule(two_tasks, segments=segs)
        np.testing.assert_allclose(sched.work_completed(), [4.0, 2.0])
        assert sched.completes_all()

    def test_incomplete_detected(self, two_tasks):
        segs = [Segment(0, 0, 0.0, 4.0, 0.5)]
        sched = self._schedule(two_tasks, segments=segs)
        assert not sched.completes_all()

    def test_empty_schedule(self, two_tasks):
        sched = self._schedule(two_tasks)
        assert sched.total_energy() == 0.0
        assert len(sched) == 0
        assert sched.span() == (0.0, 0.0)

    def test_segments_sorted_by_start(self, two_tasks):
        segs = [Segment(0, 0, 5.0, 6.0, 1.0), Segment(1, 1, 0.0, 1.0, 1.0)]
        sched = self._schedule(two_tasks, segments=segs)
        assert sched[0].start == 0.0

    def test_rejects_unknown_task(self, two_tasks):
        with pytest.raises(ValueError, match="unknown task"):
            self._schedule(two_tasks, segments=[Segment(7, 0, 0.0, 1.0, 1.0)])

    def test_rejects_unknown_core(self, two_tasks):
        with pytest.raises(ValueError, match="core"):
            self._schedule(two_tasks, segments=[Segment(0, 5, 0.0, 1.0, 1.0)])

    def test_busy_time(self, two_tasks):
        segs = [Segment(0, 0, 0.0, 8.0, 0.5), Segment(1, 1, 0.0, 4.0, 0.5)]
        sched = self._schedule(two_tasks, segments=segs)
        np.testing.assert_allclose(sched.busy_time(), [8.0, 4.0])

    def test_preemption_and_migration_counts(self, two_tasks):
        segs = [
            Segment(0, 0, 0.0, 2.0, 1.0),
            Segment(0, 1, 3.0, 5.0, 1.0),  # preempted + migrated
            Segment(1, 0, 3.0, 5.0, 1.0),
        ]
        sched = self._schedule(two_tasks, segments=segs)
        assert sched.preemption_count() == 1
        assert sched.migration_count() == 1

    def test_with_power_keeps_segments(self, two_tasks):
        segs = [Segment(0, 0, 0.0, 8.0, 0.5)]
        a = self._schedule(two_tasks, PolynomialPower(3.0, 0.0), segs)
        b = a.with_power(PolynomialPower(3.0, 1.0))
        assert len(b) == len(a)
        assert b.total_energy() > a.total_energy()

    def test_segments_of_queries(self, two_tasks):
        segs = [Segment(0, 0, 0.0, 2.0, 1.0), Segment(1, 1, 0.0, 2.0, 1.0)]
        sched = self._schedule(two_tasks, segments=segs)
        assert len(sched.segments_of_task(0)) == 1
        assert len(sched.segments_of_core(1)) == 1

    def test_repr(self, two_tasks):
        assert "Schedule(" in repr(self._schedule(two_tasks))


class TestColumnsMatchSegmentLoops:
    """Column aggregates equal the per-segment loops they replaced, bit for bit."""

    @pytest.fixture(params=[(0, 1), (1, 3), (2, 4)])
    def schedule(self, request):
        from repro.core import SubintervalScheduler
        from repro.workloads.generator import PaperWorkloadConfig, paper_workload

        seed, m = request.param
        tasks = paper_workload(
            np.random.default_rng(seed), PaperWorkloadConfig(n_tasks=25)
        )
        power = PolynomialPower(alpha=3.0, static=0.1)
        return SubintervalScheduler(tasks, m, power).final("der").schedule

    def test_order_is_the_stable_segment_sort(self, schedule):
        segs = list(schedule)
        assert segs == sorted(segs, key=lambda s: (s.start, s.core, s.task_id))
        rebuilt = Schedule(schedule.tasks, schedule.n_cores, schedule.power, segs[::-1])
        assert list(rebuilt) == segs

    def test_energy_work_and_busy_time(self, schedule):
        segs = list(schedule)
        power = schedule.power
        n = len(schedule.tasks)
        work = np.zeros(n)
        energy = np.zeros(n)
        busy = np.zeros(schedule.n_cores)
        for s in segs:
            work[s.task_id] += s.work
            energy[s.task_id] += float(np.asarray(power.power(s.frequency))) * s.duration
            busy[s.core] += s.duration
        f = np.array([s.frequency for s in segs])
        d = np.array([s.duration for s in segs])
        assert schedule.total_energy() == float(np.sum(power.power(f) * d))
        assert np.array_equal(schedule.work_completed(), work)
        assert schedule.work_completed(3) == work[3]
        assert np.array_equal(schedule.energy_breakdown(), energy)
        assert np.array_equal(schedule.busy_time(), busy)

    def test_preemptions_and_migrations(self, schedule):
        per_task: dict[int, list] = {}
        for s in schedule:
            per_task.setdefault(s.task_id, []).append(s)
        preemptions = sum(len(v) - 1 for v in per_task.values())
        migrations = 0
        for v in per_task.values():
            v.sort(key=lambda s: s.start)
            migrations += sum(a.core != b.core for a, b in zip(v, v[1:]))
        assert schedule.preemption_count() == preemptions
        assert schedule.migration_count() == migrations

    def test_columns_are_read_only(self, schedule):
        with pytest.raises(ValueError):
            schedule.start[0] = 0.0

    def test_column_checks_match_segment_checks(self, two_tasks):
        power = PolynomialPower(3.0, 0.0)
        ok = dict(task=[0], core=[0], start=[0.0], end=[1.0], frequency=[1.0])
        for field, bad in (
            ("task", [-1]),
            ("core", [-1]),
            ("end", [0.0]),
            ("frequency", [0.0]),
            ("task", [2]),
            ("core", [2]),
        ):
            cols = {**ok, field: bad}
            with pytest.raises(ValueError):
                Schedule.from_columns(two_tasks, 2, power, *cols.values())
