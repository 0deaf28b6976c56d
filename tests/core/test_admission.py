"""Tests for frequency-capped admission control."""

import numpy as np
import pytest

from repro.core import AdmissionController, SubintervalScheduler, Task, TaskSet
from repro.power import PolynomialPower
from repro.sim import assert_valid


@pytest.fixture
def power():
    return PolynomialPower(alpha=3.0, static=0.05)


class TestNoCap:
    def test_everything_admissible(self, power):
        ctl = AdmissionController(1, power, f_max=None)
        # three tasks requiring impossible simultaneous speed: still accepted
        for _ in range(3):
            d = ctl.try_admit(Task(0.0, 1.0, 100.0))
            assert d.accepted


class TestCapEnforcement:
    def test_isolated_impossible_task_rejected(self, power):
        ctl = AdmissionController(4, power, f_max=1.0)
        d = ctl.try_admit(Task(0.0, 2.0, 4.0))  # needs f = 2 alone
        assert not d.accepted
        assert "isolation" in d.reason
        assert ctl.committed is None

    def test_contention_rejection(self, power):
        # each task alone needs f = 1 for its whole window; two of them on
        # one core cannot both fit at f_max = 1
        ctl = AdmissionController(1, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        d = ctl.try_admit(Task(0.0, 4.0, 4.0))
        assert not d.accepted
        assert "collision-free" in d.reason

    def test_exact_boundary_accepted(self, power):
        # two tasks each needing half the window at f_max: exactly feasible
        ctl = AdmissionController(1, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 2.0)).accepted
        assert ctl.try_admit(Task(0.0, 4.0, 2.0)).accepted

    def test_second_core_unlocks_admission(self, power):
        ctl = AdmissionController(2, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        d = ctl.try_admit(Task(0.0, 4.0, 4.0))
        assert not d.accepted

    def test_saturation_slack_does_not_grow_with_history(self, power):
        # 100 committed tasks fill their own windows exactly (total demand
        # 1e6); an arrival needing 1e-4 inside the first window must be
        # refused, as it is against that one task alone
        ctl = AdmissionController(1, power, f_max=1.0)
        for k in range(100):
            task = Task(k * 1e4, (k + 1) * 1e4, 1e4)
            assert ctl.try_admit(task, materialize=False).accepted
        arrival = Task(0.0, 1e4, 1e-4)
        assert not ctl.is_schedulable(TaskSet([Task(0.0, 1e4, 1e4), arrival]))
        d = ctl.try_admit(arrival, materialize=False)
        assert not d.accepted and "collision-free" in d.reason

    def test_disjoint_windows_dont_interfere(self, power):
        ctl = AdmissionController(1, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        assert ctl.try_admit(Task(10.0, 14.0, 4.0)).accepted


class TestAccounting:
    def test_marginal_energy_sums_to_total(self, power):
        ctl = AdmissionController(2, power, f_max=5.0)
        tasks = [Task(0, 10, 4), Task(2, 12, 6), Task(4, 14, 3)]
        decisions = ctl.admit_all(tasks)
        assert all(d.accepted for d in decisions)
        total = sum(d.marginal_energy for d in decisions)
        assert total == pytest.approx(ctl.current_energy)
        direct = SubintervalScheduler(TaskSet(tasks), 2, power).final("der")
        assert ctl.current_energy == pytest.approx(direct.energy)

    def test_accepted_schedule_is_valid(self, power):
        ctl = AdmissionController(2, power, f_max=5.0)
        d = ctl.try_admit(Task(0, 10, 4))
        assert d.schedule is not None
        assert_valid(d.schedule.schedule)

    def test_rejection_leaves_state_unchanged(self, power):
        ctl = AdmissionController(1, power, f_max=1.0)
        ctl.try_admit(Task(0.0, 4.0, 4.0))
        e = ctl.current_energy
        ctl.try_admit(Task(0.0, 4.0, 4.0))  # rejected
        assert ctl.current_energy == e
        assert len(ctl.committed) == 1

    def test_reset(self, power):
        ctl = AdmissionController(1, power, f_max=2.0)
        ctl.try_admit(Task(0, 4, 2))
        ctl.reset()
        assert ctl.committed is None
        assert ctl.current_energy == 0.0

    def test_validation(self, power):
        with pytest.raises(ValueError):
            AdmissionController(0, power)
        with pytest.raises(ValueError):
            AdmissionController(1, power, f_max=0.0)


class TestCrossValidation:
    def test_accepted_sets_schedulable_at_fmax(self, power):
        """Everything the controller accepts must admit a schedule whose
        frequencies stay within the cap — verified constructively."""
        rng = np.random.default_rng(4)
        ctl = AdmissionController(2, power, f_max=1.0)
        for _ in range(12):
            r = float(rng.uniform(0, 20))
            c = float(rng.uniform(1, 6))
            w = float(rng.uniform(c, 4 * c))  # window >= c so intensity <= 1
            ctl.try_admit(Task(r, r + w, c))
        committed = ctl.committed
        if committed is None:
            pytest.skip("nothing admitted")
        assert ctl.is_schedulable(committed)
        # constructive check: schedule the committed set with the pipeline
        # and confirm all frequencies <= f_max (F2 uses minimal frequencies
        # only when contention forces it; cap check is on the exact test)
        from repro.optimal import realize_demands

        real = realize_demands(committed, 2, committed.works / 1.0)
        assert real.feasible


def _cold(tasks, m: int, f_max: float) -> bool:
    """The oracle: a fresh realization of the minimal demands at f_max."""
    from repro.optimal import realize_demands

    ts = TaskSet(tasks)
    if np.any(ts.works / f_max > ts.windows * (1 + 1e-12)):
        return False
    return realize_demands(ts, m, ts.works / f_max).feasible


class TestWarmFlowState:
    def test_deep_augmenting_path(self, power):
        # the staircase [i-1, i+1], then [0, 1]: routing the last arrival
        # shifts all 700 committed tasks, an augmenting path of ~1,400 nodes
        ctl = AdmissionController(1, power, f_max=1.0)
        for i in range(1, 701):
            assert ctl.try_admit(Task(i - 1.0, i + 1.0, 1.0), materialize=False).accepted
        assert ctl.try_admit(Task(0.0, 1.0, 1.0), materialize=False).accepted
        assert len(ctl.committed) == 701

    def test_reject_keeps_committed_flow(self, power):
        ctl = AdmissionController(1, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 2.0)).accepted
        flow = ctl._flow
        d = ctl.try_admit(Task(0.0, 4.0, 2.25))
        assert not d.accepted and "collision-free" in d.reason
        assert ctl._flow is flow
        # the next decision still matches the cold oracle
        nxt = Task(1.0, 3.0, 2.0)
        expected = _cold([*ctl.committed, nxt], 1, 1.0)
        assert expected and ctl.try_admit(nxt).accepted
        assert not ctl.try_admit(Task(0.0, 4.0, 0.5)).accepted

    def test_reset_drops_flow(self, power):
        ctl = AdmissionController(1, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        ctl.reset()
        assert ctl._flow is None
        # a flow left behind would claim [0, 4] and refuse this one
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted

    def test_materialize_failure_rolls_back_flow(self, power, monkeypatch):
        ctl = AdmissionController(1, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 2.0)).accepted
        flow, energy = ctl._flow, ctl.current_energy

        def boom():
            raise RuntimeError("materialize failed")

        monkeypatch.setattr(ctl.session, "result", boom)
        with pytest.raises(RuntimeError):
            ctl.try_admit(Task(0.0, 4.0, 2.0))
        monkeypatch.undo()
        assert ctl._flow is flow
        assert len(ctl.committed) == 1 and len(ctl.session) == 1
        assert ctl.current_energy == energy
        # the rolled-back arrival still fits exactly once
        assert ctl.try_admit(Task(0.0, 4.0, 2.0)).accepted
        assert not ctl.try_admit(Task(0.0, 4.0, 0.5)).accepted

    def test_is_schedulable_stays_cold(self, power, monkeypatch):
        import repro.core.admission as admission

        ctl = AdmissionController(1, power, f_max=1.0)
        assert ctl.try_admit(Task(0.0, 4.0, 4.0)).accepted
        starts = []
        real = admission.realize_demands

        def spy(*args, **kwargs):
            starts.append(kwargs.get("warm_start"))
            return real(*args, **kwargs)

        monkeypatch.setattr(admission, "realize_demands", spy)
        # sets unrelated to the (full) committed window: judged on their own
        other = TaskSet([Task(0.0, 4.0, 3.0), Task(2.0, 6.0, 1.0)])
        assert ctl.is_schedulable(other)
        assert not ctl.is_schedulable(TaskSet([Task(0.0, 2.0, 1.5), Task(0.0, 2.0, 1.5)]))
        assert starts == [None, None]

    def test_feasibility_span(self, power):
        from repro.obs import context as obs

        ctl = AdmissionController(1, power, f_max=1.0)
        with obs.capture() as spans:
            with obs.span("test.root"):
                ctl.try_admit(Task(0.0, 4.0, 2.0), materialize=False)
                ctl.try_admit(Task(0.0, 4.0, 3.0), materialize=False)
        feas = [s["attrs"] for s in spans if s["name"] == "admission.feasibility"]
        assert [(a["committed"], a["warm"]) for a in feas] == [(0, False), (1, True)]
        assert all(a["phases"] >= 0 for a in feas)
