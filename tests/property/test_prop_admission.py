"""Property tests: admission control consistency with the flow substrate."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import AdmissionController, Task, TaskSet
from repro.optimal import realize_demands
from repro.power import PolynomialPower

from .strategies import cores_strategy, tasks_strategy

_POWER = PolynomialPower(alpha=3.0, static=0.05)


@given(tasks_strategy(max_size=8), cores_strategy)
@settings(max_examples=30, deadline=None)
def test_committed_set_is_always_schedulable(tasks, m):
    """Whatever subset the controller admits must pass its own exact test."""
    ctl = AdmissionController(m, _POWER, f_max=1.0)
    ctl.admit_all(tasks)
    committed = ctl.committed
    if committed is not None:
        assert ctl.is_schedulable(committed)


@given(tasks_strategy(max_size=8), cores_strategy)
@settings(max_examples=30, deadline=None)
def test_uncapped_controller_admits_everything(tasks, m):
    ctl = AdmissionController(m, _POWER, f_max=None)
    decisions = ctl.admit_all(tasks)
    assert all(d.accepted for d in decisions)
    assert len(ctl.committed) == len(tasks)


@given(tasks_strategy(max_size=6), cores_strategy, st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_schedulability_monotone_in_cap(tasks, m, f_max):
    """A fixed set schedulable at f_max stays schedulable at any higher cap
    (demands C_i/f shrink, and the feasible polytope is downward closed)."""
    low = AdmissionController(m, _POWER, f_max=f_max)
    high = AdmissionController(m, _POWER, f_max=f_max * 2)
    if low.is_schedulable(tasks):
        assert high.is_schedulable(tasks)


@given(tasks_strategy(max_size=6), cores_strategy)
@settings(max_examples=30, deadline=None)
def test_marginal_energies_telescope(tasks, m):
    ctl = AdmissionController(m, _POWER, f_max=None)
    decisions = ctl.admit_all(tasks)
    total = sum(d.marginal_energy for d in decisions if d.accepted)
    assert np.isclose(total, ctl.current_energy, rtol=1e-9)


@st.composite
def arrival_streams(draw) -> list[Task]:
    """Arrivals on a coarse grid, so new windows split old subintervals,
    share their boundaries and stretch the horizon; some repeat an earlier
    arrival outright."""
    out: list[Task] = []
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        if out and draw(st.integers(min_value=0, max_value=3)) == 0:
            out.append(draw(st.sampled_from(out)))
            continue
        r = draw(st.integers(min_value=0, max_value=12))
        w = draw(st.integers(min_value=1, max_value=8))
        c = draw(st.integers(min_value=1, max_value=4 * w + 2)) * 0.25
        out.append(Task(float(r), float(r + w), c))
    return out


def _stream(*triples) -> list[Task]:
    return [Task(float(r), float(d), float(c)) for r, d, c in triples]


@given(arrival_streams(), st.integers(min_value=1, max_value=3), st.sampled_from([1.0, 1.5]))
@example(_stream((0, 8, 4), (2, 5, 3), (3, 4, 1)), 1, 1.0)  # splits old subintervals
@example(_stream((0, 4, 2), (4, 8, 2), (2, 4, 1), (4, 6, 1)), 1, 1.0)  # shared boundaries
@example(_stream((4, 8, 2), (0, 6, 3), (6, 12, 3), (0, 12, 3)), 1, 1.0)  # horizon grows both ways
@example(_stream((0, 4, 2), (0, 4, 2), (0, 4, 2)), 1, 1.0)  # duplicates
@example(_stream((0, 4, 2), (0, 4, 2), (0, 4, 4), (0, 4, 4)), 2, 1.0)  # exact boundary
@settings(max_examples=80, deadline=None)
def test_warm_decisions_match_cold_oracle(stream, m, f_max):
    """Each warm-started decision is the exact test computed from zero."""
    ctl = AdmissionController(m, _POWER, f_max=f_max)
    for task in stream:
        candidate = TaskSet([*(ctl.committed or ()), task])
        need = candidate.works / f_max
        expected = bool(
            np.all(need <= candidate.windows * (1 + 1e-12))
            and realize_demands(candidate, m, need).feasible
        )
        assert ctl.try_admit(task, materialize=False).accepted == expected
