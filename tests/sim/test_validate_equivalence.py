"""The vectorized validator agrees with the per-segment loop reference.

Both must return the same violations, in the same order, with the same
detail strings — on clean pipeline schedules and on randomly corrupted
ones that trip every detector.
"""

import numpy as np
import pytest

from repro.core import Schedule, SubintervalScheduler
from repro.engine import Platform, SolveRequest, solve
from repro.power import PolynomialPower
from repro.sim import ViolationKind, validate_schedule
from repro.workloads.generator import PaperWorkloadConfig, paper_workload
from tests.sim.loop_validator import loop_validate_schedule

POWER = PolynomialPower(alpha=3.0, static=0.1)


def _instance(seed: int, n: int):
    return paper_workload(
        np.random.default_rng(seed), PaperWorkloadConfig(n_tasks=n)
    )


def _corrupt(schedule: Schedule, rng: np.random.Generator) -> Schedule:
    """Shift, re-core, stretch, duplicate and drop random segments."""
    task = schedule.task.copy()
    core = schedule.core.copy()
    start = schedule.start.copy()
    end = schedule.end.copy()
    freq = schedule.frequency.copy()
    k = len(task)
    pick = rng.random(k) < 0.15
    shift = rng.normal(0.0, 5.0, k) * pick
    start, end = start + shift, end + shift
    core = np.where(rng.random(k) < 0.15, rng.integers(0, schedule.n_cores, k), core)
    freq = freq * np.where(rng.random(k) < 0.1, 1.5, 1.0)
    dup = rng.random(k) < 0.1
    keep = rng.random(k) > 0.05
    cols = [
        np.concatenate([c[keep], c[dup]]) for c in (task, core, start, end, freq)
    ]
    return Schedule.from_columns(schedule.tasks, schedule.n_cores, schedule.power, *cols)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("m", [1, 2, 4])
def test_clean_pipeline_schedules_agree(seed, m):
    tasks = _instance(seed, 12 + 4 * seed)
    for res in SubintervalScheduler(tasks, m, POWER).run_all().values():
        assert validate_schedule(res.schedule) == loop_validate_schedule(res.schedule)


@pytest.mark.parametrize("name", ["edf", "yds", "naive", "online"])
def test_baseline_schedules_agree(name):
    request = SolveRequest(tasks=_instance(3, 10), platform=Platform(m=2, power=POWER))
    schedule = solve(name, request, validate=False).schedule
    for check in (True, False):
        assert validate_schedule(schedule, check_completion=check) == (
            loop_validate_schedule(schedule, check_completion=check)
        )


def test_corrupted_schedules_agree_and_trip_every_detector():
    rng = np.random.default_rng(2024)
    seen = set()
    for seed in range(20):
        tasks = _instance(seed, 15)
        base = SubintervalScheduler(tasks, 3, POWER).final("der").schedule
        bad = _corrupt(base, rng)
        for tol in (1e-9, 1e-3):
            got = validate_schedule(bad, tol=tol)
            assert got == loop_validate_schedule(bad, tol=tol)
            seen.update(v.kind for v in got)
    assert seen == set(ViolationKind)
