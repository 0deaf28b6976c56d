"""Tests of the benchmark itself: tiny runs of every workload, and the
checker catching injected faults.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    out = _run("--workload", workload, "--seed", "3", "--seconds", "2", "--trace", str(trace),
               "--scale", "0.02")
    assert out.returncode == 0, out.stderr[-3000:]
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert "per-layer table" in out.stdout


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "paper-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_rotate_cpus_moves_the_process_under_test_from_cpu_to_cpu():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(5)"])
    seen = set()
    try:
        with run.rotate_cpus(child.pid):
            for _ in range(20):
                time.sleep(run.ROTATE_S)
                seen.add(frozenset(os.sched_getaffinity(child.pid)))
    finally:
        child.kill()
        child.wait(timeout=10)
    # every CPU, one at a time (the first sample may precede the first move)
    assert {frozenset({cpu}) for cpu in os.sched_getaffinity(0)} <= seen


# -- injected faults -------------------------------------------------------------


@pytest.fixture(scope="module")
def plan():
    """A valid full-plan response (as the server sends it) and its request."""
    from repro.core.task import Task, TaskSet
    from repro.engine import SolveRequest, solve
    from repro.io.schedio import schedule_to_json

    oracle = check.ScheduleOracle()
    body = workloads.schedule_mix(5, 1)[0] | {"method": "der"}
    body.pop("include_schedule", None)
    tasks = TaskSet(Task(release=r, deadline=d, work=c) for r, d, c in body["tasks"])
    result = solve("der", SolveRequest(tasks=tasks, platform=oracle.platform))
    response = {"result": {"energy": result.energy,
                           "schedule": json.loads(schedule_to_json(result.schedule))}}
    return body, response, oracle


def test_checker_accepts_a_valid_plan(plan):
    body, response, oracle = plan
    assert check.check_schedule(body, 200, response, oracle) == []


def test_checker_flags_a_segment_moved_onto_an_occupied_core(plan):
    body, response, oracle = plan
    bad = copy.deepcopy(response)
    segs = bad["result"]["schedule"]["segments"]
    a, b = next(
        (a, b) for a in segs for b in segs
        if a["core"] != b["core"] and a["task"] != b["task"]
        and a["start"] < b["end"] and b["start"] < a["end"]
    )
    a["core"] = b["core"]
    problems = check.check_schedule(body, 200, bad, oracle)
    assert any("CORE_CONFLICT" in p for p in problems)


def test_checker_flags_an_energy_off_by_1e_6(plan):
    body, response, oracle = plan
    bad = copy.deepcopy(response)
    bad["result"]["energy"] += 1e-6
    problems = check.check_schedule(body, 200, bad, oracle)
    assert any("in-process" in p for p in problems)


def test_checker_flags_a_flipped_admit_decision():
    stream = workloads.admit_stream(4, 12)
    replay = check.AdmissionReplay(stream, workloads.CAPPED_F_MAX)
    assert 0 < sum(replay.accepted) < len(stream)  # the cap rejects a share
    valid = [{"result": {"accepted": a}} for a in replay.accepted]
    peek = {"result": replay.snapshot}
    statuses = [200] * len(stream)
    assert not any(check.check_admit_pass(replay, statuses, valid, peek))
    flipped = copy.deepcopy(valid)
    flipped[5]["result"]["accepted"] = not flipped[5]["result"]["accepted"]
    flagged = [p for p in check.check_admit_pass(replay, statuses, flipped, peek) if p]
    assert len(flagged) == 1 and "arrival 5" in flagged[0][0]
    moved = {"result": dict(replay.snapshot, energy=replay.snapshot["energy"] + 1e-9)}
    assert check.check_admit_pass(replay, statuses, valid, moved)[-1]


def test_checker_flags_a_nec_below_one():
    reps = [{"seed": 1, "optimal_energy": 10.0, "nec": {"Idl": 0.9, "F2": 1.0 - 1e-6}}]
    assert check.check_sweep(reps, {1: 10.0}) == [["seed 1: NEC F2=0.999999 < 1"]]
    assert check.check_sweep(reps, {1: 10.0 + 1e-6})[0][-1].startswith("seed 1: E^(O)")


def test_tail_uses_p99_or_the_last_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1000)]) == (pytest.approx(989.01), 99.0)
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0
    assert sum(1 for i in range(100) if i > value) == 10


def test_compare_verdicts():
    import compare

    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "no worse"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1)[0] == "unresolved"
