"""Correctness checks of every workload's outputs, run outside the timed window.

Each checker returns a list of problems (empty = correct); the benchmark
counts an operation whose output has a problem as failed.
"""

from __future__ import annotations

import json

#: tolerance of every energy comparison (relative, floored at 1)
ENERGY_TOL = 1e-9
#: NEC floor: no m-core schedule may beat the convex optimum E^(O)
NEC_FLOOR = 1.0 - 1e-9


def energy_close(a: float, b: float, tol: float = ENERGY_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class ScheduleOracle:
    """In-process ``engine.solve`` energies, one per distinct request body."""

    def __init__(self, m: int = 4, alpha: float = 3.0, static: float = 0.0):
        from repro.engine import Platform
        from repro.power.models import PolynomialPower

        self.platform = Platform(m=m, power=PolynomialPower(alpha=alpha, static=static))
        self._energy: dict[str, float] = {}

    def energy(self, body: dict) -> float:
        key = json.dumps([body["tasks"], body.get("method", "der")])
        if key not in self._energy:
            from repro.core.task import Task, TaskSet
            from repro.engine import SolveRequest, solve

            tasks = TaskSet(
                Task(release=r, deadline=d, work=c) for r, d, c in body["tasks"]
            )
            result = solve(
                body.get("method", "der"),
                SolveRequest(tasks=tasks, platform=self.platform),
                validate=False,
            )
            self._energy[key] = float(result.energy)
        return self._energy[key]


def check_schedule(body: dict, status: int, response: dict, oracle: ScheduleOracle) -> list[str]:
    """One ``/v1/schedule`` response against its request body.

    A full plan must parse with ``schedule_from_json``, pass
    ``validate_schedule`` and carry the energy it reports; the reported
    energy must equal an in-process ``engine.solve`` on the same task set.
    """
    from repro.io.schedio import schedule_from_json
    from repro.sim.validate import validate_schedule

    if status != 200:
        return [f"status {status}: {response.get('error')}"]
    result = response.get("result")
    if not isinstance(result, dict) or "energy" not in result:
        return ["response has no result energy"]
    problems = []
    want = oracle.energy(body)
    if not energy_close(result["energy"], want):
        problems.append(f"energy {result['energy']!r} != in-process {want!r}")
    doc = result.get("schedule")
    if body.get("include_schedule", True):
        if doc is None:
            return problems + ["full plan requested but no schedule returned"]
        schedule = schedule_from_json(json.dumps(doc))
        if len(schedule.tasks) != len(body["tasks"]):
            problems.append("schedule holds a different number of tasks")
        violations = validate_schedule(schedule)
        problems.extend(str(v) for v in violations[:3])
        if not energy_close(schedule.total_energy(), result["energy"]):
            problems.append(
                f"plan energy {schedule.total_energy()!r} != reported {result['energy']!r}"
            )
    elif doc is not None:
        problems.append("include_schedule:false answered with a schedule")
    return problems


class AdmissionReplay:
    """An in-process ``AdmissionController`` run over one arrival stream."""

    def __init__(self, stream: list[list[float]], f_max: float | None, m: int = 4,
                 alpha: float = 3.0, static: float = 0.0):
        from repro.core.admission import AdmissionController
        from repro.core.task import Task
        from repro.power.models import PolynomialPower
        from repro.service.server import SchedulingService

        controller = AdmissionController(
            m=m, power=PolynomialPower(alpha=alpha, static=static), f_max=f_max
        )
        self.accepted = [
            controller.try_admit(
                Task(release=r, deadline=d, work=c), materialize=False
            ).accepted
            for r, d, c in stream
        ]
        # the server's peek snapshot, through the same JSON round trip
        self.snapshot = json.loads(json.dumps(SchedulingService._peek_snapshot(controller)))


def check_admit_pass(replay: AdmissionReplay, statuses: list[int],
                     responses: list[dict], peek: dict) -> list[list[str]]:
    """Problems per arrival of one pass, then one entry for its final peek.

    The accept/reject sequence must be the replay's, and the final
    ``{"peek": true}`` snapshot bit-equal to the replay's.
    """
    out: list[list[str]] = []
    for i, (status, resp) in enumerate(zip(statuses, responses)):
        got = (resp.get("result") or {}).get("accepted")
        if status != 200:
            out.append([f"arrival {i}: status {status}: {resp.get('error')}"])
        elif got is not replay.accepted[i]:
            out.append([f"arrival {i}: accepted={got}, replay says {replay.accepted[i]}"])
        else:
            out.append([])
    final = []
    if len(responses) != len(replay.accepted):
        final.append(f"{len(responses)} responses for {len(replay.accepted)} arrivals")
    if (peek.get("result") or {}) != replay.snapshot:
        final.append("final peek snapshot differs from the in-process replay")
    out.append(final)
    return out


def check_sweep(reps: list[dict], oracle_energy: dict[int, float]) -> list[list[str]]:
    """Per-replication problems: NEC floor and E^(O) against the dense oracle."""
    out = []
    for rep in reps:
        # every m-core schedule costs at least E^(O); the unlimited-core
        # ideal "Idl" is a relaxation and costs at most E^(O)
        problems = [
            f"seed {rep['seed']}: NEC {name}={value!r} < 1"
            for name, value in rep["nec"].items()
            if name != "Idl" and not value >= NEC_FLOOR
        ]
        if not rep["nec"]["Idl"] <= 2.0 - NEC_FLOOR:
            problems.append(f"seed {rep['seed']}: NEC Idl={rep['nec']['Idl']!r} > 1")
        want = oracle_energy[rep["seed"]]
        if not energy_close(rep["optimal_energy"], want):
            problems.append(
                f"seed {rep['seed']}: E^(O) {rep['optimal_energy']!r} != dense {want!r}"
            )
        out.append(problems)
    return out


def dense_oracle(seeds, n_tasks: int, m: int) -> dict[int, float]:
    """E^(O) of each replication's task set from the dense Newton kernel, cold."""
    import numpy as np

    from repro.engine import Platform, SolveRequest, solve
    from repro.experiments.runner import PointSpec

    spec = PointSpec(n_tasks=n_tasks, m=m)
    out = {}
    for s in seeds:
        tasks = spec.draw(np.random.default_rng(s))
        req = SolveRequest(tasks=tasks, platform=Platform(m=m, power=spec.power()))
        out[s] = float(
            solve("optimal:interior-point", req, validate=False, materialize=False,
                  warm=False, kernel="dense").energy
        )
    return out
