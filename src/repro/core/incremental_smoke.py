"""Smoke check: the incremental session vs. the batch oracle, at speed.

Run as ``python -m repro.core.incremental_smoke`` (the
``make incremental-smoke`` target).  Replays a seeded 500-event stream of
arrivals, completions, and clock advances through a
:class:`~repro.core.incremental.ScheduleSession` per allocation policy.
After every event the session's plan is bit-compared against a fresh
batch :class:`~repro.core.scheduler.SubintervalScheduler` — boundaries,
coverage, the allocation matrix, and the final energy must all be exactly
equal, not merely close.  The accumulated delta wall time must also beat
the accumulated rebuild wall time by the soft speedup gate (3x; the
typical margin is far larger — the gate only catches gross regressions).

A second leg drives a capped
:class:`~repro.core.admission.AdmissionController` through a seeded stream
of 400 arrivals at ``f_max`` that rejects most of them.  Every warm-started
decision must equal a cold :func:`~repro.optimal.flow.realize_demands` from
zero flow, and the warm feasibility time (the controller's
``admission.feasibility`` spans) must beat the cold time by the same 3x gate.
Exit code 0 means every comparison held and both gates passed.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from ..obs import context as obs
from ..optimal.flow import realize_demands
from ..power import PolynomialPower
from .admission import AdmissionController
from .incremental import SESSION_METHODS, ScheduleSession
from .scheduler import SubintervalScheduler
from .task import Task, TaskSet

_EVENTS = 500
# the delta advantage scales with the live-pool size; below ~50 tasks the
# per-delta refresh overhead eats most of the win, so keep the pool large
# enough that the speedup gate measures the splice, not the fixed costs
_MAX_LIVE = 80
_SPEEDUP_GATE = 3.0
# the warm advantage scales with the committed set; 8 cores keep ~80 of the
# 400 arrivals, enough that the gate measures the flow, not fixed costs
_ADMIT_ARRIVALS = 400
_ADMIT_CORES = 8
_F_MAX = 1.0


def _stream(seed: int):
    """Yield ``('add', Task) | ('done',) | ('advance', t)`` events."""
    rng = np.random.default_rng(seed)
    clock = 0.0
    for _ in range(_EVENTS):
        u = rng.random()
        if u < 0.7:
            clock += float(rng.exponential(0.5))
            window = float(rng.uniform(20.0, 60.0))
            work = float(rng.uniform(1.0, 10.0))
            yield "add", Task(clock, clock + window, work), clock
        elif u < 0.9:
            yield "done", None, clock
        else:
            yield "advance", None, clock


def _run_method(method: str, seed: int) -> tuple[bool, str]:
    power = PolynomialPower(alpha=3.0, static=0.1)
    m = 4
    session = ScheduleSession(m, power, method=method)
    rng = np.random.default_rng(seed + 1)
    live: list[int] = []
    delta_s = 0.0
    rebuild_s = 0.0
    n_max = 0
    for kind, task, clock in _stream(seed):
        if kind == "add":
            if len(live) >= _MAX_LIVE:
                session.complete_task(live.pop(0))
            live.append(session.add_task(task))
            delta_s += session.last_delta.wall_s
        elif kind == "done":
            if not live:
                continue
            session.complete_task(live.pop(rng.integers(len(live))))
            delta_s += session.last_delta.wall_s
        else:
            # retire anything whose deadline the clock has passed, then
            # re-anchor the remaining releases at the current instant
            for h in [h for h in live if session.task_of(h).deadline <= clock + 0.5]:
                live.remove(h)
                session.complete_task(h)
                delta_s += session.last_delta.wall_s
            if not live:
                continue
            session.advance_to(clock)
            delta_s += session.last_delta.wall_s
        if session.is_empty:
            continue
        n_max = max(n_max, len(session))
        t0 = time.perf_counter()
        batch = SubintervalScheduler(session.taskset(), m, power)
        plan = batch.plan(method)
        energy = batch.final(method).energy
        rebuild_s += time.perf_counter() - t0
        if not np.array_equal(plan.timeline.boundaries, session.boundaries):
            return False, f"{method}: boundaries diverged at clock={clock:.3f}"
        if not np.array_equal(plan.x, session._x):
            return False, f"{method}: allocation matrix diverged at clock={clock:.3f}"
        if energy != session.energy:
            return False, (
                f"{method}: energy diverged at clock={clock:.3f} "
                f"(session {session.energy!r} vs batch {energy!r})"
            )
    speedup = rebuild_s / delta_s if delta_s > 0 else float("inf")
    ratio = session.touched_columns / max(session.total_columns, 1)
    line = (
        f"  ok  {method:6s} events={_EVENTS} n_max={n_max:3d} "
        f"delta={delta_s * 1e3:7.1f}ms rebuild={rebuild_s * 1e3:7.1f}ms "
        f"speedup={speedup:5.1f}x touched={ratio:.3f}"
    )
    if speedup < _SPEEDUP_GATE:
        return False, (
            f"{method}: delta speedup {speedup:.1f}x below the "
            f"{_SPEEDUP_GATE:.0f}x gate (delta {delta_s:.3f}s, "
            f"rebuild {rebuild_s:.3f}s)"
        )
    return True, line


def _run_admission(seed: int) -> tuple[bool, str]:
    """Capped admission: warm decisions against the cold max-flow oracle."""
    rng = np.random.default_rng(seed + 2)
    ctl = AdmissionController(_ADMIT_CORES, PolynomialPower(alpha=3.0, static=0.1), f_max=_F_MAX)
    clock = 0.0
    cold_s = 0.0
    accepted = 0
    with obs.capture() as spans, obs.span("smoke.admission"):
        for k in range(_ADMIT_ARRIVALS):
            clock += float(rng.exponential(0.5))
            window = float(rng.uniform(20.0, 60.0))
            task = Task(clock, clock + window, float(rng.uniform(0.3, 1.0)) * window * _F_MAX)
            candidate = TaskSet([*(ctl.committed or ()), task])
            t0 = time.perf_counter()
            cold = realize_demands(candidate, ctl.m, candidate.works / _F_MAX).feasible
            cold_s += time.perf_counter() - t0
            decision = ctl.try_admit(task, materialize=False)
            if decision.accepted != cold:
                return False, (
                    f"admission: arrival {k} warm accepted={decision.accepted}, "
                    f"cold oracle says {cold}"
                )
            accepted += decision.accepted
    warm_s = sum(s["dur_ms"] for s in spans if s["name"] == "admission.feasibility") / 1e3
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    line = (
        f"  ok  admit  arrivals={_ADMIT_ARRIVALS} accepted={accepted:3d} "
        f"warm={warm_s * 1e3:7.1f}ms cold={cold_s * 1e3:7.1f}ms "
        f"speedup={speedup:5.1f}x"
    )
    if speedup < _SPEEDUP_GATE:
        return False, (
            f"admission: warm speedup {speedup:.1f}x below the "
            f"{_SPEEDUP_GATE:.0f}x gate (warm {warm_s:.3f}s, cold {cold_s:.3f}s)"
        )
    return True, line


def run(seed: int = 0) -> int:
    """Replay the streams; return a process exit code."""
    failures: list[str] = []
    results = [_run_method(method, seed) for method in SESSION_METHODS]
    results.append(_run_admission(seed))
    for ok, line in results:
        if ok:
            print(line)
        else:
            failures.append(line)
    if failures:
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(
        f"incremental smoke: {len(SESSION_METHODS)} policies bit-exact, "
        "admission decisions match the cold oracle"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
