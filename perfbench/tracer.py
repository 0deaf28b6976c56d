"""In-memory span recorder and the timing wrappers of the traced runs.

A traced run calls :func:`install` in the process under test (the server
launcher or the paper-sweep child) before any work starts.  Each wrapper
replaces one public function or method of the program *where the caller
looks the name up*: a function is rebound in its defining module and in
every loaded ``repro`` module that imported it by name (``core/scheduler.py``
holds its own ``pack_matrix_flat``), a method is rebound on its class.

Spans live in a list and are written out once, by :meth:`Tracer.dump`, when
the process ends.  A span's self time is its duration minus the part its
child spans cover; children run synchronously on the same thread, so that
part is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

__all__ = ["Tracer", "install"]

_now = time.perf_counter


class Tracer:
    """Span store shared by every wrapper :func:`install` puts in place.

    A span is ``[name, t0, t1, child_s, rid, attrs]``.  ``rid`` is the
    request id (the ``x-trace-id`` the client sent) for spans that open on
    an empty stack; nested spans carry ``None``.  A batch span carries the
    list of request ids it served.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.waits: list[tuple[str | None, float]] = []  # (rid, seconds)
        self.fused_jobs = 0
        self._local = threading.local()
        self._submitted: dict[int, float] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, *, rid=None, before=None, after=None):
        """A timing wrapper around ``fn``.

        ``name`` is a span name or ``(args, kwargs) -> name``; ``rid`` maps
        ``(args, kwargs)`` to the request id of a top-level span; ``before``
        runs with ``(args, kwargs)`` just before the call and ``after``
        with ``(attrs, args, kwargs, result)`` once it returns.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            label = name(args, kwargs) if callable(name) else name
            req = rid(args, kwargs) if (rid is not None and not stack) else None
            rec = [label, 0.0, 0.0, 0.0, req, None]
            if before is not None:
                before(args, kwargs)
            stack.append(rec)
            t0 = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                rec[1], rec[2] = t0, t1
                if stack:
                    stack[-1][3] += t1 - t0
                tracer.spans.append(rec)
            if after is not None:
                rec[5] = {}
                after(rec[5], args, kwargs, out)
            return out

        return wrapper

    # -- batcher wait: entry to MicroBatcher.submit → batch start -------------

    def note_submit(self, job) -> None:
        with self._lock:
            self._submitted[id(job)] = _now()

    def note_batch_start(self, jobs) -> None:
        t = _now()
        with self._lock:
            for job in jobs:
                t_in = self._submitted.pop(id(job), None)
                if t_in is not None:
                    self.waits.append((_job_rid(job), t - t_in))

    def note_fused(self, n_jobs: int) -> None:
        # batches can run on several executor threads at once
        with self._lock:
            self.fused_jobs += n_jobs

    def dump(self, path: str, **extra) -> None:
        """Write every span and wait, plus ``extra`` fields, as one JSON file."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "waits": self.waits,
                    "fused_jobs": self.fused_jobs,
                    **extra,
                },
                fh,
            )


def _job_rid(job) -> str | None:
    carrier = job.get("_trace") if isinstance(job, dict) else None
    return str(carrier["trace_id"]) if carrier else None


def _request_rid(_args, _kwargs) -> str | None:
    """The id of the HTTP request being served (its obs trace id)."""
    from repro.obs import context as obs

    span = obs.current_span()
    return span.trace_id if span is not None else None


def _rebind_function(module, attr: str, wrapper) -> None:
    """Point every loaded ``repro`` module's ``attr`` at ``wrapper``."""
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if (name == "repro" or name.startswith("repro.")) and (
            getattr(mod, attr, None) is original
        ):
            setattr(mod, attr, wrapper)


def _rebind_method(cls, attr: str, make) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Put every timing wrapper in place; call once per process."""
    # import everything the wrappers reach first, so the by-name rebinding
    # sees every module that holds a reference; import_module, because a
    # package attribute can shadow its submodule (repro.core.wrap_schedule)
    from importlib import import_module

    def mod(name):
        return import_module(f"repro.{name}")

    admission, allocation, frequency = mod("core.admission"), mod("core.allocation"), mod("core.frequency")
    ideal, incremental, intervals = mod("core.ideal"), mod("core.incremental"), mod("core.intervals")
    scheduler, wrap_schedule = mod("core.scheduler"), mod("core.wrap_schedule")
    registry, schedio = mod("engine.registry"), mod("io.schedio")
    optimal, convex, flow = mod("optimal"), mod("optimal.convex"), mod("optimal.flow")
    pg = mod("optimal.projected_gradient")
    batcher, cache, pool = mod("service.batcher"), mod("service.cache"), mod("service.pool")
    protocol = mod("service.protocol")
    mod("experiments.runner")
    mod("service.server")

    w = tracer.wrap

    # -- core pipeline, io, engine, optimal: plain functions ------------------
    for module, attr, span in (
        (ideal, "solve_ideal", "core.ideal"),
        (allocation, "build_allocation_plan", "core.allocation"),
        (wrap_schedule, "pack_matrix_flat", "core.pack"),
        (frequency, "refine_frequencies", "core.frequency"),
        (schedio, "schedule_to_json", "io.to_json"),
        (flow, "realize_demands", "optimal.flow.realize"),
        (optimal, "solve_problem", "optimal.solve"),
    ):
        _rebind_function(module, attr, w(getattr(module, attr), span))

    def engine_name(args, kwargs):
        solver = args[0] if args else kwargs.get("name", "")
        return "engine.solve.optimal" if str(solver).startswith("optimal:") else "engine.solve"

    def engine_after(attrs, _args, _kwargs, result):
        extras = getattr(result, "extras", None) or {}
        for key in ("newton_iterations", "polish_iters", "factor_time_s"):
            if key in extras:
                attrs[key] = extras[key]

    _rebind_function(
        registry, "solve", w(registry.solve, engine_name, after=engine_after)
    )

    # -- classes: constructors and methods ------------------------------------
    _rebind_method(intervals.Timeline, "__init__", lambda f: w(f, "core.timeline"))
    for attr in ("final", "final_from_plan"):
        _rebind_method(
            scheduler.SubintervalScheduler, attr, lambda f: w(f, "core.materialize")
        )
    _rebind_method(convex.ConvexProblem, "__init__", lambda f: w(f, "optimal.problem"))
    _rebind_method(
        pg.ProjectedGradientSolver, "solve", lambda f: w(f, "optimal.pg")
    )

    # -- service: protocol, cache, batcher, pool ------------------------------
    for cls in (protocol.ScheduleRequest, protocol.AdmitRequest):
        _rebind_method(
            cls,
            "from_body",
            lambda f: w(f, "service.protocol.parse", rid=_request_rid),
        )

    def probe_after(attrs, args, kwargs, out):
        default = args[2] if len(args) > 2 else kwargs.get("default")
        attrs["hit"] = out is not default

    _rebind_method(
        cache.PlanCache,
        "get",
        lambda f: w(f, "service.cache.probe", rid=_request_rid, after=probe_after),
    )

    original_submit = batcher.MicroBatcher.submit

    @functools.wraps(original_submit)
    async def submit(self, job):
        tracer.note_submit(job)
        return await original_submit(self, job)

    batcher.MicroBatcher.submit = submit

    # the dispatcher passes the job list positionally
    def batch_rids(args, _kwargs):
        return [_job_rid(job) for job in args[0]]

    def batch_before(args, _kwargs):
        tracer.note_batch_start(args[0])

    def batch_after(attrs, args, _kwargs, _out):
        attrs["jobs"] = len(args[0])

    _rebind_function(
        pool,
        "solve_schedule_batch",
        w(
            pool.solve_schedule_batch,
            "service.pool.batch",
            rid=batch_rids,
            before=batch_before,
            after=batch_after,
        ),
    )

    original_fused = pool._solve_fused

    @functools.wraps(original_fused)
    def solve_fused(jobs):
        out = original_fused(jobs)
        tracer.note_fused(len(jobs))
        return out

    pool._solve_fused = solve_fused

    # -- incremental session and admission ------------------------------------
    def delta_after(attrs, args, _kwargs, _out):
        stats = args[0].last_delta
        if stats is not None:
            attrs["touched"] = stats.touched
            attrs["total"] = stats.total

    _rebind_method(
        incremental.ScheduleSession,
        "add_task",
        lambda f: w(f, "core.incremental.add_task", after=delta_after),
    )
    _rebind_method(
        admission.AdmissionController,
        "is_schedulable",
        lambda f: w(f, "core.admission.feasibility"),
    )

    def admit_after(attrs, _args, _kwargs, decision):
        attrs["accepted"] = bool(decision.accepted)

    _rebind_method(
        admission.AdmissionController,
        "try_admit",
        lambda f: w(f, "core.admission.try_admit", rid=_request_rid, after=admit_after),
    )
