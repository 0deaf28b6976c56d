"""The repository benchmark: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload schedule-mix --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``schedule-mix``  — ``/v1/schedule`` open loop of Poisson arrivals, then a
  closed-loop capacity phase with 2 connections;
* ``admit-stream``  — one uncapped arrival stream posted to ``/v1/admit``;
* ``admit-capped``  — a shorter stream whose ``f_max`` rejects a share;
* ``paper-sweep``   — the Fig. 6 replication loop, in-process.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced (timing wrappers in the process under
test) and reports the per-layer metrics.  Every output is checked for
correctness after the timed window.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full result, with host, git
sha and config, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

WORKLOADS = ("schedule-mix", "admit-stream", "admit-capped", "paper-sweep")
HOST = "127.0.0.1"
CONNECTIONS = 2  # the client's connection cap: nproc of the reference host
SETUP_LAUNCHES = 3  # set-ups per run; setup_s is their median
ROTATE_S = 0.05  # how long the process under test stays on one CPU
#: share of --seconds the schedule-mix open loop gets; the rest is capacity
OPEN_SHARE = 0.75
#: the schedule-mix open loop runs in this many parts, each followed by a
#: capacity segment of ``CAP_BLOCKS`` whole request blocks
CAP_SEGMENTS = 4
CAP_BLOCKS = 3


# -- statistics ------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: p99 from 1000 samples on, else the highest
    percentile with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    if n >= 1000:
        return statistics.quantiles(s, n=100, method="inclusive")[98], 99.0
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def latency_metrics(lat_s: list[float]) -> dict:
    value, pct = tail(lat_s)
    return {
        "p50_ms": statistics.median(lat_s) * 1e3,
        "tail_ms": value * 1e3,
        "tail_percentile": pct,
        "samples": len(lat_s),
    }


# -- processes under test --------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@contextlib.contextmanager
def rotate_cpus(pid: int):
    """Move every thread of process ``pid`` to the next CPU each ``ROTATE_S``.

    On a shared host each CPU has slow stretches of its own: the two CPUs
    of the reference host each ran a fixed loop up to 1.7x slower for 5 to
    30 s, at different times.  The scheduler leaves a busy process on the
    CPU it runs on, so a run would carry one CPU's slow stretches whole;
    rotating makes the process under test sample every CPU alike.
    """
    cpus = sorted(os.sched_getaffinity(0))
    stop = threading.Event()

    def loop() -> None:
        k = 0
        while not stop.wait(ROTATE_S):
            k += 1
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except FileNotFoundError:  # the process has ended
                return
            for tid in tids:
                try:
                    os.sched_setaffinity(int(tid), {cpus[k % len(cpus)]})
                except ProcessLookupError:  # the thread has ended
                    pass

    thread = threading.Thread(target=loop, daemon=True)
    if len(cpus) > 1:
        thread.start()
    try:
        yield
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=30)


class Server:
    """One ``perfbench/serve.py`` process; ``start`` returns its set-up time."""

    def __init__(self, tag: str, trace: bool):
        self.port_file = OUT / f"{tag}.port"
        self.out_file = OUT / f"{tag}.json"
        self.log_file = OUT / f"{tag}.log"
        self.trace = trace
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        import http.client

        for f in (self.port_file, self.out_file):
            f.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "serve.py"), "--port-file", str(self.port_file),
               "--out", str(self.out_file)] + (["--trace"] if self.trace else [])
        t0 = time.monotonic()
        with open(self.log_file, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=_child_env(), cwd=ROOT)
        deadline = t0 + 120
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited during start-up (see {self.log_file})")
            if time.monotonic() > deadline:
                raise RuntimeError("server did not become healthy in 120 s")
            if self.port == 0 and self.port_file.exists():
                self.port = int(self.port_file.read_text())
            if self.port:
                try:
                    conn = http.client.HTTPConnection(HOST, self.port, timeout=5)
                    conn.request("GET", "/v1/healthz")
                    status = conn.getresponse().status
                    conn.close()
                    if status == 200:
                        return time.monotonic() - t0
                except OSError:
                    pass
            time.sleep(0.002)

    def stop(self) -> dict:
        """SIGTERM (graceful drain), then the process's own report."""
        proc, self.proc = self.proc, None
        if proc is None:
            return {}
        try:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)
        finally:
            _stop(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"server exited with {proc.returncode} (see {self.log_file})")
        return json.loads(self.out_file.read_text())


def boot_servers(tag: str) -> tuple[Server, list[float]]:
    """Boot ``SETUP_LAUNCHES`` servers one after another; keep the last."""
    times = []
    for k in range(SETUP_LAUNCHES):
        server = Server(f"{tag}-boot{k}", trace=False)
        try:
            times.append(server.start())
        except BaseException:
            server.stop()
            raise
        if k < SETUP_LAUNCHES - 1:
            server.stop()
    return server, times


# -- HTTP load -------------------------------------------------------------------


def _encode(bodies: list[dict], path: str, rid_prefix: str) -> list[bytes]:
    from repro.service.loadgen import HttpClient

    codec = HttpClient(HOST, 0)
    return [
        codec.encode_request("POST", path, body, {"x-trace-id": f"{rid_prefix}{i}"})
        for i, body in enumerate(bodies)
    ]


async def _clients(port: int, n: int):
    from repro.service.loadgen import HttpClient

    clients = [HttpClient(HOST, port) for _ in range(n)]
    for c in clients:
        await c.connect()
    return clients


async def _send(client, data: bytes) -> tuple[int, bytes]:
    try:
        status, _headers, body = await client.request_raw(data)
        return status, body
    except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
        await client.close()
        return 0, json.dumps({"error": f"{type(exc).__name__}: {exc}"}).encode()


async def open_loop(port: int, encoded: list[bytes], offsets) -> list[tuple]:
    """Poisson open loop over at most ``CONNECTIONS`` connections.

    Returns ``(status, body, latency_from_due, latency_from_send, lag)`` per
    request; a request waits for a free connection past its due time, and
    that wait is both latency and generator lag.
    """
    clients = await _clients(port, CONNECTIONS)
    free: asyncio.Queue = asyncio.Queue()
    for c in clients:
        free.put_nowait(c)
    results: list[tuple | None] = [None] * len(encoded)

    async def one(i: int, client, due: float, sent: float) -> None:
        status, body = await _send(client, encoded[i])
        done = time.perf_counter()
        results[i] = (status, body, done - due, done - sent, sent - due)
        free.put_nowait(client)

    tasks = []
    start = time.perf_counter()
    for i, offset in enumerate(offsets):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        client = await free.get()
        tasks.append(asyncio.create_task(one(i, client, due, time.perf_counter())))
    await asyncio.gather(*tasks)
    for c in clients:
        await c.close()
    return results  # type: ignore[return-value]


async def closed_loop(port: int, encoded: list[bytes]) -> tuple[list[tuple], float]:
    """``CONNECTIONS`` clients, each sending the next request on a reply,
    until every request is answered."""
    clients = await _clients(port, CONNECTIONS)
    results: list[tuple] = []
    next_i = 0

    async def worker(client) -> None:
        nonlocal next_i
        while next_i < len(encoded):
            i, next_i = next_i, next_i + 1
            t0 = time.perf_counter()
            status, body = await _send(client, encoded[i])
            dt = time.perf_counter() - t0
            results.append((i, status, body, dt))

    t0 = time.perf_counter()
    await asyncio.gather(*(worker(c) for c in clients))
    elapsed = time.perf_counter() - t0
    for c in clients:
        await c.close()
    return results, elapsed


# -- workloads -------------------------------------------------------------------


def _decode(body: bytes) -> dict:
    try:
        out = json.loads(body)
    except ValueError:
        return {"error": "undecodable body"}
    return out if isinstance(out, dict) else {"error": "non-object body"}


def schedule_mix_phase(server: Server, seed: int, seconds: float, oracle, tag: str,
                       cap_blocks: int = CAP_BLOCKS) -> dict:
    """Warm-up, then the open loop in ``CAP_SEGMENTS`` parts, each followed
    by a capacity segment, against a running server.

    The warm-up is one untimed block sent as a closed loop.  Each capacity
    segment is ``cap_blocks`` whole blocks, so every segment does the same
    mix of work; ``ops_per_s`` is the median over the segments, which are
    spread over the run so that no one slow stretch of the host sets it.
    """
    import check
    import workloads

    open_s = seconds * OPEN_SHARE
    offsets = workloads.poisson_offsets(seed, int(workloads.OFFERED_RATE * open_s * 3) + 10,
                                        workloads.OFFERED_RATE)
    offsets = offsets[offsets < open_s]
    cap_n = cap_blocks * workloads.BLOCK
    open_bodies = workloads.schedule_mix(seed, len(offsets), stream=0)
    cap_bodies = workloads.schedule_mix(seed, CAP_SEGMENTS * cap_n, stream=1)
    warm_bodies = workloads.schedule_mix(seed, workloads.BLOCK, stream=2)
    open_enc = _encode(open_bodies, "/v1/schedule", f"{tag}o")
    cap_enc = _encode(cap_bodies, "/v1/schedule", f"{tag}c")
    warm_enc = _encode(warm_bodies, "/v1/schedule", f"{tag}w")

    warm, _ = asyncio.run(closed_loop(server.port, warm_enc))
    opened: list[tuple] = []
    capacity: list[tuple] = []
    rates = []
    part = open_s / CAP_SEGMENTS
    for j in range(CAP_SEGMENTS):
        idx = [i for i, o in enumerate(offsets) if j * part <= o < (j + 1) * part]
        opened += asyncio.run(open_loop(server.port, [open_enc[i] for i in idx],
                                        [offsets[i] - j * part for i in idx]))
        lo = j * cap_n
        seg, elapsed = asyncio.run(closed_loop(server.port, cap_enc[lo:lo + cap_n]))
        capacity += [(lo + i, *rest) for i, *rest in seg]
        rates.append(len(seg) / elapsed)

    problems = [check.check_schedule(body, status, _decode(raw), oracle)
                for body, (status, raw, *_rest) in zip(open_bodies, opened)]
    for bodies, results in ((cap_bodies, capacity), (warm_bodies, warm)):
        problems += [check.check_schedule(bodies[i], status, _decode(raw), oracle)
                     for i, status, raw, _dt in results]
    return {
        "latency_s": [r[2] for r in opened],
        "client_s": {f"{tag}o{i}": r[3] for i, r in enumerate(opened)}
        | {f"{tag}c{i}": dt for i, _s, _b, dt in capacity},
        "lag_s": [r[4] for r in opened],
        "ops_per_s": statistics.median(rates),
        "problems": problems,
        "open_requests": len(opened),
        "capacity_requests": len(capacity),
        "passes": 1,
    }


async def _admit_pass(port: int, reset: bytes, arrivals: list[bytes], peek: bytes):
    clients = await _clients(port, 1)
    client = clients[0]
    reset_status, _ = await _send(client, reset)
    statuses, bodies, lat = [], [], []
    t_start = time.perf_counter()
    for data in arrivals:
        t0 = time.perf_counter()
        status, body = await _send(client, data)
        lat.append(time.perf_counter() - t0)
        statuses.append(status)
        bodies.append(body)
    elapsed = time.perf_counter() - t_start
    peek_status, peek_body = await _send(client, peek)
    await client.close()
    return reset_status, statuses, bodies, lat, elapsed, peek_status, peek_body


def admit_phase(server: Server, streams: list, f_max, cycles: int, tag: str) -> dict:
    """``cycles`` whole cycles over the stream list, one pass (reset, stream,
    peek) per stream; ``ops_per_s`` is the median over the cycles."""
    extra = {} if f_max is None else {"f_max": f_max}
    reset = _encode([{"reset": True, **extra}], "/v1/admit", f"{tag}reset")[0]
    peek = _encode([{"peek": True, **extra}], "/v1/admit", f"{tag}peek")[0]
    lat, passes, client_s, rates = [], [], {}, []
    for _ in range(cycles):
        cycle_n, cycle_s = 0, 0.0
        for k, stream in enumerate(streams):
            prefix = f"{tag}p{len(passes)}-"
            arrivals = _encode([{"task": t, **extra} for t in stream], "/v1/admit", prefix)
            out = asyncio.run(_admit_pass(server.port, reset, arrivals, peek))
            _reset, _statuses, _bodies, pass_lat, pass_s, _peek, _peek_body = out
            cycle_n += len(pass_lat)
            cycle_s += pass_s
            passes.append((k, out))
            lat.extend(pass_lat)
            client_s.update({f"{prefix}{i}": dt for i, dt in enumerate(pass_lat)})
        rates.append(cycle_n / cycle_s)
    return {
        "latency_s": lat,
        "client_s": client_s,
        "ops_per_s": statistics.median(rates),
        "raw_passes": passes,
        "passes": len(passes),
    }


def check_admit_phase(phase: dict, replay) -> list[list[str]]:
    """``replay(k)`` is the in-process replay of stream ``k``."""
    import check

    problems = []
    for k, out in phase["raw_passes"]:
        reset_status, statuses, bodies, _lat, _s, peek_status, peek_body = out
        problems.append([] if reset_status == 200 else [f"reset answered {reset_status}"])
        problems.extend(check.check_admit_pass(
            replay(k), statuses, [_decode(b) for b in bodies],
            _decode(peek_body) if peek_status == 200 else {}))
    return problems


def sweep_child(seed: int, passes: int, reps: int, tag: str, trace: bool = False,
                setup_only: bool = False) -> tuple[dict, float]:
    out = OUT / f"{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "sweep.py"), "--seed", str(seed), "--passes", str(passes),
           "--reps", str(reps), "--out", str(out)]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    t0 = time.monotonic()
    with open(OUT / f"{tag}.log", "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=_child_env(), cwd=ROOT)
        try:
            with rotate_cpus(proc.pid):
                code = proc.wait(timeout=170)
        finally:
            _stop(proc)
    if code != 0:
        raise RuntimeError(f"paper-sweep child exited with {code} (see {OUT / (tag + '.log')})")
    data = json.loads(out.read_text())
    return data, data["ready"] - t0


# -- per-layer report ------------------------------------------------------------

#: per-layer metric → (unit, what it is); every traced run reports them all
LAYER_METRICS = {
    "service.protocol.parse_ms": ("ms", "self time per ScheduleRequest/AdmitRequest.from_body"),
    "service.cache.probe_ms": ("ms", "self time per PlanCache.get"),
    "service.cache.hit_ratio": ("ratio", "PlanCache.get hits / probes"),
    "service.batcher.wait_ms": ("ms", "MicroBatcher.submit entry to batch start, per job"),
    "service.batcher.batch_size": ("jobs", "jobs per solve_schedule_batch call"),
    "service.pool.batch_ms": ("ms", "self time per solve_schedule_batch call"),
    "service.pool.fused_ratio": ("ratio", "jobs solved in a fused pass / jobs"),
    "service.unattributed_ms": ("ms", "client latency minus attributed layers, per request"),
    "engine.solve_ms": ("ms", "self time per engine.solve (subinterval solvers)"),
    "engine.solve.optimal_ms": ("ms", "self time per engine.solve (optimal:*)"),
    "core.timeline_ms": ("ms", "self time per Timeline construction"),
    "core.ideal_ms": ("ms", "self time per solve_ideal"),
    "core.allocation_ms": ("ms", "self time per build_allocation_plan"),
    "core.pack_ms": ("ms", "self time per pack_matrix_flat"),
    "core.frequency_ms": ("ms", "self time per refine_frequencies"),
    "core.materialize_ms": ("ms", "self time per SubintervalScheduler.final/final_from_plan"),
    "io.to_json_ms": ("ms", "self time per schedule_to_json"),
    "core.admission.try_admit_ms": ("ms", "whole AdmissionController.try_admit"),
    "core.admission.try_admit_q1_ms": ("ms", "whole try_admit, first quarter of the stream"),
    "core.admission.try_admit_q4_ms": ("ms", "whole try_admit, last quarter of the stream"),
    "core.incremental.add_task_ms": ("ms", "self time per ScheduleSession.add_task"),
    "core.incremental.touched_ratio": ("ratio", "sum touched / sum total columns (last_delta)"),
    "core.admission.feasibility_ms": ("ms", "self time per is_schedulable"),
    "core.admission.accept_ratio": ("ratio", "accepted / try_admit calls"),
    "core.admission.committed": ("count", "tasks committed per stream pass"),
    "optimal.flow.realize_ms": ("ms", "self time per realize_demands"),
    "optimal.problem_ms": ("ms", "self time per ConvexProblem construction"),
    "optimal.solve_ms": ("ms", "self time per solve_problem"),
    "optimal.pg_ms": ("ms", "self time per ProjectedGradientSolver.solve"),
    "optimal.pg_calls": ("count", "ProjectedGradientSolver.solve calls per solve_problem"),
    "optimal.newton_iters": ("count", "program-reported: SolveResult.extras newton_iterations, mean"),
    "optimal.polish_iters": ("count", "program-reported: SolveResult.extras polish_iters, mean"),
    "optimal.factor_ms": ("ms", "program-reported: SolveResult.extras factor_time_s, mean"),
    "optimal.polish_capped_ratio": ("ratio", "solves whose polish used the whole IPConfig.polish budget"),
    "loadgen.lag_ms": ("ms", "open-loop send time minus due time, mean"),
    "trace.overhead_frac": ("frac", "traced p50_ms / untraced p50_ms - 1"),
}

#: span name → self-time metric
_SPAN_METRIC = {
    "service.protocol.parse": "service.protocol.parse_ms",
    "service.cache.probe": "service.cache.probe_ms",
    "service.pool.batch": "service.pool.batch_ms",
    "engine.solve": "engine.solve_ms",
    "engine.solve.optimal": "engine.solve.optimal_ms",
    "core.timeline": "core.timeline_ms",
    "core.ideal": "core.ideal_ms",
    "core.allocation": "core.allocation_ms",
    "core.pack": "core.pack_ms",
    "core.frequency": "core.frequency_ms",
    "core.materialize": "core.materialize_ms",
    "io.to_json": "io.to_json_ms",
    "core.incremental.add_task": "core.incremental.add_task_ms",
    "core.admission.feasibility": "core.admission.feasibility_ms",
    "optimal.flow.realize": "optimal.flow.realize_ms",
    "optimal.problem": "optimal.problem_ms",
    "optimal.solve": "optimal.solve_ms",
    "optimal.pg": "optimal.pg_ms",
}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_report(dump: dict, client_s: dict, passes: int = 1, stream_len: int = 0) -> tuple[dict, list]:
    """Per-layer metrics and table rows from one traced process's spans.

    ``client_s`` maps request ids to client-side latency (from send) for
    ``service.unattributed_ms``; ``stream_len`` places admit arrivals in
    the quarters of their stream.
    """
    from repro.optimal.interior_point import IPConfig

    by_name: dict[str, list] = {}
    for sp in dump["spans"]:
        by_name.setdefault(sp[0], []).append(sp)
    m = {name: 0.0 for name in LAYER_METRICS}
    rows = []
    for name, spans in by_name.items():
        self_s = [sp[2] - sp[1] - sp[3] for sp in spans]
        wall_s = [sp[2] - sp[1] for sp in spans]
        rows.append((name, len(spans), sum(self_s), _mean(self_s) * 1e3, _mean(wall_s) * 1e3))
        if name in _SPAN_METRIC:
            m[_SPAN_METRIC[name]] = _mean(self_s) * 1e3
    rows.sort(key=lambda r: -r[2])

    probes = by_name.get("service.cache.probe", [])
    m["service.cache.hit_ratio"] = _mean(1.0 if sp[5]["hit"] else 0.0 for sp in probes)
    m["service.batcher.wait_ms"] = _mean(w for _rid, w in dump["waits"]) * 1e3
    batches = by_name.get("service.pool.batch", [])
    jobs = sum(sp[5]["jobs"] for sp in batches)
    m["service.batcher.batch_size"] = jobs / len(batches) if batches else 0.0
    m["service.pool.fused_ratio"] = dump["fused_jobs"] / jobs if jobs else 0.0

    # per request: the layers it blocked on, in order (parse, probe, batcher
    # wait, the whole batch it rode in, or the whole admission)
    attributed: dict[str, float] = {}
    for sp in dump["spans"]:
        rids = sp[4] if isinstance(sp[4], list) else [sp[4]]
        for rid in rids:
            if rid is not None:
                attributed[rid] = attributed.get(rid, 0.0) + sp[2] - sp[1]
    for rid, w in dump["waits"]:
        if rid is not None:
            attributed[rid] = attributed.get(rid, 0.0) + w
    m["service.unattributed_ms"] = _mean(
        (lat - attributed.get(rid, 0.0)) * 1e3 for rid, lat in client_s.items()
    )

    admits = by_name.get("core.admission.try_admit", [])
    if admits:
        m["core.admission.try_admit_ms"] = _mean(sp[2] - sp[1] for sp in admits) * 1e3
        q = max(1, stream_len // 4)
        index = [int(str(sp[4]).rsplit("-", 1)[1]) for sp in admits]
        m["core.admission.try_admit_q1_ms"] = _mean(
            sp[2] - sp[1] for sp, i in zip(admits, index) if i < q) * 1e3
        m["core.admission.try_admit_q4_ms"] = _mean(
            sp[2] - sp[1] for sp, i in zip(admits, index) if i >= stream_len - q) * 1e3
        accepted = sum(1 for sp in admits if sp[5]["accepted"])
        m["core.admission.accept_ratio"] = accepted / len(admits)
        m["core.admission.committed"] = accepted / passes
    deltas = [sp[5] for sp in by_name.get("core.incremental.add_task", []) if "total" in sp[5]]
    total = sum(d["total"] for d in deltas)
    m["core.incremental.touched_ratio"] = sum(d["touched"] for d in deltas) / total if total else 0.0

    solves = by_name.get("optimal.solve", [])
    if solves:
        m["optimal.pg_calls"] = len(by_name.get("optimal.pg", [])) / len(solves)
    extras = [sp[5] for sp in by_name.get("engine.solve.optimal", []) if sp[5]]
    if extras:
        m["optimal.newton_iters"] = _mean(e["newton_iterations"] for e in extras)
        m["optimal.polish_iters"] = _mean(e["polish_iters"] for e in extras)
        m["optimal.factor_ms"] = _mean(e["factor_time_s"] for e in extras) * 1e3
        m["optimal.polish_capped_ratio"] = _mean(
            1.0 if e["polish_iters"] == IPConfig.polish else 0.0 for e in extras)
    return m, rows


def print_layer_table(workload: str, metrics: dict, rows: list, n_ops: int) -> None:
    print(f"\nper-layer table — {workload} (traced run, {n_ops} operations)")
    print(f"  {'span':30s} {'calls':>7s} {'self s':>9s} {'self ms/op':>10s} "
          f"{'self ms/call':>12s} {'wall ms/call':>12s}")
    for name, calls, self_total, self_mean, wall_mean in rows:
        print(f"  {name:30s} {calls:7d} {self_total:9.3f} {self_total * 1e3 / max(n_ops, 1):10.3f} "
              f"{self_mean:12.4f} {wall_mean:12.4f}")
    print("  metrics:")
    for name, (unit, what) in LAYER_METRICS.items():
        print(f"    {name:34s} {metrics[name]:12.5g} {unit:6s} {what}")


# -- entry point ---------------------------------------------------------------


def http_phases(tag: str, trace: bool, seconds: float, run_phase):
    """``(phases, server report, set-up times)`` of one HTTP workload.

    Untraced: boot ``SETUP_LAUNCHES`` servers and run one phase on the last.
    Traced: one phase on an untraced server, then one on a traced server,
    each for half the time.
    """
    if not trace:
        server, setups = boot_servers(tag)
        try:
            with rotate_cpus(server.proc.pid):
                phases = [run_phase(server, seconds, "r")]
        finally:
            report = server.stop()
        return phases, report, setups
    phases = []
    for k, traced in enumerate((False, True)):
        server = Server(f"{tag}-phase{k}", trace=traced)
        try:
            server.start()
            with rotate_cpus(server.proc.pid):
                phases.append(run_phase(server, seconds / 2, f"k{k}"))
        finally:
            report = server.stop()
    return phases, report, None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """Run one workload; the last phase is the measured (or traced) one."""
    import check
    import workloads

    tag = f"{workload}-s{seed}-t{int(trace)}"
    config: dict = {"run_seconds": seconds, "scale": scale, "connections": CONNECTIONS}
    problems: list[list[str]] = []

    if workload == "schedule-mix":
        cap_blocks = max(1, round(CAP_BLOCKS * scale))
        config.update(offered_rate_rps=workloads.OFFERED_RATE, open_share=OPEN_SHARE,
                      capacity_segments=CAP_SEGMENTS, capacity_blocks=cap_blocks,
                      mix=[list(k) for k in workloads.FRESH_KINDS],
                      hot_per_block=workloads.HOT_PER_BLOCK, block=workloads.BLOCK)
        oracle = check.ScheduleOracle()
        phases, report, setups = http_phases(
            tag, trace, seconds,
            lambda server, secs, ptag: schedule_mix_phase(server, seed, secs, oracle, ptag,
                                                          cap_blocks))
        for p in phases:
            problems.extend(p["problems"])
        config.update(open_requests=phases[-1]["open_requests"],
                      capacity_requests=phases[-1]["capacity_requests"])

    elif workload in ("admit-stream", "admit-capped"):
        capped = workload == "admit-capped"
        n = max(8, round((workloads.CAPPED_STREAM_N if capped else workloads.ADMIT_STREAM_N) * scale))
        count = workloads.CAPPED_STREAMS if capped else workloads.ADMIT_STREAMS
        cycle_s = workloads.CAPPED_CYCLE_S if capped else workloads.ADMIT_CYCLE_S
        f_max = workloads.CAPPED_F_MAX if capped else None
        config.update(stream_len=n, streams=count, stream_seed_base=workloads.ADMIT_SEED_BASE,
                      f_max=f_max, arrival_rate=workloads.ADMIT_RATE, m=4)
        streams = workloads.admit_streams(seed, n, count)

        phases, report, setups = http_phases(
            tag, trace, seconds,
            lambda server, secs, ptag: admit_phase(server, streams, f_max,
                                                   workloads.passes(secs, cycle_s), ptag))
        replays: dict[int, check.AdmissionReplay] = {}

        def replay(k: int) -> check.AdmissionReplay:
            if k not in replays:
                replays[k] = check.AdmissionReplay(streams[k], f_max)
            return replays[k]

        for p in phases:
            problems.extend(check_admit_phase(p, replay))

    elif workload == "paper-sweep":
        reps = max(2, round(workloads.SWEEP_REPS * scale))
        config.update(replications=reps, n_tasks=workloads.SWEEP_N_TASKS, m=workloads.SWEEP_M,
                      seed_base=workloads.SWEEP_SEED_BASE, solver="optimal:interior-point warm=pg")
        if not trace:
            setups = [sweep_child(seed, 1, reps, f"{tag}-setup{k}", setup_only=True)[1]
                      for k in range(SETUP_LAUNCHES - 1)]
            data, setup = sweep_child(seed, workloads.passes(seconds, workloads.SWEEP_PASS_S),
                                      reps, tag)
            runs = [data]
            setups.append(setup)
        else:
            setups = None
            n = workloads.passes(seconds / 2, workloads.SWEEP_PASS_S)
            runs = [sweep_child(seed, n, reps, f"{tag}-phase{k}", trace=bool(k))[0]
                    for k in range(2)]
        oracle = check.dense_oracle(workloads.sweep_seeds(seed, reps), workloads.SWEEP_N_TASKS,
                                    workloads.SWEEP_M)
        phases = []
        for data in runs:
            problems.extend(check.check_sweep(data["reps"], oracle))
            phases.append({"latency_s": [r["ms"] / 1e3 for r in data["reps"]], "client_s": {},
                           "ops_per_s": statistics.median(reps / s for s in data["pass_s"]),
                           "passes": len(data["pass_s"])})
        report = runs[-1]
    else:
        raise ValueError(f"unknown workload {workload!r}")

    phase = phases[-1]
    config["passes"] = phase["passes"]
    res: dict = {"config": config, **latency_metrics(phase["latency_s"])}
    res["ops_per_s"] = phase["ops_per_s"]
    # closed loops send every request when due
    res["lag_ms"] = _mean(phase.get("lag_s", [0.0])) * 1e3
    res["peak_rss_mb"] = report["peak_rss_mb"]
    if setups is not None:
        res["setup_s"] = statistics.median(setups)
        res["setup_samples_s"] = setups
    res["latency_ms"] = [round(v * 1e3, 4) for v in phase["latency_s"]]
    res["attempted"] = len(problems)
    res["failed"] = sum(1 for p in problems if p)
    res["error_frac"] = res["failed"] / max(1, res["attempted"])
    res["problems"] = [p for p in problems if p][:20]
    if trace:
        res["untraced_p50_ms"] = statistics.median(phases[0]["latency_s"]) * 1e3
        layers, rows = layer_report(report, phase["client_s"], phase["passes"],
                                    config.get("stream_len", 0))
        layers["loadgen.lag_ms"] = res["lag_ms"]
        layers["trace.overhead_frac"] = res["p50_ms"] / res["untraced_p50_ms"] - 1.0
        res["layers"] = layers
        res["layer_rows"] = rows
        res["n_ops"] = len(phase["client_s"]) or len(phase["latency_s"])
    return res


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


E2E_UNITS = {"setup_s": "s", "p50_ms": "ms", "tail_ms": "ms", "ops_per_s": "1/s",
             "peak_rss_mb": "MB"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="stream and replication-list size factor (the benchmark's tests shrink it)")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)

    import numpy

    result = {
        "benchmark": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "machine": platform.machine()},
        **res,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"git={result['git_sha'][:12]} host={result['host']}")
    print(f"  config: {json.dumps(res['config'])}")
    print(f"  attempted={res['attempted']} failed={res['failed']} error_frac={res['error_frac']:.4g}")
    for p in res["problems"][:5]:
        print(f"  problem: {p}")
    if args.trace:
        print_layer_table(args.workload, res["layers"], res["layer_rows"], res["n_ops"])
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, (unit, _what) in LAYER_METRICS.items()}
    else:
        print(f"  p50_ms={res['p50_ms']:.4f}  tail_ms={res['tail_ms']:.4f} "
              f"(p{res['tail_percentile']:.4g} of {res['samples']} samples)  "
              f"ops_per_s={res['ops_per_s']:.4f}  setup_s={res['setup_s']:.4f} "
              f"{res['setup_samples_s']}  peak_rss_mb={res['peak_rss_mb']:.2f}")
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    result["metrics"] = metrics
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"  result file: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
