"""The front router of the sharded serving tier (``repro serve --shards N``).

One asyncio process owns the public listen socket and fans requests out
to N shard processes (:mod:`repro.service.shard`), each a complete
:class:`~repro.service.server.SchedulingService`:

* **stateless traffic** (``/v1/schedule``, ``/v1/optimal``,
  ``/v1/solvers``) is balanced by least-outstanding across live shards;
  shard 429s pass through, and when *every* shard is saturated the
  router sheds itself with an aggregated 429 (``max_inflight = shards ×
  per-shard bound``),
* **stateful traffic** (``/v1/admit``) is placed by consistent hash of the
  request's platform signature (:func:`~repro.service.shard.platform_key`),
  so each admission session lives on exactly one shard and its delta
  stream is bit-identical to a single-process deployment,
* **shard death** is absorbed: the failed shard is respawned in place
  (same ring position) and its admission sessions are rebuilt by
  replaying the router's journal of acknowledged admits before the
  triggering request is retried,
* **observability** is merged: ``GET /v1/metrics`` aggregates every shard's
  JSON page under per-shard keys, the Prometheus exposition renders all
  shards plus the router through one family writer with ``shard="<i>"``
  labels, and the router forwards/creates ``x-trace-id`` so shard-side
  spans join the same trace as the router's ``router.request`` span.

Forwarded responses pass through **byte-for-byte** (no re-serialization),
so a payload served through the router is exactly what the shard
produced — envelope, ``meta.shard`` and all.  The HTTP layer is the
subset in :mod:`repro.service.wire`, shared with the shard daemon.
"""

from __future__ import annotations

import asyncio
import json
import logging
import signal
import time

from ..obs import context as obs
from ..obs.metrics import MetricsRegistry
from ..obs.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE
from ..obs.prom import render_prometheus_multi
from .config import ServiceConfig
from .protocol import API_VERSION, error_body
from .shard import HashRing, ShardManager, platform_key
from .wire import FrontEnd, HttpClient, RawBody, encode_request, request_once

__all__ = ["ShardRouter", "run_sharded_service"]

log = logging.getLogger("repro.service.router")

#: request headers the router forwards to shards (plus x-trace-id, which
#: it always sets so spans stitch across the process hop)
_FORWARD_HEADERS = ("accept", "content-type")


class ShardRouter(FrontEnd):
    """Listen-socket owner + request fan-out for a sharded deployment."""

    shard_label = "router"

    def __init__(self, config: ServiceConfig, shards: int | None = None):
        n = shards if shards is not None else config.shards
        if n < 1:
            raise ValueError("a sharded deployment needs shards >= 1")
        super().__init__()
        self.config = config
        self.n = int(n)
        self.metrics = MetricsRegistry()
        self.manager = ShardManager(config, self.n)
        self.ring = HashRing(range(self.n))
        self._outstanding = [0] * self.n
        self._rr = 0  # least-outstanding tie-breaker
        self._admit_lock = asyncio.Lock()
        # platform key → ordered acknowledged /v1/admit bodies; replayed onto
        # a respawned shard to rebuild its admission sessions
        self._journal: dict[str, list[dict]] = {}
        self._started_at = 0.0
        for method, base, handler in (
            ("POST", "/schedule", self._forward),
            ("POST", "/admit", self._forward),
            ("POST", "/optimal", self._forward),
            ("GET", "/solvers", self._forward),
            ("GET", "/metrics", self._merged_metrics),
            ("GET", "/healthz", self._health),
        ):
            self._routes[(method, f"/{API_VERSION}{base}")] = handler

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        self._started_at = time.monotonic()
        await self.manager.start()  # shards first: never accept before ready
        await self._listen(self.config.host, self.config.port)
        log.info(
            "router listening on %s:%d (%d shards: %s)",
            self.config.host,
            self.port,
            self.n,
            ", ".join(str(self.manager.get(i).port) for i in range(self.n)),
        )

    async def stop(self) -> None:
        await self._stop_listening()
        # let per-connection tasks unwind (and close their shard clients)
        # before the shards those clients talk to are torn down
        await self._close_connections()
        await self.manager.stop()
        self._server = None
        log.info("router shutdown complete: %s", self.metrics.summary_line())

    # -- routing -------------------------------------------------------------------

    def _pick_stateless(self) -> int:
        """Least-outstanding live shard (round-robin tie-break)."""
        alive = [
            i for i in range(self.n)
            if self.manager.shards[i] is not None and self.manager.get(i).alive
        ]
        if not alive:
            alive = list(range(self.n))  # all dead: forwarding will respawn
        self._rr += 1
        return min(
            alive,
            key=lambda i: (self._outstanding[i], (i - self._rr) % self.n),
        )

    def _all_saturated(self) -> bool:
        return all(
            self._outstanding[i] >= self.config.max_inflight
            for i in range(self.n)
        )

    async def _serve(self, handler, method, path, headers, body, clients):
        self.metrics.counter(f"requests_total:{path}").inc()
        t0 = time.perf_counter()
        with obs.capture() as spans:
            with obs.span(
                "router.request",
                trace_id=headers.get("x-trace-id") or None,
                path=path,
                method=method,
            ) as root:
                status, payload = await handler(
                    clients, method, path, headers, body, root
                )
                root.set("http_status", status)
        for sp in spans:
            self.metrics.histogram(
                f"stage_ms:{sp['name'].replace(':', '.')}"
            ).observe(float(sp.get("dur_ms", 0.0)))
        self.metrics.histogram(f"latency_ms:{path}").observe(
            (time.perf_counter() - t0) * 1e3
        )
        self.metrics.counter(f"responses:{path}:{status}").inc()
        return status, payload

    async def _connection_closed(self, clients: dict) -> None:
        for client in clients.values():
            await client.close()

    # -- forwarding ----------------------------------------------------------------

    async def _shard_client(self, clients, shard_id: int) -> HttpClient:
        shard = self.manager.get(shard_id)
        client = clients.get(shard_id)
        if client is None or client.port != shard.port:
            if client is not None:  # stale: shard was respawned on a new port
                await client.close()
            client = HttpClient("127.0.0.1", shard.port)
            clients[shard_id] = client
        return client

    async def _forward(self, clients, method, path, headers, body, root):
        if self._all_saturated():
            self.metrics.counter("shed_total").inc()
            return 429, self._envelope(
                error_body(
                    "overloaded",
                    "all shards overloaded",
                    {
                        "max_inflight": self.n * self.config.max_inflight,
                        "shards": self.n,
                    },
                ),
                root.trace_id,
            )
        is_admit = path == f"/{API_VERSION}/admit"
        admit_body = None
        if is_admit:
            try:
                admit_body = json.loads(body.decode()) if body else {}
            except (UnicodeDecodeError, json.JSONDecodeError):
                admit_body = None  # shard answers the 400; any shard will do
            key = platform_key(admit_body, self.config)
            shard_id = self.ring.lookup(key)
        else:
            shard_id = self._pick_stateless()
        root.set("shard", shard_id)
        fwd = {"Host": "127.0.0.1"}
        fwd.update((k, headers[k]) for k in _FORWARD_HEADERS if k in headers)
        fwd["x-trace-id"] = root.trace_id
        data = encode_request(method, path, body, fwd)

        if is_admit:
            # admissions are stateful: serialize them router-wide so the
            # journal order matches shard processing order exactly (the
            # same global serialization the single-process daemon applies)
            async with self._admit_lock:
                result = await self._dispatch(clients, shard_id, data, is_admit)
                if result is not None and admit_body is not None:
                    self._journal_admit(key, admit_body, result[0])
        else:
            result = await self._dispatch(clients, shard_id, data, is_admit)

        if result is None:
            return 502, self._envelope(
                error_body(
                    "bad_gateway",
                    f"shard {shard_id} unavailable",
                    {"shard": shard_id},
                ),
                root.trace_id,
            )

        status, resp_headers, resp_body = result
        self.metrics.counter(f"routed:shard-{shard_id}").inc()
        ctype = resp_headers.get("content-type", "application/json")
        return status, RawBody(resp_body, ctype)

    async def _dispatch(
        self, clients, shard_id: int, data: bytes, is_admit: bool
    ):
        """One forward with shard-death recovery; None when all retries fail."""
        self._outstanding[shard_id] += 1
        try:
            for attempt in (1, 2):
                client = await self._shard_client(clients, shard_id)
                try:
                    return await client.request_raw(data)
                except (ConnectionError, OSError,
                        asyncio.IncompleteReadError):
                    await client.close()
                    if attempt == 2:
                        return None
                    await self._recover_shard(shard_id, is_admit)
        finally:
            self._outstanding[shard_id] -= 1
        return None  # pragma: no cover - loop always returns

    async def _recover_shard(self, shard_id: int, holding_admit_lock: bool):
        """Respawn a dead shard and replay its admission sessions."""
        shard = self.manager.shards[shard_id]
        if shard is not None and shard.alive:
            return  # transient connection error, not a death: just retry
        self.metrics.counter("shard_respawns_total").inc()
        await self.manager.respawn(shard_id)
        if holding_admit_lock:
            await self._replay(shard_id)
        else:
            async with self._admit_lock:
                await self._replay(shard_id)

    async def _replay(self, shard_id: int) -> None:
        """Re-admit every journaled body owned by ``shard_id`` (in order).

        The per-platform admit sequence is deterministic, so replaying it
        verbatim rebuilds each session bit-for-bit: the same tasks are
        accepted with the same plans (rejected entries reject again and
        change nothing).
        """
        shard = self.manager.get(shard_id)
        replayed = 0
        for key, bodies in self._journal.items():
            if self.ring.lookup(key) != shard_id or not bodies:
                continue
            for body in bodies:
                status, _ = await request_once(
                    "127.0.0.1", shard.port, "POST", f"/{API_VERSION}/admit", body
                )
                if status != 200:  # pragma: no cover - deterministic replay
                    log.error(
                        "replay of admit onto shard %d answered %d",
                        shard_id, status,
                    )
                replayed += 1
        if replayed:
            self.metrics.counter("admit_replays_total").inc(replayed)
            log.warning(
                "shard %d: replayed %d journaled admits", shard_id, replayed
            )

    def _journal_admit(self, key: str, body: dict, status: int) -> None:
        if status != 200 or body.get("peek"):
            return  # failed or read-only: no state to rebuild later
        if body.get("reset") and "task" not in body:
            self._journal[key] = []
            return
        self._journal.setdefault(key, []).append(body)

    # -- merged observability ------------------------------------------------------

    async def _shard_metrics_page(self, shard_id: int):
        shard = self.manager.shards[shard_id]
        if shard is None or not shard.alive:
            return None
        try:
            status, page = await request_once(
                "127.0.0.1", shard.port, "GET", f"/{API_VERSION}/metrics"
            )
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            return None
        return page["result"] if status == 200 else None

    def _shard_status(self) -> list[dict]:
        out = []
        for i in range(self.n):
            shard = self.manager.shards[i]
            out.append(
                {
                    "id": i,
                    "port": shard.port if shard is not None else None,
                    "alive": bool(shard is not None and shard.alive),
                    "restarts": shard.restarts if shard is not None else 0,
                    "outstanding": self._outstanding[i],
                }
            )
        return out

    async def _health(self, _clients, _method, _path, _headers, _body, root):
        from .. import __version__

        statuses = self._shard_status()
        return 200, self._envelope(
            {
                "status": "ok" if all(s["alive"] for s in statuses) else "degraded",
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "version": __version__,
                "shards": statuses,
            },
            root.trace_id,
        )

    async def _merged_metrics(self, _clients, _method, _path, headers, _body, root):
        pages = await asyncio.gather(
            *(self._shard_metrics_page(i) for i in range(self.n))
        )
        accept = headers.get("accept", "").lower()
        uptime = round(time.monotonic() - self._started_at, 3)
        if "text/plain" in accept or "openmetrics" in accept:
            # one family writer across every section: a family present on
            # all shards prints its HELP/TYPE header exactly once
            sections = [
                {
                    "snapshot": self.metrics.snapshot(),
                    "labels": {"shard": "router"},
                    "extra_gauges": {
                        "uptime_seconds": uptime,
                        "shards": self.n,
                    },
                }
            ]
            for i, page in enumerate(pages):
                if page is None:
                    continue
                sections.append(
                    {
                        "snapshot": page.get("metrics") or {},
                        "labels": {"shard": str(i)},
                        "extra_gauges": {
                            "uptime_seconds": page.get("uptime_s", 0.0)
                        },
                    }
                )
            text = render_prometheus_multi(sections)
            return 200, RawBody(text.encode(), _PROM_CONTENT_TYPE)
        payload = {
            "uptime_s": uptime,
            "router": {
                "shards": self.n,
                "metrics": self.metrics.snapshot(),
                "shard_status": self._shard_status(),
            },
            "shards": {
                str(i): page for i, page in enumerate(pages) if page is not None
            },
        }
        return 200, self._envelope(payload, root.trace_id)


async def run_sharded_service(config: ServiceConfig, shards: int | None = None):
    """Run a router + N shards until SIGINT/SIGTERM, then drain and stop."""
    router = ShardRouter(config, shards)
    await router.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-Unix platforms
            pass
    print(
        f"repro.service router listening on "
        f"http://{router.config.host}:{router.port} ({router.n} shards)"
    )
    try:
        await stop.wait()
    finally:
        await router.stop()
