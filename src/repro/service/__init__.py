"""repro.service — an asyncio scheduling daemon over the batch pipeline.

The batch CLI solves one task file and exits; this package is the
long-running serving layer the ROADMAP's production story needs.  It is
stdlib-only (asyncio + the repro pipeline) and exposes an HTTP/JSON API:

``POST /v1/schedule``   plan a task set (S^F1/S^F2/online) — micro-batched
``POST /v1/admit``      f_max admission control (stateful, §VI-C/D extension)
``POST /v1/optimal``    exact convex optimum
``GET  /v1/metrics``    counters, gauges, latency percentiles, cache stats
``GET  /v1/healthz``    liveness + uptime
``GET  /v1/solvers``    solver catalog

Architecture
------------

* :mod:`~repro.service.batcher` coalesces concurrent ``/v1/schedule``
  requests inside a small time/size window and dispatches each batch as
  one chunked submission to a ``ProcessPoolExecutor``, so the event loop
  never blocks on a solve and per-request IPC overhead is amortized.
* :mod:`~repro.service.cache` is an LRU keyed by a canonical hash of
  (task set, m, power, method); permuted task orders hit the same entry,
  and a warm hit never enters the process pool.
* :mod:`repro.obs.metrics` is the observability registry rendered at
  ``/v1/metrics`` and in a periodic log line.
* :mod:`~repro.service.pool` supervises the solver workers: dead workers
  are respawned and their in-flight work re-dispatched (at most once,
  jittered exponential backoff) before jobs are abandoned with an error.
* :mod:`~repro.service.faults` is the seeded chaos harness — worker
  kills, response delays/drops, malformed payloads — behind the
  ``faults=`` config knob / ``repro serve --chaos`` / ``repro loadgen
  --chaos`` (see ``docs/robustness.md``).
* :mod:`~repro.service.wire` is the HTTP/1.1 subset the daemon, the
  router and the clients share.
* :mod:`~repro.service.loadgen` is the async benchmarking client.
* :mod:`~repro.service.shard` + :mod:`~repro.service.router` are the
  scale-out tier (``repro serve --shards N``): a front router owning the
  listen socket over N shard processes — stateless routes balanced by
  least-outstanding, ``/v1/admit`` placed by consistent hash of the platform
  signature, shard death absorbed by respawn + admit-journal replay.

Every endpoint is served under the versioned ``/v1`` prefix, with the
``{"result", "meta"}`` response envelope and the unified error schema
(see ``docs/api.md``).
"""

from .batcher import MicroBatcher
from .cache import PlanCache
from .config import RetryPolicy, ServiceConfig
from .faults import FaultInjector, FaultSpec
from .protocol import (
    API_VERSION,
    AdmitRequest,
    OptimalRequest,
    ProtocolError,
    ScheduleRequest,
    canonical_plan_key,
    canonicalize_tasks,
    error_body,
    v1_envelope,
)
from .router import ShardRouter, run_sharded_service
from .server import SchedulingService, run_service
from .shard import HashRing, ShardManager, platform_key

__all__ = [
    "API_VERSION",
    "AdmitRequest",
    "FaultInjector",
    "FaultSpec",
    "HashRing",
    "MicroBatcher",
    "OptimalRequest",
    "PlanCache",
    "ProtocolError",
    "RetryPolicy",
    "ScheduleRequest",
    "SchedulingService",
    "ServiceConfig",
    "ShardManager",
    "ShardRouter",
    "canonical_plan_key",
    "canonicalize_tasks",
    "error_body",
    "platform_key",
    "run_service",
    "run_sharded_service",
    "v1_envelope",
]
