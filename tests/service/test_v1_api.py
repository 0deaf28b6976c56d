"""The ``/v1`` wire API.

The contract under test (``docs/api.md``):

* every response is enveloped ``{"result"|"error", "meta"}`` and
  ``meta`` always carries ``api_version`` and ``trace_id``,
* errors are ``{"error": {"code", "message", "detail"?}}``,
* ``GET /v1/solvers`` is the discovery endpoint the unknown-solver 400
  points at.
"""

import asyncio
import json

import pytest

from repro.service import SchedulingService, ServiceConfig, ShardRouter
from repro.service.loadgen import HttpClient, request_once

_TASKS = [[0.0, 10.0, 8.0], [2.0, 18.0, 14.0], [4.0, 16.0, 8.0]]
_BASE = dict(port=0, workers=0, log_interval=0)


def _config(**kwargs) -> ServiceConfig:
    return ServiceConfig(**{**_BASE, **kwargs})


def _run(test_coro, config: ServiceConfig | None = None):
    async def runner():
        service = SchedulingService(config or _config())
        await service.start()
        try:
            return await test_coro(service)
        finally:
            await service.stop()

    return asyncio.run(runner())


def _schedule_payload(**over):
    return {"tasks": _TASKS, "m": 2, "alpha": 3.0, "static": 0.1,
            "method": "der", **over}


class TestEnvelope:
    def test_v1_optimal_wraps_the_legacy_payload_shape(self):
        # /v1/optimal carries warm-start state across solves (iterate-level
        # floats drift run to run), so the contract for a repeated solve is
        # structural: same fields, same solver, energies within tolerance
        async def scenario(service):
            payload = {"tasks": _TASKS, "m": 2, "alpha": 3.0, "static": 0.1}
            client = HttpClient("127.0.0.1", service.port)
            try:
                s1, first = await client.request("POST", "/v1/optimal", payload)
                s2, second = await client.request("POST", "/v1/optimal", payload)
            finally:
                await client.close()
            assert s1 == s2 == 200
            a, b = first["result"], second["result"]
            assert set(a) == set(b)
            assert a["solver"] == b["solver"] == "interior-point"
            assert a["energy"] == pytest.approx(b["energy"], rel=1e-8)

        _run(scenario)

    def test_v1_admit_matches_legacy_after_reset(self):
        """A reset makes the next admit answer exactly as the first one did."""

        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                task = {"task": [0.0, 10.0, 6.0]}
                await client.request("POST", "/v1/admit", {"reset": True})
                _, first = await client.request("POST", "/v1/admit", task)
                await client.request("POST", "/v1/admit", {"reset": True})
                _, again = await client.request("POST", "/v1/admit", task)
                assert again["result"] == first["result"]
            finally:
                await client.close()

        _run(scenario)

    def test_every_v1_response_carries_meta(self):
        async def scenario(service):
            requests = [
                ("POST", "/v1/schedule", _schedule_payload()),
                ("POST", "/v1/admit", {"task": [0.0, 10.0, 2.0]}),
                ("POST", "/v1/optimal",
                 {"tasks": _TASKS, "m": 2, "alpha": 3.0, "static": 0.1}),
                ("GET", "/v1/metrics", None),
                ("GET", "/v1/healthz", None),
                ("GET", "/v1/solvers", None),
                ("POST", "/v1/schedule", {"tasks": []}),  # error path
            ]
            for method, path, payload in requests:
                status, body = await request_once(
                    "127.0.0.1", service.port, method, path, payload
                )
                assert ("result" in body) != ("error" in body), path
                meta = body["meta"]
                assert meta["api_version"] == "v1"
                assert meta["trace_id"]
                assert "shard" in meta  # null single-process, int behind router
                if path == "/v1/schedule" and status == 200:
                    # meta names the canonical solver that actually ran
                    assert meta["solver"] == "subinterval-der"

        _run(scenario)


class TestUnifiedErrors:
    def test_v1_error_schema(self):
        async def scenario(service):
            cases = [
                ("POST", "/v1/schedule", {"m": 2}, 400, "bad_request"),
                ("POST", "/v1/schedule",
                 {"tasks": _TASKS, "method": "magic"}, 400, "unknown_solver"),
                ("GET", "/v1/nope", None, 404, "not_found"),
                ("GET", "/v1/schedule", None, 405, "method_not_allowed"),
            ]
            for method, path, payload, want_status, want_code in cases:
                status, body = await request_once(
                    "127.0.0.1", service.port, method, path, payload
                )
                assert status == want_status, path
                err = body["error"]
                assert err["code"] == want_code
                assert isinstance(err["message"], str) and err["message"]
                assert body["meta"]["api_version"] == "v1"

        _run(scenario)

    def test_unknown_solver_400_points_at_discovery(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/v1/schedule",
                {"tasks": _TASKS, "method": "magic"},
            )
            assert status == 400
            err = body["error"]
            assert err["code"] == "unknown_solver"
            assert "GET /v1/solvers" in err["message"]
            detail = err["detail"]
            assert detail["requested"] == "magic"
            assert detail["discovery"] == "GET /v1/solvers"
            assert "subinterval-der" in detail["solvers"]

        _run(scenario)

    def test_invalid_json_yields_unified_400(self):
        async def scenario(service):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            raw = b"{not json"
            writer.write(
                b"POST /v1/schedule HTTP/1.1\r\nContent-Length: "
                + str(len(raw)).encode()
                + b"\r\nConnection: close\r\n\r\n" + raw
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n", 1)[0]
            body = json.loads(await reader.read())
            assert body["error"]["code"] == "invalid_json"
            writer.close()

        _run(scenario)

    def test_overload_shed_is_unified(self):
        async def scenario(service):
            release = asyncio.Event()

            async def slow_dispatch(jobs):
                await release.wait()
                return [{"kind": "S^F2", "energy": 1.0, "n_tasks": 1,
                         "m": 2, "method": "der"} for _ in jobs]

            service.batcher._dispatch = slow_dispatch

            async def fire(i):
                return await request_once(
                    "127.0.0.1", service.port, "POST", "/v1/schedule",
                    _schedule_payload(tasks=[[0.0, 10.0, 1.0 + i]]),
                )

            clients = [asyncio.ensure_future(fire(i)) for i in range(4)]
            await asyncio.sleep(0.15)
            release.set()
            results = await asyncio.gather(*clients)
            shed = [body for status, body in results if status == 429]
            assert len(shed) == 3
            for body in shed:
                assert body["error"]["code"] == "overloaded"
                assert body["error"]["detail"]["max_inflight"] == 1

        _run(scenario, _config(max_inflight=1, batch_window=0.001,
                               batch_max=1))


async def _raw_exchange(port: int, data: bytes):
    """Send raw request bytes; return (status, lowercased headers, JSON body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(data)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {
            k.strip().lower(): v.strip()
            for k, _, v in (line.partition(":") for line in lines[1:] if line)
        }
        body = await reader.readexactly(int(headers["content-length"]))
        return int(lines[0].split()[1]), headers, json.loads(body)
    finally:
        writer.close()


@pytest.mark.parametrize("front", ["service", "router"])
class TestFrontEndErrors:
    """Answers both front ends originate themselves, in the v1 envelope."""

    @staticmethod
    def _run_front(front, scenario):
        async def runner():
            server = (
                SchedulingService(_config()) if front == "service"
                else ShardRouter(_config(), shards=1)
            )
            await server.start()
            try:
                await scenario(server.port)
            finally:
                await server.stop()

        asyncio.run(runner())

    def test_malformed_heads_and_unrouted_paths(self, front):
        over = b"%d" % (16 * 1024 * 1024 + 1)
        cases = [
            (b"GARBAGE\r\n\r\n", 400, "bad_request"),
            (b"POST /v1/schedule HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
             400, "bad_request"),
            (b"POST /v1/schedule HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
             400, "bad_request"),
            (b"POST /v1/schedule HTTP/1.1\r\nContent-Length: " + over
             + b"\r\n\r\n", 413, "payload_too_large"),
            (b"GET /v1/schedule HTTP/1.1\r\nConnection: close\r\n\r\n",
             405, "method_not_allowed"),
        ] + [
            (b"%s %s HTTP/1.1\r\nConnection: close\r\n\r\n" % (m, p),
             404, "not_found")
            for m, p in ((b"POST", b"/schedule"), (b"POST", b"/admit"),
                         (b"POST", b"/optimal"), (b"GET", b"/metrics"),
                         (b"GET", b"/healthz"))
        ]

        async def scenario(port):
            for data, want_status, want_code in cases:
                status, headers, body = await _raw_exchange(port, data)
                assert (status, body["error"]["code"]) == (
                    want_status, want_code
                ), data
                assert body["meta"]["api_version"] == "v1"
                assert "deprecation" not in headers
            # the front end survived every bad request
            status, _ = await request_once(
                "127.0.0.1", port, "GET", "/v1/healthz"
            )
            assert status == 200

        self._run_front(front, scenario)


class TestSolverDiscovery:
    def test_catalog_shape(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "GET", "/v1/solvers"
            )
            assert status == 200
            solvers = {s["name"]: s for s in body["result"]["solvers"]}
            assert {"subinterval-der", "optimal:interior-point"} <= set(solvers)
            assert "der" in solvers["subinterval-der"]["aliases"]
            assert solvers["optimal:interior-point"]["optimal_only"] is True
            assert solvers["subinterval-der"]["optimal_only"] is False
            for entry in solvers.values():
                assert set(entry) >= {"name", "aliases", "optimal_only",
                                      "session"}

        _run(scenario)

    def test_degrade_targets_reflect_config(self):
        async def scenario(service):
            _, body = await request_once(
                "127.0.0.1", service.port, "GET", "/v1/solvers"
            )
            solvers = {s["name"]: s for s in body["result"]["solvers"]}
            assert (solvers["optimal:interior-point"].get("degrades_to")
                    == "subinterval-der")

        _run(scenario, _config(solver_timeout=5.0,
                               degrade_to="subinterval-der"))

    def test_no_degrade_without_timeout(self):
        async def scenario(service):
            _, body = await request_once(
                "127.0.0.1", service.port, "GET", "/v1/solvers"
            )
            for entry in body["result"]["solvers"]:
                assert entry["degrades_to"] is None

        _run(scenario, _config(solver_timeout=0.0))


class TestLegacyCompatibility:
    """The result documents keep the fields pre-v1 clients relied on."""

    def test_schedule_response_fields_unchanged(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/v1/schedule",
                _schedule_payload(),
            )
            assert status == 200
            result = body["result"]
            assert result["kind"] == "S^F2"
            assert result["energy"] > 0
            assert "schedule" in result
            assert "result" not in result and "meta" not in result

        _run(scenario)

    def test_shared_state_across_dialects(self):
        """Admits on one connection commit into one session, not two."""

        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                await client.request("POST", "/v1/admit", {"reset": True})
                _, first = await client.request(
                    "POST", "/v1/admit", {"task": [0.0, 10.0, 4.0]}
                )
                assert first["result"]["committed"] == 1
                _, second = await client.request(
                    "POST", "/v1/admit", {"task": [1.0, 12.0, 4.0]}
                )
                assert second["result"]["committed"] == 2
            finally:
                await client.close()

        _run(scenario)


class TestAdmitPeek:
    def test_peek_is_read_only_snapshot(self):
        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                await client.request("POST", "/v1/admit", {"reset": True})
                _, empty = await client.request(
                    "POST", "/v1/admit", {"peek": True}
                )
                assert empty["result"]["committed"] == 0
                assert empty["result"]["peek"] is True
                await client.request(
                    "POST", "/v1/admit", {"task": [0.0, 10.0, 4.0]}
                )
                _, a = await client.request(
                    "POST", "/v1/admit", {"peek": True}
                )
                _, b = await client.request(
                    "POST", "/v1/admit", {"peek": True}
                )
                assert a["result"] == b["result"]  # no state mutation
                assert a["result"]["committed"] == 1
                assert a["result"]["energy"] > 0
                assert a["result"]["boundaries"]
                assert a["result"]["x"]
            finally:
                await client.close()

        _run(scenario)

    def test_peek_rejects_task(self):
        async def scenario(service):
            status, body = await request_once(
                "127.0.0.1", service.port, "POST", "/v1/admit",
                {"peek": True, "task": [0.0, 10.0, 4.0]},
            )
            assert status == 400
            assert body["error"]["code"] == "bad_request"

        _run(scenario)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
