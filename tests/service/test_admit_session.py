"""Session-backed admission: per-platform sessions, delta accounting, spans."""

import asyncio

from repro.service import SchedulingService, ServiceConfig
from repro.service.loadgen import HttpClient, request_once, run_loadgen

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


class TestPerPlatformSessions:
    def test_platforms_do_not_share_committed_sets(self):
        """Admissions on m=1/f_max=1 must not consume m=4 capacity."""

        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                # saturate the single-core platform
                _, a = await client.request(
                    "POST", "/v1/admit",
                    {"task": [0.0, 10.0, 10.0], "m": 1, "f_max": 1.0},
                )
                _, b = await client.request(
                    "POST", "/v1/admit",
                    {"task": [0.0, 10.0, 10.0], "m": 1, "f_max": 1.0},
                )
                assert a["result"]["accepted"] is True and b["result"]["accepted"] is False
                assert a["result"]["f_max"] == 1.0
                # the wider default platform is untouched
                _, c = await client.request(
                    "POST", "/v1/admit", {"task": [0.0, 10.0, 10.0]}
                )
                assert c["result"]["accepted"] is True
                assert c["result"]["committed"] == 1
            finally:
                await client.close()

        _run(scenario, _config(m=4, f_max=1.0))

    def test_reset_targets_one_platform(self):
        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                await client.request(
                    "POST", "/v1/admit", {"task": [0.0, 10.0, 4.0]}
                )
                await client.request(
                    "POST", "/v1/admit", {"task": [0.0, 10.0, 4.0], "m": 8}
                )
                _, r = await client.request(
                    "POST", "/v1/admit", {"reset": True, "m": 8}
                )
                assert r["result"]["committed"] == 0
                # the default platform still holds its task
                _, d = await client.request(
                    "POST", "/v1/admit", {"task": [1.0, 11.0, 2.0]}
                )
                assert d["result"]["committed"] == 2
            finally:
                await client.close()

        _run(scenario)

    def test_admit_reports_delta_accounting(self):
        async def scenario(service):
            client = HttpClient("127.0.0.1", service.port)
            await client.connect()
            try:
                _, first = await client.request(
                    "POST", "/v1/admit", {"task": [0.0, 10.0, 4.0]}
                )
                _, second = await client.request(
                    "POST", "/v1/admit", {"task": [20.0, 30.0, 4.0]}
                )
                assert first["result"]["accepted"] and second["result"]["accepted"]
                assert first["result"]["touched_subintervals"] == first["result"]["total_subintervals"] == 1
                # disjoint window: only the new column is touched (the
                # total counts the empty gap column between the windows)
                assert second["result"]["touched_subintervals"] == 1
                assert second["result"]["total_subintervals"] == 3
            finally:
                await client.close()

        _run(scenario)

    def test_admit_emits_session_delta_spans(self):
        async def scenario(service):
            await request_once(
                "127.0.0.1", service.port, "POST", "/v1/admit",
                {"task": [0.0, 10.0, 4.0]},
            )
            snap = service.metrics.snapshot()
            hist = snap["histograms"].get("stage_ms:session.delta")
            assert hist is not None and hist["count"] >= 1

        _run(scenario)

    def test_capped_admit_emits_feasibility_spans(self):
        async def scenario(service):
            for work in (4.0, 7.0):  # an accept, then a flow reject
                await request_once(
                    "127.0.0.1", service.port, "POST", "/v1/admit",
                    {"task": [0.0, 10.0, work], "m": 1, "f_max": 1.0},
                )
            hist = service.metrics.snapshot()["histograms"].get(
                "stage_ms:admission.feasibility"
            )
            assert hist is not None and hist["count"] == 2

        _run(scenario)

    def test_uncapped_admit_skips_feasibility_spans(self):
        async def scenario(service):
            await request_once(
                "127.0.0.1", service.port, "POST", "/v1/admit",
                {"task": [0.0, 10.0, 4.0]},
            )
            snap = service.metrics.snapshot()["histograms"]
            assert "stage_ms:admission.feasibility" not in snap

        _run(scenario)


class TestAdmitStreamLoadgen:
    def test_admit_stream_round_trip(self):
        async def scenario(service):
            stats = await run_loadgen(
                "127.0.0.1", service.port,
                n_requests=20, concurrency=4, seed=7,
                admit_stream=True, admit_rate=2.0,
            )
            assert stats["ok"] == 20
            assert stats["errors"] == 0
            admit = stats["admit"]
            assert admit["accepted"] + admit["rejected"] == 20
            assert admit["accepted"] > 0
            snap = service.metrics.snapshot()["counters"]
            assert snap["requests_total:/v1/admit"] >= 20

        _run(scenario)
