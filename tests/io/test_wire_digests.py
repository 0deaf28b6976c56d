"""Wire bytes are pinned: serialized plans must not drift across refactors.

Each digest is the SHA-256 of bytes a client or a saved file sees, on fixed
seeded instances: ``schedule_to_json`` for every registry solver whose
schedule is serializable, and the ``result`` document of ``POST
/v1/schedule`` for a solo job and for a batch the pool fuses into one
solver pass.  A change to the pipeline, the ``Schedule`` representation or
the serializer that moves a single float or key shows up here.  The bytes
also depend on the numeric stack (numpy and scipy builds, BLAS): after an
intended change there, print the current digests by running this file as a
script and re-pin them.
"""

from __future__ import annotations

import asyncio
import hashlib
import json

import numpy as np
import pytest

from repro.engine import Platform, SolveRequest, solve, solver_names
from repro.io.schedio import schedule_to_json
from repro.power import PolynomialPower
from repro.service import SchedulingService, ServiceConfig
from repro.service.loadgen import request_once
from repro.workloads.generator import PaperWorkloadConfig, paper_workload

#: sha256(schedule_to_json(solve(name, request).schedule)) per registry solver
SOLVER_DIGESTS = {
    "edf": "8a13c0ec82239ec0617dc908fa8a7187e739d93d485a6cf01607cc80228819db",
    "naive": "08787a2f5d29ac61098703fc29f5e3b7bfb6f3f44a60aad5b6c320ee76aece0f",
    "online": "d1a571837c1b22d300691631a442d1d87f61437473ebf0950fc6c525d2eaa62b",
    "optimal:interior-point": "4a5ee24c487c5fe87b096bf38aee75722d64c49b147abd87b73b5254b3a681b7",
    "optimal:projected-gradient": "29a422004defffd49992366ff951ca05640eb19c5d842a245760e4c02b438f9f",
    "optimal:slsqp": "cc1f60ad58b90e7c730dcf95f7192e4bd1065f7d52bc966198c2811fcc896ecd",
    "optimal:trust-constr": "84b7b1d6f0f4f0f9df2652c5eb666f09599aef3983b048909b343246570298a2",
    "subinterval-der": "0196443c00c101972376ee9d0aa11adbecd344c5ca411e325927549775250756",
    "subinterval-even": "7a5ce188faf859e5552a367bcfc5903070ed55d2ecdd329afd58c495f3f5dc53",
    "yds": "1206bf09bdd14d4180096f59434a935463d4ad2de25507b5b6d3ad89db46ef7a",
}

#: sha256 of the /v1/schedule ``result`` documents: one solo job, then the
#: four members of one fused batch in request order
SOLO_DIGEST = "e928e5fbab90d06555c51e4afd46503f7cd0c83d9309cded17e0ce672da53390"
FUSED_DIGESTS = [
    "a6dad41c3e793ffb795a852799662404614a6a92531fde1065b0649af1e13a2c",
    "df848b92ba7128acfef6376c05b9e73e1f8db333ed463106aa933c24fe1749fe",
    "0b7b1138d6253d4634ec8632fcaad39b4d28182d7219a056d9f4cb4417ec1d58",
    "6afc756523f9d3158224d5d50d699e01492d0f1a8f3cd96132a2f4845d44578a",
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _instance(seed: int, n_tasks: int):
    rng = np.random.default_rng(seed)
    return paper_workload(rng, PaperWorkloadConfig(n_tasks=n_tasks))


def _solver_digest(name: str) -> str:
    tasks = _instance(11, 8)
    request = SolveRequest(
        tasks=tasks,
        platform=Platform(m=3, power=PolynomialPower(alpha=3.0, static=0.1)),
    )
    result = solve(name, request)
    return _sha(schedule_to_json(result.schedule))


def _payload(seed: int, n_tasks: int) -> dict:
    tasks = _instance(seed, n_tasks)
    return {
        "tasks": [[t.release, t.deadline, t.work] for t in tasks],
        "m": 3,
        "alpha": 3.0,
        "static": 0.1,
        "method": "der",
    }


def _served_digests() -> tuple[str, list[str]]:
    """Digests of one solo request and of one fused four-job batch.

    ``batch_max=4`` with a long window flushes exactly when the fourth
    request arrives, so the four concurrent requests always fuse.
    """

    async def post(service, payload):
        status, body = await request_once(
            "127.0.0.1", service.port, "POST", "/v1/schedule", payload
        )
        assert status == 200, body
        return _sha(json.dumps(body["result"]))

    async def run(config, payloads):
        service = SchedulingService(config)
        await service.start()
        try:
            return await asyncio.gather(*(post(service, p) for p in payloads))
        finally:
            await service.stop()

    base = dict(port=0, workers=0, log_interval=0)
    (solo,) = asyncio.run(
        run(ServiceConfig(**base, batch_window=0.0), [_payload(21, 12)])
    )
    fused = asyncio.run(
        run(
            ServiceConfig(**base, batch_window=5.0, batch_max=4),
            [_payload(30 + k, 6 + 3 * k) for k in range(4)],
        )
    )
    return solo, list(fused)


def _serializable_solvers() -> list[str]:
    # ``practical`` plans under a discrete frequency set, which the
    # schedule format does not carry
    return [n for n in solver_names() if n != "practical"]


@pytest.mark.parametrize("name", _serializable_solvers())
def test_schedule_to_json_bytes_are_pinned(name):
    assert _solver_digest(name) == SOLVER_DIGESTS[name]


def test_served_result_documents_are_pinned():
    solo, fused = _served_digests()
    assert solo == SOLO_DIGEST
    assert fused == FUSED_DIGESTS


if __name__ == "__main__":  # print the current digests (to re-pin deliberately)
    for n in _serializable_solvers():
        print(repr(n), repr(_solver_digest(n)))
    print(_served_digests())
