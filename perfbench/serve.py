"""Server launcher of the HTTP workloads.

Runs the same :class:`~repro.service.server.SchedulingService` that
``repro serve`` runs, with the default :class:`ServiceConfig` except for
the port (an ephemeral one, written to ``--port-file`` once listening).
With ``--trace`` the timing wrappers are installed first.  On SIGTERM the
service drains and stops, and the process writes its peak RSS (and, when
traced, every span) to ``--out``.

    python3 perfbench/serve.py --port-file PORT --out OUT.json [--trace]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


async def _serve(args) -> None:
    from repro.service import ServiceConfig
    from repro.service.server import SchedulingService

    service = SchedulingService(ServiceConfig(port=0))
    await service.start()
    tmp = args.port_file + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(str(service.port))
    os.replace(tmp, args.port_file)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    try:
        await stop.wait()
    finally:
        await service.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    asyncio.run(_serve(args))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(args.out, peak_rss_mb=rss_mb)
    else:
        with open(args.out, "w") as fh:
            json.dump({"peak_rss_mb": rss_mb}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
