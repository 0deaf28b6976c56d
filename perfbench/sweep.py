"""paper-sweep child: the Fig. 6 replication loop, in-process.

Set-up is importing the library and generating the inputs (the fixed
replication seeds, in the order the workload seed picks); the child then
writes its ready time (``time.monotonic``, which every process of the host
shares) to ``--out``.  With ``--setup-only`` it stops there.  Otherwise
it runs ``--passes`` whole passes over the list, timing each
``run_replication`` and each pass, and writes the times, the energies, its
peak RSS and, with ``--trace``, every span.

    python3 perfbench/sweep.py --seed N --passes P --reps R --out OUT.json [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from repro.experiments.runner import PointSpec, run_replication

    import workloads

    spec = PointSpec(n_tasks=workloads.SWEEP_N_TASKS, m=workloads.SWEEP_M)
    seeds = workloads.sweep_seeds(args.seed, args.reps)
    ready = time.monotonic()
    if args.setup_only:
        with open(args.out, "w") as fh:
            json.dump({"ready": ready}, fh)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    reps = []
    pass_s = []
    for _ in range(args.passes):
        t_pass = time.perf_counter()
        for s in seeds:
            t0 = time.perf_counter()
            sample = run_replication(spec, s)
            reps.append(
                {
                    "seed": s,
                    "ms": (time.perf_counter() - t0) * 1e3,
                    "optimal_energy": sample.optimal_energy,
                    "nec": sample.values,
                }
            )
        pass_s.append(time.perf_counter() - t_pass)
    out = {
        "ready": ready,
        "pass_s": pass_s,
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(args.out, **out)
    else:
        with open(args.out, "w") as fh:
            json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
