"""Fused batch solving versus solving the same jobs one by one.

The service pool fuses same-platform ``subinterval-*`` jobs into one
super-instance pass (``repro.service.pool._solve_fused``).  This script
measures, in-process, the wall time of that fused pass divided by the wall
time of solving the same jobs one at a time through the solo path
(``_solve_one_schedule``), for batches of 4–16 ``der`` jobs at several
instance sizes.  It also reports the largest relative difference between a
fused job's energy and its solo energy: the fused schedule is split back
per instance and unshifted, so its floats can differ from a solo solve's in
the last bits.

A ratio below 1 means fusion is faster.  Run::

    PYTHONPATH=src python -m benchmarks.bench_fusion [--reps 5]

It prints one row per (n_tasks, batch size) and archives them under
``results/bench/fusion.csv``.
"""

from __future__ import annotations

import argparse
import csv
import time
from pathlib import Path

import numpy as np

from repro.service.pool import _solve_fused, _solve_one_schedule
from repro.workloads.generator import PaperWorkloadConfig, paper_workload

RESULTS = Path(__file__).resolve().parent.parent / "results" / "bench" / "fusion.csv"
SIZES = (3, 20, 100)
BATCHES = (4, 8, 16)


def _jobs(rng: np.random.Generator, n_tasks: int, k: int) -> list[dict]:
    return [
        {
            "tasks": [
                (t.release, t.deadline, t.work, t.name)
                for t in paper_workload(rng, PaperWorkloadConfig(n_tasks=n_tasks))
            ],
            "m": 4,
            "alpha": 3.0,
            "static": 0.1,
            "method": "der",
        }
        for _ in range(k)
    ]


def _best_of(fn, reps: int) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def measure(n_tasks: int, k: int, reps: int, seed: int = 0) -> dict:
    """One cell: best-of-``reps`` fused and solo wall times on one batch."""
    jobs = _jobs(np.random.default_rng(seed), n_tasks, k)
    fused_s, fused = _best_of(lambda: _solve_fused(jobs), reps)
    solo_s, solo = _best_of(lambda: [_solve_one_schedule(j) for j in jobs], reps)
    rel = max(
        abs(f["energy"] - s["energy"]) / s["energy"] for f, s in zip(fused, solo)
    )
    return {
        "n_tasks": n_tasks,
        "batch": k,
        "fused_ms": round(fused_s * 1e3, 3),
        "solo_ms": round(solo_s * 1e3, 3),
        "ratio": round(fused_s / solo_s, 3),
        "max_rel_energy_diff": float(f"{rel:.3g}"),
    }


def test_fused_energies_match_solo_closely():
    row = measure(20, 4, reps=1)
    assert row["max_rel_energy_diff"] <= 1e-9


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()
    rows = [measure(n, k, args.reps) for n in SIZES for k in BATCHES]
    print(f"{'n':>4} {'batch':>5} {'fused ms':>9} {'solo ms':>9} {'ratio':>6} {'max rel dE':>10}")
    for r in rows:
        print(
            f"{r['n_tasks']:>4} {r['batch']:>5} {r['fused_ms']:>9.2f} "
            f"{r['solo_ms']:>9.2f} {r['ratio']:>6.2f} {r['max_rel_energy_diff']:>10.2g}"
        )
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    with RESULTS.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


if __name__ == "__main__":
    main()
