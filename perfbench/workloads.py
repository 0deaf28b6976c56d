"""Seeded inputs of the four workloads.

Everything here is a pure function of the workload seed and the requested
sizes, so one seed always yields the same requests, streams and
replication list.  The program under
test receives only these generated inputs.
"""

from __future__ import annotations

import numpy as np

#: ``schedule-mix`` request block: every 20 requests hold these shares, in a
#: seeded order.  A fifth repeat a small hot set (cache hits beside misses);
#: the fresh misses are mostly n=20 full plans, with n=100 tasks sets,
#: ``include_schedule: false`` requests and ``even`` allocations beside them.
BLOCK = 20
HOT_PER_BLOCK = 4
HOT_SET = 8
FRESH_KINDS = (
    # (n_tasks, method, include_schedule, count per block); n=100 full plans
    # are 15% of requests, twice the share beyond the open loop's tail
    # percentile, so the tail falls in the middle of that one group
    (20, "der", True, 7),
    (20, "even", True, 2),
    (20, "der", False, 2),
    (20, "even", False, 1),
    (100, "der", True, 3),
    (100, "der", False, 1),
)
#: open-loop offered rate (requests/s), a fifth of the measured capacity:
#: queueing amplifies the host's slow stretches, and at 12 requests/s
#: tail_ms spread twice as wide from run to run
OFFERED_RATE = 8.0

#: admission streams: arrival rate, admit-stream length, and the capped
#: platform of admit-capped
ADMIT_RATE = 1.0
ADMIT_STREAM_N = 1000
CAPPED_STREAM_N = 200
CAPPED_F_MAX = 1.0
#: the fixed stream list of each admission workload (seed base and length);
#: a run cycles over the whole list and the workload seed only permutes
#: it, so every run posts the same arrivals: the cost of one 200-arrival
#: stream varies by a quarter from stream to stream, which seeded streams
#: would turn into run-to-run spread
ADMIT_SEED_BASE = 0
ADMIT_STREAMS = 1
CAPPED_STREAMS = 2
#: seconds of one cycle over each list on the reference host
ADMIT_CYCLE_S = 30.0
CAPPED_CYCLE_S = 9.0

#: paper-sweep: the fixed Fig. 6 replication list (seed base and length);
#: the workload seed only permutes the order, so every run does the same
#: exact solves (single solves span 50 ms to 1 s, which a random list of
#: a dozen replications would turn into run-to-run spread).  An odd length
#: puts p50 on the copies of one replication, not between two of them; a
#: short list gives a run more passes, so that one slow stretch of the host
#: moves neither p50 (the same replication that was p50 of the 13-long
#: list) nor the median pass
SWEEP_SEED_BASE = 0
SWEEP_REPS = 7
#: seconds of one pass over the list on the reference host
SWEEP_PASS_S = 4.0
SWEEP_N_TASKS = 20
SWEEP_M = 4


def passes(seconds: float, pass_s: float) -> int:
    """The number of whole passes that take about ``seconds`` on the
    reference host, each ``pass_s`` long.

    The stream and sweep workloads run whole passes, since their cost per
    operation depends on the position in the pass, and a number fixed in
    advance: with as many passes as fit the time, a slow stretch of the
    host changed the sample count, and ``tail_ms`` of a fixed replication
    list jumped from one replication to another.
    """
    return max(1, round(seconds / pass_s))


def _rows(tasks) -> list[list[float]]:
    return [
        [float(r), float(d), float(c)]
        for r, d, c in zip(tasks.releases, tasks.deadlines, tasks.works)
    ]


def _taskset(rng: np.random.Generator, n: int) -> list[list[float]]:
    from repro.workloads.generator import PaperWorkloadConfig, paper_workload

    return _rows(paper_workload(rng, PaperWorkloadConfig(n_tasks=n)))


def schedule_mix(seed: int, n_requests: int, stream: int = 0) -> list[dict]:
    """``n_requests`` ``/v1/schedule`` bodies in the mix's proportions.

    ``stream`` separates the open-loop and capacity phases: both draw from
    the same hot set but get their own fresh task sets.
    """
    hot_rng = np.random.default_rng([seed, 0])
    hot_methods = ["der"] * (HOT_SET - 2) + ["even"] * 2
    hot = [
        {"tasks": _taskset(hot_rng, 20), "method": method}
        for method in hot_methods
    ]
    rng = np.random.default_rng([seed, 1 + stream])
    block = [None] * HOT_PER_BLOCK + [
        (n, method, include)
        for n, method, include, count in FRESH_KINDS
        for _ in range(count)
    ]
    assert len(block) == BLOCK
    out: list[dict] = []
    while len(out) < n_requests:
        for slot in rng.permutation(BLOCK):
            kind = block[slot]
            if kind is None:
                out.append(dict(hot[int(rng.integers(HOT_SET))]))
            else:
                n, method, include = kind
                body = {"tasks": _taskset(rng, n), "method": method}
                if not include:
                    body["include_schedule"] = False
                out.append(body)
    return out[:n_requests]


def poisson_offsets(seed: int, n: int, rate: float) -> np.ndarray:
    """Due times (seconds from phase start) of ``n`` Poisson arrivals."""
    rng = np.random.default_rng([seed, 99])
    return np.cumsum(rng.exponential(1.0 / rate, size=n))


def admit_stream(seed: int, n: int, stream: int = 0, rate: float = ADMIT_RATE) -> list[list[float]]:
    """A Poisson arrival stream of paper-style tasks, in release order.

    The shape of the service load generator's admit stream: exponential
    interarrivals, work uniform in [10, 30], intensity from the paper's
    menu, so windows overlap and each admit perturbs the committed plan.
    ``stream`` numbers the streams drawn from one seed.
    """
    from repro.workloads.generator import intensity_menu

    rng = np.random.default_rng([seed, 2, stream])
    releases = np.cumsum(rng.exponential(1.0 / rate, size=n))
    works = rng.uniform(10.0, 30.0, size=n)
    intensities = rng.choice(intensity_menu(), size=n)
    deadlines = releases + works / intensities
    return [
        [float(r), float(d), float(c)]
        for r, d, c in zip(releases, deadlines, works)
    ]


def admit_streams(seed: int, n: int, count: int) -> list[list[list[float]]]:
    """The fixed list of ``count`` streams of ``n`` arrivals, in an order
    the workload seed picks."""
    streams = [admit_stream(ADMIT_SEED_BASE, n, k) for k in range(count)]
    order = np.random.default_rng([seed, 4]).permutation(count)
    return [streams[i] for i in order]


def sweep_seeds(seed: int, reps: int = SWEEP_REPS) -> list[int]:
    """The fixed replication seeds, in an order the workload seed picks."""
    ss = np.random.SeedSequence(SWEEP_SEED_BASE)
    seeds = [int(child.generate_state(1)[0]) for child in ss.spawn(reps)]
    order = np.random.default_rng([seed, 3]).permutation(reps)
    return [seeds[i] for i in order]
