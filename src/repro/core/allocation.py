"""Available-execution-time allocation in heavily overlapped subintervals.

This is the heart of the paper (§V-B/§V-C).  During a heavily overlapped
subinterval ``[t_j, t_{j+1}]`` there are ``n_j > m`` ready tasks competing
for ``m·Δ`` core-time (``Δ = t_{j+1} − t_j``).  Two allocation policies:

* **Even** — every overlapping task receives ``m·Δ / n_j``.
* **DER-based (Algorithm 2)** — allocate proportionally to each task's
  *Desired Execution Requirement* ``c(τ) = |U^O_τ ∩ [t_j, t_{j+1}]| · f^O_τ``
  (the work the unlimited-core optimum would do here), processing tasks in
  decreasing DER order and capping any share at the subinterval length ``Δ``;
  capped tasks are removed from the pool and the remainder is re-normalized —
  exactly the behaviour of the paper's worked example (§V-D), which this
  module reproduces to four decimals in the test-suite.

:class:`AllocationPlan` assembles the full matrix ``x[i, j]`` of available
times over *all* subintervals — lightly overlapped ones contribute the whole
``Δ`` to each overlapping task (Observation 2) — yielding each task's total
available time ``A_i``, the input to the final frequency refinement.

Two assembly paths produce the same matrix:

* the **vectorized** default (``method="even"``/``"der"``) builds ``x`` in
  one batched pass: light subintervals via the coverage mask, heavy
  subintervals via an even-split broadcast or a closed-form water-filling
  over the batched DER matrix (see :func:`_waterfill_capped`);
* the **scalar reference** (``method="even_scalar"``/``"der_scalar"``)
  retains the original per-subinterval Python loop, kept as the oracle for
  the equivalence tests and the hot-path benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping

import numpy as np

from .ideal import IdealSolution
from .intervals import Subinterval, Timeline
from .task import TaskSet

__all__ = [
    "allocate_evenly",
    "allocate_der",
    "allocate_proportional",
    "AllocationPlan",
    "assemble_columns",
    "build_allocation_plan",
    "AllocationMethod",
]

AllocationMethod = Literal["even", "der", "even_scalar", "der_scalar"]

_SCALAR_SUFFIX = "_scalar"
_BASE_METHODS = ("even", "der")


def allocate_evenly(sub: Subinterval, m: int) -> dict[int, float]:
    """Even split of ``m·Δ`` among the overlapping tasks of ``sub``.

    Valid for any subinterval; for a lightly overlapped one the even share
    ``m·Δ/n_j`` exceeds ``Δ``, so it is clamped to ``Δ`` (each task may own a
    core for the whole subinterval but no more).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = sub.n_overlapping
    if n == 0:
        return {}
    share = min(m * sub.length / n, sub.length)
    return {tid: share for tid in sub.task_ids}


def allocate_proportional(
    sub: Subinterval, m: int, weights: Mapping[int, float]
) -> dict[int, float]:
    """Weight-proportional allocation with per-task cap ``Δ`` (Algorithm 2's core).

    Tasks are visited in decreasing weight order.  At each step the candidate
    share is ``w(τ) / W_rem · T_rem`` where ``W_rem`` is the remaining weight
    pool and ``T_rem`` the remaining core-time; shares above ``Δ`` are capped
    at ``Δ`` and the remainder re-normalized.  Zero-weight tasks receive zero
    time — except when *every* weight is zero, in which case the split falls
    back to :func:`allocate_evenly` so that no capacity is stranded
    (Observation 2's intent: available time must not be starved just because
    the weighting carries no information).

    The DER-based method is this with DER weights; the ablation experiments
    plug in alternative weightings (total work, intensity).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    ids = list(sub.task_ids)
    if not ids:
        return {}
    for tid in ids:
        if weights.get(tid, 0.0) < 0:
            raise ValueError(f"negative weight for task {tid}")
    delta = sub.length
    w_rem = sum(weights.get(tid, 0.0) for tid in ids)
    if w_rem <= 0.0:
        # all-zero weights: proportional shares are undefined — even split
        return allocate_evenly(sub, m)
    # decreasing weight; stable tie-break on task id for determinism
    order = sorted(ids, key=lambda tid: (-weights.get(tid, 0.0), tid))
    alloc: dict[int, float] = {tid: 0.0 for tid in ids}
    t_rem = m * delta
    for tid in order:
        if w_rem <= 0.0 or t_rem <= 0.0:
            break
        want = weights.get(tid, 0.0) / w_rem * t_rem
        give = min(want, delta, t_rem)
        alloc[tid] = give
        w_rem -= weights.get(tid, 0.0)
        t_rem -= give
    return alloc


def allocate_der(
    sub: Subinterval,
    m: int,
    ideal: IdealSolution,
) -> dict[int, float]:
    """Algorithm 2: DER-proportional allocation with per-task cap ``Δ``.

    The weight of task ``τ`` is its Desired Execution Requirement
    ``c(τ) = |U^O_τ ∩ [t_j, t_{j+1}]| · f^O_τ`` — the work the unlimited-core
    optimum performs inside this subinterval.

    Returns a mapping task-id → allocated available time.
    """
    overlaps = ideal.overlap_with(sub.start, sub.end)  # one vectorized pass
    ders = {
        tid: float(overlaps[tid] * ideal.frequencies[tid])
        for tid in sub.task_ids
    }
    return allocate_proportional(sub, m, ders)


@dataclass(frozen=True)
class AllocationPlan:
    """The full available-time matrix ``x[i, j]`` for one task set & platform.

    Attributes
    ----------
    timeline:
        The subinterval decomposition the plan is indexed by.
    m:
        Number of cores.
    method:
        Which heavy-subinterval policy produced the plan.
    x:
        ``(n_tasks, n_subintervals)`` array of available execution times.
        ``x[i, j] = 0`` whenever task ``i`` does not overlap subinterval
        ``j``; in lightly overlapped subintervals ``x[i, j] = Δ_j`` for every
        overlapping task.
    """

    timeline: Timeline
    m: int
    method: str
    x: np.ndarray

    def __post_init__(self) -> None:
        self.x.setflags(write=False)

    @property
    def tasks(self) -> TaskSet:
        """The scheduled task set."""
        return self.timeline.tasks

    @property
    def available_times(self) -> np.ndarray:
        """Total available time ``A_i = Σ_j x[i, j]`` per task."""
        return self.x.sum(axis=1)

    def check(self, rtol: float = 1e-9) -> None:
        """Raise when the plan violates its defining constraints."""
        lengths = self.timeline.lengths
        if np.any(self.x < -rtol):
            raise AssertionError("negative allocation")
        if np.any(self.x > lengths[None, :] * (1 + rtol) + rtol):
            raise AssertionError("per-task allocation exceeds subinterval length")
        if np.any(self.x[~self.timeline.coverage] != 0.0):
            raise AssertionError("allocation outside task window")
        totals = self.x.sum(axis=0)
        if np.any(totals > self.m * lengths * (1 + rtol) + rtol):
            raise AssertionError("subinterval over-committed beyond m·Δ")
        # no starvation: every subinterval with overlapping tasks must hand
        # out some of its capacity (the zero-weight even-split fallback
        # guarantees this for both allocation policies)
        if np.any((self.timeline.overlap_counts > 0) & (totals <= 0.0)):
            raise AssertionError(
                "overlapped subinterval allocates no time (starvation)"
            )

    def heavy_subintervals(self) -> list[Subinterval]:
        """The heavily overlapped subintervals of the plan's timeline."""
        return self.timeline.heavy(self.m)


def _waterfill_capped(
    w: np.ndarray, delta: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Algorithm 2 over many heavy subintervals at once.

    Algorithm 2's sequential greedy — decreasing-weight order, share
    ``w/W_rem · T_rem`` capped at ``Δ`` with re-normalization — is exactly
    capped proportional water-filling: because the ratio ``T_rem/W_rem``
    never decreases along the pass and weights are visited in decreasing
    order, the capped tasks always form a prefix of the sorted order.  The
    final allocation is therefore ``min(w_i · r*, Δ)`` where
    ``r* = (m·Δ − k·Δ) / (W − P_k)`` for the smallest prefix size ``k`` with
    ``w_(k+1) · (m·Δ − k·Δ) ≤ Δ · (W − P_k)`` (``P_k`` the sorted prefix
    sum).  That smallest ``k`` is found for every column in one batched
    argmax over the cumulative-sum matrix — no per-task loop.

    ``w`` is the ``(n_tasks, H)`` weight matrix of the heavy columns (zero
    outside coverage), ``delta`` the column lengths.  Returns the
    allocation and the per-column total weight.  Columns whose total
    weight is zero return all-zero allocations; the caller applies the
    even-split fallback there.
    """
    n, H = w.shape
    if H == 0:
        return np.zeros((n, 0)), np.zeros(0)
    T = m * delta
    # the number of capped tasks never exceeds m, so only the m + 1 largest
    # weights per column matter
    K = min(m + 1, n)
    # Canonical summation: sort each column descending and take sequential
    # cumulative sums.  Both the top-K prefix sums and the column total are
    # then functions of the *multiset* of positive weights alone — zero
    # (uncovered) rows trail the sort and cannot perturb any prefix.  A
    # plain ``w.sum(axis=0)`` does not have this property: numpy's pairwise
    # reduction regroups when the row count changes, shifting the total by
    # an ulp, which would break bit-equality between a column computed at
    # ``n`` rows and the same column spliced unchanged through an
    # ``(n+1)``-row rebuild (see :mod:`repro.core.incremental`).
    sw = np.sort(w, axis=0)[::-1]  # (n, H) descending per column; zeros trail
    csum = np.cumsum(sw, axis=0)
    ws = sw[:K]  # (K, H) descending top weights per column
    wtot = csum[-1]
    # weight left in the pool before step k: W - P_k
    pool = np.empty((K, H))
    pool[0] = wtot
    np.subtract(wtot, csum[: K - 1], out=pool[1:])
    # capacity left before step k: m·Δ - k·Δ
    cap = T - np.arange(K, dtype=np.float64)[:, None] * delta
    # the remaining-pool clamp keeps the k = m row exactly true (0 <= 0)
    # even when fp dust drives W - P_k a hair negative
    uncapped = ws * cap <= delta * np.maximum(pool, 0.0)
    # first uncapped position = number of capped tasks; guaranteed to exist
    # for heavy columns (at k = m the remaining capacity is zero)
    kstar = np.argmax(uncapped, axis=0)
    cols = np.arange(H)
    t_rem = np.maximum(cap[kstar, cols], 0.0)
    w_rem = pool[kstar, cols]
    left = w_rem > 0
    r = np.divide(t_rem, w_rem, out=np.zeros(H), where=left)
    alloc = np.minimum(w * r, delta)
    # columns where every positive-weight task was capped before the pool
    # emptied (w_rem == 0 with time left): each of them holds Δ outright
    if not left.all():
        exhausted = ~left
        alloc[:, exhausted] = np.where(
            w[:, exhausted] > 0, delta[exhausted], 0.0
        )
    return alloc, wtot


def assemble_columns(
    cov: np.ndarray,
    lengths: np.ndarray,
    m: int,
    base: str,
    der: np.ndarray | None = None,
) -> np.ndarray:
    """Batched per-column assembly of ``x`` over an arbitrary column subset.

    The shared numeric kernel of the vectorized batch path and the
    incremental :class:`~repro.core.incremental.ScheduleSession`: both feed
    it a ``(n_tasks, k)`` coverage slice, the ``k`` column lengths, and (for
    the DER policy) the matching ``(n_tasks, k)`` DER-weight slice.  Every
    column is assembled independently — light columns grant the full length
    to every covering task (Observation 2), heavy columns get the even split
    or the Algorithm-2 water-filling — so recomputing only the columns a
    delta touched produces bit-identical values to a full batch pass.
    """
    counts = cov.sum(axis=0)
    heavy = counts > m
    if not heavy.any():
        # Observation 2: light subintervals grant the full length to every
        # overlapping task
        return np.where(cov, lengths[None, :], 0.0)
    light = not heavy.all()
    if not light:
        heavy = slice(None)  # views, not masked copies

    d_h = lengths[heavy]
    n_h = counts[heavy]
    cov_h = cov[:, heavy]
    if base == "even":
        alloc = np.where(cov_h, np.minimum(m * d_h / n_h, d_h), 0.0)
    else:
        assert der is not None
        w = np.where(cov_h, der[:, heavy], 0.0)
        alloc, wtot = _waterfill_capped(w, d_h, m)
        # all-zero-DER columns: proportional shares are undefined — even
        # split, mirroring allocate_proportional's fallback
        zero = wtot <= 0.0
        if zero.any():
            even = np.where(cov_h, np.minimum(m * d_h / n_h, d_h), 0.0)
            alloc[:, zero] = even[:, zero]
    if not light:
        return alloc
    x = np.where(cov, lengths[None, :], 0.0)
    x[:, heavy] = alloc
    return x


def _assemble_vectorized(
    timeline: Timeline,
    m: int,
    base: str,
    ideal: IdealSolution | None,
) -> np.ndarray:
    """One batched pass over all subintervals (the hot path)."""
    der = None
    if base == "der":
        assert ideal is not None
        der = ideal.der_matrix(timeline)
    return assemble_columns(
        timeline.coverage, timeline.lengths, m, base, der
    )


def _assemble_scalar(
    timeline: Timeline,
    m: int,
    base: str,
    ideal: IdealSolution | None,
) -> np.ndarray:
    """The original per-subinterval loop, kept as the reference oracle."""
    x = np.zeros((len(timeline.tasks), len(timeline)))
    for sub in timeline:
        if sub.n_overlapping == 0:
            continue
        if sub.is_heavy(m):
            if base == "even":
                alloc = allocate_evenly(sub, m)
            else:
                assert ideal is not None
                alloc = allocate_der(sub, m, ideal)
            for tid, t in alloc.items():
                x[tid, sub.index] = t
        else:
            for tid in sub.task_ids:
                x[tid, sub.index] = sub.length
    return x


def build_allocation_plan(
    timeline: Timeline,
    m: int,
    method: AllocationMethod,
    ideal: IdealSolution | None = None,
) -> AllocationPlan:
    """Assemble the ``x[i, j]`` matrix for either allocation policy.

    Lightly overlapped subintervals always contribute their full length to
    every overlapping task (Observation 2); heavily overlapped ones receive
    the even split or the Algorithm-2 DER shares.

    ``"even"``/``"der"`` run the vectorized batched assembly; the
    ``"even_scalar"``/``"der_scalar"`` reference methods run the original
    per-subinterval loop (they agree to ``rtol=1e-9``, enforced by the
    property suite).  ``ideal`` is required for the DER methods (it defines
    the DERs).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    scalar = isinstance(method, str) and method.endswith(_SCALAR_SUFFIX)
    base = method[: -len(_SCALAR_SUFFIX)] if scalar else method
    if base not in _BASE_METHODS:
        raise ValueError(f"unknown allocation method {method!r}")
    if base == "der" and ideal is None:
        raise ValueError("DER-based allocation requires the ideal solution")

    assemble = _assemble_scalar if scalar else _assemble_vectorized
    x = assemble(timeline, m, base, ideal)
    plan = AllocationPlan(timeline=timeline, m=m, method=method, x=x)
    plan.check()
    return plan
