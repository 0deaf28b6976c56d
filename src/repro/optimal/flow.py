"""Flow-based demand feasibility and realization (the related-work machinery).

The combinatorial algorithms of the paper's related work ([2], [4]) reduce
multiprocessor speed scheduling to maximum flows on the bipartite
task/subinterval network:

    source ──(A_i)──► task_i ──(Δ_j, if covered)──► subinterval_j ──(m·Δ_j)──► sink

A demand vector ``A`` (total execution time per task) is *feasible* iff the
max flow saturates all source edges; the flow values on the middle edges are
then exactly a valid ``x_{i,j}`` matrix, which Algorithm 1 turns into a
collision-free schedule.  This gives an independent, combinatorial
realization path for any solver's ``A`` — used by the test-suite to
cross-validate the convex solvers, and by users to answer "could I give
these tasks these durations at all?" without running an optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.intervals import Timeline
from ..core.task import TaskSet
from .maxflow import MaxFlowNetwork

__all__ = ["DemandRealization", "check_demand_feasibility", "realize_demands"]


def _build_network(
    timeline: Timeline,
    m: int,
    demands: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    mid_flow: np.ndarray | None,
) -> MaxFlowNetwork:
    """Construct the flow network over the middle edges ``(rows, cols)``.

    Edge ids: source edges ``0..n-1``, then the middle edges in order, then
    the sink edges.  ``mid_flow`` optionally seeds the middle edges; the
    source and sink edges then carry the node sums, so the seeded flow is
    conserved by construction.
    """
    n = len(timeline.tasks)
    J = len(timeline)
    # nodes: 0 = source, 1..n = tasks, n+1..n+J = subintervals, n+J+1 = sink
    source, sink = 0, n + J + 1
    lengths = timeline.lengths
    sink_caps = m * lengths
    flows = None
    if mid_flow is not None:
        src_flow = np.bincount(rows, mid_flow, minlength=n)
        sink_flow = np.bincount(cols, mid_flow, minlength=J)
        if np.any(src_flow > demands * (1 + 1e-9)) or np.any(
            sink_flow > sink_caps * (1 + 1e-9)
        ):
            raise ValueError("warm_start carries more flow than this network admits")
        # an ulp of rounding slack past a capacity never moves the max flow
        flows = np.concatenate([
            np.minimum(src_flow, demands),
            mid_flow,
            np.minimum(sink_flow, sink_caps),
        ])
    net = MaxFlowNetwork(n + J + 2)
    net.add_edges(
        np.concatenate([np.full(n, source), 1 + rows, np.arange(n + 1, sink)]),
        np.concatenate([np.arange(1, n + 1), 1 + n + cols, np.full(J, sink)]),
        np.concatenate([demands, lengths[cols], sink_caps]),
        flows,
    )
    return net


def _carry_flow(
    previous: DemandRealization, timeline: Timeline, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """``previous.x`` carried onto ``timeline``'s middle edges.

    Each old column's flow is split over the new columns inside it in
    proportion to their length (an unsplit column keeps its values bit for
    bit); tasks past the old prefix and columns outside the old horizon
    start at zero.
    """
    n_old, J_old = previous.x.shape
    old_b, new_b = previous.boundaries, timeline.boundaries
    pos = np.searchsorted(new_b, old_b)
    if (
        n_old > len(timeline.tasks)
        or old_b.size != J_old + 1
        or np.any(pos >= new_b.size)
        or np.any(new_b[np.minimum(pos, new_b.size - 1)] != old_b)
    ):
        raise ValueError("warm_start is not a realization of a prefix of these tasks")
    lengths = timeline.lengths
    parent = np.searchsorted(old_b, new_b[:-1], side="right") - 1
    inside = (parent >= 0) & (parent < J_old)
    parent = np.where(inside, parent, 0)
    ratio = lengths / (old_b[parent + 1] - old_b[parent])
    carried = (rows < n_old) & inside[cols]
    r, c = rows[carried], cols[carried]
    mid = np.zeros(rows.size)
    mid[carried] = np.minimum(previous.x[r, parent[c]] * ratio[c], lengths[c])
    return mid


@dataclass(frozen=True)
class DemandRealization:
    """Outcome of the flow computation for a demand vector."""

    feasible: bool
    x: np.ndarray  # (n, J) realized execution times (partial if infeasible)
    shortfall: np.ndarray  # per-task unmet demand
    bottleneck_subintervals: tuple[int, ...]  # min-cut side (when infeasible)
    boundaries: np.ndarray  # the timeline ``x``'s columns live on
    phases: int  # Dinic level graphs that carried flow


def check_demand_feasibility(
    tasks: TaskSet, m: int, demands, rtol: float = 1e-9
) -> bool:
    """True iff the demand vector ``A`` admits a valid ``x_{i,j}``."""
    return realize_demands(tasks, m, demands, rtol=rtol).feasible


def realize_demands(
    tasks: TaskSet,
    m: int,
    demands,
    rtol: float = 1e-9,
    warm_start: DemandRealization | None = None,
) -> DemandRealization:
    """Max-flow realization of per-task total execution times.

    Parameters
    ----------
    tasks, m:
        Instance definition.
    demands:
        Per-task desired total execution time ``A_i`` (each must not exceed
        the task's window — no single machine can give more).
    rtol:
        Relative tolerance on each task's saturation test (a task may fall
        short of its own demand by ``rtol·A_i + 1e-12``).
    warm_start:
        A realization for a prefix ``tasks[:k]`` of these tasks, with the
        same demands on that prefix.  Its flow, refined onto this timeline,
        is where Dinic starts; the result is still the exact max flow, so
        ``feasible`` does not depend on the start.

    Returns
    -------
    DemandRealization
        With ``x`` the realized times.  When infeasible, ``x`` is a maximal
        partial realization, ``shortfall`` says which tasks are short, and
        ``bottleneck_subintervals`` lists the congested subintervals on the
        min-cut (the "heavily loaded" region blocking the demand).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    demands = np.asarray(demands, dtype=np.float64)
    if demands.shape != (len(tasks),):
        raise ValueError("demands must have one entry per task")
    if np.any(demands < 0):
        raise ValueError("demands must be nonnegative")
    if np.any(demands > tasks.windows * (1 + 1e-9)):
        raise ValueError("a demand exceeds its task's window (never realizable)")

    timeline = Timeline(tasks)
    rows, cols = np.nonzero(timeline.coverage)
    mid_flow = None
    if warm_start is not None:
        mid_flow = _carry_flow(warm_start, timeline, rows, cols)
    n, J = len(tasks), len(timeline)
    net = _build_network(timeline, m, demands, rows, cols, mid_flow)
    result = net.max_flow(0, n + J + 1)

    flows = np.array(result.edge_flows)
    x = np.zeros((n, J))
    x[rows, cols] = np.maximum(flows[n : n + rows.size], 0.0)
    shortfall = np.maximum(demands - flows[:n], 0.0)
    # saturation per task: one task's slack never scales with the others'
    # demand, so a long committed history cannot hide a blocked arrival
    feasible = bool(np.all(shortfall <= demands * rtol + 1e-12))

    bottleneck: tuple[int, ...] = ()
    if not feasible:
        # a subinterval is congested when its sink edge lies on the min cut,
        # i.e. the subinterval node is still reachable in the residual graph
        reach = result.reachable
        bottleneck = tuple(j for j in range(J) if reach[1 + n + j])

    return DemandRealization(
        feasible=feasible,
        x=x,
        shortfall=shortfall,
        bottleneck_subintervals=bottleneck,
        boundaries=timeline.boundaries,
        phases=result.phases,
    )
