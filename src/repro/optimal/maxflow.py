"""Dinic's maximum-flow algorithm, from scratch.

The paper's related work ([2] Albers et al., [4] Angel et al.) solves the
zero-static-power multiprocessor problem via repeated maximum flows on a
task/interval bipartite network.  We implement the flow substrate ourselves
(no networkx) so the flow-based machinery in :mod:`repro.optimal.flow` is
self-contained: Dinic with BFS level graphs and DFS blocking flows —
``O(V²E)`` in general and much faster on the unit-ish bipartite networks the
scheduler builds.

Edges live in flat parallel lists (``to``, ``cap``, ``flow``) with one
edge-id list per node; edge ``e``'s reverse is ``e ^ 1``.  The blocking-flow
DFS is iterative, so augmenting paths of any length work (a recursive DFS
stops at Python's recursion limit, about 1,000 nodes).  An edge may be added
with an initial flow: :meth:`MaxFlowNetwork.max_flow` augments whatever
valid flow the network holds, which is how a caller warm-starts from a
previous solution.  From zero flow the augmentation order, and so every
float, is that of the textbook recursive Dinic.

Capacities are floats; a relative epsilon guards the saturation tests, which
is sufficient here because every capacity derives from a handful of additions
of task/interval lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MaxFlowNetwork", "FlowResult"]

_EPS = 1e-12


@dataclass(frozen=True)
class FlowResult:
    """Outcome of a max-flow computation."""

    value: float
    # flows on the *forward* edges, in insertion order
    edge_flows: tuple[float, ...]
    phases: int = 0  # level graphs that carried flow
    # per node: reachable from the source in the final residual graph (the
    # source side of a minimum cut)
    reachable: tuple[bool, ...] = ()


class MaxFlowNetwork:
    """A capacitated directed graph with a Dinic max-flow solver."""

    def __init__(self, n_nodes: int):
        if n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        self.n = n_nodes
        # edge 2k is the k-th added edge, 2k + 1 its residual reverse
        self._to: list[int] = []
        self._cap: list[float] = []
        self._flow: list[float] = []
        self._adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, capacity: float, flow: float = 0.0) -> int:
        """Add a directed edge; returns its id (for flow readback).

        ``flow`` seeds the edge's initial flow (``0 <= flow <= capacity``);
        the caller keeps seeded flows conserved at every inner node.
        """
        self.add_edges([u], [v], [capacity], [flow])
        return len(self._to) // 2 - 1

    def add_edges(self, tails, heads, capacities, flows=None) -> None:
        """:meth:`add_edge` over parallel arrays, in array order (ids run on
        from the edges already present); ``flows`` defaults to zero."""
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        caps = np.asarray(capacities, dtype=np.float64)
        flows = np.zeros(caps.shape) if flows is None else np.asarray(flows, dtype=np.float64)
        if not (tails.shape == heads.shape == caps.shape == flows.shape):
            raise ValueError("edge arrays must have one shape")
        if np.any((tails < 0) | (tails >= self.n) | (heads < 0) | (heads >= self.n)):
            raise ValueError("node out of range")
        if np.any(tails == heads):
            raise ValueError("self-loops not supported")
        if np.any(caps < 0):
            raise ValueError("capacity must be nonnegative")
        if not np.all((flows >= 0) & (flows <= caps)):
            raise ValueError("initial flow must lie in [0, capacity]")
        base = len(self._to)
        self._to += np.column_stack([heads, tails]).ravel().tolist()
        self._cap += np.column_stack([caps, np.zeros(caps.size)]).ravel().tolist()
        self._flow += np.column_stack([flows, 0.0 - flows]).ravel().tolist()
        # append each node's new edge ids in ascending order (unique sort
        # keys make the fast unstable sort give the stable order)
        owner = np.column_stack([tails, heads]).ravel()
        ids = (np.argsort(owner * owner.size + np.arange(owner.size)) + base).tolist()
        counts = np.bincount(owner, minlength=self.n)
        start = 0
        for u in np.flatnonzero(counts).tolist():
            stop = start + int(counts[u])
            self._adj[u] += ids[start:stop]
            start = stop

    # -- Dinic ---------------------------------------------------------------------

    def _bfs_levels(self, s: int, t: int) -> list[int]:
        """Residual BFS levels from ``s`` (``-1`` = unreached).

        The search stops early only once ``t`` is reached; when it is not,
        the levels mark the whole residual-reachable set.
        """
        to, cap, flow, adj = self._to, self._cap, self._flow, self._adj
        levels = [-1] * self.n
        levels[s] = 0
        queue = [s]
        for u in queue:
            lu = levels[u]
            if 0 <= levels[t] <= lu:
                break  # nodes this deep cannot lie on a shortest path to t
            for e in adj[u]:
                v = to[e]
                if levels[v] < 0 and cap[e] - flow[e] > _EPS:
                    levels[v] = lu + 1
                    queue.append(v)
        return levels

    def _blocking_flow(self, s: int, t: int, levels: list[int], total: float) -> float:
        """Augment along level paths until none is left; returns ``total``
        plus every push, added one by one."""
        to, cap, flow, adj = self._to, self._cap, self._flow, self._adj
        it = [0] * self.n
        path: list[int] = []  # edge ids from s to u
        bott = [float("inf")]  # bott[k]: bottleneck of path[:k]
        u = s
        while True:
            if u == t:
                pushed = bott[-1]
                for e in path:
                    flow[e] += pushed
                    flow[e ^ 1] -= pushed
                total += pushed
                # resume at the first edge the push saturated, as a fresh
                # descent from s along the unchanged it[] pointers would
                k = 0
                while k < len(path) and cap[path[k]] - flow[path[k]] > _EPS:
                    k += 1
                del path[k:]
                del bott[1:]
                for e in path:
                    bott.append(min(bott[-1], cap[e] - flow[e]))
                u = to[path[-1]] if path else s
                continue
            edges = adj[u]
            i = it[u]
            want = levels[u] + 1
            end = len(edges)
            while i < end:
                e = edges[i]
                if levels[to[e]] == want:
                    r = cap[e] - flow[e]
                    if r > _EPS:
                        break
                i += 1
            it[u] = i
            if i < end:
                path.append(e)
                bott.append(min(bott[-1], r))
                u = to[e]
            elif path:
                # dead end for the rest of the phase: unlevel u so no scan
                # descends into it again, retreat, skip the edge that led here
                levels[u] = -1
                u = to[path.pop() ^ 1]
                bott.pop()
                it[u] += 1
            else:
                return total

    def max_flow(self, source: int, sink: int) -> FlowResult:
        """Run Dinic from ``source`` to ``sink``, augmenting the current flow
        (zero unless edges were seeded)."""
        if source == sink:
            raise ValueError("source must differ from sink")
        total = 0.0
        for e in self._adj[source]:
            total += self._flow[e]
        phases = 0
        while True:
            levels = self._bfs_levels(source, sink)
            if levels[sink] < 0:
                break
            total = self._blocking_flow(source, sink, levels, total)
            phases += 1
        return FlowResult(
            value=total,
            edge_flows=tuple(self._flow[0::2]),
            phases=phases,
            reachable=tuple(level >= 0 for level in levels),
        )
