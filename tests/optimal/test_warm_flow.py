"""Seeded max flows, deep augmenting paths and warm-started realization."""

import numpy as np
import pytest

from repro.core import Task, TaskSet
from repro.optimal import MaxFlowNetwork, realize_demands


def _staircase(n: int) -> TaskSet:
    """``[i-1, i+1]`` with work 1 for i=1..n, then ``[0, 1]`` with work 1.

    Feasible on one core at f=1 only with task i in ``[i, i+1]``; routing
    the last task shifts every other one, an augmenting path through all
    ``n`` tasks.
    """
    return TaskSet([Task(i - 1.0, i + 1.0, 1.0) for i in range(1, n + 1)] + [Task(0.0, 1.0, 1.0)])


class TestDeepPaths:
    def test_long_chain(self):
        n = 3000
        net = MaxFlowNetwork(n)
        for u in range(n - 1):
            net.add_edge(u, u + 1, 1.0 + u % 3)
        res = net.max_flow(0, n - 1)
        assert res.value == 1.0
        assert all(f == 1.0 for f in res.edge_flows)

    def test_staircase_realizes(self):
        tasks = _staircase(700)
        real = realize_demands(tasks, 1, tasks.works)
        assert real.feasible
        assert np.allclose(real.x.sum(axis=1), tasks.works)
        assert np.all(real.x.sum(axis=0) <= real.boundaries[1:] - real.boundaries[:-1] + 1e-12)


def _recursive_dinic(n, edges, s, t):
    """Textbook recursive Dinic over ``[to, cap, flow, rev]`` lists: the
    reference the flat iterative kernel must match float for float."""
    adj = [[] for _ in range(n)]
    fwd = []
    for u, v, c in edges:
        adj[u].append([v, c, 0.0, len(adj[v])])
        adj[v].append([u, 0.0, 0.0, len(adj[u]) - 1])
        fwd.append((u, len(adj[u]) - 1))

    def push(u, f, level, it):
        if u == t:
            return f
        while it[u] < len(adj[u]):
            e = adj[u][it[u]]
            if level[e[0]] == level[u] + 1 and e[1] - e[2] > 1e-12:
                got = push(e[0], min(f, e[1] - e[2]), level, it)
                if got > 1e-12:
                    e[2] += got
                    adj[e[0]][e[3]][2] -= got
                    return got
            it[u] += 1
        return 0.0

    total = 0.0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            for v, c, f, _ in adj[u]:
                if level[v] < 0 and c - f > 1e-12:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return total, tuple(adj[u][i][2] for u, i in fwd)
        it = [0] * n
        while (got := push(s, float("inf"), level, it)) > 1e-12:
            total += got


class TestColdMatchesRecursiveReference:
    @pytest.mark.parametrize("seed", range(20))
    def test_bit_identical_flows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        scale = 1e5 if seed % 2 else 3.0
        edges = []
        for _ in range(int(rng.integers(1, 70))):
            u, v = (int(x) for x in rng.integers(0, n, 2))
            if u != v:
                edges.append((u, v, float(rng.uniform(0, scale))))
        net = MaxFlowNetwork(n)
        for u, v, c in edges:
            net.add_edge(u, v, c)
        res = net.max_flow(0, n - 1)
        assert (res.value, res.edge_flows) == _recursive_dinic(n, edges, 0, n - 1)


class TestSeededFlow:
    def test_add_edges_matches_add_edge(self):
        rng = np.random.default_rng(5)
        n, k = 12, 60
        tails = rng.integers(0, n, k)
        heads = (tails + 1 + rng.integers(0, n - 1, k)) % n
        caps = rng.uniform(0.0, 3.0, k)
        one, bulk = MaxFlowNetwork(n), MaxFlowNetwork(n)
        ids = [one.add_edge(int(u), int(v), float(c)) for u, v, c in zip(tails, heads, caps)]
        bulk.add_edges(tails, heads, caps)
        assert ids == list(range(k))
        res_one, res_bulk = one.max_flow(0, n - 1), bulk.max_flow(0, n - 1)
        assert res_one == res_bulk
        assert res_one.reachable == res_bulk.reachable

    def test_seeded_flow_is_augmented(self):
        # s -> a -> t and s -> b -> t, with a cross edge a -> b; seed one unit
        net = MaxFlowNetwork(4)
        net.add_edge(0, 1, 2.0, 1.0)
        net.add_edge(0, 2, 1.0)
        net.add_edge(1, 2, 1.0)
        net.add_edge(1, 3, 1.0, 1.0)
        net.add_edge(2, 3, 2.0)
        res = net.max_flow(0, 3)
        assert res.value == pytest.approx(3.0)
        assert res.edge_flows[0] == pytest.approx(2.0)

    def test_max_flow_again_is_a_no_op(self):
        net = MaxFlowNetwork(3)
        net.add_edge(0, 1, 2.0)
        net.add_edge(1, 2, 1.5)
        first = net.max_flow(0, 2)
        again = net.max_flow(0, 2)
        assert again.value == first.value == 1.5
        assert again.edge_flows == first.edge_flows
        assert again.phases == 0

    @pytest.mark.parametrize("flow", [-0.5, 2.5, float("nan")])
    def test_seed_outside_capacity_rejected(self, flow):
        net = MaxFlowNetwork(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, 2.0, flow)

    def test_bulk_shape_mismatch_rejected(self):
        net = MaxFlowNetwork(3)
        with pytest.raises(ValueError):
            net.add_edges([0, 1], [1, 2], [1.0])


class TestWarmRealization:
    @pytest.mark.parametrize("seed", range(8))
    def test_warm_equals_cold(self, seed):
        rng = np.random.default_rng(seed)
        tasks = []
        warm = None
        for _ in range(25):
            r = float(rng.integers(0, 20))
            tasks.append(Task(r, r + float(rng.integers(1, 8)), float(rng.uniform(0.5, 4))))
            ts = TaskSet(tasks)
            demands = np.minimum(ts.works, ts.windows)
            cold = realize_demands(ts, 2, demands)
            real = realize_demands(ts, 2, demands, warm_start=warm)
            assert real.feasible == cold.feasible
            assert np.array_equal(real.boundaries, cold.boundaries)
            assert real.x.sum() == pytest.approx(cold.x.sum(), rel=1e-12, abs=1e-12)
            assert np.all(real.x[~_coverage(ts, real.boundaries)] == 0.0)
            if real.feasible:
                warm = real
            else:
                tasks.pop()

    def test_unsplit_columns_carry_bit_for_bit(self):
        # a disjoint arrival: the old flow is already maximal, nothing moves
        first = TaskSet([Task(0.0, 4.0, 2.0), Task(1.0, 3.0, 1.5)])
        prev = realize_demands(first, 1, first.works)
        both = TaskSet([*first, Task(10.0, 12.0, 1.0)])
        real = realize_demands(both, 1, both.works, warm_start=prev)
        assert real.feasible
        assert np.array_equal(real.x[:2, : prev.x.shape[1]], prev.x)

    def test_not_a_prefix_rejected(self):
        a = TaskSet([Task(0.0, 4.0, 1.0)])
        b = TaskSet([Task(1.0, 3.0, 1.0)])
        prev = realize_demands(a, 1, a.works)
        with pytest.raises(ValueError, match="prefix"):
            realize_demands(b, 1, b.works, warm_start=prev)

    def test_larger_previous_demand_rejected(self):
        tasks = TaskSet([Task(0.0, 4.0, 3.0)])
        prev = realize_demands(tasks, 1, [3.0])
        with pytest.raises(ValueError, match="more flow than"):
            realize_demands(tasks, 1, [1.0], warm_start=prev)


def _coverage(tasks: TaskSet, boundaries: np.ndarray) -> np.ndarray:
    starts, ends = boundaries[:-1], boundaries[1:]
    return (tasks.releases[:, None] <= starts) & (tasks.deadlines[:, None] >= ends)
