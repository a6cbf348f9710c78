"""Sharded construction is bit-for-bit identical to the sequential scan.

The contract of :mod:`repro.construction`: executors change scheduling,
never results.  These tests pin it three ways:

* a literal re-implementation of the pre-batching sequential greedy scan
  is the reference — the shipped ``greedy_net`` must reproduce it
  exactly for shard counts {1, 2, 3, 7} on euclidean, graph (dense and
  lazy backends) and synthetic matrix workloads;
* whole ``NestedNets`` hierarchies (which additionally carry the
  distance-to-net array between levels) must match level-for-level;
* a process-pool executor must match too (2 workers — correctness, not
  speed, is under test).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.construction import (
    ChunkedExecutor,
    ProcessPoolBuildExecutor,
    SerialExecutor,
)
from repro.core.rings import net_rings
from repro.graphs.generators import knn_geometric_graph
from repro.metrics.graphmetric import ShortestPathMetric
from repro.metrics.nets import NestedNets, greedy_net, is_r_net
from repro.metrics.synthetic import (
    clustered_metric,
    exponential_line,
    random_hypercube_metric,
)

SHARD_COUNTS = (1, 2, 3, 7)


def sequential_greedy_net(metric, r, seed_points=None):
    """The pre-batching reference: one full distance row per admission."""
    n = metric.n
    net = list(seed_points) if seed_points else []
    min_dist = np.full(n, np.inf)
    for s in net:
        np.minimum(min_dist, metric.distances_from(s), out=min_dist)
    pos = 0
    while pos < n:
        candidates = np.flatnonzero(min_dist[pos:] >= r)
        if candidates.size == 0:
            break
        v = pos + int(candidates[0])
        net.append(v)
        np.minimum(min_dist, metric.distances_from(v), out=min_dist)
        pos = v + 1
    return net


def _metrics():
    graph = knn_geometric_graph(72, k=4, seed=3)
    return {
        "euclidean": random_hypercube_metric(80, dim=2, seed=1),
        "graph-dense": ShortestPathMetric(graph, dense=True),
        "graph-lazy": ShortestPathMetric(graph, dense=False),
        "synthetic-clustered": clustered_metric(
            64, clusters=6, dim=3, spread=0.05, seed=2
        ),
        "synthetic-expline": exponential_line(24, base=1.7),
    }


METRICS = _metrics()


def _radii(metric):
    lo, hi = metric.min_distance(), metric.diameter()
    return [lo * 1.5, (lo * hi) ** 0.5, hi / 3.0]


class TestGreedyNetSharding:
    @pytest.mark.parametrize("name", sorted(METRICS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_matches_sequential_scan(self, name, shards):
        metric = METRICS[name]
        executor = SerialExecutor() if shards == 1 else ChunkedExecutor(shards)
        for r in _radii(metric):
            expected = sequential_greedy_net(metric, r)
            got = greedy_net(metric, r, executor=executor)
            assert got == expected
            assert is_r_net(metric, got, r)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_seeded_scan_matches(self, shards):
        metric = METRICS["euclidean"]
        r = metric.diameter() / 4.0
        seed = sequential_greedy_net(metric, 2 * r)
        expected = sequential_greedy_net(metric, r, seed_points=seed)
        got = greedy_net(
            metric, r, seed_points=seed, executor=ChunkedExecutor(shards)
        )
        assert got == expected

    def test_process_pool_matches(self):
        metric = METRICS["euclidean"]
        r = metric.diameter() / 5.0
        expected = sequential_greedy_net(metric, r)
        with ProcessPoolBuildExecutor(workers=2) as pool:
            assert greedy_net(metric, r, executor=pool) == expected


class TestNestedNetsSharding:
    def _reference_levels(self, metric, levels, base_radius, descending):
        """Levels built by seeding the reference scan coarsest-first."""
        def radius_of(j):
            return base_radius / 2.0**j if descending else base_radius * 2.0**j

        nets = {}
        seed = []
        for j in sorted(range(levels), key=radius_of, reverse=True):
            seed = sequential_greedy_net(metric, radius_of(j), seed_points=seed)
            nets[j] = seed
        return nets

    @pytest.mark.parametrize("name", sorted(METRICS))
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_hierarchy_matches_reference(self, name, shards):
        metric = METRICS[name]
        levels = min(6, metric.log_aspect_ratio() + 1)
        base = metric.min_distance()
        expected = self._reference_levels(metric, levels, base, False)
        executor = None if shards == 1 else ChunkedExecutor(shards)
        nets = NestedNets(
            metric, levels=levels, base_radius=base, executor=executor
        )
        for j in range(levels):
            assert nets.net(j) == expected[j]

    @pytest.mark.parametrize("shards", (2, 7))
    def test_descending_hierarchy_matches(self, shards):
        metric = METRICS["graph-lazy"]
        levels = 5
        base = metric.diameter()
        expected = self._reference_levels(metric, levels, base, True)
        nets = NestedNets(
            metric, levels=levels, base_radius=base,
            descending=True, executor=ChunkedExecutor(shards),
        )
        for j in range(levels):
            assert nets.net(j) == expected[j]

    def test_lazy_and_dense_backends_agree(self):
        dense, lazy = METRICS["graph-dense"], METRICS["graph-lazy"]
        levels = dense.log_aspect_ratio() + 1
        base = dense.min_distance()
        a = NestedNets(dense, levels=levels, base_radius=base)
        b = NestedNets(lazy, levels=levels, base_radius=base,
                       executor=ChunkedExecutor(3))
        for j in range(levels):
            assert a.net(j) == b.net(j)


class TestRingBuildersSharding:
    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_net_rings_members_identical(self, shards):
        metric = METRICS["graph-dense"]
        nets = NestedNets(
            metric, levels=5, base_radius=metric.diameter(), descending=True
        )
        radius = lambda j: 4.0 * metric.diameter() / (0.3 * 2.0**j)  # noqa: E731
        serial = net_rings(metric, nets, radius)
        sharded = net_rings(
            metric, nets, radius, executor=ChunkedExecutor(shards)
        )
        assert sharded.keys == serial.keys
        np.testing.assert_array_equal(sharded.indptr, serial.indptr)
        np.testing.assert_array_equal(sharded.members, serial.members)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_nearest_members_identical(self, shards):
        metric = METRICS["euclidean"]
        nets = NestedNets(
            metric, levels=4, base_radius=metric.diameter(), descending=True
        )
        us = list(range(metric.n))
        for j in range(nets.levels):
            expected = [nets.nearest_member(j, u) for u in us]
            got = nets.nearest_members(j, us, executor=ChunkedExecutor(shards))
            assert [int(x) for x in got] == expected
