"""Ring builders checked against the paper's definitions, and the
:class:`PackedRings` read API and CSR validation.

Each builder is compared with a brute-force evaluation of the formula it
implements, on a euclidean and on a lazy shortest-path metric:

* ``net_rings`` — ``Y_uj = B_u(r_j) ∩ G_j`` (Thm 2.1/3.2/4.1), members in
  net admission order;
* ``cardinality_rings`` — ``X_ui`` sampled from ``B_ui``, the smallest
  ball around u holding at least ``n/2^i`` nodes (§5.1);
* ``measure_rings`` — samples from ``B_u(d_min 2^j)`` (§5.1).
"""

import math

import numpy as np
import pytest

from repro.construction import ChunkedExecutor, SerialExecutor
from repro.core import PackedRings, cardinality_rings, measure_rings, net_rings
from repro.graphs.generators import knn_geometric_graph
from repro.metrics import NestedNets
from repro.metrics.graphmetric import ShortestPathMetric
from repro.metrics.measure import doubling_measure
from repro.metrics.synthetic import random_hypercube_metric

METRICS = ["euclidean", "graph-lazy"]


@pytest.fixture(scope="module", params=METRICS)
def metric(request):
    if request.param == "euclidean":
        return random_hypercube_metric(48, dim=2, seed=5)
    graph = knn_geometric_graph(56, k=4, seed=9)
    return ShortestPathMetric(graph, dense=False, row_cache_bytes=1 << 20)


def assert_sampled_ring(members, row, radius, samples_per_ring):
    """1..k distinct ids, sorted ascending, all inside ``B_u(radius)``."""
    assert 1 <= members.size <= samples_per_ring
    assert np.all(np.diff(members) > 0)
    assert np.all(row[members] <= radius)


class TestNetRingsDefinition:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_members_are_net_points_in_the_ball(self, metric, shards):
        executor = SerialExecutor() if shards == 1 else ChunkedExecutor(shards=shards)
        nets = NestedNets(
            metric, levels=4, base_radius=metric.min_distance(), executor=executor
        )

        def radius(j):
            return 1.5 * nets.radius_of(j)

        rings = net_rings(metric, nets, radius)
        assert rings.keys == tuple(range(nets.levels))
        for u in range(metric.n):
            row = metric.distances_from(u)
            for k, j in enumerate(rings.keys):
                r = radius(j)
                want = [v for v in nets.net(j) if row[v] <= r]
                assert rings.members_of(u, j).tolist() == want
                assert rings.radii[u, k] == r

    def test_level_subset(self, hypercube32):
        nets = NestedNets(hypercube32, levels=5, base_radius=hypercube32.min_distance())
        rings = net_rings(hypercube32, nets, lambda j: 1.0, levels=[2, 3])
        assert rings.keys == (2, 3)
        assert rings.radius(0, 2) == 1.0
        with pytest.raises(KeyError):
            rings.members_of(0, 0)


class TestCardinalityRingsDefinition:
    def test_rings_sample_the_smallest_n_over_2i_ball(self, metric):
        n, k = metric.n, 4
        rings = cardinality_rings(metric, samples_per_ring=k, seed=11)
        assert rings.keys == tuple(range(math.ceil(math.log2(n))))
        for u in range(n):
            row = metric.distances_from(u)
            by_distance = np.sort(row)
            for i in rings.keys:
                r = rings.radii[u, i]
                assert r == by_distance[math.ceil(n / 2**i) - 1]
                assert_sampled_ring(rings.members_of(u, i), row, r, k)


class TestMeasureRingsDefinition:
    def test_rings_sample_balls_of_doubling_radius(self, metric):
        k = 3
        rings = measure_rings(metric, doubling_measure(metric), k, seed=7)
        d_min = metric.min_distance()
        assert rings.keys == tuple(range(metric.log_aspect_ratio()))
        for u in range(metric.n):
            row = metric.distances_from(u)
            for j in rings.keys:
                assert rings.radii[u, j] == d_min * 2**j
                assert_sampled_ring(rings.members_of(u, j), row, d_min * 2**j, k)

    def test_default_scale_keeps_ring_zero_local(self, hypercube32):
        """Ring 0 is ``B_u(d_min)``, not a ball swallowing the space."""
        rings = measure_rings(hypercube32, doubling_measure(hypercube32), 2, seed=0)
        n = hypercube32.n
        assert rings.provenance["base_radius"] == hypercube32.min_distance()
        for u in range(n):
            ball = hypercube32.distances_from(u) <= rings.radius(u, 0)
            assert np.count_nonzero(ball) < n


@pytest.mark.parametrize("builder", ["cardinality", "measure"])
def test_sampled_builders_are_seed_deterministic(metric, builder):
    def build(seed):
        if builder == "cardinality":
            return cardinality_rings(metric, 4, seed=seed)
        return measure_rings(metric, doubling_measure(metric), 3, seed=seed)

    a, b, other = build(3), build(3), build(4)
    for name in ("indptr", "members", "radii"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.provenance == b.provenance
    assert not np.array_equal(a.members, other.members)


class TestPackedRingsReads:
    """The read API on a hand-built structure: keys 0 and 1 over 32 nodes,
    node 0 holding ``(1, 2)`` and ``(2, 3, 0)``, node 1 holding ``(0,)``."""

    @pytest.fixture
    def rings(self, hypercube32):
        n = hypercube32.n
        chunks = [np.empty(0, dtype=int)] * (2 * n)
        chunks[0], chunks[1], chunks[2] = [1, 2], [2, 3, 0], [0]
        radii = np.tile([1.0, 2.0], (n, 1))
        return PackedRings.from_ring_chunks(hypercube32, [0, 1], radii, chunks)

    def test_neighbors_deduplicated_no_self(self, rings):
        assert rings.neighbors_of(0) == [1, 2, 3]
        assert rings.neighbors_of(1) == [0]
        assert rings.neighbors_of(5) == []

    def test_out_degree(self, rings):
        assert rings.out_degree(0) == 3
        assert rings.out_degree(1) == 1
        assert rings.out_degree(5) == 0
        assert rings.max_out_degree() == 3

    def test_ring_lookup(self, rings):
        assert rings.radius(0, 1) == 2.0
        assert rings.members_of(0, 1).tolist() == [2, 3, 0]
        assert rings.members_of(3, 0).size == 0
        with pytest.raises(KeyError):
            rings.members_of(0, 7)

    def test_max_ring_cardinality(self, rings):
        assert rings.max_ring_cardinality() == 3
        assert rings.ring_sizes()[0].tolist() == [2, 3]
        assert rings.ring_sizes()[1].tolist() == [1, 0]


class TestPackedRingsValidation:
    """Arrays handed in directly must form a CSR block over ``[0, n)``."""

    @pytest.fixture
    def metric4(self):
        return random_hypercube_metric(4, dim=2, seed=0)

    def _packed(self, metric4, indptr, members):
        return PackedRings(metric4, [0], np.zeros((4, 1)), indptr, members)

    def test_well_formed_arrays_accepted(self, metric4):
        rings = self._packed(metric4, [0, 1, 1, 3, 4], [1, 0, 3, 2])
        assert rings.ring_sizes().ravel().tolist() == [1, 0, 2, 1]

    def test_inconsistent_offsets_rejected(self, metric4):
        with pytest.raises(ValueError):
            self._packed(metric4, [0, 2, 1, 3, 9], [0, 1, 2, 3, 7])

    @pytest.mark.parametrize(
        "indptr, members, match",
        [
            ([1, 1, 2, 3, 4], [0, 1, 2, 3], "run from 0"),
            ([0, 1, 2, 3, 3], [0, 1, 2, 3], "members.size"),
            ([0, 2, 1, 3, 4], [0, 1, 2, 3], "non-decreasing"),
            ([0, 1, 2, 3, 4], [0, 1, 2, 4], r"node ids in \[0, 4\)"),
            ([0, 1, 2, 3, 4], [0, -1, 2, 3], r"node ids in \[0, 4\)"),
            ([0, 1, 2, 3, 4], [0, 1, 2, 2**32 + 1], r"node ids in \[0, 4\)"),
        ],
    )
    def test_each_violation_named(self, metric4, indptr, members, match):
        with pytest.raises(ValueError, match=match):
            self._packed(metric4, indptr, members)
