"""Packed structures against brute force and per-pair decoders.

``with_sorted_members`` sorts every ring in place of its original
order; ``exact_capped_rings`` matches a brute-force annulus bucketing;
``estimate_many`` over packed labels equals the per-pair ``estimate``
decoder exactly; and the packed routing schemes keep their structural
invariants.  The ring builders themselves are checked against the
paper's definitions in ``tests/core/test_rings.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.packed import exact_capped_rings
from repro.core.rings import net_rings
from repro.graphs.generators import knn_geometric_graph
from repro.metrics.nets import NestedNets
from repro.metrics.synthetic import random_hypercube_metric


class TestPackedRingBlocks:
    def test_sorted_members_view(self):
        metric = random_hypercube_metric(48, dim=2, seed=5)
        nets = NestedNets(metric, levels=4, base_radius=metric.min_distance())
        packed = net_rings(metric, nets, lambda j: 2.0 * nets.radius_of(j))
        as_sorted = packed.with_sorted_members()
        np.testing.assert_array_equal(as_sorted.indptr, packed.indptr)
        for u in range(metric.n):
            for key in packed.keys:
                want = sorted(packed.members_of(u, key).tolist())
                assert as_sorted.members_of(u, key).tolist() == want

    def test_exact_capped_rings_match_bruteforce(self):
        metric = random_hypercube_metric(48, dim=2, seed=5)
        base = metric.min_distance()
        levels = metric.log_aspect_ratio() + 1
        cap = 5
        exact = exact_capped_rings(metric, base, levels, cap=cap)
        edges = base * np.exp2(np.arange(levels))
        for u in range(metric.n):
            row = metric.distances_from(u)
            scale = np.searchsorted(edges, row, side="left")
            order = np.argsort(row, kind="stable")
            for j in range(levels):
                annulus = order[
                    (scale[order] == j) & (order != u) & (row[order] > 0)
                ]
                want = [int(v) for v in annulus[:cap]]
                got = [int(v) for v in exact.members_of(u, j)]
                assert got == want


class TestPackedLabelEquivalence:
    """estimate_many over packed labels == per-pair estimate, exactly."""

    def _pairs(self, n):
        rng = np.random.default_rng(0)
        us = rng.integers(0, n, size=200)
        vs = rng.integers(0, n, size=200)
        return us, vs

    def test_triangulation(self):
        from repro.labeling.triangulation import RingTriangulation

        metric = random_hypercube_metric(40, dim=2, seed=3)
        tri = RingTriangulation(metric, delta=0.3)
        us, vs = self._pairs(metric.n)
        batched = tri.estimate_many(us, vs)
        singles = np.array([tri.estimate(int(u), int(v)) for u, v in zip(us, vs)])
        np.testing.assert_array_equal(batched, singles)

    def test_triangulation_dls(self):
        from repro.labeling.triangulation import (
            RingTriangulation,
            TriangulationDLS,
        )

        metric = random_hypercube_metric(40, dim=2, seed=3)
        dls = TriangulationDLS(RingTriangulation(metric, delta=0.3))
        us, vs = self._pairs(metric.n)
        batched = dls.estimate_many(us, vs)
        singles = np.array([dls.estimate(int(u), int(v)) for u, v in zip(us, vs)])
        np.testing.assert_array_equal(batched, singles)

    def test_ring_dls(self):
        from repro.labeling.dls import RingDLS

        metric = random_hypercube_metric(32, dim=2, seed=4)
        dls = RingDLS(metric, delta=0.3)
        us, vs = self._pairs(metric.n)
        batched = dls.estimate_many(us, vs)
        singles = np.array([dls.estimate(int(u), int(v)) for u, v in zip(us, vs)])
        np.testing.assert_array_equal(batched, singles)


class TestPackedSchemes:
    """The packed routing schemes keep their structural invariants."""

    def test_ring_routing_zeta_matches_bruteforce(self):
        graph = knn_geometric_graph(48, k=4, seed=2)
        from repro.routing.ring_scheme import RingRouting

        scheme = RingRouting(graph, delta=0.3)
        for u in range(0, graph.n, 7):
            for j in range(scheme.levels - 1):
                expected = {}
                ring_u_next = {
                    w: k for k, w in enumerate(scheme.ring(u, j + 1))
                }
                for fi, f in enumerate(scheme.ring(u, j)):
                    for wi, w in enumerate(scheme.ring(f, j + 1)):
                        if w in ring_u_next:
                            expected[(fi, wi)] = ring_u_next[w]
                assert dict(scheme.zeta_items(u, j)) == expected
                for (fi, wi), k in expected.items():
                    assert scheme.zeta_lookup(u, j, fi, wi) == k

    def test_ring_routing_storage_is_packed(self):
        graph = knn_geometric_graph(48, k=4, seed=2)
        from repro.core.packed import PackedRings
        from repro.routing.ring_scheme import RingRouting

        scheme = RingRouting(graph, delta=0.3)
        assert isinstance(scheme.rings_packed, PackedRings)
        assert scheme.rings_packed.members.dtype == np.int32
        account = scheme.rings_packed.storage_account()
        assert account.total_bits == scheme.rings_packed.resident_bytes() * 8

    def test_label_routing_neighbors_sorted_csr(self):
        graph = knn_geometric_graph(48, k=4, seed=2)
        from repro.routing.label_scheme import LabelRouting

        scheme = LabelRouting(graph, delta=0.3, estimator="exact")
        for u in range(graph.n):
            nbrs = scheme.neighbors_of(u)
            assert list(nbrs) == sorted(nbrs)
            assert u not in nbrs
