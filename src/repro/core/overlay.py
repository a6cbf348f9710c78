"""Overlay networks induced by rings of neighbors.

"In effect, rings of neighbors form an overlay network with a certain
structure imposed by the balls {B_i}" (§1).  Routing on *metrics* (§4.1)
is exactly routing on such an overlay: we are free to choose the edge set,
edge weights are the metric distances, and the out-degree becomes a
parameter to optimize (Table 2).
"""

from __future__ import annotations

from repro.core.packed import PackedRings
from repro.graphs.graph import WeightedGraph


def overlay_from_rings(rings: PackedRings) -> WeightedGraph:
    """Materialize the overlay graph: an edge u-v per ring pointer.

    The overlay is undirected here (a virtual link can be traversed both
    ways once established); out-degrees reported in Table 2 reproductions
    use ``out_degree``, the directed pointer count.
    """
    metric = rings.metric
    graph = WeightedGraph(metric.n)
    for u in range(metric.n):
        row = metric.distances_from(u)
        for v in rings.neighbors_of(u):
            if v != u and not graph.has_edge(u, v):
                graph.add_edge(u, v, float(row[v]))
    return graph
