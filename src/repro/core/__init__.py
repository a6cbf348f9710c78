"""Rings of neighbors — the paper's unifying technique.

"Every node u stores pointers to some nodes called 'neighbors'; these
pointers are partitioned into several 'rings', so that for some increasing
sequence of balls {B_i} around u, the neighbors in the i-th ring lie
inside B_i" (§1).

Two collections recur across all four applications (§1, "The unifying
technique"):

* **cardinality-scaled rings** — ball cardinalities grow exponentially
  (``B_ui`` = smallest ball with ``n/2^i`` nodes) and ring members are
  distributed uniformly over the ball's node set (the X-type neighbors);
* **radius-scaled rings** — ball radii grow exponentially and members are
  distributed "uniformly in the space region", i.e. net points or samples
  w.r.t. a doubling measure (the Y-type neighbors).

This package provides those builders (:mod:`~repro.core.rings`), the
CSR-packed structure they all return (:mod:`~repro.core.packed`), the
zooming sequences that guide routing/identification
(:mod:`~repro.core.zooming`), the host/virtual enumeration machinery that
replaces global node ids with short local indices
(:mod:`~repro.core.enumeration`), and the overlay-network view used for
routing on metrics (:mod:`~repro.core.overlay`).
"""

from repro.core.packed import PackedRings, exact_capped_rings
from repro.core.patch import CSRPatch, InactiveNode, Membership, PatchStats
from repro.core.rings import cardinality_rings, measure_rings, net_rings
from repro.core.zooming import ZoomingSequence, net_zooming_sequence
from repro.core.enumeration import Enumeration, TranslationFunction
from repro.core.overlay import overlay_from_rings

__all__ = [
    "CSRPatch",
    "InactiveNode",
    "Membership",
    "PackedRings",
    "PatchStats",
    "exact_capped_rings",
    "cardinality_rings",
    "measure_rings",
    "net_rings",
    "ZoomingSequence",
    "net_zooming_sequence",
    "Enumeration",
    "TranslationFunction",
    "overlay_from_rings",
]
