"""Batched D+ over common-beacon labels (shared by the ring schemes).

Both :class:`~repro.labeling.triangulation.RingTriangulation` and its
corollary DLS store, per node, a ``beacon -> distance`` mapping and
answer ``estimate(u, v)`` with ``D+ = min_b (d_ub + d_vb)`` over the
*common* beacons ``b``.  :class:`PackedLabels` wraps those mappings in a
CSR layout (per-row beacon ids + distances) and answers a whole pair
batch without sorting anything:

* one vectorized gather pulls both sides' label rows for a group of
  pairs, sized so its temporaries stay cache-resident;
* a scratch table of ``k`` pairs × ``n`` beacon slots, filled with
  ``inf`` once per call, takes the u-side distances at slot
  ``pos * n + beacon`` for ``k`` pairs at a time;
* each v-side entry reads its slot and adds ``d_vb`` — a beacon the
  u-side lacks reads ``inf`` — and only the u-side cells are reset to
  ``inf`` before the next ``k`` pairs, so there is no per-chunk memset;
* one ``minimum.reduceat`` over each group's v rows yields its D+.

Work is linear in the gathered label mass (L = Σ label sizes over the
batch), never the Θ(K²) per-pair cross product or an O(L log L) sort,
and the scratch table is bounded by :attr:`PackedLabels.scratch_cells`
whatever the batch size.  The sums are the same float additions as the
per-pair decoders and the minimum is exact, so results match them bit
for bit.  This is what lets :func:`repro.engine.bulk_estimates` stay
vectorized for the paper's own schemes instead of falling back to the
per-pair loop.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["PackedLabels"]

#: label entries (both sides) gathered per pass, so the temporaries stay
#: cache-sized instead of faulting in fresh pages on every batch
_GATHER_ENTRIES = 1 << 15


class PackedLabels:
    """Common-neighbor labels packed (CSR) for batched D+ evaluation.

    Build with :meth:`from_csr`; beacon ids must be distinct within a row.
    """

    #: cell budget of the per-call scratch table (float64: ~2 MB)
    scratch_cells = 250_000

    @classmethod
    def from_csr(
        cls, n: int, indptr: np.ndarray, ids: np.ndarray, dist: np.ndarray
    ) -> "PackedLabels":
        """Wrap packed label arrays without copying them when they are
        already int64 ids / float64 distances."""
        packed = cls.__new__(cls)
        packed.indptr = np.asarray(indptr, dtype=np.int64)
        packed.ids = np.asarray(ids, dtype=np.int64)
        packed.dist = np.asarray(dist, dtype=float)
        packed.n = int(n)
        return packed

    def _gather(
        self, us: np.ndarray, vs: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Both sides' label entries in one pass: ``(slots, dists,
        offsets)`` over the rows ``us`` then ``vs``, where row i spans
        ``offsets[i]:offsets[i + 1]`` and an entry of pair ``pos`` sits at
        scratch slot ``(pos % k) * n + beacon``."""
        p = us.shape[0]
        rows = np.concatenate([us, vs])
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        offsets = np.zeros(2 * p + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # Entry index into the CSR arrays: one arange shifted per row.
        idx = np.repeat(starts - offsets[:-1], counts)
        idx += np.arange(offsets[-1], dtype=np.int64)
        slots = self.ids[idx]
        slots += np.repeat(np.arange(2 * p, dtype=np.int64) % p % k * self.n, counts)
        return slots, self.dist[idx], offsets

    def dplus_many(self, us, vs) -> np.ndarray:
        """``min_b (d_ub + d_vb)`` per pair (0 on the diagonal, ``inf``
        when a pair shares no beacon)."""
        us = np.asarray(us, dtype=np.int64).ravel()
        vs = np.asarray(vs, dtype=np.int64).ravel()
        m = us.shape[0]
        out = np.full(m, np.inf, dtype=float)
        if m == 0:
            return out
        n = self.n
        # Pairs per gather (g) and per scratch fill (k), with g a multiple
        # of k: the gathered arrays stay cache-sized, and each fill uses
        # k * n <= scratch_cells cells (a single pair when n exceeds it).
        mean_row = max(1.0, self.ids.size / max(1, n))
        g = max(1, int(_GATHER_ENTRIES / (2 * mean_row)))
        k = min(m, g, max(1, self.scratch_cells // max(1, n)))
        g = k * max(1, g // k)
        table = np.full(k * n, np.inf, dtype=float)
        for glo in range(0, m, g):
            p = min(m, glo + g) - glo
            slots, dist, off = self._gather(us[glo:glo + p], vs[glo:glo + p], k)
            for lo in range(0, p, k):
                hi = min(p, lo + k)
                su = slots[off[lo]:off[hi]]
                a, b = off[p + lo], off[p + hi]
                table[su] = dist[off[lo]:off[hi]]
                # d_vb + d_ub in place over the v entries; inf where u
                # lacks the beacon.
                dist[a:b] += table[slots[a:b]]
                table[su] = np.inf
            off_v = off[p:]
            rows = np.flatnonzero(off_v[1:] > off_v[:-1])
            out[glo + rows] = np.minimum.reduceat(dist, off_v[rows])
        out[us == vs] = 0.0
        return out
