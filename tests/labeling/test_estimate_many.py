"""Batched estimates of the ring structures match the per-pair decoders.

The engine's :func:`~repro.engine.evaluate.bulk_estimates` prefers a
vectorized ``estimate_many``; these tests pin down that the paper's own
schemes (Theorem 3.2 triangulation, its corollary DLS, and the Theorem
3.4 id-free labels) now provide one and that it reproduces the per-pair
``estimate`` bit for bit — including diagonal pairs and pairs repeated
within one batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import bulk_estimates
from repro.labeling import RingDLS, RingTriangulation, TriangulationDLS
from repro.labeling._dplus import PackedLabels
from repro.metrics.synthetic import random_hypercube_metric

DELTA = 0.4


@pytest.fixture(scope="module")
def estimators(hypercube32, scales_hypercube32):
    tri = RingTriangulation(hypercube32, DELTA, scales=scales_hypercube32)
    return {
        "triangulation": tri,
        "triangulation-dls": TriangulationDLS(tri),
        "ring-dls": RingDLS(hypercube32, DELTA, scales=scales_hypercube32),
    }


def _pair_batch(n: int) -> tuple:
    rng = np.random.default_rng(5)
    us = rng.integers(0, n, 300)
    vs = rng.integers(0, n, 300)
    us[:5] = vs[:5]  # diagonal pairs
    us[5:10], vs[5:10] = us[10:15], vs[10:15]  # repeated pairs
    return us, vs


@pytest.mark.parametrize("name", ["triangulation", "triangulation-dls", "ring-dls"])
def test_estimate_many_matches_per_pair(estimators, hypercube32, name):
    estimator = estimators[name]
    us, vs = _pair_batch(hypercube32.n)
    batched = estimator.estimate_many(us, vs)
    looped = np.array(
        [estimator.estimate(int(u), int(v)) for u, v in zip(us, vs)]
    )
    assert np.array_equal(batched, looped)


@pytest.mark.parametrize("name", ["triangulation", "triangulation-dls", "ring-dls"])
def test_bulk_estimates_takes_the_vectorized_path(estimators, hypercube32, name):
    estimator = estimators[name]
    us, vs = _pair_batch(hypercube32.n)
    pairs = np.stack([us, vs], axis=1)
    via_engine = bulk_estimates(estimator, pairs)
    assert np.array_equal(via_engine, estimator.estimate_many(us, vs))


def _packed(labels) -> PackedLabels:
    """CSR-pack ``beacon -> distance`` dicts (ids ascending per row)."""
    rows = [sorted(label.items()) for label in labels]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    ids = np.array([b for row in rows for b, _ in row], dtype=np.int64)
    dist = np.array([d for row in rows for _, d in row], dtype=float)
    return PackedLabels.from_csr(len(labels), indptr, ids, dist)


def test_packed_labels_edge_cases():
    packed = _packed([{1: 1.0}, {2: 2.0}, {}, {1: 0.5, 2: 0.25}])
    got = packed.dplus_many([0, 0, 2, 3, 1], [1, 3, 3, 3, 1])
    assert got[0] == np.inf  # no common beacon
    assert got[1] == pytest.approx(1.5)  # beacon 1: 1.0 + 0.5
    assert got[2] == np.inf  # empty label
    assert got[3] == 0.0  # diagonal
    assert got[4] == 0.0  # diagonal, even with a shared beacon
    assert packed.dplus_many([], []).shape == (0,)


def test_packed_labels_chunking_is_transparent():
    labels = [{j: float(j + u) for j in range(u % 7 + 1)} for u in range(40)]
    packed = _packed(labels)
    rng = np.random.default_rng(0)
    us = rng.integers(0, 40, 500)
    vs = rng.integers(0, 40, 500)
    expected = packed.dplus_many(us, vs)
    packed.scratch_cells = 16  # force many tiny chunks
    assert np.array_equal(packed.dplus_many(us, vs), expected)


def test_pending_patch_splits_clean_and_dirty_pairs(monkeypatch):
    metric = random_hypercube_metric(64, dim=2, seed=101)
    tri = RingTriangulation(metric, DELTA)
    tri.merge_threshold = 1.0  # never auto-merge on the dirty fraction
    # Leave the node the fewest labels hold, so some rows stay clean.
    gone = int(np.argmin(np.bincount(tri._ids, minlength=metric.n)))
    assert not tri.apply_update(leaves=[gone])
    rng = np.random.default_rng(3)
    active = np.flatnonzero(np.arange(metric.n) != gone)
    clean_rows = active[~tri._patch.rows_dirty(active)]
    assert clean_rows.size >= 2
    us = np.concatenate([rng.choice(clean_rows, 40), rng.choice(active, 200)])
    vs = np.concatenate([rng.choice(clean_rows, 40), rng.choice(active, 200)])
    dirty = tri._patch.rows_dirty(us) | tri._patch.rows_dirty(vs)
    assert dirty.any() and not dirty.all()

    kernel_pairs = []
    dplus_many = PackedLabels.dplus_many

    def spy(self, a, b):
        kernel_pairs.append((np.array(a), np.array(b)))
        return dplus_many(self, a, b)

    monkeypatch.setattr(PackedLabels, "dplus_many", spy)
    batched = tri.estimate_many(us, vs)
    # Exactly the clean pairs go through the kernel, in one call.
    assert len(kernel_pairs) == 1
    assert np.array_equal(kernel_pairs[0][0], us[~dirty])
    assert np.array_equal(kernel_pairs[0][1], vs[~dirty])
    # Dirty pairs took the per-pair path, each off-diagonal one IVL-checked.
    assert tri.ivl_checks == int((dirty & (us != vs)).sum()) > 0
    assert tri.ivl_violations == 0
    looped = np.array([tri.estimate(int(u), int(v)) for u, v in zip(us, vs)])
    assert np.array_equal(batched, looped)
    assert tri.ivl_violations == 0
