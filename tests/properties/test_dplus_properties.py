"""``PackedLabels.dplus_many`` equals D+ computed from its definition.

D+(u, v) is the minimum of ``d_ub + d_vb`` over the beacons ``b`` both
labels hold: 0 on the diagonal and ``inf`` when the labels share no
beacon.  The kernel reaches it by scattering into a scratch table that
is reset between chunks of pairs, so the properties below sweep the
chunking (a budget smaller than ``n`` leaves one pair per chunk, a tiny
gather group forces many groups) against a brute-force set intersection,
over labels with empty rows, disjoint rows, diagonal and repeated pairs.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labeling import _dplus
from repro.labeling._dplus import PackedLabels


@st.composite
def labelled_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    beacons = st.lists(st.integers(0, n - 1), max_size=n, unique=True)
    # Few distinct distances, so sums tie and the minimum must be exact.
    dists = st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.5, 1e6])
    rows = [sorted(draw(beacons)) for _ in range(n)]
    labels = [{b: draw(dists) for b in row} for row in rows]
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=40))
    if pairs:
        pairs.append(pairs[0])  # a repeated pair
    pairs.append((pairs[0][0], pairs[0][0]) if pairs else (0, 0))  # diagonal
    cells = draw(st.sampled_from([1, 2, 3, n, 2 * n + 1, 250_000]))
    group = draw(st.sampled_from([1, 4, 16, 1 << 15]))
    return n, labels, pairs, cells, group


def _definition(labels, u, v) -> float:
    if u == v:
        return 0.0
    common = labels[u].keys() & labels[v].keys()
    return min((labels[u][b] + labels[v][b] for b in common), default=np.inf)


@settings(max_examples=150, deadline=None)
@given(labelled_pairs())
def test_dplus_many_matches_definition(case):
    n, labels, pairs, cells, group = case
    indptr = np.cumsum([0] + [len(label) for label in labels])
    ids = np.array([b for label in labels for b in label], dtype=np.int64)
    dist = np.array([d for label in labels for d in label.values()], dtype=float)
    packed = PackedLabels.from_csr(n, indptr, ids, dist)
    packed.scratch_cells = cells
    us = np.array([u for u, _ in pairs], dtype=np.int64)
    vs = np.array([v for _, v in pairs], dtype=np.int64)
    expected = np.array([_definition(labels, u, v) for u, v in pairs])
    with mock.patch.object(_dplus, "_GATHER_ENTRIES", group):
        first = packed.dplus_many(us, vs)
        second = packed.dplus_many(us, vs)
    assert np.array_equal(first, expected)
    assert np.array_equal(second, first)
