"""Property-based tests: r-nets and packings on random point sets."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import EuclideanMetric, eps_mu_packing, greedy_net
from repro.metrics.nets import NestedNets, is_r_net


@st.composite
def metrics(draw, max_n=14):
    """1-d point sets snapped to a 0.01 grid (keeps aspect ratios within
    realistic ranges; the denormal-gap pathology has its own regression
    test in tests/metrics/test_packing.py)."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    xs = draw(
        st.lists(
            st.integers(min_value=0, max_value=10000),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return EuclideanMetric(np.array(xs, dtype=float)[:, None] * 0.01)


@settings(max_examples=40, deadline=None)
@given(metrics(), st.floats(min_value=0.01, max_value=50.0))
def test_greedy_net_is_valid(metric, r):
    net = greedy_net(metric, r)
    assert is_r_net(metric, net, r)


@settings(max_examples=25, deadline=None)
@given(metrics(), st.integers(min_value=2, max_value=5))
def test_nested_nets_nest(metric, levels):
    nets = NestedNets(metric, levels=levels, base_radius=metric.min_distance())
    for j in range(levels - 1):
        assert set(nets.net(j + 1)) <= set(nets.net(j))
        assert is_r_net(metric, nets.net(j), nets.radius_of(j))


@settings(max_examples=20, deadline=None)
@given(metrics(), st.sampled_from([1.0, 0.5, 0.25]))
# Scanned in node order, node 2's ball {3, 4} blocked node 3's radius-0
# candidate and left nodes 3 and 4 with reach 0.08 / 0.09 > 6 r_u = 0.06.
@example(
    EuclideanMetric(
        np.array([0, 4, 71, 135, 136, 3, 2, 1], dtype=float)[:, None] * 0.01
    ),
    0.25,
)
def test_packing_guarantees(metric, eps):
    packing = eps_mu_packing(metric, eps)
    assert packing.verify_disjoint()
    for u in range(metric.n):
        _ball, reach = packing.covering_ball_for(u)
        assert reach <= 6.0 * metric.radius_for_fraction(u, eps) + 1e-9


@settings(max_examples=25, deadline=None)
@given(metrics())
def test_doubling_measure_positive_normalized(metric):
    from repro.metrics.measure import doubling_measure

    mu = doubling_measure(metric)
    assert np.all(mu.weights > 0)
    assert np.isclose(mu.weights.sum(), 1.0)
