"""Tests for the benchmark runner (``run.py``), on reduced sizes.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import NULL, Tracer, union_seconds  # noqa: E402

#: sizes small enough for a test, keeping each workload's property
SMALL = {
    "serve-beacons": {"n": 400, "bodies": 6, "pairs_per_request": 64, "window_s": 0.1},
    "tri-churn": {"n": 80, "events": 3000, "pairs_per_event": 32, "window_s": 0.1},
    "route-graph-overcache": {"n": 150, "warmup_routes": 10, "routes": 120, "window_s": 0.1},
}


def _workload(name, tmp_path, seed=3, tracer=NULL):
    return workloads.WORKLOADS[name](seed, tmp_path, tracer, sizes=SMALL[name])


def _measured(name, tmp_path, seconds=0.5, seed=3, **measure):
    wl = _workload(name, tmp_path, seed)
    wl.setup()
    wl.measure(seconds, **measure)
    return wl


def test_every_listed_workload_is_implemented():
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_reduced_run_passes_and_prints_every_metric(name, trace, tmp_path):
    result = run.run(
        name, seed=3, seconds=0.6, trace=trace, workdir=tmp_path,
        sizes=SMALL[name], out=tmp_path,
    )
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["checks"] and all(result["checks"].values())
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert (tmp_path / f"spans-{name}-seed3.json").exists()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_served_estimate_counts_as_failed(tmp_path):
    wl = _measured("serve-beacons", tmp_path)
    try:
        response = json.loads(wl.responses[0])
        response["estimates"][0] = np.nextafter(response["estimates"][0], np.inf)
        wl.responses[0] = json.dumps(response).encode()
        response = json.loads(wl.responses[1])
        response["structure_hash"] = "sha256:" + "0" * 64
        wl.responses[1] = json.dumps(response).encode()
        wl.check()
    finally:
        wl.close()
    assert wl.failed == 2
    assert wl.attempted == len(wl.responses)


def test_corrupted_triangulation_reads_count_as_failed(tmp_path):
    wl = _measured("tri-churn", tmp_path)
    truth = wl.instance.metric.pairwise(wl.pairs[0][:2])
    wl.estimates[0][0] = truth[0] * 0.5  # below d
    wl.estimates[0][1] = truth[1] * 4.5  # above the certified 4.0 * d
    wl.check()
    assert wl.failed == 2


def test_corrupted_route_counts_as_failed(tmp_path):
    wl = _measured("route-graph-overcache", tmp_path)
    graph = wl.instance.graph
    path = wl.paths[0].tolist()
    u = path[0]
    stranger = next(x for x in range(graph.n) if x != u and not graph.has_edge(u, x))
    wl.paths[0] = np.array([u, stranger] + path[1:])  # a hop that is no graph edge
    wl.reached[1] = False
    wl.check()
    assert wl.failed == 2


def test_churn_trace_running_out_before_the_deadline_fails_the_run(tmp_path):
    wl = workloads.WORKLOADS["tri-churn"](
        3, tmp_path, NULL, sizes={**SMALL["tri-churn"], "events": 5}
    )
    wl.setup()
    with pytest.raises(RuntimeError, match="ran out before the deadline"):
        wl.measure(30)


def test_same_seed_gives_identical_deterministic_values(tmp_path):
    def deterministic(name, seed):
        # A fixed operation count, reached long before the deadline; the
        # routes go round the 120 pre-drawn pairs twice.
        wl = _measured(
            name, tmp_path / f"{name}-{len(seen)}", seconds=60, seed=seed,
            limit=LIMIT[name],
        )
        try:
            wl.check()
        finally:
            wl.close()
        out = {
            "structure_bytes": wl.structure_bytes,
            "geomean_ratio": wl.geomean_ratio,
            "max_ratio": wl.max_ratio,
        }
        for key in ("metrics.build_row_misses", "metrics.route_row_misses"):
            if key in wl.layers:
                out[key] = wl.layers[key]
        return out

    LIMIT = {"tri-churn": 30, "route-graph-overcache": 240}
    seen = []
    for name in ("tri-churn", "route-graph-overcache"):
        seen.append(deterministic(name, 5))
        seen.append(deterministic(name, 5))
        assert seen[-1] == seen[-2]
    assert seen[-1]["metrics.route_row_misses"] > 0


def test_tracer_coverage_counts_overlapping_spans_once():
    tracer = Tracer()
    tracer.add("a.outer", 0.0, 4.0)
    tracer.add("b.inner", 1.0, 2.0)
    tracer.add("c.top", 3.0, 6.0)
    assert tracer.coverage(0.0, 8.0) == pytest.approx(6.0 / 8.0)
    assert union_seconds([(0, 2), (1, 3), (5, 9)], 0, 6) == 4


def test_sustained_figures_are_quartiles_over_whole_windows():
    # Four 1 s windows, then a partial one that is left out.  Window i
    # holds i + 1 operations of 2 pairs each, each taking (i + 1) ms.
    ends, lats = [], []
    for i in range(4):
        ends += [i + 0.5] * (i + 1)
        lats += [(i + 1) * 1e-3] * (i + 1)
    figures = workloads._sustained(0.0, 4.9, 1.0, ends + [4.5], lats + [1.0], 2)
    assert figures["windows"] == 4 and figures["window_samples_min"] == 1
    assert figures["pairs_per_s"] == pytest.approx(np.percentile([2, 4, 6, 8], 25))
    assert figures["latency.p50_ms"] == pytest.approx(np.percentile([1, 2, 3, 4], 75))
    assert figures["latency.p95_ms"] == pytest.approx(np.percentile([1, 2, 3, 4], 75))
    # With busy seconds the rate is work over the time the operations
    # took: 2 pairs per (i + 1) ms in window i.
    busy = workloads._sustained(0.0, 4.0, 1.0, ends, lats, 2, busy=lats)
    assert busy["pairs_per_s"] == pytest.approx(np.percentile([2000 / k for k in (1, 2, 3, 4)], 25))
