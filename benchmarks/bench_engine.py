"""Perf smoke for the batched query engine — machine-readable JSON.

Times an end-to-end "build a distance-estimation scheme, evaluate its
stretch on a sampled plan" run on a euclidean workload through the
batched path: one ``distances_between`` block + vectorized quantization
for the build, then ``repro.engine.evaluate_estimator`` over a
:class:`~repro.engine.plans.UniformSamplePlan`.  An untimed check then
recomputes the max/mean relative error of the first
``CHECK_PAIRS`` plan pairs with one scalar ``estimate`` and one
``metric.distance`` call per pair; the engine must report the same
values.

A ``dplus`` section then times the packed-label D+ kernel
(:meth:`PackedLabels.dplus_many`) that every Thm 3.2 batch read goes
through, on a dense case (the Thm 3.2 triangulation on a 2-d hypercube,
n=600, δ=0.3, where every label holds nearly every node) and a sparse
one (random order-64 labels over n=10⁴).  Each case times a fixed
number of batches per trial, sized so the best trial's ``batches_s``
stays above CI's 0.2 s gate floor, and reports the best trial (min of
``trials``).  The dense case is checked against per-pair ``estimate``.

Run directly (CI does, on every push):

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py \
        --sizes 1000,5000 --out benchmarks/results/engine_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import numpy as np

from repro.engine import UniformSamplePlan, evaluate_estimator
from repro.labeling import RingTriangulation
from repro.labeling._dplus import PackedLabels
from repro.labeling.beacons import BeaconTriangulation
from repro.metrics.synthetic import random_hypercube_metric
from repro.rng import ensure_rng

BEACONS = 32
PAIRS_PER_NODE = 10  # sampled plan size = 10 n
CHECK_PAIRS = 1000  # plan pairs re-checked one scalar call at a time
SEED = 7


def per_pair_errors(tri, metric, pairs) -> Dict[str, float]:
    """Max/mean relative error from one scalar call per pair — the
    reference the engine's vectorized aggregation must reproduce."""
    errors: List[float] = []
    for u, v in pairs:
        d = metric.distance(int(u), int(v))
        est = tri.estimate(int(u), int(v))
        if d > 0 and np.isfinite(est):
            errors.append(abs(est - d) / d)
    return {
        "max_relative_error": max(errors),
        "mean_relative_error": float(np.mean(errors)),
    }


def run_size(n: int) -> Dict[str, object]:
    plan = UniformSamplePlan(size=PAIRS_PER_NODE * n, seed=SEED + 1)
    beacon_ids = ensure_rng(SEED).choice(n, size=BEACONS, replace=False)

    # Fresh metric: cold caches, like a fresh process.
    metric = random_hypercube_metric(n, dim=2, seed=SEED)
    t0 = time.perf_counter()
    tri = BeaconTriangulation(metric, k=BEACONS, beacons=beacon_ids)
    t1 = time.perf_counter()
    report = evaluate_estimator(tri, metric, plan)
    t2 = time.perf_counter()
    engine = {"build": t1 - t0, "evaluate": t2 - t1, "total": t2 - t0}

    head = plan.pairs(metric)[:CHECK_PAIRS]
    check = evaluate_estimator(tri, metric, head)
    want = per_pair_errors(tri, metric, head)
    got = {
        "max_relative_error": check.max_relative_error,
        "mean_relative_error": check.mean_relative_error,
    }
    if got != want:
        raise AssertionError(
            f"engine and per-pair errors disagree at n={n}: {got} vs {want}"
        )

    return {
        "n": n,
        "workload": "hypercube (euclidean, dim=2)",
        "scheme": f"beacons k={BEACONS}",
        "plan": f"uniform size={plan.size} seed={plan.seed}",
        "engine_seconds": engine,
        "quality": {
            "sampled_pairs": report.evaluated,
            "max_relative_error": report.max_relative_error,
            "mean_relative_error": report.mean_relative_error,
        },
    }


# ----------------------------------------------------------------------
# Packed-label D+ kernel
# ----------------------------------------------------------------------

DPLUS_TRIALS = 5


def _dplus_case(packed, us, vs, batches: int, **info) -> Dict[str, object]:
    """One D+ case: the best (min over trials) time of ``batches`` calls."""
    seconds = float("inf")
    for _ in range(DPLUS_TRIALS):
        t0 = time.perf_counter()
        for _ in range(batches):
            packed.dplus_many(us, vs)
        seconds = min(seconds, time.perf_counter() - t0)
    return {
        **info,
        "pairs_per_batch": int(us.size),
        "order_mean": packed.ids.size / packed.n,
        "batches": batches,
        "trials": DPLUS_TRIALS,
        "batches_s": seconds,
        "batch_ms": 1e3 * seconds / batches,
        "pairs_per_sec": batches * us.size / seconds,
    }


def run_dplus() -> Dict[str, object]:
    rng = ensure_rng(SEED)
    metric = random_hypercube_metric(600, dim=2, seed=SEED)
    tri = RingTriangulation(metric, 0.3)
    us, vs = rng.integers(0, metric.n, (2, 256))
    looped = [tri.estimate(int(u), int(v)) for u, v in zip(us, vs)]
    if not np.array_equal(tri.estimate_many(us, vs), looped):
        raise AssertionError("dense dplus_many disagrees with per-pair estimate")
    dense = _dplus_case(
        tri._packed_labels(), us, vs, 100,
        workload="hypercube (euclidean, dim=2) n=600",
        labels="Thm 3.2 triangulation delta=0.3",
    )

    n, order = 10_000, 64
    ids = np.concatenate(
        [np.sort(rng.choice(n, order, replace=False)) for _ in range(n)]
    )
    sparse_labels = PackedLabels.from_csr(
        n, np.arange(n + 1) * order, ids, rng.random(ids.size)
    )
    us, vs = rng.integers(0, n, (2, 2048))
    sparse = _dplus_case(
        sparse_labels, us, vs, 40,
        workload=f"synthetic n={n}",
        labels=f"{order} random beacons per node",
    )
    return {"dense": dense, "sparse": sparse}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="1000,5000",
                        help="comma-separated n values")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    results = [run_size(n) for n in sizes]
    report = {
        "benchmark": "bench_engine",
        "description": "build + sampled stretch evaluation through the "
                       "batched engine",
        "results": results,
        "dplus": run_dplus(),
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
