"""Perf + memory smoke for the packed ring builders — machine-readable JSON.

Builds the CSR :class:`~repro.core.packed.PackedRings` structure (flat
int32 member array + per-(node, level) offsets) with the deterministic
net builder and the §5 cardinality-sampled builder, and records build
time, a query sweep (the ``out_degree`` dedup over every node plus the
max-cardinality scan) and the resident bytes of the packed arrays.

Four bytes per ring member is what lets the Theorem 2.1/3.2/3.4
structures build at n = 10⁴ (see ``repro run table1-large``); the
``resident_bytes`` field tracks it, and ``check_perf.py`` gates the
build and query timings.

Run directly (CI does, on every push):

    PYTHONPATH=src python benchmarks/bench_rings.py
    PYTHONPATH=src python benchmarks/bench_rings.py \
        --sizes 500,2000 --out benchmarks/results/rings_perf.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict

from repro.core.packed import PackedRings
from repro.core.rings import cardinality_rings, net_rings
from repro.metrics.nets import NestedNets
from repro.metrics.synthetic import random_hypercube_metric

SEED = 13
SAMPLES_PER_RING = 4


def _query_sweep(rings: PackedRings) -> int:
    """The per-node neighbor dedup (out_degree) over every node plus the
    max-cardinality scan."""
    total = sum(rings.out_degree(u) for u in range(rings.metric.n))
    return total + rings.max_ring_cardinality()


def bench_builder(name: str, make, metric) -> Dict[str, Any]:
    t0 = time.perf_counter()
    packed = make()
    build = time.perf_counter() - t0

    t0 = time.perf_counter()
    _query_sweep(packed)
    query = time.perf_counter() - t0

    return {
        "builder": name,
        "n": metric.n,
        "rings": len(packed.keys) * metric.n,
        "members_total": int(packed.members.size),
        "max_ring_cardinality": packed.max_ring_cardinality(),
        "packed": {
            "build_s": round(build, 4),
            "query_s": round(query, 4),
            "resident_bytes": packed.resident_bytes(),
        },
    }


def run_size(n: int) -> list:
    metric = random_hypercube_metric(n, dim=2, seed=SEED)
    nets = NestedNets(
        metric,
        levels=metric.log_aspect_ratio() + 1,
        base_radius=metric.min_distance(),
    )
    return [
        bench_builder(
            "net_rings",
            lambda: net_rings(metric, nets, lambda j: 2.0 * nets.radius_of(j)),
            metric,
        ),
        bench_builder(
            "cardinality_rings",
            lambda: cardinality_rings(metric, SAMPLES_PER_RING, seed=SEED),
            metric,
        ),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="500,2000",
                        help="comma-separated n values")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    results = []
    for n in sizes:
        results.extend(run_size(n))
    report = {
        "bench": "rings",
        "description": "packed CSR ring structures: build/query time and "
                       "resident bytes",
        "seed": SEED,
        "results": results,
    }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
