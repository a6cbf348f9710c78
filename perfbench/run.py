"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tri-churn --seed 1 --seconds 10 --trace 0

Untraced (``--trace 0``) runs print the end-to-end metrics; traced
(``--trace 1``) runs record every call into a ``repro`` layer as a span,
write the spans to ``.perfbench-out/`` and print the per-layer metrics.
The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output passed its check.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
sys.path.insert(0, str(ROOT / "src"))

#: fresh-process set-ups per untraced run; setup_s is their median
SETUP_SAMPLES = 3

# BENCHMARK.json is the one list of workloads and metrics (with units).
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up once, print the set-up time as JSON, tear down (used "
        "to take the fresh-process setup_s samples)",
    )
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    On ``serve-beacons`` the load generator and the server then share
    that CPU.  On a shared 2-vCPU host this cut the run-to-run spread of
    served throughput to about a third of what it was with the two on
    separate CPUs (README.md, "Run-to-run spread").  The other workloads
    are one process, which then never migrates."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_sample(workload: str, seed: int) -> float:
    """One fresh-process set-up, timed inside that process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        cwd=str(ROOT), stdout=subprocess.PIPE, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up sample failed with exit code {proc.returncode}")
    return float(json.loads(proc.stdout.decode().strip().splitlines()[-1])["setup_s"])


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes=None, out: Path = OUT, setup_samples=()) -> dict:
    """Set up, measure, check and report one workload; returns the
    result object (``correct``/``attempted``/``failed``/``metrics``) plus
    ``checks`` (per-check counts), ``latency_samples`` and ``windows``
    (how many windows the loop was cut into, and the fewest samples one
    of them held).  ``setup_s`` is the median of this run's set-up and
    ``setup_samples``.  A traced run writes its spans under ``out``."""
    t_setup = time.perf_counter()  # before `import repro`
    import workloads
    from tracer import NULL, Tracer

    tracer = Tracer() if trace else NULL
    wl = workloads.WORKLOADS[workload](seed, workdir, tracer, sizes=sizes)
    try:
        wl.setup()
        setup_s = time.perf_counter() - t_setup
        wl.measure(seconds)
        wl.check()
        if not all(wl.checks.values()) or not wl.checks:
            raise RuntimeError(f"a check ran zero times: {wl.checks}")
        end_to_end = wl.end_to_end()
        end_to_end.update({
            "setup_s": statistics.median([setup_s, *setup_samples]),
            "peak_rss_mb": wl.peak_rss_mb,
            "structure_bytes": float(wl.structure_bytes),
        })
        if trace:
            layers = dict.fromkeys(PER_LAYER, 0.0)
            layers.update(wl.layers)
            layers.update(wl.per_layer(tracer))
            layers.update({
                "trace.spans": float(len(tracer.spans)),
                "trace.setup_coverage": tracer.coverage(t_setup, t_setup + setup_s),
                "trace.loop_coverage": tracer.coverage(wl.loop_t0, wl.loop_t1),
                "trace.pairs_per_s": end_to_end["pairs_per_s"],
                "trace.latency_samples": float(wl.latency_samples()),
            })
            out.mkdir(exist_ok=True)
            tracer.write(out / f"spans-{workload}-seed{seed}.json")
            metrics = {k: {"value": float(layers[k]), "unit": u} for k, u in PER_LAYER.items()}
        else:
            metrics = {
                k: {"value": float(end_to_end[k]), "unit": u} for k, u in END_TO_END.items()
            }
        return {
            "correct": wl.failed == 0,
            "attempted": wl.attempted,
            "failed": wl.failed,
            "metrics": metrics,
            "checks": dict(wl.checks),
            "latency_samples": wl.latency_samples(),
            "windows": (int(end_to_end["windows"]), int(end_to_end["window_samples_min"])),
        }
    finally:
        wl.close()


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.setup_only:
            t0 = time.perf_counter()  # before `import repro`
            import workloads
            from tracer import NULL

            wl = workloads.WORKLOADS[args.workload](args.seed, Path(workdir), NULL)
            try:
                wl.setup()
                setup_s = time.perf_counter() - t0
            finally:
                wl.close()
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # The set-up samples run before this process imports repro, so
        # none of them shares a warm interpreter with another.
        samples = [] if args.trace else [
            setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        result = run(
            args.workload, args.seed, args.seconds, bool(args.trace), Path(workdir),
            setup_samples=samples,
        )
    for name, metric in result["metrics"].items():
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'latency samples':28s} {result.pop('latency_samples')}")
    windows, fewest = result.pop("windows")
    print(f"{'windows':28s} {windows} (at least {fewest} samples each)")
    for name, count in result.pop("checks").items():
        print(f"{'checked ' + name:28s} {count}")
    print(f"{'fail_rate':28s} {result['failed'] / result['attempted']:.6g} failed/attempted")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
