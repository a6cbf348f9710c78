"""The benchmark's three workloads.

Each workload is driven through the same steps:

* ``setup()`` — everything a user pays before the first timed
  operation: ``import repro``, realizing the metric, building and saving
  the structure, and (``serve-beacons``) starting the server.  Nothing
  from ``repro`` is imported before this step, so the caller can time it
  from a clean slate.
* ``measure(seconds)`` — the timed loop.  Its inputs were drawn from the
  seed during set-up; its outputs are kept, not checked, inside the loop.
* ``check()`` — every output against an independent oracle; fills
  ``attempted``/``failed`` and ``checks`` (how often each check ran).
* ``end_to_end()`` / ``per_layer(tracer)`` — the metrics.  Per-layer
  numbers are the ``layers`` gathered during set-up and the loop (step
  timings, deltas of ``repro``'s own counters) plus what ``per_layer``
  adds after the checks.

Layer calls are timed from the outside: each call into a ``repro`` layer
is one span named ``<layer>.<call>``, carrying the request id (serve),
the churn event index (tri-churn) or the route index (routing).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import re
import resource
import select
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: relative tolerance of the distance checks (sums of float64 distances)
REL_TOL = 1e-9


def _self_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"VmHWM missing from /proc/{pid}/status")


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of another process, in seconds."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # fields[0] is stat field 3 (state); utime and stime are fields 14, 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _sustained(t0: float, t1: float, window: float, ends, latencies, work,
               busy=None) -> Dict[str, float]:
    """The timed loop's sustained rate and latencies.

    The loop ``[t0, t1]`` is cut into whole windows of ``window`` seconds,
    and each operation counts in the window its answer arrived in.  The
    rate is the one that three windows in four reached (the first quartile
    of the per-window rates), and each latency percentile the one that
    three windows in four kept under (the third quartile of the
    per-window percentiles).  A shared host that runs fast for a few
    seconds of a run, or stalls for a few, moves these figures far less
    than it moves whole-run means and percentiles.

    ``work`` is what each operation did (pairs, routes).  A window's rate
    is its work over the window's length, or over the operations' own
    ``busy`` seconds when given (a loop that times one step of several).
    """
    n = int((t1 - t0) // window)
    if n < 1:
        raise RuntimeError(f"the timed loop ({t1 - t0:.3g} s) is shorter than one window")
    idx = ((np.asarray(ends, dtype=float) - t0) // window).astype(int)
    keep = idx < n
    idx = idx[keep]
    lat = np.asarray(latencies, dtype=float)[keep]
    work = np.broadcast_to(np.asarray(work, dtype=float), keep.shape)[keep]
    counts = np.bincount(idx, minlength=n)
    if busy is None:
        rates = np.bincount(idx, weights=work, minlength=n) / window
    else:
        spent = np.bincount(idx, weights=np.asarray(busy, dtype=float)[keep], minlength=n)
        rates = np.bincount(idx, weights=work, minlength=n)[counts > 0] / spent[counts > 0]
    groups = np.split(lat[np.argsort(idx, kind="stable")], np.cumsum(counts)[:-1])
    groups = [g for g in groups if g.size]
    return {
        "pairs_per_s": float(np.percentile(rates, 25)),
        "latency.p50_ms": float(np.percentile([np.percentile(g, 50) for g in groups], 75)) * 1e3,
        "latency.p95_ms": float(np.percentile([np.percentile(g, 95) for g in groups], 75)) * 1e3,
        "windows": float(n),
        "window_samples_min": float(counts.min()),
    }


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(stream)])


def _distinct_pairs(rng, ids: np.ndarray, count: int) -> np.ndarray:
    """``count`` uniform pairs (u, v), u != v, over the node ids ``ids``."""
    m = ids.size
    a = rng.integers(0, m, size=count)
    b = (a + 1 + rng.integers(0, m - 1, size=count)) % m
    return np.stack([ids[a], ids[b]], axis=1)


class Workload:
    """Shared bookkeeping; subclasses implement the steps."""

    name = ""
    #: default sizes; tests pass smaller ones through ``sizes=``
    SIZES: Dict[str, float] = {}

    def __init__(self, seed: int, workdir: Path, tracer, sizes=None) -> None:
        unknown = set(sizes or {}) - set(self.SIZES)
        if unknown:
            raise ValueError(f"unknown size keys for {self.name}: {sorted(unknown)}")
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.tracer = tracer
        self.sizes = {**self.SIZES, **(sizes or {})}
        self.attempted = 0
        self.failed = 0
        self.checks: Dict[str, int] = {}
        self.layers: Dict[str, float] = {}
        self.loop_t0 = self.loop_t1 = 0.0
        self.peak_rss_mb = 0.0

    @contextmanager
    def _step(self, name: str):
        """Time one layer call: a span ``name`` and the layer metric
        ``<name>_s``."""
        t0 = time.perf_counter()
        yield
        t1 = time.perf_counter()
        self.tracer.add(name, t0, t1)
        self.layers[f"{name}_s"] = t1 - t0

    def _import_api(self):
        with self._step("api.import"):
            from repro import api
        return api

    def _realize(self, workload: str, **params):
        # A private BuildCache: two runs in one process (the tests) never
        # share warm rows, nets or scales through the facade's default one.
        with self._step("metrics.realize"):
            self.instance = self.api.build_workload(
                workload, seed=self.seed, cache=self.api.BuildCache(maxsize=1), **params
            )

    def _save(self, fitted) -> str:
        self.container = self.workdir / f"{self.name}.repro"
        with self._step("serve.save"):
            content_hash = self.api.save(fitted, self.container)
        self.structure_bytes = self.container.stat().st_size
        return content_hash

    def _count(self, check: str, total: int, bad: int) -> None:
        self.checks[check] = self.checks.get(check, 0) + int(total)
        self.attempted += int(total)
        self.failed += int(bad)

    def _ratios(self, chunks) -> None:
        """Answer / true distance over every checked output: the
        geometric mean (which one outlier pair cannot swing the way it
        swings an arithmetic mean) and the worst case."""
        ratios = np.concatenate([np.ones(0), *chunks])
        if ratios.size == 0:  # no output passed its check
            ratios = np.ones(1)
        self.geomean_ratio = float(np.exp(np.log(ratios).mean()))
        self.max_ratio = float(ratios.max())

    def latency_samples(self) -> int:
        return len(self.latencies)

    def close(self) -> None:
        """Release everything set-up started (safe to call twice)."""


# ----------------------------------------------------------------------
# serve-beacons
# ----------------------------------------------------------------------


_SERVING = re.compile(rb" on ([0-9.]+):([0-9]+) ")
_ID = b'"id": '


class ServeBeacons(Workload):
    """Closed-loop NDJSON estimate requests against a ``repro serve`` child.

    The codec is the bottleneck: ``beacons.estimate_many`` answers about
    1.6 M pairs/s in-process, so decoding, queueing, batching and
    encoding in ``repro.serve`` do most of the work.
    """

    name = "serve-beacons"
    SIZES = {
        "n": 10_000,
        "connections": 2,
        "depth": 4,  # pipelined requests in flight per connection
        "pairs_per_request": 1024,
        "bodies": 256,  # distinct pre-encoded request bodies, cycled
        "window_s": 1.0,  # ~250 requests per window
    }

    def setup(self) -> None:
        self.proc = None
        self.loop = None
        self.streams = []
        api = self.api = self._import_api()
        n = int(self.sizes["n"])
        self._realize("hypercube", n=n)
        with self._step("labeling.build"):
            fitted = api.build("beacons", workload=self.instance, seed=self.seed)
        self.layers["labeling.order_max"] = float(fitted.inner.order)
        self.layers["labeling.order_mean"] = float(fitted.inner.order)
        self.content_hash = self._save(fitted)
        self.guarantee = json.loads(json.dumps(fitted.guarantee()))
        del fitted

        self._spawn_server()
        with self._step("serve.open"):
            self.loaded = api.load(self.container)

        with self.tracer.span("bench.inputs"):
            rng = _rng(self.seed, 1)
            per = int(self.sizes["pairs_per_request"])
            self.bodies = [
                _distinct_pairs(rng, np.arange(n), per)
                for _ in range(int(self.sizes["bodies"]))
            ]
            self.encoded = [
                json.dumps(body.tolist()).encode("ascii") for body in self.bodies
            ]
        self.loop = asyncio.new_event_loop()
        with self.tracer.span("serve.connect"):
            self.streams = self.loop.run_until_complete(self._connect())
            self.stats_before = self.loop.run_until_complete(self._stats())
        self.setup_rss_mb = _self_peak_rss_mb()

    def _spawn_server(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        with self._step("serve.spawn"):
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(self.container)],
                stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
            )
            ready, _, _ = select.select([self.proc.stdout], [], [], 120)
            line = self.proc.stdout.readline() if ready else b""
            match = _SERVING.search(line)
            if match is None:
                raise RuntimeError(f"server did not start (said {line!r})")
            self.address = (match.group(1).decode(), int(match.group(2)))

    async def _connect(self):
        host, port = self.address
        return [
            await asyncio.open_connection(host, port, limit=1 << 24)
            for _ in range(int(self.sizes["connections"]))
        ]

    async def _stats(self) -> dict:
        reader, writer = self.streams[0]
        writer.write(b'{"id": -1, "op": "stats"}\n')
        await writer.drain()
        response = json.loads(await reader.readline())
        if not response.get("ok"):
            raise RuntimeError(f"stats op failed: {response}")
        return response["counters"]

    def measure(self, seconds: float) -> None:
        self.latencies: List[float] = []
        self.ends: List[float] = []
        self.responses: List[bytes] = []
        self.sent: Dict[int, int] = {}  # request id -> body index
        self._next_id = 0
        cpu0 = time.process_time()
        server0 = _proc_cpu_s(self.proc.pid)
        self.loop_t0 = time.perf_counter()
        self.loop.run_until_complete(self._closed_loops(self.loop_t0 + seconds))
        self.loop_t1 = time.perf_counter()
        self.client_cpu_s = time.process_time() - cpu0
        self.server_cpu_s = _proc_cpu_s(self.proc.pid) - server0
        # The captured responses are the generator's memory, not the
        # system's: the benchmark process is sampled before they pile up.
        self.peak_rss_mb = max(self.setup_rss_mb, _proc_peak_rss_mb(self.proc.pid))
        self.stats_after = self.loop.run_until_complete(self._stats())

    async def _closed_loops(self, deadline: float) -> None:
        await asyncio.gather(
            *(self._closed_loop(r, w, deadline) for r, w in self.streams)
        )

    async def _closed_loop(self, reader, writer, deadline: float) -> None:
        inflight: Dict[int, float] = {}
        encoded = self.encoded

        def send() -> None:
            rid = self._next_id
            self._next_id += 1
            body = rid % len(encoded)
            self.sent[rid] = body
            writer.write(b'{"id": %d, "op": "estimate", "pairs": %s}\n' % (rid, encoded[body]))
            inflight[rid] = time.perf_counter()

        for _ in range(int(self.sizes["depth"])):
            send()
        await writer.drain()
        while inflight:
            line = await reader.readline()
            t = time.perf_counter()
            if not line:
                raise RuntimeError("server closed the connection mid-run")
            # The id sits after the estimates; finding it is the only
            # parsing done before the clock stops.
            at = line.rfind(_ID) + len(_ID)
            rid = int(line[at : line.index(b",", at)])
            t_sent = inflight.pop(rid)
            self.latencies.append(t - t_sent)
            self.ends.append(t)
            self.responses.append(line)
            self.tracer.add("serve.request", t_sent, t, rid=rid)
            if t < deadline:
                send()
                await writer.drain()

    def check(self) -> None:
        inner = self.loaded.inner
        expected: Dict[int, np.ndarray] = {}
        bad = 0
        for line in self.responses:
            response = json.loads(line)
            body = self.sent.get(response.get("id"))
            ok = (
                body is not None
                and response.get("ok") is True
                and response.get("structure_hash") == self.content_hash
                and response.get("guarantee") == self.guarantee
            )
            if ok:
                if body not in expected:
                    pairs = self.bodies[body]
                    expected[body] = inner.estimate_many(pairs[:, 0], pairs[:, 1])
                served = np.asarray(response.get("estimates", ()), dtype=float)
                ok = bool(np.array_equal(served, expected[body]))
            bad += not ok
        self._count("served_responses", len(self.responses), bad)
        # Estimate quality over every body that was served at least once.
        self._ratios([
            expected[body] / self.instance.metric.pairwise(self.bodies[body])
            for body in sorted(expected)
        ])

    def end_to_end(self) -> Dict[str, float]:
        return {
            **_sustained(
                self.loop_t0, self.loop_t1, float(self.sizes["window_s"]), self.ends,
                self.latencies, int(self.sizes["pairs_per_request"]),
            ),
            "quality.geomean_ratio": self.geomean_ratio,
        }

    def per_layer(self, tracer) -> Dict[str, float]:
        before, after = self.stats_before, self.stats_after
        # minus the closing stats request, which the server also counts
        requests = after["requests"] - before["requests"] - 1
        batches = after["estimate_batches"] - before["estimate_batches"]
        pairs = after["estimate_pairs"] - before["estimate_pairs"]
        mean_batch = pairs / batches if batches else 0.0
        replay_s = self._replay(batches, mean_batch)
        return {
            "serve.requests": float(requests),
            "serve.batches": float(batches),
            "serve.mean_batch_pairs": mean_batch,
            "serve.errors": float(after["errors"] - before["errors"]),
            "serve.server_cpu_s": self.server_cpu_s,
            "serve.client_cpu_s": self.client_cpu_s,
            "serve.estimate_share": replay_s / self.server_cpu_s if self.server_cpu_s else 0.0,
            "labeling.estimate_s": replay_s,
            "labeling.estimate_calls": float(batches),
            "labeling.pairs_per_call": mean_batch,
            "quality.max_ratio": self.max_ratio,
        }

    def _replay(self, batches: int, mean_batch: float) -> float:
        """Seconds to re-run the served batches' ``estimate_many`` work
        in-process: ``batches`` calls of ``mean_batch`` pairs each."""
        pool = np.concatenate(self.bodies)
        size = max(1, int(round(mean_batch)))
        inner = self.loaded.inner
        total = 0.0
        for b in range(batches):
            start = (b * size) % max(1, pool.shape[0] - size)
            chunk = pool[start : start + size]
            t0 = time.perf_counter()
            inner.estimate_many(chunk[:, 0], chunk[:, 1])
            t1 = time.perf_counter()
            self.tracer.add("labeling.estimate_many", t0, t1, rid=b)
            total += t1 - t0
        return total

    def close(self) -> None:
        loop, proc, streams = self.loop, self.proc, self.streams
        self.loop, self.proc, self.streams = None, None, []
        try:
            if loop is not None:
                if streams and proc is not None and proc.poll() is None:
                    streams[0][1].write(b'{"id": -2, "op": "shutdown"}\n')
                    try:
                        loop.run_until_complete(streams[0][1].drain())
                    except ConnectionError:
                        proc.terminate()
                for _, writer in streams:
                    writer.close()
                loop.run_until_complete(asyncio.sleep(0))
                loop.close()
            elif proc is not None:
                proc.terminate()  # never connected: nobody can ask it to stop
        finally:
            if proc is not None:
                try:
                    proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=30)
                proc.stdout.close()


# ----------------------------------------------------------------------
# tri-churn
# ----------------------------------------------------------------------


class TriChurn(Workload):
    """The Thm 3.2 triangulation under a seeded join/leave trace: one
    ``api.update`` then one batch read over active nodes per event."""

    name = "tri-churn"
    SIZES = {
        "n": 600,
        "delta": 0.3,
        "rate": 0.01,
        "pairs_per_event": 256,
        # Trace length.  The loop stops at the deadline, and the run fails
        # if the trace runs out first (runs today use at most ~1300 events).
        "events": 8000,
        "window_s": 6.25,  # 200-300 events per window
    }

    def setup(self) -> None:
        api = self.api = self._import_api()
        from repro.distributed.trace import ChurnTrace

        n, delta = int(self.sizes["n"]), float(self.sizes["delta"])
        self._realize("hypercube", n=n)
        with self._step("metrics.extremes"):
            self.instance.metric.diameter()
        with self._step("construction.scales"):
            self.instance.scales(delta)
        with self._step("labeling.build"):
            self.fitted = api.build(
                "triangulation", workload=self.instance, delta=delta, seed=self.seed
            )
        self.layers["labeling.order_max"] = float(self.fitted.inner.order)
        self.layers["labeling.order_mean"] = float(self.fitted.inner.mean_order())
        self._save(self.fitted)

        with self.tracer.span("bench.inputs"):
            self.trace = ChurnTrace.generate(
                n, int(self.sizes["events"]), rate=float(self.sizes["rate"]),
                seed=self.seed,
            )

    def measure(self, seconds: float, limit=None) -> None:
        """Replay the trace until the deadline (or ``limit`` events)."""
        api, fitted, tracer = self.api, self.fitted, self.tracer
        inner = fitted.inner
        # Read pairs per event, drawn over the nodes active after it.  They
        # are drawn in the loop, untimed, so a long trace costs no memory.
        rng = _rng(self.seed, 2)
        active = np.ones(int(self.sizes["n"]), dtype=bool)
        per = int(self.sizes["pairs_per_event"])
        self.latencies: List[float] = []  # api.update
        self.read_s: List[float] = []
        self.ends: List[float] = []
        self.receipts = []
        self.estimates = []
        self.pairs: List[np.ndarray] = []
        self.loop_t0 = time.perf_counter()
        deadline = self.loop_t0 + seconds
        for i, event in enumerate(self.trace.events):
            if i == limit or time.perf_counter() >= deadline:
                break
            active[list(event.joins)] = True
            active[list(event.leaves)] = False
            pairs = _distinct_pairs(rng, np.flatnonzero(active), per)
            self.pairs.append(pairs)
            t0 = time.perf_counter()
            receipt = api.update(fitted, joins=event.joins, leaves=event.leaves)
            t1 = time.perf_counter()
            est = inner.estimate_many(pairs[:, 0], pairs[:, 1])
            t2 = time.perf_counter()
            tracer.add("patch.update", t0, t1, rid=i)
            tracer.add("labeling.estimate_many", t1, t2, rid=i)
            self.latencies.append(t1 - t0)
            self.read_s.append(t2 - t1)
            self.ends.append(t2)
            self.receipts.append(receipt)
            self.estimates.append(est)
        else:
            # A faster program must not be timed over a shorter window.
            raise RuntimeError(
                f"the {len(self.trace.events)}-event churn trace ran out before "
                "the deadline; raise the 'events' size"
            )
        self.loop_t1 = time.perf_counter()
        self.peak_rss_mb = _self_peak_rss_mb()

    def check(self) -> None:
        metric = self.instance.metric
        inner = self.fitted.inner
        bound = inner.certified_ratio_bound()
        ratios = []
        bad = 0
        for est, pairs in zip(self.estimates, self.pairs):
            truth = metric.pairwise(pairs)
            ok = (est >= truth * (1 - REL_TOL)) & (est <= bound * truth * (1 + REL_TOL))
            bad += int((~ok).sum())
            ratios.append(est / truth)
        self._count("read_pairs", sum(est.size for est in self.estimates), bad)
        self._count("updates", len(self.receipts), int(inner.ivl_violations))
        self._ratios(ratios)

    def end_to_end(self) -> Dict[str, float]:
        # The read rate is over estimate_many's own time, not the loop's.
        return {
            **_sustained(
                self.loop_t0, self.loop_t1, float(self.sizes["window_s"]), self.ends,
                self.latencies, int(self.sizes["pairs_per_event"]), busy=self.read_s,
            ),
            "quality.geomean_ratio": self.geomean_ratio,
        }

    def per_layer(self, tracer) -> Dict[str, float]:
        inner = self.fitted.inner
        stats = inner.pending_patch_stats()
        return {
            "patch.update_s": sum(self.latencies),
            "patch.updates": float(stats.updates),
            "patch.merges": float(stats.merges),
            "patch.auto_merges": float(stats.auto_merges),
            "patch.dirty_rows_mean": float(np.mean([r.dirty_rows for r in self.receipts])),
            # Reported as measured, not gated: every event auto-merges on
            # this structure, so no read overlaps a pending patch.
            "patch.ivl_checks": float(inner.ivl_checks),
            "patch.ivl_violations": float(inner.ivl_violations),
            "labeling.estimate_s": sum(self.read_s),
            "labeling.estimate_calls": float(len(self.read_s)),
            "labeling.pairs_per_call": float(self.sizes["pairs_per_event"]),
            "quality.max_ratio": self.max_ratio,
        }


# ----------------------------------------------------------------------
# route-graph-overcache
# ----------------------------------------------------------------------


class RouteGraphOvercache(Workload):
    """Thm 2.1 routing on a lazy k-NN graph metric whose row cache holds
    about a quarter of the Dijkstra rows."""

    name = "route-graph-overcache"
    SIZES = {
        "n": 1000,
        "cache_share": 0.25,  # share of the n distance rows the cache holds
        "warmup_routes": 300,
        "routes": 20_000,  # pre-drawn route pairs, cycled until the deadline
        "window_s": 1.0,  # ~500 routes per window
    }

    def _row_counters(self) -> Dict[str, int]:
        """Hits/misses summed over the metric's and the first-hop table's
        row caches (both are :class:`repro.metrics.base.RowCache`)."""
        caches = [self.instance.metric.row_cache_stats()]
        fitted = getattr(self, "fitted", None)
        if fitted is not None and fitted.inner.first_hops._rows is not None:
            caches.append(fitted.inner.first_hops._rows.stats())
        return {
            key: sum(int(c.get(key, 0)) for c in caches)
            for key in ("hits", "misses", "peak_rows")
        }

    def setup(self) -> None:
        api = self.api = self._import_api()
        n = int(self.sizes["n"])
        cache_mb = float(self.sizes["cache_share"]) * n * n * 8 / 2**20
        self._realize("knn-graph", n=n, dense=False, cache_mb=cache_mb)
        with self._step("metrics.extremes"):
            self.instance.metric.diameter()
        with self._step("construction.nets"):
            nets = self.instance.nested_nets()
        self.layers["construction.net_points"] = float(
            sum(len(nets.net(j)) for j in range(nets.levels))
        )
        rows0 = self._row_counters()
        with self._step("routing.build"):
            self.fitted = api.build("route-thm2.1", workload=self.instance, seed=self.seed)
        rows1 = self._row_counters()
        self.layers["metrics.build_row_misses"] = float(rows1["misses"] - rows0["misses"])
        self.layers["metrics.build_row_hits"] = float(rows1["hits"] - rows0["hits"])
        self._save(self.fitted)

        with self.tracer.span("bench.inputs"):
            ids = np.arange(n)
            warm = _distinct_pairs(_rng(self.seed, 3), ids, int(self.sizes["warmup_routes"]))
            self.pairs = _distinct_pairs(_rng(self.seed, 4), ids, int(self.sizes["routes"]))
        inner = self.fitted.inner
        with self.tracer.span("routing.warmup"):
            for u, v in warm.tolist():
                inner.route(u, v)

    def measure(self, seconds: float, limit=None) -> None:
        """Route until the deadline (or ``limit`` routes)."""
        inner, tracer = self.fitted.inner, self.tracer
        self.latencies: List[float] = []
        self.ends: List[float] = []
        # Routes are kept compact (int32 paths), so what the loop stores
        # adds little to peak_rss_mb however many routes a run makes.
        self.paths: List[np.ndarray] = []
        self.reached: List[bool] = []
        self.header_bits: List[int] = []
        rows0 = self._row_counters()
        self.loop_t0 = time.perf_counter()
        deadline = self.loop_t0 + seconds
        pairs = self.pairs.tolist()
        for i in itertools.count():
            u, v = pairs[i % len(pairs)]
            t0 = time.perf_counter()
            if i == limit or t0 >= deadline:
                break
            result = inner.route(u, v)
            t1 = time.perf_counter()
            tracer.add("routing.route", t0, t1, rid=i)
            self.latencies.append(t1 - t0)
            self.ends.append(t1)
            self.paths.append(np.array(result.path, dtype=np.int32))
            self.reached.append(bool(result.reached))
            self.header_bits.append(int(result.header_bits))
        self.loop_t1 = time.perf_counter()
        rows1 = self._row_counters()
        self.peak_rss_mb = _self_peak_rss_mb()
        hits = rows1["hits"] - rows0["hits"]
        misses = rows1["misses"] - rows0["misses"]
        self.layers["metrics.route_row_misses"] = float(misses)
        self.layers["metrics.row_hit_rate"] = hits / (hits + misses) if hits + misses else 1.0
        self.layers["metrics.peak_rows"] = float(rows1["peak_rows"])

    def check(self) -> None:
        from scipy.sparse.csgraph import dijkstra

        graph = self.instance.graph
        done = self.pairs[np.arange(len(self.paths)) % len(self.pairs)]
        # Oracle distances straight from the graph, outside repro's caches.
        sources, inverse = np.unique(done[:, 0], return_inverse=True)
        rows = np.atleast_2d(
            dijkstra(graph.to_scipy_csr(), directed=False, indices=sources)
        )
        truth = rows[inverse, done[:, 1]]
        stretches = []
        bad = 0
        for (u, v), d, path, reached in zip(done.tolist(), truth, self.paths, self.reached):
            path = path.tolist()
            ok = reached and path[0] == u and path[-1] == v
            ok = ok and all(graph.has_edge(a, b) for a, b in zip(path, path[1:]))
            if ok:
                length = sum(graph.weight(a, b) for a, b in zip(path, path[1:]))
                ok = length >= d * (1 - REL_TOL)
                stretches.append(length / d)
            bad += not ok
        self._count("routes", len(self.paths), bad)
        self._ratios([np.asarray(stretches)])

    def end_to_end(self) -> Dict[str, float]:
        return {
            **_sustained(
                self.loop_t0, self.loop_t1, float(self.sizes["window_s"]), self.ends,
                self.latencies, 1,
            ),
            "quality.geomean_ratio": self.geomean_ratio,
        }

    def per_layer(self, tracer) -> Dict[str, float]:
        inner = self.fitted.inner
        with tracer.span("routing.table_bits"):
            table_bits = max(inner.table_bits(u).total_bits for u in range(inner.graph.n))
        return {
            "routing.table_bits_max": float(table_bits),
            "routing.route_s": sum(self.latencies),
            "routing.routes": float(len(self.latencies)),
            "routing.hops_mean": float(np.mean([p.size - 1 for p in self.paths])),
            "routing.header_bits_max": float(max(self.header_bits)),
            "quality.max_ratio": self.max_ratio,
        }


WORKLOADS = {
    cls.name: cls for cls in (ServeBeacons, TriChurn, RouteGraphOvercache)
}
