"""Save → load round-trips: every persisted scheme answers bit-for-bit."""

import numpy as np
import pytest

from repro import api
from repro.serve import (
    DetachedStructureError,
    PERSISTABLE_SCHEMES,
    UnsupportedSchemeError,
    load_structure,
    save_structure,
)
from repro.serve.container import (
    ContainerError,
    read_container,
    write_container,
)

ESTIMATORS = ["triangulation", "beacons", "labels", "labels-tri", "tz-oracle"]
ROUTERS = ["route-trivial", "route-thm2.1"]


def _build(scheme, workload, n, **params):
    return api.build(scheme, workload=workload, n=n, seed=5, **params)


def _estimates(fitted, pairs):
    inner = fitted.inner
    if hasattr(inner, "estimate_many"):
        return np.asarray(inner.estimate_many(pairs[:, 0], pairs[:, 1]))
    return np.asarray([inner.estimate(int(u), int(v)) for u, v in pairs])


@pytest.mark.parametrize("scheme", ESTIMATORS)
@pytest.mark.parametrize("workload", ["hypercube", "expline"])
class TestEstimatorRoundtrip:
    def test_bit_for_bit_estimates(self, scheme, workload, tmp_path):
        fitted = _build(scheme, workload, 36)
        path = tmp_path / "structure.repro"
        content_hash = save_structure(fitted, path)
        loaded = load_structure(path)
        assert loaded.structure_hash == content_hash
        rng = np.random.default_rng(11)
        pairs = rng.integers(0, 36, size=(150, 2))
        original = _estimates(fitted, pairs)
        reloaded = _estimates(loaded, pairs)
        assert np.array_equal(original, reloaded)
        assert loaded.guarantee() == fitted.guarantee()


class TestRoutingRoundtrip:
    @pytest.mark.parametrize("scheme", ROUTERS)
    def test_bit_for_bit_routes(self, scheme, tmp_path):
        fitted = _build(scheme, "knn-graph", 48)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        loaded = load_structure(path)
        rng = np.random.default_rng(13)
        for u, v in rng.integers(0, 48, size=(60, 2)):
            original = fitted.inner.route(int(u), int(v))
            again = loaded.inner.route(int(u), int(v))
            assert original.reached == again.reached
            assert list(original.path) == list(again.path)
            assert original.header_bits == again.header_bits

    def test_loaded_scheme_evaluates(self, tmp_path):
        fitted = _build("route-thm2.1", "knn-graph", 48)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        loaded = load_structure(path)
        stats = api.evaluate(loaded, "uniform", size=60, seed=2)
        assert stats["delivery_rate"] == 1.0

    def test_size_accounting_survives(self, tmp_path):
        fitted = _build("route-thm2.1", "knn-graph", 48)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        loaded = load_structure(path)
        assert (loaded.inner.table_bits(0).total_bits
                == fitted.inner.table_bits(0).total_bits)


class TestDetachedBehavior:
    def test_detached_metric_refuses_distance_queries(self, tmp_path):
        fitted = _build("triangulation", "hypercube", 30)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        loaded = load_structure(path)
        with pytest.raises(DetachedStructureError, match="without its metric"):
            loaded.workload.metric.distance(0, 1)

    def test_detached_metric_keeps_extremes(self, tmp_path):
        fitted = _build("labels", "hypercube", 30)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        loaded = load_structure(path)
        metric = loaded.workload.metric
        assert metric.diameter() == fitted.workload.metric.diameter()
        assert metric.min_distance() == fitted.workload.metric.min_distance()

    def test_annotations_present(self, tmp_path):
        fitted = _build("beacons", "hypercube", 30)
        path = tmp_path / "structure.repro"
        content_hash = save_structure(fitted, path)
        loaded = load_structure(path)
        assert loaded.structure_hash == content_hash
        assert loaded.structure_path == path
        assert loaded.container.kind == "scheme"


class TestErrorPaths:
    def test_unsupported_scheme_rejected(self, tmp_path):
        fitted = _build("sw-5.2a", "hypercube", 30)
        with pytest.raises(UnsupportedSchemeError, match="sw-5.2a"):
            save_structure(fitted, tmp_path / "nope.repro")

    def test_every_persistable_name_is_registered(self):
        from repro.api import SCHEMES

        for name in PERSISTABLE_SCHEMES:
            assert name in SCHEMES

    def test_truncated_structure_fails_clearly(self, tmp_path):
        fitted = _build("triangulation", "hypercube", 30)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ContainerError):
            load_structure(path)

    def test_corrupt_structure_fails_verification(self, tmp_path):
        fitted = _build("triangulation", "hypercube", 30)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match="hash"):
            load_structure(path, verify=True)

    def test_tampered_ring_indptr_rejected(self, tmp_path):
        fitted = _build("route-thm2.1", "knn-graph", 48)
        path = tmp_path / "structure.repro"
        save_structure(fitted, path)
        container = read_container(path, mmap=False)
        arrays = dict(container.arrays)
        indptr = arrays["ring_indptr"].copy()
        indptr[1] = indptr[2] + 1  # node 0's second ring gets size -1
        arrays["ring_indptr"] = indptr
        tampered = tmp_path / "tampered.repro"
        write_container(tampered, container.kind, container.meta, arrays)
        with pytest.raises(ValueError, match="non-decreasing"):
            load_structure(tampered)

    def test_metric_container_is_not_a_scheme(self, tmp_path):
        from repro.metrics import random_hypercube_metric
        from repro.metrics.io import save_metric

        path = tmp_path / "metric.repro"
        save_metric(random_hypercube_metric(12, seed=0), path)
        with pytest.raises(ContainerError, match="metric"):
            load_structure(path)


class TestFacade:
    def test_api_save_load(self, tmp_path):
        fitted = _build("labels-tri", "hypercube", 30)
        path = tmp_path / "structure.repro"
        api.save(fitted, path)
        loaded = api.load(path)
        pairs = np.argwhere(np.ones((30, 30)))[:90]
        assert np.array_equal(_estimates(fitted, pairs), _estimates(loaded, pairs))

    def test_build_cache_spills_and_hydrates(self, tmp_path):
        from repro.api import BuildCache, Workload

        cache = BuildCache(structure_dir=tmp_path / "spill")
        spec = Workload.make("hypercube", n=24, seed=9)
        first = cache.instance(spec)
        assert cache.spills == 1
        cache.clear()
        second = cache.instance(spec)
        assert cache.hydrations == 1
        for u in range(24):
            assert np.allclose(
                first.metric.distances_from(u), second.metric.distances_from(u)
            )

    def test_build_cache_ignores_graph_workloads(self, tmp_path):
        from repro.api import BuildCache, Workload

        cache = BuildCache(structure_dir=tmp_path / "spill")
        cache.instance(Workload.make("knn-graph", n=24, seed=9))
        assert cache.spills == 0 and cache.hydrations == 0
