"""Service tests: coalescing semantics and the HTTP endpoint surface."""

import asyncio
import http.client
import json
import threading

import pytest

from repro.api import ModelParams, Query
from repro.runtime.cache import KernelCache
from repro.service import SolverService, start_background_server

PARAMS = {"num_pieces": 8, "max_conns": 2, "ns_size": 4}
SOLVE_BODY = {"params": PARAMS, "quantity": "download_time", "method": "exact"}


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


@pytest.fixture
def service():
    service = SolverService(cache=KernelCache(), max_workers=2)
    yield service
    service.close()


@pytest.fixture
def server():
    handle = start_background_server(cache=KernelCache(), max_workers=2)
    yield handle
    handle.close()


class TestCoalescing:
    def test_concurrent_identical_queries_solve_once(self, service):
        query = Query.make(ModelParams(**PARAMS), "download_time", "exact")

        async def fan():
            return await asyncio.gather(
                *(service.solve_async(query) for _ in range(6))
            )

        results = asyncio.run(fan())
        assert sorted(outcome for _p, outcome in results) == (
            ["coalesced"] * 5 + ["miss"]
        )
        assert service.solve_count == 1
        payloads = [payload for payload, _outcome in results]
        assert all(payload == payloads[0] for payload in payloads)

    def test_repeat_is_a_result_cache_hit(self, service):
        query = Query.make(ModelParams(**PARAMS), "download_time", "exact")

        async def one():
            return await service.solve_async(query)

        _, first = asyncio.run(one())
        _, second = asyncio.run(one())
        assert (first, second) == ("miss", "hit")
        assert service.solve_count == 1

    def test_distinct_queries_solve_separately(self, service):
        base = ModelParams(**PARAMS)
        queries = [
            Query.make(base, "download_time", "exact"),
            Query.make(ModelParams.of(base, alpha=0.4), "download_time", "exact"),
        ]

        async def fan():
            return await asyncio.gather(
                *(service.solve_async(q) for q in queries)
            )

        outcomes = [outcome for _p, outcome in asyncio.run(fan())]
        assert outcomes == ["miss", "miss"]
        assert service.solve_count == 2

    def test_failed_solve_clears_inflight(self, service):
        bad = Query.make(ModelParams(**PARAMS), "transient", "exact")

        async def one():
            return await service.solve_async(bad)

        for _ in range(2):  # the second call must not hang on a dead future
            with pytest.raises(Exception, match="horizon"):
                asyncio.run(one())
        assert service.solve_count == 0


class TestHttpEndpoints:
    def test_health(self, server):
        status, body = request(server.port, "GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_solve_miss_then_hit(self, server):
        status, first = request(server.port, "POST", "/solve", SOLVE_BODY)
        assert status == 200
        assert first["outcome"] == "miss"
        assert first["quantity"] == "download_time"
        assert first["method"] == "exact"
        assert first["result"]["mean"] > 0
        status, second = request(server.port, "POST", "/solve", SOLVE_BODY)
        assert status == 200
        assert second["outcome"] == "hit"
        assert second["result"] == first["result"]

    def test_concurrent_http_queries_solve_once(self, server):
        outcomes = []
        lock = threading.Lock()

        def worker():
            _status, body = request(server.port, "POST", "/solve", SOLVE_BODY)
            with lock:
                outcomes.append(body["outcome"])

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcomes) == 6
        assert outcomes.count("miss") == 1
        assert set(outcomes) <= {"miss", "coalesced", "hit"}
        assert server.service.solve_count == 1

    def test_sweep_counts_distinct_queries(self, server):
        body = {
            "params": PARAMS,
            "quantity": "download_time",
            "method": "exact",
            "grid": {"alpha": [0.2, 0.3, 0.4], "gamma": [0.2, 0.5]},
        }
        status, payload = request(server.port, "POST", "/sweep", body)
        assert status == 200
        assert payload["count"] == 6
        assert payload["distinct"] == 6
        grids = [point["grid"] for point in payload["results"]]
        assert {"alpha": 0.2, "gamma": 0.5} in grids
        assert all(point["result"]["mean"] > 0 for point in payload["results"])

    def test_sweep_redundant_grid_solves_once(self, server):
        body = {
            "params": PARAMS,
            "quantity": "download_time",
            "method": "exact",
            "grid": {"alpha": [0.2, 0.2]},
        }
        status, payload = request(server.port, "POST", "/sweep", body)
        assert status == 200
        assert payload["count"] == 2
        assert payload["distinct"] == 1
        assert server.service.solve_count == 1

    def test_stats_shape(self, server):
        request(server.port, "POST", "/solve", SOLVE_BODY)
        status, stats = request(server.port, "GET", "/stats")
        assert status == 200
        assert stats["queries"]["total"] >= 1
        assert stats["queries"]["misses"] >= 1
        assert stats["solves"] == 1
        assert set(stats["kernel_cache"]) >= {
            "entries", "bytes", "hits", "misses", "evictions",
            "max_entries", "max_bytes",
        }
        assert stats["result_cache"]["entries"] == 1
        assert "POST /solve" in stats["endpoints"]
        assert stats["endpoints"]["POST /solve"]["requests"] >= 1

    def test_bad_params_maps_to_400(self, server):
        bad = {"params": {"num_pieces": 8}, "quantity": "download_time"}
        status, body = request(server.port, "POST", "/solve", bad)
        assert status == 400
        assert "missing required parameter field" in body["error"]
        # Malformed option values are rejected before any solve runs.
        for quantity, method, options in [
            ("transient", "exact", {"horizon": "abc"}),
            ("download_time", "batch", {"runs": "x"}),
            ("download_time", "batch", {"runs": 2.7}),
        ]:
            bad = {"params": PARAMS, "quantity": quantity, "method": method,
                   "options": options}
            status, body = request(server.port, "POST", "/solve", bad)
            assert status == 400, body
            assert f"{next(iter(options))} must be an integer" in body["error"]

    def test_unknown_quantity_maps_to_400(self, server):
        bad = dict(SOLVE_BODY, quantity="magic")
        status, body = request(server.port, "POST", "/solve", bad)
        assert status == 400
        assert "unknown quantity" in body["error"]
        for method in ("dict", "reference", "serial", "monte-carlo",
                       "montecarlo"):
            status, body = request(
                server.port, "POST", "/solve", dict(SOLVE_BODY, method=method)
            )
            assert status == 400
            assert f"unknown method {method!r}" in body["error"]
            assert "valid choices: 'exact'" in body["error"]

    def test_invalid_json_maps_to_400(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request("POST", "/solve", body="{not json")
            response = conn.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_unknown_path_maps_to_404(self, server):
        status, body = request(server.port, "GET", "/nope")
        assert status == 404
        assert "/solve" in body["error"]

    def test_wrong_verb_maps_to_405(self, server):
        status, _ = request(server.port, "POST", "/health", {})
        assert status == 405
        status, _ = request(server.port, "GET", "/solve")
        assert status == 405

    def test_sweep_rejects_oversized_grid(self, server):
        body = {
            "params": PARAMS,
            "quantity": "download_time",
            "grid": {"alpha": [0.001 * i for i in range(5000)]},
        }
        status, payload = request(server.port, "POST", "/sweep", body)
        assert status == 400
        assert "limit" in payload["error"]
