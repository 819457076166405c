"""The HTTP serving layer: differential client/server suite, concurrency,
admission/deadline/cancellation translation, scan coalescing, wire bytes.

Every test drives a real :class:`repro.serve.ProteusServer` bound to an
ephemeral loopback port with stdlib ``urllib`` clients — the same black-box
posture as the CI smoke step — and asserts at teardown that the server
leaked no ``proteus-http-*`` / ``proteus-worker-*`` threads.
"""

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from tests.conftest import PARALLEL_CONFIG, make_engine, served_tier
from repro.core.concurrency import run_concurrently
from repro.obs.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.resilience import FaultInjector, FaultPlan, FaultSpec
from repro.serve import ProteusServer
from repro.serve import server as server_module
from repro.storage.catalog import DataFormat

# ---------------------------------------------------------------------------
# HTTP helpers (stdlib only, mirroring what real clients would do)
# ---------------------------------------------------------------------------


def _request(url, method="GET", payload=None, timeout=30.0):
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        return exc.code, (json.loads(body) if body else {})


def _post(server, endpoint, payload):
    return _request(server.url + endpoint, method="POST", payload=payload)


def _rows(body):
    """Reassemble row tuples from a columnar response body."""
    columns = [body["data"][name] for name in body["columns"]]
    return [tuple(values) for values in zip(*columns)] if columns else []


@contextmanager
def serving(engine):
    server = ProteusServer(engine)
    server.start()
    try:
        yield server
    finally:
        server.stop()
        deadline = time.monotonic() + 5.0
        prefixes = ("proteus-http", "proteus-worker")
        while time.monotonic() < deadline:
            leaked = [
                t.name
                for t in threading.enumerate()
                if t.name.startswith(prefixes)
            ]
            if not leaked:
                break
            time.sleep(0.01)
        assert not leaked, f"server leaked threads: {leaked}"


TIER_CONFIGS = [
    ({}, "codegen"),
    (
        {
            "enable_codegen": False,
            "parallel_workers": 2,
            "vectorized_batch_size": 16,
        },
        PARALLEL_CONFIG,
    ),
    ({"enable_codegen": False}, "vectorized"),
    ({"enable_codegen": False, "enable_vectorized": False}, "volcano"),
]

PROJECTION_QUERY = "select id, qty, price from items_csv where qty < 5 order by id"
AGGREGATE_QUERY = (
    "select category, sum(price) as total from items_csv "
    "group by category order by category"
)


# ---------------------------------------------------------------------------
# Differential client/server suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config,label", TIER_CONFIGS, ids=[label for _, label in TIER_CONFIGS]
)
def test_http_and_direct_execution_identical(paths, config, label):
    """The same query through HTTP and engine.query() returns identical rows
    (and reports the same serving tier) on every execution tier."""
    expected_tier = served_tier(label)
    engine = make_engine(paths, **config)
    for query in (PROJECTION_QUERY, AGGREGATE_QUERY):
        direct = engine.query(query)
        with serving(engine) as server:
            status, body = _post(server, "/v1/query", {"query": query})
        assert status == 200, body
        assert _rows(body) == direct.rows
        assert body["row_count"] == len(direct)
        assert body["columns"] == direct.columns
    assert direct.tier == expected_tier
    assert body["tier"] == expected_tier
    assert body["profile"]["execution_tier"] == expected_tier


def test_positional_and_named_parameters(engine):
    with serving(engine) as server:
        status, body = _post(
            server,
            "/v1/query",
            {
                "query": (
                    "select id from items_csv "
                    "where qty >= ? and category = :cat order by id"
                ),
                "args": [5],
                "params": {"cat": "cat1"},
            },
        )
    assert status == 200, body
    direct = engine.query(
        "select id from items_csv where qty >= ? and category = :cat order by id",
        5,
        cat="cat1",
    )
    assert _rows(body) == direct.rows
    assert direct.rows  # the predicate actually selects something


def test_prepare_execute_and_close_handles(engine):
    with serving(engine) as server:
        status, body = _post(
            server,
            "/v1/prepare",
            {"query": "select count(*) as n from items_csv where qty = :q"},
        )
        assert status == 200, body
        handle = body["handle"]
        assert body["parameters"] == ["q"]

        status, body = _post(
            server, "/v1/execute", {"handle": handle, "params": {"q": 2}}
        )
        assert status == 200, body
        expected = engine.query(
            "select count(*) as n from items_csv where qty = :q", q=2
        ).scalar()
        assert _rows(body) == [(expected,)]

        # Unknown handle -> 404/SRV003; close -> the handle disappears.
        status, body = _post(server, "/v1/execute", {"handle": "stmt-999"})
        assert (status, body["error"]["code"]) == (404, "SRV003")
        status, body = _request(
            server.url + f"/v1/statement/{handle}", method="DELETE"
        )
        assert (status, body) == (200, {"closed": True})
        status, body = _post(server, "/v1/execute", {"handle": handle})
        assert (status, body["error"]["code"]) == (404, "SRV003")


# ---------------------------------------------------------------------------
# Concurrency: many clients, one engine
# ---------------------------------------------------------------------------


def test_eight_barrier_aligned_concurrent_clients(paths):
    engine = make_engine(paths, parallel_workers=2)
    direct = engine.query(AGGREGATE_QUERY)
    with serving(engine) as server:
        results = run_concurrently(
            lambda i: _post(server, "/v1/query", {"query": AGGREGATE_QUERY}), 8
        )
        statuses = [status for status, _ in results]
        assert statuses == [200] * 8
        for _, body in results:
            assert _rows(body) == direct.rows
        # Request accounting: every hit landed in the HTTP counter.
        samples = engine.metrics.counter("proteus_http_requests_total").samples()
        by_key = {dict(key)["endpoint"]: value for key, value in samples}
        assert by_key["/v1/query"] >= 8


def test_scan_coalescing_n_clients_one_cold_parse(paths):
    """8 concurrent clients hit one cold CSV: exactly one parse happens (the
    leader's), everyone else coalesces on its in-flight materialization."""
    engine = make_engine(paths, enable_codegen=False, vectorized_batch_size=16)
    plugin = engine.plugins[DataFormat.CSV]
    # Persistent slow faults stretch the leader's scan so the other clients
    # demonstrably arrive while it is still in flight.
    injector = FaultInjector(
        FaultPlan(
            [
                FaultSpec(kind="slow", at_call=call, times=None, delay_seconds=0.05)
                for call in range(1, 17)
            ]
        )
    )
    plugin.install_fault_injector(injector)
    base_calls = plugin.scan_calls
    query = "select sum(price) as total from items_csv where qty < 5"
    with serving(engine) as server:
        results = run_concurrently(
            lambda i: _post(server, "/v1/query", {"query": query}), 8
        )
    assert [status for status, _ in results] == [200] * 8
    bodies = [body for _, body in results]
    assert len({json.dumps(body["data"]) for body in bodies}) == 1
    # One cold parse total — the raw file was not re-scanned per client —
    # and nobody burned I/O retries doing it.
    assert plugin.scan_calls - base_calls == 1
    assert all(body["profile"]["io_retries"] == 0 for body in bodies)
    coalesced = engine.metrics.counter("proteus_scans_coalesced_total")
    total = sum(value for _, value in coalesced.samples())
    assert total >= 1, "no client coalesced on the in-flight scan"


# ---------------------------------------------------------------------------
# Resilience translation: 429 / 408 / 499 / 409
# ---------------------------------------------------------------------------


def test_admission_queue_full_maps_to_429(paths):
    engine = make_engine(
        paths, max_concurrent_queries=1, admission_queue_seconds=0.05
    )
    with serving(engine) as server:
        slot = engine.admission.admit(0)
        try:
            status, body = _post(
                server, "/v1/query", {"query": "select count(*) from items_csv"}
            )
        finally:
            slot.release()
        assert status == 429
        assert body["error"]["code"] == "RES003"
        assert "RES003" in body["error"]["message"]
        # Slot released: the same request is admitted now.
        status, _ = _post(
            server, "/v1/query", {"query": "select count(*) from items_csv"}
        )
        assert status == 200


def test_request_timeout_maps_to_408_with_partial_progress(paths):
    engine = make_engine(
        paths, enable_codegen=False, enable_caching=False, vectorized_batch_size=16
    )
    injector = FaultInjector(
        FaultPlan([FaultSpec(kind="slow", at_call=3, delay_seconds=0.3)])
    )
    engine.plugins[DataFormat.CSV].install_fault_injector(injector)
    with serving(engine) as server:
        status, body = _post(
            server,
            "/v1/query",
            {"query": "select sum(price) from items_csv", "timeout_ms": 100},
        )
    assert status == 408
    assert body["error"]["code"] == "RES001"
    assert body["profile"]["aborted"] == "RES001"
    # The deadline fired mid-scan: progress shows how far the query got.
    assert body["partial_progress"]["batches"] >= 1


def test_cancel_endpoint_maps_to_499(paths):
    engine = make_engine(
        paths, enable_codegen=False, enable_caching=False, vectorized_batch_size=16
    )
    scanning = threading.Event()

    def slow_sleep(seconds):
        scanning.set()
        time.sleep(seconds)

    injector = FaultInjector(
        FaultPlan(
            [
                FaultSpec(kind="slow", at_call=call, times=None, delay_seconds=0.02)
                for call in range(1, 33)
            ]
        ),
        sleep=slow_sleep,
    )
    engine.plugins[DataFormat.CSV].install_fault_injector(injector)
    with serving(engine) as server:
        outcome = {}

        def client():
            outcome["response"] = _post(
                server,
                "/v1/query",
                {"query": "select sum(price) from items_csv", "query_id": "q-1"},
            )

        thread = threading.Thread(target=client)
        thread.start()
        assert scanning.wait(5.0), "query never started scanning"
        status, body = _request(server.url + "/v1/query/q-1", method="DELETE")
        assert (status, body) == (200, {"cancelled": True})
        thread.join()
        status, body = outcome["response"]
        assert status == 499
        assert body["error"]["code"] == "RES002"
        # The id is gone once the query unwound: cancelling again is a 404.
        status, body = _request(server.url + "/v1/query/q-1", method="DELETE")
        assert (status, body["error"]["code"]) == (404, "SRV002")


def test_duplicate_query_id_maps_to_409(engine):
    with serving(engine) as server:
        token = server.queries.register("dup-1")
        try:
            status, body = _post(
                server,
                "/v1/query",
                {"query": "select count(*) from items_csv", "query_id": "dup-1"},
            )
            assert (status, body["error"]["code"]) == (409, "SRV004")
        finally:
            server.queries.release("dup-1", token)
        status, _ = _post(
            server,
            "/v1/query",
            {"query": "select count(*) from items_csv", "query_id": "dup-1"},
        )
        assert status == 200


# ---------------------------------------------------------------------------
# Protocol errors and analysis rejections
# ---------------------------------------------------------------------------


def test_analysis_rejection_maps_to_400_with_typ_code(engine):
    with serving(engine) as server:
        status, body = _post(
            server,
            "/v1/query",
            {"query": "select qty + category from items_csv"},
        )
    assert status == 400
    assert body["error"]["code"].startswith("TYP")


def test_malformed_requests_map_to_400(engine):
    with serving(engine) as server:
        cases = [
            {"query": ""},
            {"query": 7},
            {},
            {"query": "select id from items_csv", "args": "nope"},
            {"query": "select id from items_csv", "params": [1]},
            {"query": "select id from items_csv", "timeout_ms": "fast"},
            {"query": "select id from items_csv", "timeout_ms": -1},
            {"query": "select id from items_csv", "query_id": ""},
        ]
        for payload in cases:
            status, body = _post(server, "/v1/query", payload)
            assert (status, body["error"]["code"]) == (400, "SRV001"), payload
        # Non-JSON body and non-object body are SRV001 too.
        req = urllib.request.Request(
            server.url + "/v1/query", data=b"not json", method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                status = resp.status
        except urllib.error.HTTPError as exc:
            status = exc.code
            body = json.loads(exc.read())
        assert (status, body["error"]["code"]) == (400, "SRV001")


def test_unknown_endpoint_maps_to_404(engine):
    with serving(engine) as server:
        status, body = _post(server, "/v2/query", {"query": "select 1"})
        assert (status, body["error"]["code"]) == (404, "SRV002")
        status, body = _request(server.url + "/nope")
        assert (status, body["error"]["code"]) == (404, "SRV002")


def test_healthz(engine):
    with serving(engine) as server:
        assert _request(server.url + "/healthz") == (200, {"status": "ok"})


# ---------------------------------------------------------------------------
# /metrics wire bytes (Prometheus text exposition v0.0.4)
# ---------------------------------------------------------------------------


def test_metrics_endpoint_serves_exact_prometheus_wire_format(engine):
    engine.query("select count(*) from items_csv")
    with serving(engine) as server:
        _post(server, "/v1/query", {"query": "select count(*) from items_csv"})
        req = urllib.request.Request(server.url + "/metrics")
        with urllib.request.urlopen(req, timeout=30) as resp:
            assert resp.status == 200
            content_type = resp.headers["Content-Type"]
            body = resp.read()
    assert content_type == PROMETHEUS_CONTENT_TYPE
    assert content_type == "text/plain; version=0.0.4; charset=utf-8"
    # Exactly one trailing newline after the last sample line.
    assert body.endswith(b"\n")
    assert not body.endswith(b"\n\n")
    text = body.decode("utf-8")
    assert "proteus_queries_total" in text
    assert "proteus_http_requests_total" in text
    # Every non-comment line is a sample: "name[{labels}] value".
    for line in text.rstrip("\n").split("\n"):
        assert line, "blank line inside the exposition"
        if not line.startswith("#"):
            assert " " in line


def test_render_prometheus_wire_contract_unit():
    registry = MetricsRegistry()
    assert registry.render_prometheus() == ""
    registry.counter("demo_total", "Demo.").inc()
    rendered = registry.render_prometheus()
    assert rendered.endswith("\n")
    assert not rendered.endswith("\n\n")
    assert rendered.count("demo_total") >= 2  # HELP/TYPE header + sample


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


def test_server_lifecycle_is_single_use(engine):
    server = ProteusServer(engine)
    server.start()
    with pytest.raises(RuntimeError):
        server.start()
    server.stop()
    server.stop()  # idempotent


def test_stop_returns_despite_an_idle_client(engine, monkeypatch):
    """A client that connects and sends nothing times out of its handler
    thread, so stop() returns promptly and leaks no handler thread."""
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT_SECONDS", 0.2)
    server = ProteusServer(engine).start()
    idle = socket.create_connection((server.host, server.port))
    try:
        time.sleep(0.05)  # let the handler thread block in its first read
        started = time.monotonic()
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), "stop() is blocked by an idle client"
        assert time.monotonic() - started < 2.0
        leaked = [
            t.name
            for t in threading.enumerate()
            if t.name.startswith("proteus-http")
        ]
        assert not leaked, leaked
    finally:
        idle.close()


def test_context_manager_serves_and_stops(engine):
    with ProteusServer(engine) as server:
        status, _ = _request(server.url + "/healthz")
        assert status == 200
    leaked = [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("proteus-http")
    ]
    assert not leaked
