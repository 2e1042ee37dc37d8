"""Tests for the scheduling service: validation, golden byte-identity,
endpoints, persistence, accounting and the HTTP wire path."""

import asyncio
import http.client
import json

import pytest

from repro.serve import (
    ENDPOINTS,
    OPTION_DEFAULTS,
    SOLVER_CFGS,
    RequestError,
    ScheduleService,
    ServerThread,
    validate_request,
)

DSL = """
task prep(a : vector : out : replic);
task left(a : vector : in : replic, b : vector : out : replic);
task right(a : vector : in : replic, c : vector : out : replic);
task join(b : vector : in : replic, c : vector : in : replic,
          d : vector : out : replic);

cmmain MAIN(d : vector : out : replic) {
  var a, b, c : vector;
  seq {
    prep(a);
    par {
      left(a, b);
      right(a, c);
    }
    join(b, c, d);
  }
}
"""


def call(svc, method, path, payload=None, headers=None):
    """Drive one request through the service from sync test code."""
    if payload is None:
        body = b""
    elif isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode()
    else:
        body = json.dumps(payload).encode()
    return asyncio.run(svc.handle(method, path, body, headers or {}))


@pytest.fixture()
def svc():
    service = ScheduleService(workers=0)
    yield service
    service.close()


class TestValidation:
    def test_invalid_json_is_400(self, svc):
        r = call(svc, "POST", "/v1/schedule", b"{not json")
        assert r.status == 400
        assert r.json["error"]["code"] == "invalid_json"

    def test_unknown_solver_is_400(self, svc):
        r = call(svc, "POST", "/v1/schedule", {"workload": {"solver": "nope"}})
        assert r.status == 400
        assert r.json["error"]["code"] == "unknown_solver"
        assert "irk" in r.json["error"]["message"]

    def test_unknown_platform_is_400(self, svc):
        r = call(svc, "POST", "/v1/schedule", {
            "workload": {"solver": "irk"}, "topology": {"platform": "cray"}})
        assert r.status == 400
        assert r.json["error"]["code"] == "unknown_platform"

    @pytest.mark.parametrize("endpoint", ["schedule", "run"])
    def test_every_advertised_platform_is_served(self, svc, endpoint):
        from repro.serve.api import PLATFORMS

        for platform in PLATFORMS:
            r = call(svc, "POST", f"/v1/{endpoint}", {
                "workload": {"solver": "pab", "n": 16},
                "topology": {"platform": platform, "cores": 16}})
            assert r.status == 200, (platform, r.body)

    @pytest.mark.parametrize("endpoint", ["schedule", "run"])
    @pytest.mark.parametrize("cores", [250, 4000])  # not whole nodes; more than CHiC has
    def test_unallocatable_cores_is_400(self, svc, endpoint, cores):
        r = call(svc, "POST", f"/v1/{endpoint}", {
            "workload": {"solver": "irk"},
            "topology": {"platform": "chic", "cores": cores}})
        assert r.status == 400
        assert r.json["error"]["code"] == "invalid_topology"
        assert "Traceback" not in r.body.decode()

    def test_unknown_option_is_400(self, svc):
        r = call(svc, "POST", "/v1/schedule", {
            "workload": {"solver": "irk"}, "options": {"turbo": True}})
        assert r.status == 400
        assert r.json["error"]["code"] == "unknown_option"

    def test_malformed_dsl_is_parse_error_not_traceback(self, svc):
        r = call(svc, "POST", "/v1/schedule", {"program": {"dsl": "task {"}})
        assert r.status == 400
        assert r.json["error"]["code"] == "parse_error"
        assert "Traceback" not in r.body.decode()

    def test_unbuildable_dsl_is_build_error(self, svc):
        # vector has no element count without a sizes entry
        r = call(svc, "POST", "/v1/schedule", {"program": {"dsl": DSL}})
        assert r.status == 400
        assert r.json["error"]["code"] == "build_error"

    def test_work_for_undeclared_task_is_400(self, svc):
        r = call(svc, "POST", "/v1/schedule", {"program": {
            "dsl": DSL, "sizes": {"vector": 8}, "work": {"ghost": 1.0}}})
        assert r.status == 400
        assert r.json["error"]["code"] == "unknown_task"

    def test_workload_and_program_together_rejected(self, svc):
        r = call(svc, "POST", "/v1/schedule", {
            "workload": {"solver": "irk"}, "program": {"dsl": DSL}})
        assert r.status == 400

    def test_neither_workload_nor_program_rejected(self, svc):
        r = call(svc, "POST", "/v1/schedule", {"topology": {"cores": 4}})
        assert r.status == 400

    def test_run_rejects_dsl_programs(self, svc):
        r = call(svc, "POST", "/v1/run", {
            "program": {"dsl": DSL, "sizes": {"vector": 8}}})
        assert r.status == 400
        assert r.json["error"]["code"] == "not_runnable"

    def test_oversize_body_is_413(self, svc):
        blob = b'{"workload": {"solver": "' + b"x" * (1 << 20) + b'"}}'
        r = call(svc, "POST", "/v1/schedule", blob)
        assert r.status == 413

    def test_unroutable_path_is_404(self, svc):
        assert call(svc, "GET", "/nope").status == 404

    def test_wrong_method_is_405(self, svc):
        assert call(svc, "GET", "/v1/schedule").status == 405
        assert call(svc, "POST", "/healthz").status == 405

    def test_bad_tenant_rejected(self, svc):
        r = call(svc, "POST", "/v1/schedule", {
            "workload": {"solver": "irk"}, "tenant": "no spaces!"})
        assert r.status == 400
        assert r.json["error"]["code"] == "invalid_tenant"

    def test_scheduler_override_rejected_for_workloads(self, svc):
        r = call(svc, "POST", "/v1/schedule", {
            "workload": {"solver": "irk"}, "options": {"scheduler": "amtha"}})
        assert r.status == 400

    def test_version_option_rejected_for_programs(self, svc):
        r = call(svc, "POST", "/v1/schedule", {
            "program": {"dsl": DSL, "sizes": {"vector": 8}},
            "options": {"version": "dp"}})
        assert r.status == 400

    def test_validate_request_rejects_unknown_endpoint(self):
        with pytest.raises(RequestError) as excinfo:
            validate_request("destroy", {"workload": {"solver": "irk"}})
        assert excinfo.value.status == 404


class TestGoldenByteIdentity:
    """Cache hits must serve exactly the cold bytes, per paper solver."""

    @pytest.mark.parametrize("solver", sorted(SOLVER_CFGS))
    def test_schedule_hit_is_byte_identical(self, svc, solver):
        req = {"workload": {"solver": solver, "n": 24},
               "topology": {"cores": 16}}
        cold = call(svc, "POST", "/v1/schedule", req)
        assert cold.status == 200, cold.body
        assert cold.headers["X-Cache"] == "miss"
        hit = call(svc, "POST", "/v1/schedule", req)
        assert hit.status == 200
        assert hit.headers["X-Cache"] == "hit"
        assert hit.body == cold.body

    def test_simulate_hit_is_byte_identical(self, svc):
        req = {"workload": {"solver": "irk", "n": 24},
               "topology": {"cores": 16}}
        cold = call(svc, "POST", "/v1/simulate", req)
        assert cold.status == 200, cold.body
        hit = call(svc, "POST", "/v1/simulate", req)
        assert hit.body == cold.body
        assert "makespan" in cold.json and "metrics" in cold.json

    def test_run_hit_is_byte_identical(self, svc):
        req = {"workload": {"solver": "pab", "n": 24},
               "topology": {"cores": 8}}
        cold = call(svc, "POST", "/v1/run", req)
        assert cold.status == 200, cold.body
        hit = call(svc, "POST", "/v1/run", req)
        assert hit.body == cold.body
        assert cold.json["tasks_executed"] > 0
        assert cold.json["variables"]  # array digests of the outputs

    def test_endpoints_do_not_share_entries(self, svc):
        req = {"workload": {"solver": "irk", "n": 24}}
        a = call(svc, "POST", "/v1/schedule", req)
        b = call(svc, "POST", "/v1/simulate", req)
        assert a.headers["X-Cache"] == b.headers["X-Cache"] == "miss"
        assert a.headers["X-Cache-Key"] != b.headers["X-Cache-Key"]

    def test_tenant_not_in_cache_key(self, svc):
        req = {"workload": {"solver": "irk", "n": 24}}
        a = call(svc, "POST", "/v1/schedule", dict(req, tenant="alice"))
        b = call(svc, "POST", "/v1/schedule", dict(req, tenant="bob"))
        assert b.headers["X-Cache"] == "hit"
        assert a.body == b.body  # tenancy never leaks into the response


class TestEndpoints:
    def test_schedule_response_shape(self, svc):
        r = call(svc, "POST", "/v1/schedule", {
            "workload": {"solver": "irk", "n": 24}, "topology": {"cores": 16}})
        body = r.json
        assert body["schema"] == "repro.serve.schedule/1"
        assert set(body["digests"]) == {"program", "topology", "options"}
        assert body["tasks"] > 0 and body["predicted_makespan"] > 0
        assert body["schedule"]["kind"] == "layered"
        names = [t for layer in body["schedule"]["layers"]
                 for g in layer["groups"] for t in g["tasks"]]
        assert len(names) == body["tasks"]

    def test_dsl_program_end_to_end(self, svc):
        req = {"program": {"dsl": DSL, "sizes": {"vector": 64},
                           "work": {"prep": 4.0, "left": 2.0,
                                    "right": 2.0, "join": 1.0}},
               "topology": {"cores": 8},
               "options": {"scheduler": "gsearch"}}
        cold = call(svc, "POST", "/v1/schedule", req)
        assert cold.status == 200, cold.body
        assert cold.json["tasks"] == 6  # start + 4 tasks + stop
        hit = call(svc, "POST", "/v1/schedule", req)
        assert hit.headers["X-Cache"] == "hit"
        assert hit.body == cold.body

    def test_dsl_wildcard_work_default(self, svc):
        req = {"program": {"dsl": DSL, "sizes": {"vector": 64},
                           "work": {"*": 3.0}},
               "topology": {"cores": 8}}
        r = call(svc, "POST", "/v1/schedule", req)
        assert r.status == 200, r.body

    @pytest.mark.parametrize("scheduler", ["amtha", "moldable"])
    def test_dsl_scheduler_zoo_overrides(self, svc, scheduler):
        req = {"program": {"dsl": DSL, "sizes": {"vector": 64}},
               "topology": {"cores": 8},
               "options": {"scheduler": scheduler}}
        r = call(svc, "POST", "/v1/schedule", req)
        assert r.status == 200, r.body
        assert r.json["predicted_makespan"] >= 0

    def test_dp_version_for_workloads(self, svc):
        req = {"workload": {"solver": "irk", "n": 24},
               "options": {"version": "dp"}}
        r = call(svc, "POST", "/v1/schedule", req)
        assert r.status == 200, r.body

    def test_healthz(self, svc):
        r = call(svc, "GET", "/healthz")
        assert r.status == 200 and r.json == {"status": "ok"}

    def test_stats(self, svc):
        call(svc, "POST", "/v1/schedule", {"workload": {"solver": "irk", "n": 24}})
        r = call(svc, "GET", "/v1/stats")
        assert r.status == 200
        assert r.json["cache"]["entries"] == 1


class TestPersistence:
    def test_disk_cache_survives_restart(self, tmp_path):
        req = {"workload": {"solver": "epol", "n": 24}}
        first = ScheduleService(workers=0, cache_dir=tmp_path / "cache")
        try:
            cold = call(first, "POST", "/v1/schedule", req)
            assert cold.headers["X-Cache"] == "miss"
        finally:
            first.close()
        second = ScheduleService(workers=0, cache_dir=tmp_path / "cache")
        try:
            hit = call(second, "POST", "/v1/schedule", req)
            assert hit.headers["X-Cache"] == "hit"
            assert hit.body == cold.body
        finally:
            second.close()

    def test_run_registry_receives_records(self, tmp_path):
        from repro.obs import RunRegistry

        svc = ScheduleService(workers=0, registry_dir=tmp_path / "runs")
        try:
            r = call(svc, "POST", "/v1/schedule",
                     {"workload": {"solver": "irk", "n": 24}})
            assert r.status == 200
            # cache hits do not recompute, so no second record
            call(svc, "POST", "/v1/schedule",
                 {"workload": {"solver": "irk", "n": 24}})
        finally:
            svc.close()
        records = RunRegistry(tmp_path / "runs").load()
        assert len(records) == 1
        assert records[0]["solver"] == "irk"
        assert records[0]["backend"] == "serve"
        assert records[0]["timestamp"] > 0


class TestAccounting:
    def test_per_tenant_prometheus_families(self, svc):
        req = {"workload": {"solver": "irk", "n": 24}}
        call(svc, "POST", "/v1/schedule", dict(req, tenant="alice"))
        call(svc, "POST", "/v1/schedule", dict(req, tenant="alice"))
        call(svc, "POST", "/v1/schedule", dict(req, tenant="bob"))
        text = call(svc, "GET", "/metrics").body.decode()
        assert 'serve_requests_total{endpoint="schedule",status="200",tenant="alice"} 2' in text
        assert 'serve_requests_total{endpoint="schedule",status="200",tenant="bob"} 1' in text
        assert 'serve_cache_misses_total{endpoint="schedule",tenant="alice"} 1' in text
        assert 'serve_cache_hits_total{endpoint="schedule",tenant="alice"} 1' in text
        assert 'serve_cache_hits_total{endpoint="schedule",tenant="bob"} 1' in text
        assert 'serve_scheduled_tasks_total{tenant="alice"}' in text
        assert "serve_solver_seconds" in text
        assert "serve_queue_depth" in text

    def test_x_tenant_header_fallback(self, svc):
        req = {"workload": {"solver": "irk", "n": 24}}
        call(svc, "POST", "/v1/schedule", req, headers={"X-Tenant": "carol"})
        text = call(svc, "GET", "/metrics").body.decode()
        assert 'tenant="carol"' in text

    def test_error_responses_are_counted(self, svc):
        call(svc, "POST", "/v1/schedule", {"workload": {"solver": "zz"}})
        text = call(svc, "GET", "/metrics").body.decode()
        assert 'serve_requests_total{endpoint="schedule",status="400",tenant="anonymous"} 1' in text


class TestHttpWire:
    """Socket-level tests through the real HTTP/1.1 layer."""

    @pytest.fixture()
    def server(self, tmp_path):
        handle = ServerThread(
            ScheduleService(workers=0, cache_dir=tmp_path / "cache")
        ).start()
        yield handle
        handle.stop()

    def _request(self, server, method, path, payload=None, headers=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server.port, timeout=30)
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body, headers=headers or {})
        resp = conn.getresponse()
        data = resp.read()
        out = (resp.status, data, dict(resp.getheaders()))
        conn.close()
        return out

    def test_healthz_over_socket(self, server):
        status, data, _ = self._request(server, "GET", "/healthz")
        assert status == 200 and json.loads(data) == {"status": "ok"}

    def test_schedule_over_socket(self, server):
        req = {"workload": {"solver": "irk", "n": 24}}
        s1, b1, h1 = self._request(server, "POST", "/v1/schedule", req)
        s2, b2, h2 = self._request(server, "POST", "/v1/schedule", req)
        assert (s1, s2) == (200, 200)
        assert h1["X-Cache"] == "miss" and h2["X-Cache"] == "hit"
        assert b1 == b2

    def test_keep_alive_reuses_connection(self, server):
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.server.port, timeout=30)
        for _ in range(3):
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
        conn.close()

    def test_metrics_over_socket(self, server):
        self._request(server, "POST", "/v1/schedule",
                      {"workload": {"solver": "irk", "n": 24}},
                      {"X-Tenant": "dave", "Content-Type": "application/json"})
        status, data, headers = self._request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert 'tenant="dave"' in data.decode()

    def test_malformed_request_line_is_400(self, server):
        import socket

        with socket.create_connection(
                ("127.0.0.1", server.server.port), timeout=10) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            data = sock.recv(4096)
        assert b"400" in data.split(b"\r\n", 1)[0]


class TestDriftGuards:
    def test_endpoints_tuple(self):
        assert ENDPOINTS == ("schedule", "simulate", "run")

    def test_option_defaults_cover_canonical_options(self):
        from repro.serve import canonical_options

        # all-defaults canonicalizes to the empty dict
        assert canonical_options(dict(OPTION_DEFAULTS)) == {}

    def test_cli_parser_flags(self):
        from repro.serve.__main__ import build_parser

        options = {s for a in build_parser()._actions for s in a.option_strings}
        for flag in ("--host", "--port", "--workers", "--max-queue",
                     "--cache-dir", "--registry-dir"):
            assert flag in options
