"""Tests for the scheduling service: validation, golden byte-identity,
endpoints, persistence, accounting and the HTTP wire path."""

import asyncio
import hashlib
import http.client
import json
import sys
import threading

import pytest

from repro.ode import PAPER_CONFIGS
from repro.serve import (
    ENDPOINTS,
    OPTION_DEFAULTS,
    RequestError,
    ScheduleService,
    validate_request,
)
from repro.serve.http import HttpServer

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


class ServerThread:
    """A live server on a daemon thread with its own event loop: the
    real wire path without a subprocess."""

    def __init__(self, service: ScheduleService) -> None:
        self.service = service
        self.server = HttpServer(service, "127.0.0.1", 0)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, name="repro-serve", daemon=True)
        self._ready = threading.Event()

    def start(self) -> "ServerThread":
        """Boot the loop thread; returns once the port is bound."""
        self._thread.start()
        if not self._ready.wait(10.0):
            raise RuntimeError("server thread did not come up in time")
        return self

    def _run(self) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)
        loop.run_until_complete(self.server.start())
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.server.stop())
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    def stop(self) -> None:
        """Stop the loop, join the thread, shut the worker pool down."""
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self.service.close()


def decoded(response):
    """A service response's JSON body."""
    return json.loads(response.body.decode())


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
        assert decoded(r)["error"]["code"] == "invalid_json"

    def test_unknown_solver_is_400(self, svc):
        r = call(svc, "POST", "/v1/schedule", {"workload": {"solver": "nope"}})
        assert r.status == 400
        assert decoded(r)["error"]["code"] == "unknown_solver"
        assert "irk" in decoded(r)["error"]["message"]

    def test_unknown_platform_is_400(self, svc):
        r = call(svc, "POST", "/v1/schedule", {
            "workload": {"solver": "irk"}, "topology": {"platform": "cray"}})
        assert r.status == 400
        assert decoded(r)["error"]["code"] == "unknown_platform"

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
        assert decoded(r)["error"]["code"] == "invalid_topology"
        assert "Traceback" not in r.body.decode()

    def test_unknown_option_is_400(self, svc):
        r = call(svc, "POST", "/v1/schedule", {
            "workload": {"solver": "irk"}, "options": {"turbo": True}})
        assert r.status == 400
        assert decoded(r)["error"]["code"] == "unknown_option"

    def test_malformed_dsl_is_parse_error_not_traceback(self, svc):
        r = call(svc, "POST", "/v1/schedule", {"program": {"dsl": "task {"}})
        assert r.status == 400
        assert decoded(r)["error"]["code"] == "parse_error"
        assert "Traceback" not in r.body.decode()

    def test_unbuildable_dsl_is_build_error(self, svc):
        from repro.spec.build import MAX_UNROLLED, compile_source

        # vector has no element count without a sizes entry
        r = call(svc, "POST", "/v1/schedule", {"program": {"dsl": DSL}})
        assert r.status == 400
        assert decoded(r)["error"]["code"] == "build_error"
        # a short program that unrolls past the bound fails before it
        # allocates, and leaves no template behind
        kept = compile_source.cache_info().currsize
        task = "task a(x : vector : inout : replic);\n"
        for dsl, what in (
            (task + "cmmain M(x : vector : inout : replic) "
             "{ for (i = 1 : 20000) { a(x); } }", "tasks and parameters"),
            ("type V = vector[1000000];\n" + task +
             "cmmain M(v : V : inout : replic) { a(v[1]); }", "variable instances"),
            # a negative length declares no instance and offsets none
            ("type N = vector[0 - 100000];\ntype V = vector[100000];\n" + task +
             "cmmain M(n : N : inout : replic, v : V : inout : replic) { a(v[1]); }",
             "variable instances"),
        ):
            r = call(svc, "POST", "/v1/schedule",
                     {"program": {"dsl": dsl, "sizes": {"vector": 8}}})
            assert r.status == 400
            error = decoded(r)["error"]
            assert error["code"] == "build_error"
            assert f"more than {MAX_UNROLLED} {what}" in error["message"]
        assert compile_source.cache_info().currsize == kept

    def test_work_for_undeclared_task_is_400(self, svc):
        r = call(svc, "POST", "/v1/schedule", {"program": {
            "dsl": DSL, "sizes": {"vector": 8}, "work": {"ghost": 1.0}}})
        assert r.status == 400
        assert decoded(r)["error"]["code"] == "unknown_task"

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
        assert decoded(r)["error"]["code"] == "not_runnable"

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
        assert decoded(r)["error"]["code"] == "invalid_tenant"

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


#: predicted makespan served for each paper solver at n=60 on 64 CHiC cores
SERVED_MAKESPAN = {
    "diirk": "0x1.af97a6611c0d1p-9",
    "epol": "0x1.25220aba55cd5p-10",
    "irk": "0x1.6b9a4512f2ab8p-10",
    "pab": "0x1.4aec3f1cddd66p-12",
    "pabm": "0x1.103ab8a84057fp-11",
}


class TestGoldenByteIdentity:
    """Cache hits must serve exactly the cold bytes, per paper solver."""

    @pytest.mark.parametrize("solver", sorted(PAPER_CONFIGS))
    def test_schedule_hit_is_byte_identical(self, svc, solver):
        # the request the CI ``serve`` job sends the live server twice
        req = {"workload": {"solver": solver, "n": 60},
               "topology": {"platform": "chic", "cores": 64}, "tenant": "bench"}
        cold = call(svc, "POST", "/v1/schedule", req)
        assert cold.status == 200, cold.body
        assert cold.headers["X-Cache"] == "miss"
        assert float(decoded(cold)["predicted_makespan"]).hex() == SERVED_MAKESPAN[solver]
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
        assert "makespan" in decoded(cold) and "metrics" in decoded(cold)

    def test_run_hit_is_byte_identical(self, svc):
        req = {"workload": {"solver": "pab", "n": 24},
               "topology": {"cores": 8}}
        cold = call(svc, "POST", "/v1/run", req)
        assert cold.status == 200, cold.body
        hit = call(svc, "POST", "/v1/run", req)
        assert hit.body == cold.body
        assert decoded(cold)["tasks_executed"] > 0
        assert decoded(cold)["variables"]  # array digests of the outputs

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


#: (sha256 of the cold /v1/schedule body, X-Cache-Key) per scheduler
#: name a request can select, as served before the scheduler table:
#: a name mapped to the wrong class moves both
SERVED_BY_NAME = {
    "paper": ("7dadccc99d29fe61863c2f0dd10b8a09cf4928775bde68f720e0d501249ae519",
              "5f77bfef36e83c9280429c895987bb2cf8723b33addb225fd6ffaee0882ec3e6"),
    "gsearch": ("39e713d00792ad9fdb0f49acfdddfdfe8c31cab542dea625cc3d1b9b60d41a14",
                "ec12459ff98b6db73120eddfacf1f37e532d8a124a61ee7f998220a8480aadcc"),
    "amtha": ("6df37abe3ac5075cb7b3e9ae752c513ad57adba98fa02707cc7899367d4def58",
              "eeab9bbd23945f6f4eee1d7c928cf962d3a6ea9b47158cad9ed6cff26a92ef19"),
    "moldable": ("0d8b4cbac494b6c9a5ffc0e51c84b96034e0fc3c9ddcaf0c23c939f166a20ecd",
                 "fd16ef3d939d26d34ad0f346be4ef10fb03cff51d8c963cce6ae42657f11078e"),
    "version=tp": ("d3f1ae277109de43c2d927c8e22a41e6a624880683ba91a5c2e039f8c8f37c48",
                   "45166ee7b4bcf5e96a7961d7b67af7a54eb4ca060a5818875201120d10c271db"),
    "version=dp": ("35d1d8ac18203365173f8486f62a474a5e65b8ddcf1a763d53692856cc0f576d",
                   "ff3068aa81461cf9991bb392095c8b171b8b0e4ee9a99e6a327b6c5b331a2846"),
    "groups=2": ("ad376946e56dfcb857503a498d58bd6a830d7898e34606aaf3121cf46e11156a",
                 "62dddc45a345aa3a493f2fe57193490d325df91e5f3fdd27fef15fa1112d41e8"),
}


def _by_name_request(name):
    if "=" not in name:  # a DSL program under options.scheduler
        return {"program": {"dsl": DSL, "sizes": {"vector": 64}},
                "topology": {"cores": 8}, "options": {"scheduler": name}}
    key, value = name.split("=")
    return {"workload": {"solver": "irk", "n": 24}, "topology": {"cores": 32},
            "options": {key: int(value) if key == "groups" else value}}


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="sum() over floats is compensated from Python 3.12 on, which moves "
    "the last bit of served makespans; the digests are 3.11's",
)
@pytest.mark.parametrize("name", sorted(SERVED_BY_NAME))
def test_each_scheduler_name_serves_pinned_bytes(svc, name):
    r = call(svc, "POST", "/v1/schedule", _by_name_request(name))
    assert r.status == 200, r.body
    assert r.headers["X-Cache"] == "miss"
    digest = hashlib.sha256(r.body).hexdigest()
    assert (digest, r.headers["X-Cache-Key"]) == SERVED_BY_NAME[name]


class TestEndpoints:
    def test_schedule_response_shape(self, svc):
        r = call(svc, "POST", "/v1/schedule", {
            "workload": {"solver": "irk", "n": 24}, "topology": {"cores": 16}})
        body = decoded(r)
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
        assert decoded(cold)["tasks"] == 6  # start + 4 tasks + stop
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
        assert decoded(r)["predicted_makespan"] >= 0

    def test_dp_version_for_workloads(self, svc):
        req = {"workload": {"solver": "irk", "n": 24},
               "options": {"version": "dp"}}
        r = call(svc, "POST", "/v1/schedule", req)
        assert r.status == 200, r.body

    def test_healthz(self, svc):
        r = call(svc, "GET", "/healthz")
        assert r.status == 200 and decoded(r) == {"status": "ok"}

    def test_stats(self, svc):
        call(svc, "POST", "/v1/schedule", {"workload": {"solver": "irk", "n": 24}})
        r = call(svc, "GET", "/v1/stats")
        assert r.status == 200
        assert decoded(r)["cache"]["entries"] == 1


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
