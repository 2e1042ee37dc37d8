"""``serve-mix``: cold and repeated requests against a real server process.

One keep-alive connection (closed loop, one request in flight) talks to
a ``python -m repro.serve --port 0 --workers 2 --cache-dir <tmp>``
subprocess.  The client walks a seeded list of distinct *cold* requests
-- per block of 20: ten ``/v1/schedule`` and five ``/v1/simulate`` named
workloads (five solvers, ``n`` in 40-400, 64 or 256 cores) and five
generated fork-join DSL programs (8-48 branches, seeded ``work``,
``options.scheduler`` cycling paper / moldable / amtha) -- and after
every cold request sends 30 repeats of requests it has already
completed (90 % among its last 32, 10 % anywhere in its history).

This is the only workload where ``repro.serve`` (validation, triple
graph build, digests, executor hop, render, cache write/read, HTTP) does
most of the work.  Reads and writes of one cache alternate, so a
hit-path gain that costs the cold path (or the reverse) shows.

The timed run keeps one request in flight, and client, server and pool
workers on one processor, on purpose: the three take turns like the
single caller of the other workloads.  With two connections the mix
needed both processors of a 2-processor guest, and its run-to-run
spread on a busy shared host was twice that of the other workloads
(see ``ServeMix._use_cpus``).  What a second connection does to the
first -- cold work on one stalls hits on the other -- is measured in
the traced run (``serve.hit_p50_ms`` / ``serve.hit_p99_ms``), where a
second connection walks its own list for a while on two processors.

Every block has the same composition (all solvers, both core counts,
every ``n`` stratum), so a run that covers only a prefix of the list --
runs are bounded by time -- still sees the same mix whatever the seed.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import http.client
import itertools
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import check
from harness import (
    RESULTS, ROOT, SRC, Tracer, Workload, lower_quartile, median, percentile, proc_tree,
    proc_tree_hwm_mb, set_cpus,
)

CLIENTS = min(2, os.cpu_count() or 1)  #: connections of the contended phase
REPEATS_PER_COLD = 30
RECENT_WINDOW = 32
BLOCKS = 150  #: blocks of 20 cold requests a client can draw; a round sends about 9
PINNED = 200  #: per client, the leading requests whose facts expected.json pins
SOLVERS = ("irk", "diirk", "epol", "pab", "pabm")
CORE_COUNTS = (64, 256)
SCHEDULERS = ("paper", "moldable", "amtha")
KINDS = ("schedule", "simulate", "dsl")


# ----------------------------------------------------------------------
# request generation
# ----------------------------------------------------------------------
def fork_join_dsl(branches: int) -> str:
    """A prep -> ``branches`` parallel tasks -> join program."""
    outs = [f"x{i}" for i in range(branches)]
    lines = ["task prep(a : vector : out : replic);"]
    lines += [
        f"task b{i}(a : vector : in : replic, {x} : vector : out : replic);"
        for i, x in enumerate(outs)
    ]
    join_params = ", ".join(f"{x} : vector : in : replic" for x in outs)
    lines.append(f"task join({join_params}, d : vector : out : replic);")
    lines.append("cmmain MAIN(d : vector : out : replic) {")
    lines.append(f"  var a, {', '.join(outs)} : vector;")
    lines.append("  seq {")
    lines.append("    prep(a);")
    lines.append("    par { " + " ".join(f"b{i}(a, {x});" for i, x in enumerate(outs)) + " }")
    lines.append(f"    join({', '.join(outs)}, d);")
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _stratum(lo: int, hi: int, strata: int, index: int, rng: random.Random, client: int) -> int:
    """A value from stratum ``index`` of ``[lo, hi)``; its residue modulo
    the client count is the client, so two clients never send the same
    named request."""
    width = (hi - lo) // strata
    return lo + index * width + rng.randrange(0, width - CLIENTS + 1, CLIENTS) + client


def _named(endpoint: str, solver: str, n: int, cores: int) -> Dict[str, Any]:
    return {
        "kind": endpoint,
        "endpoint": endpoint,
        "payload": {
            "workload": {"solver": solver, "n": n},
            "topology": {"platform": "chic", "cores": cores},
        },
    }


def cold_requests(seed: int, client: int, quick: bool) -> Iterator[Dict[str, Any]]:
    """The client's distinct requests, block-balanced, generated as the
    client walks on.  The supply is finite but far beyond what a round
    reaches (the ``n`` values of a stratum run out after 180 blocks)."""
    rng = random.Random(seed * 1000 + client)
    n_hi = 120 if quick else 400
    offset = rng.randrange(10)
    named = set()
    index = 0

    def fresh(endpoint: str, solver: str, cores: int, strata: int, stratum: int) -> Dict[str, Any]:
        """A named request not drawn before (a repeat would be a hit)."""
        while True:
            n = _stratum(40, n_hi, strata, stratum, rng, client)
            if (endpoint, solver, n, cores) not in named:
                named.add((endpoint, solver, n, cores))
                return _named(endpoint, solver, n, cores)

    for block in range(30 if quick else BLOCKS):
        entries: List[Dict[str, Any]] = []
        for si, solver in enumerate(SOLVERS):
            # Every ten blocks each (solver, cores) pair visits each of the
            # ten n-strata once, and every (solver, stratum) pair of the
            # simulate requests sees each core count once: each block
            # spans all strata.
            for ci, cores in enumerate(CORE_COUNTS):
                entries.append(fresh("schedule", solver, cores, 10, (si * 2 + ci + block + offset) % 10))
            cores = CORE_COUNTS[(si + block // 5) % 2]
            entries.append(fresh("simulate", solver, cores, 5, (si + block + offset) % 5))
        for j in range(5):
            # seeded float work makes every program distinct
            branches = 8 + 8 * j + rng.randrange(8)
            names = ["prep", "join"] + [f"b{i}" for i in range(branches)]
            entries.append(
                {
                    "kind": "dsl",
                    "endpoint": "schedule",
                    "payload": {
                        "program": {
                            "dsl": fork_join_dsl(branches),
                            "sizes": {"vector": 4096},
                            "work": {k: round(rng.uniform(1e5, 1e7), 3) for k in names},
                        },
                        "topology": {"platform": "chic", "cores": CORE_COUNTS[(j + block) % 2]},
                        "options": {"scheduler": SCHEDULERS[(block * 5 + j) % 3]},
                    },
                }
            )
        rng.shuffle(entries)
        for entry in entries:
            entry["number"] = index
            entry["index"] = f"c{client}.r{index:03d}"
            entry["path"] = f"/v1/{entry['endpoint']}"
            entry["body"] = json.dumps(entry["payload"]).encode()
            index += 1
            yield entry


def warmup_requests() -> List[Tuple[str, bytes]]:
    """Small requests outside every client's list, of every kind."""
    out = []
    for endpoint in ("schedule", "simulate"):
        for solver, n in (("irk", 24), ("epol", 26), ("pab", 28), ("diirk", 30)):
            payload = {"workload": {"solver": solver, "n": n}, "topology": {"cores": 16}}
            out.append((f"/v1/{endpoint}", json.dumps(payload).encode()))
    for k, scheduler in enumerate(SCHEDULERS + ("gsearch",)):
        payload = {
            "program": {"dsl": fork_join_dsl(3 + k), "sizes": {"vector": 64}, "work": {"*": 1e4}},
            "topology": {"cores": 16},
            "options": {"scheduler": scheduler},
        }
        out.append(("/v1/schedule", json.dumps(payload).encode()))
    return out


# ----------------------------------------------------------------------
# client and server plumbing
# ----------------------------------------------------------------------
class Client:
    """One keep-alive connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def post(self, path: str, body: bytes) -> Tuple[int, Optional[str], bytes, float]:
        t0 = time.perf_counter()
        self.conn.request("POST", path, body=body, headers={"Content-Type": "application/json"})
        resp = self.conn.getresponse()
        data = resp.read()
        seconds = time.perf_counter() - t0
        return resp.status, resp.getheader("X-Cache"), data, seconds

    def get(self, path: str) -> Tuple[int, bytes]:
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        return resp.status, resp.read()

    def close(self) -> None:
        self.conn.close()


class Server:
    """The server subprocess (own session, so that its pool workers can be
    signalled as one group and die with it)."""

    def __init__(self, workdir: str) -> None:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve", "--port", "0",
                "--workers", str(CLIENTS), "--cache-dir", os.path.join(workdir, "cache"),
            ],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, start_new_session=True,
        )
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            self._await_health()
        except BaseException:
            self.stop()
            raise

    def _await_health(self) -> None:
        deadline = time.time() + 30
        while True:
            try:
                client = Client(self.port)
                try:
                    status, _ = client.get("/healthz")
                finally:
                    client.close()
                if status == 200:
                    return
            except OSError:
                pass
            if time.time() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.02)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGINT)
                self.proc.wait(timeout=5)
            except (ProcessLookupError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # stragglers of the pool
        except ProcessLookupError:
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


@contextmanager
def timed_method(cls, method: str, tracer: Tracer, span: str, layer: str):
    """Open a span around every call of ``cls.method`` while the block
    runs.  The patch lives in the benchmark; the program is restored
    untouched on exit."""
    original = getattr(cls, method)

    def wrapper(self, *args, **kwargs):
        with tracer.span(span, layer):
            return original(self, *args, **kwargs)

    setattr(cls, method, wrapper)
    try:
        yield
    finally:
        setattr(cls, method, original)


def _prom_total(text: bytes, family: str) -> float:
    """Sum of all samples of one counter family in a Prometheus text page."""
    total = 0.0
    for line in text.decode().splitlines():
        if line.startswith(family) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


# ----------------------------------------------------------------------
class ServeMix(Workload):
    name = "serve-mix"
    facts_are_fixed = False  # a round covers a prefix of the request lists

    def setup(self, seed: int, quick: bool) -> None:
        self.seed, self.quick = seed, quick
        self.requests = [cold_requests(seed, c, quick) for c in range(CLIENTS)]
        self.expected = check.expected_facts(self.name, seed, quick)
        #: per client, the (request, sha256 of its cold body) pairs completed
        self.history: List[List[Tuple[Dict[str, Any], str]]] = [[] for _ in range(CLIENTS)]
        self.rngs = [random.Random(seed * 7919 + c) for c in range(CLIENTS)]  #: choice of repeats
        self.clients: List[Client] = []
        self.server: Optional[Server] = None
        self.cpus = sorted(os.sched_getaffinity(0))  #: the processors the benchmark may use
        RESULTS.mkdir(parents=True, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="serve-", dir=RESULTS)
        try:
            self.server = Server(self.workdir)
            self.clients = [Client(self.server.port) for _ in range(CLIENTS)]
            self._warm_up()
            self._use_cpus(1)
        except BaseException:
            self.close()
            raise

    def _warm_up(self) -> None:
        """Concurrent cold requests, so that every pool worker has started
        and imported the solver stack before the first timed request."""
        pending = warmup_requests()
        while pending:
            batch, pending = pending[:CLIENTS], pending[CLIENTS:]
            threads = [
                threading.Thread(target=client.post, args=request)
                for client, request in zip(self.clients, batch)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

    def _use_cpus(self, count: int) -> None:
        """Keep this process, the server and its pool workers on ``count``
        of the processors the benchmark may use.

        With one request in flight client, server thread and pool worker
        take turns.  Spread over two processors, every hand-over wakes a
        sleeping one, and on a busy shared host that wake-up waits for
        the host's scheduler: across a noisy spell the range of ten runs
        was 28-30 % of the median against 13-18 % on one processor (and
        12-13 % for a single-process workload in the same minutes)."""
        set_cpus([os.getpid()] + proc_tree(self.server.proc.pid), self.cpus[-count:])

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.workdir, ignore_errors=True)

    def sizes(self) -> Dict[str, Any]:
        return {
            "clients": 1,
            "contended_phase_clients": CLIENTS,
            "server_workers": CLIENTS,
            "repeats_per_cold": REPEATS_PER_COLD,
            "recent_window": RECENT_WINDOW,
            "pinned_requests_per_client": PINNED,
        }

    def pinned_facts(self, seed: int) -> Dict[str, Any]:
        """Pinned response fields of every generated request, computed
        in process (no socket, no cache)."""
        from repro.serve import api

        facts: Dict[str, Any] = {}
        for client in range(CLIENTS):
            for entry in itertools.islice(cold_requests(seed, client, quick=False), PINNED):
                request = api.validate_request(entry["endpoint"], dict(entry["payload"]))
                request.pop("tenant")
                body = api.compute_response(request)["body"]
                facts.update(check.response_facts(entry["index"], entry["endpoint"], body))
        return facts

    # ------------------------------------------------------------------
    def _client_loop(self, index: int, deadline: float, at_least: int, out: Dict[int, Any]) -> None:
        """Walk on down the client's list until the deadline (or its end),
        but for ``at_least`` cold requests however long that takes."""
        client = self.clients[index]
        history = self.history[index]
        rng = self.rngs[index]
        cold_ms: Dict[str, List[float]] = {}
        block_s: Dict[str, List[float]] = {}
        hit_ms: List[float] = []
        kind_ms: Dict[str, List[float]] = {k: [] for k in KINDS}
        for entry in self.requests[index]:
            block_start = time.perf_counter()
            status, x_cache, data, seconds = client.post(entry["path"], entry["body"])
            sha = hashlib.sha256(data).hexdigest()
            problems = check.check_response(status, x_cache, "miss", sha, None)
            if status == 200:
                body = json.loads(data)
                problems += check.check_response_fields(entry["endpoint"], body)
                if not problems:
                    facts = check.response_facts(entry["index"], entry["endpoint"], body)
                    if entry["number"] < PINNED:
                        problems += check.compare_facts(facts, self.expected)
                    self.facts.update(facts)  # keys are per client: no race
                history.append((entry, sha))
            self.record(entry["index"], problems)
            cold_ms[entry["index"]] = [seconds * 1e3]
            kind_ms[entry["kind"]].append(seconds * 1e3)
            for _ in range(REPEATS_PER_COLD if history else 0):
                if rng.random() < 0.9:
                    recent = min(RECENT_WINDOW, len(history))
                    again, cold_sha = history[-1 - rng.randrange(recent)]
                else:
                    again, cold_sha = history[rng.randrange(len(history))]
                status, x_cache, data, seconds = client.post(again["path"], again["body"])
                sha = hashlib.sha256(data).hexdigest()
                self.record(
                    f"{again['index']} repeat",
                    check.check_response(status, x_cache, "hit", sha, cold_sha),
                )
                hit_ms.append(seconds * 1e3)
            block_s[entry["index"]] = [time.perf_counter() - block_start]
            if time.perf_counter() >= deadline and len(cold_ms) >= at_least:
                break
        out[index] = {"cold": cold_ms, "hit": hit_ms, "block": block_s, **kind_ms}

    def _mix(self, seconds: float, clients: int, at_least: int = 0) -> Dict[str, Any]:
        """Run the first ``clients`` connections for ``seconds`` (and at
        least so many cold requests), each in its own thread; returns the
        pooled samples: cold latencies and block times keyed by request,
        the rest as lists."""
        per_client: Dict[int, Any] = {}
        errors: List[BaseException] = []

        def guarded(index: int, deadline: float) -> None:
            try:
                self._client_loop(index, deadline, at_least, per_client)
            except BaseException as exc:  # re-raised below, after the join
                errors.append(exc)

        gc.collect()
        deadline = time.perf_counter() + seconds
        threads = [
            threading.Thread(target=guarded, args=(i, deadline)) for i in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        pooled: Dict[str, Any] = {"cold": {}, "block": {}}
        for samples in per_client.values():
            for key, values in samples.items():
                if isinstance(values, dict):
                    pooled[key].update(values)
                else:
                    pooled.setdefault(key, []).extend(values)
        return pooled

    def measure(self, seconds: float) -> Dict[str, Any]:
        first_op = time.time()
        pooled = self._mix(seconds, 1, at_least=20)
        # Whole blocks of 20 only: every block has the same composition, a
        # trailing part of one does not.
        sent = list(pooled["cold"])
        whole = sent[: len(sent) // 20 * 20]
        return {
            **self.tally(),
            # one case per distinct request: the rounds send the same list,
            # so run.py pools the repeats of each request across rounds
            "samples_ms": {k: pooled["cold"][k] for k in whole},
            "report_ms": {k: pooled[k] for k in ("hit",) + KINDS},
            "sweep_seconds": {k: pooled["block"][k] for k in whole},
            "ops_per_sweep": 1 + REPEATS_PER_COLD,
            "callers": 1,
            "first_op_time": first_op,
            "peak_rss_mb": proc_tree_hwm_mb(self.server.proc.pid),
        }

    # ------------------------------------------------------------------
    # traced run
    # ------------------------------------------------------------------
    def trace(self, seconds: float, tracer: Tracer) -> Dict[str, Any]:
        # the mix as the timed run sends it, then with a second connection
        # walking its own list beside the first
        pooled = self._mix(seconds * 0.3, 1, at_least=20)
        pooled["cold"] = [ms for values in pooled["cold"].values() for ms in values]
        self._use_cpus(CLIENTS)
        contended = self._mix(seconds * 0.2, CLIENTS)
        _status, stats_body = self.clients[0].get("/v1/stats")
        _status, prom = self.clients[0].get("/metrics")
        stats = json.loads(stats_body)
        self.close()  # the staged phase below is in process

        staged = self._staged(seconds * 0.4, tracer)

        def stage(name: str) -> float:
            samples = tracer.durations_ms(name)
            return lower_quartile(samples) if samples else 0.0

        cold_p25 = lower_quartile(pooled["cold"])
        attributed = sum(
            stage(f"serve.api.{s}") for s in ("validate", "digest", "compute", "render")
        ) + stage("serve.cache.put")
        metrics = {
            "case.schedule.p25_ms": lower_quartile(pooled["schedule"]),
            "case.simulate.p25_ms": lower_quartile(pooled["simulate"]),
            "case.dsl.p25_ms": lower_quartile(pooled["dsl"]),
            "serve.cold_p50_ms": median(pooled["cold"]),
            "serve.cold_p90_ms": percentile(pooled["cold"], 90),
            "serve.hit_p50_ms": median(contended["hit"]),
            "serve.hit_p99_ms": percentile(contended["hit"], 99),
            "serve.idle_hit_p50_ms": median(pooled["hit"]),
            "serve.idle_hit_p99_ms": percentile(pooled["hit"], 99),
            "serve.api.validate_ms": stage("serve.api.validate"),
            "serve.api.digest_ms": stage("serve.api.digest"),
            "serve.api.compute_ms": stage("serve.api.compute"),
            "serve.api.render_ms": stage("serve.api.render"),
            "serve.pipeline_run_ms": stage("pipeline.run"),
            "serve.cache.put_ms": stage("serve.cache.put"),
            "serve.cache.get_mem_ms": stage("serve.cache.get_mem"),
            "serve.cache.get_disk_ms": stage("serve.cache.get_disk"),
            "serve.handle_hit_ms": stage("serve.handle_hit"),
            "serve.response_bytes": median(staged["response_bytes"]),
            "serve.cache_hit_rate": float(stats["cache"]["hit_rate"]),
            "serve.coalesced_total": _prom_total(prom, "serve_coalesced_total"),
            "serve.rejected_total": _prom_total(prom, "serve_rejected_total"),
            "trace.overhead_share": staged["overhead_share"],
            "trace.spans": float(len(tracer.spans)),
        }
        metrics["serve.http_overhead_ms"] = (
            metrics["serve.idle_hit_p50_ms"] - metrics["serve.handle_hit_ms"]
        )
        metrics["serve.cold_unattributed_ms"] = cold_p25 - attributed
        metrics["serve.cold_over_pipeline"] = cold_p25 / metrics["serve.pipeline_run_ms"]
        return {
            "per_layer": metrics,
            "cases": {
                "socket": {
                    "cold_requests": len(pooled["cold"]),
                    "hit_requests": len(pooled["hit"]),
                    "contended_cold_requests": len(contended["cold"]),
                    "contended_hit_requests": len(contended["hit"]),
                },
                "staged": {"requests": staged["requests"], "attributed_ms": attributed},
            },
            "sweeps": len(pooled["block"]) + len(contended["block"]),
            **self.tally(),
        }

    def _staged(self, seconds: float, tracer: Tracer) -> Dict[str, Any]:
        """One request at a time through the service's public functions."""
        from repro.pipeline import SchedulingPipeline
        from repro.serve import ScheduleCache, ScheduleService, api

        workdir = tempfile.mkdtemp(prefix="staged-", dir=RESULTS)
        service = ScheduleService(cache_dir=os.path.join(workdir, "svc"), workers=0)
        loop = asyncio.new_event_loop()
        cache = ScheduleCache(os.path.join(workdir, "cache"))
        untraced_ms, traced_ms, sizes = [], [], []
        deadline = time.perf_counter() + seconds
        done = 0
        try:
            for entry in cold_requests(self.seed, 0, self.quick):
                plain = api.validate_request(entry["endpoint"], json.loads(entry["body"]))
                plain.pop("tenant")
                gc.collect()
                t0 = time.perf_counter()
                reference = api.compute_response(plain)
                untraced_ms.append((time.perf_counter() - t0) * 1e3)
                gc.collect()
                tracer.begin_op(entry["kind"])
                with tracer.span("op", "perfbench"):
                    with tracer.span("serve.api.validate", "serve.api"):
                        request = api.validate_request(entry["endpoint"], json.loads(entry["body"]))
                    request.pop("tenant")
                    with tracer.span("serve.api.digest", "serve.api"):
                        digests = api.request_digests(request)
                    with tracer.span("serve.api.compute", "serve.api") as compute:
                        with timed_method(SchedulingPipeline, "run", tracer, "pipeline.run", "pipeline"):
                            envelope = api.compute_response(request)
                    traced_ms.append((compute["end"] - compute["start"]) * 1e3)
                    with tracer.span("serve.api.render", "serve.api"):
                        body = api.render_body(envelope["body"])
                    key = api.cache_key(entry["endpoint"], digests)
                    with tracer.span("serve.cache.put", "serve.cache"):
                        cache.put(key, body)
                    with tracer.span("serve.cache.get_mem", "serve.cache"):
                        from_memory = cache.get(key)
                    with tracer.span("serve.cache.get_disk", "serve.cache"):
                        from_disk = ScheduleCache(cache.root).get(key)
                    service.cache.put(key, body)
                    # the first pass fills the service's digest memo; the
                    # second is the pure hit path a repeat request takes
                    loop.run_until_complete(service.handle("POST", entry["path"], entry["body"]))
                    with tracer.span("serve.handle_hit", "serve.service"):
                        answer = loop.run_until_complete(
                            service.handle("POST", entry["path"], entry["body"])
                        )
                problems = []
                if body != api.render_body(reference["body"]):
                    problems.append("staged body bytes differ from the one-call body")
                if not (from_memory == from_disk == answer.body == body):
                    problems.append("cache tiers / service hit do not return the stored bytes")
                if answer.headers.get("X-Cache") != "hit":
                    problems.append(f"in-process repeat was {answer.headers.get('X-Cache')!r}")
                self.record(f"{entry['index']} staged", problems)
                sizes.append(float(len(body)))
                done += 1
                if time.perf_counter() >= deadline or (self.quick and done >= 6):
                    break
        finally:
            service.close()
            loop.close()
            shutil.rmtree(workdir, ignore_errors=True)
        return {
            "requests": done,
            "response_bytes": sizes,
            "overhead_share": (
                lower_quartile(traced_ms) - lower_quartile(untraced_ms)
            ) / lower_quartile(untraced_ms),
        }
