"""The asyncio multi-tenant scheduling service.

:class:`ScheduleService` is the event-loop half of ``repro.serve``: it
validates requests (:mod:`repro.serve.api`), answers cache hits from the
content-addressed :class:`~repro.serve.cache.ScheduleCache` without
touching a worker, and offloads cold g-search computations to a bounded
process pool.  A cold request is compiled once
(:func:`repro.serve.api.compile_request`, on a server thread): the cache
key is read off the compiled unit and the unit travels to the worker
with the request.  One bounded LRU of ``KEY_MEMO_ENTRIES`` request keys
keeps the hit path from compiling: a repeat request goes from its
canonical JSON straight to the cache key.  Nothing is remembered across
distinct requests -- the unit lives for one request.  Three
service-level guarantees live here:

* **backpressure** -- at most ``max_queue`` cold requests are admitted
  at once, compiling or computing; past that the service answers
  ``429`` with a ``Retry-After`` hint instead of queueing unboundedly;
* **single-flight** -- concurrent identical requests (same canonical
  request, tenant aside) share one future from admission to response:
  the first compiles and computes, the rest await its body or its
  error and are accounted as coalesced hits; if it never finishes
  (cancelled, or the pool broke) they look again and one of them
  leads;
* **per-tenant accounting** -- requests, cache hits/misses, scheduled
  tasks and cumulative solver seconds per tenant, surfaced through the
  :class:`~repro.obs.MetricsRegistry` Prometheus exposition at
  ``GET /metrics``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from ..obs.registry import MetricsRegistry, RunRecord, RunRegistry
from . import api
from .cache import LRU, ScheduleCache

__all__ = ["Response", "ScheduleService"]

#: request keys remembered (sha256 of the canonical request -> cache
#: key, two hex digests an entry): a repeat among the last so many
#: distinct requests is answered without compiling anything
KEY_MEMO_ENTRIES = 4096

#: seconds a ``429 over_capacity`` answer asks the client to wait
#: (its ``Retry-After`` header)
RETRY_AFTER_SECONDS = 1.0


@dataclass
class Response:
    """One HTTP-shaped service answer (status, JSON body, headers)."""

    status: int
    body: bytes
    headers: Dict[str, str] = field(default_factory=dict)


def _json_response(status: int, payload: Dict[str, Any], **headers: str) -> Response:
    return Response(status, api.render_body(payload), dict(headers))


def _error(status: int, code: str, message: str, **headers: str) -> Response:
    return _json_response(
        status, {"error": {"code": code, "message": message}}, **headers
    )


class ScheduleService:
    """Validates, caches, coalesces and computes scheduling requests.

    All accounting lands in ``self.registry``, the service's own
    :class:`~repro.obs.MetricsRegistry`, rendered at ``GET /metrics``.

    Parameters
    ----------
    cache_dir:
        Directory of the persistent response cache (``None``: in-memory
        only).
    workers:
        Worker processes for cold computations.  ``0`` uses a small
        thread pool instead -- handy for tests and for platforms
        without ``fork``.
    max_queue:
        Cold requests admitted concurrently (compiling, queued or
        running) before the service answers ``429 over_capacity``.
    registry_dir:
        When given, every computed (non-cached) schedule/simulate
        response appends its :class:`~repro.obs.RunRecord` to the
        persistent run registry under this directory.
    """

    def __init__(
        self,
        cache_dir: Optional[object] = None,
        workers: int = 2,
        max_queue: int = 16,
        registry_dir: Optional[object] = None,
    ) -> None:
        self.cache = ScheduleCache(cache_dir)
        self.workers = int(workers)
        self.max_queue = int(max_queue)
        self.registry = MetricsRegistry()
        self.run_registry = (
            RunRegistry(registry_dir) if registry_dir is not None else None
        )
        self._executor: Optional[Executor] = None
        self._inflight: Dict[str, asyncio.Future] = {}
        self._jobs = 0
        self._keys = LRU(KEY_MEMO_ENTRIES)
        self.started = time.time()

    # ------------------------------------------------------------------
    def _pool(self) -> Executor:
        if self._executor is None:
            if self.workers <= 0:
                self._executor = ThreadPoolExecutor(
                    max_workers=2, thread_name_prefix="serve"
                )
            else:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------
    def _count_request(self, tenant: str, endpoint: str, status: int) -> None:
        self.registry.counter(
            "serve_requests_total",
            help="requests answered, by tenant/endpoint/status",
            tenant=tenant, endpoint=endpoint, status=status,
        ).inc()

    def _gauges(self) -> None:
        self.registry.gauge(
            "serve_queue_depth", help="cold requests admitted: compiling or computing"
        ).set(float(self._jobs))
        self.registry.gauge(
            "serve_cache_entries", help="entries in the schedule cache"
        ).set(float(len(self.cache)))

    def stats(self) -> Dict[str, Any]:
        """Flat service statistics (the ``GET /v1/stats`` payload)."""
        return {
            "schema": "repro.serve.stats/1",
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "entries": len(self.cache),
                "hit_rate": self.cache.hit_rate,
                "persistent": self.cache.root is not None,
            },
            "inflight": self._jobs,
            "max_queue": self.max_queue,
            "workers": self.workers,
            "uptime_seconds": time.time() - self.started,
        }

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def handle(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Mapping[str, str]] = None,
    ) -> Response:
        """Dispatch one request; always returns a JSON :class:`Response`."""
        headers = {k.lower(): v for k, v in (headers or {}).items()}
        if path == "/healthz":
            if method != "GET":
                return _error(405, "method_not_allowed", "healthz is GET-only")
            return _json_response(200, {"status": "ok"})
        if path == "/metrics":
            if method != "GET":
                return _error(405, "method_not_allowed", "metrics is GET-only")
            self._gauges()
            return Response(
                200,
                self.registry.render_prometheus().encode(),
                {"Content-Type": "text/plain; version=0.0.4"},
            )
        if path == "/v1/stats":
            if method != "GET":
                return _error(405, "method_not_allowed", "stats is GET-only")
            return _json_response(200, self.stats())
        if path.startswith("/v1/"):
            endpoint = path[len("/v1/"):]
            if endpoint in api.ENDPOINTS:
                if method != "POST":
                    return _error(
                        405, "method_not_allowed", f"{path} is POST-only"
                    )
                return await self._handle_endpoint(endpoint, body, headers)
        return _error(404, "not_found", f"no route for {method} {path}")

    async def _handle_endpoint(
        self, endpoint: str, body: bytes, headers: Mapping[str, str]
    ) -> Response:
        tenant = "anonymous"
        try:
            if len(body) > api.MAX_BODY_BYTES:
                raise api.RequestError(
                    413, "payload_too_large",
                    f"request body exceeds {api.MAX_BODY_BYTES} bytes",
                )
            try:
                payload = json.loads(body.decode() or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise api.RequestError(
                    400, "invalid_json", f"request body is not JSON: {exc}"
                )
            if (
                isinstance(payload, dict)
                and "tenant" not in payload
                and "x-tenant" in headers
            ):
                payload["tenant"] = headers["x-tenant"]
            request = api.validate_request(endpoint, payload)
            tenant = request["tenant"]
            response = await self._schedule_or_serve(request)
        except api.RequestError as exc:
            self._count_request(tenant, endpoint, exc.status)
            if exc.status == 429:
                self.registry.counter(
                    "serve_rejected_total",
                    help="requests rejected before computing",
                    tenant=tenant, reason="backpressure",
                ).inc()
                return _json_response(
                    429, exc.to_dict(),
                    **{"Retry-After": f"{RETRY_AFTER_SECONDS:g}"},
                )
            return _json_response(exc.status, exc.to_dict())
        self._count_request(tenant, endpoint, response.status)
        return response

    async def _schedule_or_serve(self, request: Dict[str, Any]) -> Response:
        endpoint, tenant = request["endpoint"], request["tenant"]
        stripped = self._strip_tenant(request)
        canonical = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
        memo_key = hashlib.sha256(canonical.encode()).hexdigest()
        t0 = time.perf_counter()

        while True:
            key = self._keys.get(memo_key)
            cached = None if key is None else self.cache.get(key)
            if cached is not None:
                return self._served(tenant, endpoint, t0, cached, key, "hit")
            pending = self._inflight.get(memo_key)
            if pending is None:
                break
            # an identical request is compiling or computing: take its
            # answer or its error; ``None`` says it never finished, so
            # look again (and lead, if nobody else does)
            outcome = await asyncio.shield(pending)
            if outcome is not None:
                body, key = outcome
                return self._served(tenant, endpoint, t0, body, key, "coalesced")

        if self._jobs >= self.max_queue:
            raise api.RequestError(
                429, "over_capacity",
                f"{self._jobs} cold requests in flight (cap {self.max_queue}); "
                "retry shortly",
            )

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[memo_key] = future
        self._jobs += 1
        try:
            #: the request's compiled unit, when this call compiled it; a
            #: request whose key was remembered but whose response is gone
            #: leaves the compiling to the worker
            compiled = None
            if key is None:
                compiled = await loop.run_in_executor(
                    None, api.compile_request, stripped
                )
                key = api.cache_key(endpoint, compiled.digests)
                self._keys.put(memo_key, key)
                cached = self.cache.get(key)
                if cached is not None:  # another spelling, or a forgotten key
                    future.set_result((cached, key))
                    return self._served(tenant, endpoint, t0, cached, key, "hit")
            self._count_cache(tenant, endpoint, hit=False)
            pool = self._pool()
            envelope = await loop.run_in_executor(
                pool, api.compute_response, stripped, compiled
            )
            if "error" in envelope:
                raise api.RequestError(
                    int(envelope.get("status", 422)),
                    envelope["error"].get("code", "unschedulable"),
                    envelope["error"].get("message", "computation failed"),
                )
            body = api.render_body(envelope["body"])
            self.cache.put(key, body)
            self._account_compute(tenant, envelope)
            future.set_result((body, key))
        except api.RequestError as exc:
            future.set_exception(exc)
            future.exception()  # consumed: avoid the never-retrieved warning
            raise
        except Exception as exc:  # the pool or the server failed, not the request
            if isinstance(exc, BrokenExecutor) and self._executor is pool:
                # a dead worker poisons the whole pool (only a submit to
                # ``pool`` raises this): drop it, so the next cold
                # request starts a fresh one
                pool.shutdown(wait=False)
                self._executor = None
            raise api.RequestError(
                500, "internal", f"{type(exc).__name__}: {exc}"
            ) from exc
        finally:
            self._jobs -= 1
            del self._inflight[memo_key]
            if not future.done():
                future.set_result(None)  # never finished: waiters look again
        self._observe_latency(tenant, endpoint, time.perf_counter() - t0)
        return Response(200, body, {"X-Cache": "miss", "X-Cache-Key": key})

    def _served(
        self, tenant: str, endpoint: str, t0: float, body: bytes, key: str,
        source: str,
    ) -> Response:
        """A ``hit`` or ``coalesced`` answer, accounted."""
        self._count_cache(tenant, endpoint, hit=True, coalesced=source == "coalesced")
        self._observe_latency(tenant, endpoint, time.perf_counter() - t0)
        return Response(200, body, {"X-Cache": source, "X-Cache-Key": key})

    @staticmethod
    def _strip_tenant(request: Dict[str, Any]) -> Dict[str, Any]:
        """The request without its tenant: what workers and digests see.

        Tenancy is an accounting dimension, not a scheduling input --
        two tenants asking for the same schedule share one cache entry
        and one solver invocation.
        """
        return {k: v for k, v in request.items() if k != "tenant"}

    # ------------------------------------------------------------------
    def _count_cache(
        self, tenant: str, endpoint: str, hit: bool, coalesced: bool = False
    ) -> None:
        name = "serve_cache_hits_total" if hit else "serve_cache_misses_total"
        self.registry.counter(
            name,
            help="schedule-cache lookups, by tenant/endpoint",
            tenant=tenant, endpoint=endpoint,
        ).inc()
        if coalesced:
            self.registry.counter(
                "serve_coalesced_total",
                help="requests answered by an in-flight identical computation",
                tenant=tenant, endpoint=endpoint,
            ).inc()

    def _observe_latency(self, tenant: str, endpoint: str, seconds: float) -> None:
        self.registry.histogram(
            "serve_request_seconds",
            help="request latency (validation to response)",
            tenant=tenant, endpoint=endpoint,
        ).observe(seconds)

    def _account_compute(self, tenant: str, envelope: Dict[str, Any]) -> None:
        self.registry.histogram(
            "serve_solver_seconds",
            help="solver wall-clock per computed request",
            tenant=tenant,
        ).observe(float(envelope.get("seconds", 0.0)))
        self.registry.counter(
            "serve_scheduled_tasks_total",
            help="tasks scheduled on behalf of each tenant",
            tenant=tenant,
        ).inc(float(envelope.get("tasks", 0)))
        record = envelope.get("record")
        if record is not None and self.run_registry is not None:
            stamped = RunRecord.from_dict(record)
            stamped.timestamp = time.time()
            self.run_registry.append(stamped)
