"""Scheduling-as-a-service: async multi-tenant HTTP server over the pipeline.

``repro.serve`` turns the one-shot :class:`~repro.pipeline.SchedulingPipeline`
into a long-lived service.  Clients POST JSON describing a workload (a
paper solver config or a DSL program), a topology and scheduling options
to ``/v1/schedule``, ``/v1/simulate`` or ``/v1/run``; CPU-bound g-search
runs in a bounded process pool; identical requests are answered from a
content-addressed cache keyed by ``(program digest, topology digest,
canonical options)`` with byte-identical responses; per-tenant traffic
is accounted through the :class:`~repro.obs.MetricsRegistry` and scraped
at ``/metrics``.

Layering, bottom to top:

- :mod:`repro.serve.api` -- pure request validation, canonicalization,
  the one compile step (``compile_request`` -> ``CompiledProgram``), the
  one pipeline run of a compiled request (``run_pipeline``, which
  ``python -m repro.obs`` runs its flags through too) and the picklable
  compute function (no asyncio, no sockets).
- :mod:`repro.serve.cache` -- two-tier (memory + disk) byte cache with
  atomic tmp-rename writes, and the bounded ``LRU`` behind every memo.
- :mod:`repro.serve.service` -- asyncio routing, backpressure,
  single-flight dedup and accounting.
- :mod:`repro.serve.http` -- the minimal HTTP/1.1 wire layer.

Run one with ``python -m repro.serve --port 8080 --workers 4``.
"""

from .api import (
    CompiledProgram,
    ENDPOINTS,
    OPTION_DEFAULTS,
    PLATFORMS,
    RequestError,
    cache_key,
    canonical_options,
    compile_request,
    compute_response,
    render_body,
    request_digests,
    validate_request,
)
from .cache import ScheduleCache
from .http import HttpServer
from .service import Response, ScheduleService

__all__ = [
    "CompiledProgram",
    "ENDPOINTS",
    "OPTION_DEFAULTS",
    "PLATFORMS",
    "RequestError",
    "HttpServer",
    "Response",
    "ScheduleCache",
    "ScheduleService",
    "cache_key",
    "canonical_options",
    "compile_request",
    "compute_response",
    "render_body",
    "request_digests",
    "validate_request",
]
