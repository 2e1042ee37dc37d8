"""Request validation, canonicalization and the solver-side computation.

This module is the *pure* half of the scheduling service: everything in
it is a deterministic function of the request dict, so the asyncio layer
can offload :func:`compute_response` to a worker process (requests and
responses are plain JSON-serialisable dicts, nothing closes over sockets
or event loops) and cache the rendered bytes content-addressed.

A request names a workload in one of two interchange formats:

* ``"workload"`` -- one of the five paper solvers by name
  (``{"solver": "irk", "n": 120}``), the request the run commands of
  ``python -m repro.obs`` map their flags onto;
* ``"program"`` -- a CM-task DSL program (:mod:`repro.spec`), shipped as
  source text plus compile-time ``sizes`` and per-task ``work`` cost
  annotations, parsed and built server-side.  Malformed programs become
  structured 4xx errors, never tracebacks.

plus a ``"topology"`` (platform name and core count) and canonical
``"options"``.  :func:`canonical_options` normalizes the options dict --
defaults are elided and keys sorted -- so two requests that differ only
in spelling (key order, explicit defaults) share one cache entry.

A request's front end runs once: :func:`compile_request` builds the task
graph and digests it into a :class:`CompiledProgram`, the one artefact
the cache key, :func:`request_digests` and :func:`compute_response` all
read.  The service compiles on a server thread and ships the unit to the
worker with the request; called with a request alone,
:func:`compute_response` compiles for itself through the same function.
:func:`run_pipeline` is the one modelled run of a compiled request: the
service renders its response from it, the CLI traces and reports it.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.graph import TaskGraph
from ..ode.programs import PAPER_CONFIGS
from ..recovery.checkpoint import json_digest

__all__ = [
    "RequestError",
    "ENDPOINTS",
    "OPTION_DEFAULTS",
    "PLATFORMS",
    "canonical_options",
    "validate_request",
    "CompiledProgram",
    "compile_request",
    "request_digests",
    "cache_key",
    "compute_response",
    "run_pipeline",
    "request_view",
    "render_body",
]

#: the service's POST endpoints (under ``/v1/``)
ENDPOINTS = ("schedule", "simulate", "run")

#: platform names ``repro.cluster.platforms.by_name`` accepts
PLATFORMS = ("chic", "juropa", "sgi_altix")

#: option name -> default value; a request option equal to its default
#: is elided from the canonical form (and therefore from the cache key)
OPTION_DEFAULTS: Dict[str, Any] = {
    "mapping": "consecutive",
    "version": "tp",
    "groups": None,
    "scheduler": "paper",
}

#: scheduler overrides accepted for DSL program requests: ``"paper"``
#: and keys of :data:`repro.scheduling.SCHEDULERS`
PROGRAM_SCHEDULERS = ("paper", "gsearch", "amtha", "moldable")

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: request body ceiling enforced by the HTTP layer (DSL sources included)
MAX_BODY_BYTES = 1 << 20

#: problem-size ceiling: a schedule request is CPU-bound work, the cap
#: keeps one tenant from wedging a worker for minutes
MAX_PROBLEM_N = 2000
MAX_CORES = 4096
MAX_DSL_BYTES = 256 * 1024


class RequestError(Exception):
    """A structured, client-visible request failure.

    Carries the HTTP ``status`` and a machine-readable ``code`` next to
    the human message; the HTTP layer renders it as
    ``{"error": {"code": ..., "message": ...}}`` -- clients never see a
    traceback.
    """

    def __init__(
        self, status: int, code: str, message: str, detail: Optional[Any] = None
    ) -> None:
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.message = str(message)
        self.detail = detail

    def to_dict(self) -> Dict[str, Any]:
        """The JSON error envelope the HTTP layer sends back."""
        error: Dict[str, Any] = {"code": self.code, "message": self.message}
        if self.detail is not None:
            error["detail"] = self.detail
        return {"error": error}


def _bad(message: str, code: str = "invalid_request", detail: Any = None):
    return RequestError(400, code, message, detail)


# ----------------------------------------------------------------------
# validation / canonicalization
# ----------------------------------------------------------------------
def _require_mapping(value: Any, what: str) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise _bad(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _check_int(value: Any, what: str, lo: int, hi: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{what} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise _bad(f"{what} must be in [{lo}, {hi}], got {value}")
    return value


def canonical_options(options: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Normalize an options dict into its canonical, digestable form.

    Unknown keys are rejected; values are validated; entries equal to
    their default (:data:`OPTION_DEFAULTS`) are elided and the rest is
    key-sorted, so the canonical form -- and therefore the options
    digest of the cache key -- is insensitive to key order and to
    spelling defaults out explicitly.
    """
    options = dict(_require_mapping(options or {}, "options"))
    unknown = sorted(set(options) - set(OPTION_DEFAULTS))
    if unknown:
        raise _bad(
            f"unknown option(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(sorted(OPTION_DEFAULTS))}",
            code="unknown_option",
        )
    out: Dict[str, Any] = {}
    mapping = options.get("mapping", OPTION_DEFAULTS["mapping"])
    if mapping not in ("consecutive", "scattered"):
        raise _bad(f"options.mapping must be 'consecutive' or 'scattered', got {mapping!r}")
    version = options.get("version", OPTION_DEFAULTS["version"])
    if version not in ("tp", "dp"):
        raise _bad(f"options.version must be 'tp' or 'dp', got {version!r}")
    groups = options.get("groups", OPTION_DEFAULTS["groups"])
    if groups is not None:
        groups = _check_int(groups, "options.groups", 1, MAX_CORES)
    scheduler = options.get("scheduler", OPTION_DEFAULTS["scheduler"])
    if scheduler not in PROGRAM_SCHEDULERS:
        raise _bad(
            f"options.scheduler must be one of {', '.join(PROGRAM_SCHEDULERS)}, "
            f"got {scheduler!r}"
        )
    for key, value in (
        ("mapping", mapping),
        ("version", version),
        ("groups", groups),
        ("scheduler", scheduler),
    ):
        if value != OPTION_DEFAULTS[key]:
            out[key] = value
    return dict(sorted(out.items()))


def _validate_topology(topology: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    topology = dict(_require_mapping(topology or {}, "topology"))
    unknown = sorted(set(topology) - {"platform", "cores"})
    if unknown:
        raise _bad(
            f"unknown topology key(s) {', '.join(map(repr, unknown))}; "
            "accepted: cores, platform",
            code="unknown_option",
        )
    platform = topology.get("platform", "chic")
    if platform not in PLATFORMS:
        raise _bad(
            f"topology.platform must be one of {', '.join(PLATFORMS)}, "
            f"got {platform!r}",
            code="unknown_platform",
        )
    cores = _check_int(topology.get("cores", 64), "topology.cores", 1, MAX_CORES)
    return {"cores": cores, "platform": platform}


def _validate_workload(workload: Mapping[str, Any]) -> Dict[str, Any]:
    workload = dict(_require_mapping(workload, "workload"))
    unknown = sorted(set(workload) - {"solver", "n"})
    if unknown:
        raise _bad(
            f"unknown workload key(s) {', '.join(map(repr, unknown))}; "
            "accepted: n, solver",
            code="unknown_option",
        )
    solver = workload.get("solver")
    if solver not in PAPER_CONFIGS:
        raise _bad(
            f"workload.solver must be one of {', '.join(sorted(PAPER_CONFIGS))}, "
            f"got {solver!r}",
            code="unknown_solver",
        )
    n = _check_int(workload.get("n", 120), "workload.n", 2, MAX_PROBLEM_N)
    return {"n": n, "solver": solver}


def _validate_program(program: Mapping[str, Any]) -> Dict[str, Any]:
    program = dict(_require_mapping(program, "program"))
    unknown = sorted(set(program) - {"dsl", "sizes", "work", "main", "loop"})
    if unknown:
        raise _bad(
            f"unknown program key(s) {', '.join(map(repr, unknown))}; "
            "accepted: dsl, loop, main, sizes, work",
            code="unknown_option",
        )
    dsl = program.get("dsl")
    if not isinstance(dsl, str) or not dsl.strip():
        raise _bad("program.dsl must be a non-empty CM-task DSL string")
    if len(dsl.encode()) > MAX_DSL_BYTES:
        raise RequestError(
            413, "payload_too_large",
            f"program.dsl exceeds {MAX_DSL_BYTES} bytes",
        )
    sizes = dict(_require_mapping(program.get("sizes", {}), "program.sizes"))
    for name, value in sizes.items():
        _check_int(value, f"program.sizes[{name!r}]", 1, 10**9)
    work = dict(_require_mapping(program.get("work", {}), "program.work"))
    for name, value in work.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _bad(f"program.work[{name!r}] must be a number, got {value!r}")
        if not math.isfinite(value) or value < 0:
            raise _bad(f"program.work[{name!r}] must be finite and >= 0")
    out: Dict[str, Any] = {
        "dsl": dsl,
        "sizes": dict(sorted(sizes.items())),
        "work": {k: float(v) for k, v in sorted(work.items())},
    }
    for key in ("main", "loop"):
        value = program.get(key)
        if value is not None:
            if not isinstance(value, str):
                raise _bad(f"program.{key} must be a string, got {value!r}")
            out[key] = value
    return out


def validate_request(endpoint: str, payload: Any) -> Dict[str, Any]:
    """Validate one request body; returns the canonical request dict.

    The canonical dict has key-sorted sections (``workload``/``program``,
    ``topology``, ``options``) with defaults applied or elided, so its
    canonical JSON is a deterministic identity of the request.  Raises
    :class:`RequestError` (a structured 4xx) on every malformed input.
    """
    if endpoint not in ENDPOINTS:
        raise RequestError(404, "not_found", f"unknown endpoint {endpoint!r}")
    payload = _require_mapping(payload, "request body")
    unknown = sorted(set(payload) - {"workload", "program", "topology", "options", "tenant"})
    if unknown:
        raise _bad(
            f"unknown request key(s) {', '.join(map(repr, unknown))}; "
            "accepted: options, program, tenant, topology, workload",
            code="unknown_option",
        )
    has_workload = "workload" in payload
    has_program = "program" in payload
    if has_workload == has_program:
        raise _bad(
            "exactly one of 'workload' (named paper solver) or 'program' "
            "(CM-task DSL) must be given"
        )
    tenant = payload.get("tenant", "anonymous")
    if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
        raise _bad(
            "tenant must match [A-Za-z0-9._-]{1,64}", code="invalid_tenant"
        )
    options = canonical_options(payload.get("options"))
    request: Dict[str, Any] = {
        "endpoint": endpoint,
        "tenant": tenant,
        "topology": _validate_topology(payload.get("topology")),
        "options": options,
    }
    if has_workload:
        request["workload"] = _validate_workload(payload["workload"])
        if options.get("scheduler", "paper") != "paper":
            raise _bad(
                "options.scheduler overrides apply to DSL 'program' requests; "
                "named workloads use the paper's scheduler (options.version "
                "picks the task- or data-parallel variant)"
            )
    else:
        request["program"] = _validate_program(payload["program"])
        for key in ("version", "groups"):
            if key in options:
                raise _bad(
                    f"options.{key} applies to named 'workload' requests, "
                    "not DSL programs (pick options.scheduler instead)"
                )
        if endpoint == "run":
            raise _bad(
                "the run endpoint executes functional task bodies, which a "
                "DSL program does not carry; use /v1/schedule or /v1/simulate",
                code="not_runnable",
            )
    return request


# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------
def _program_graph(request: Dict[str, Any]):
    """Build the M-task graph a request describes (workload or DSL)."""
    if "workload" in request:
        from ..ode import bruss2d, step_graph

        wl = request["workload"]
        return step_graph(bruss2d(wl["n"]), PAPER_CONFIGS[wl["solver"]])

    from ..spec import GraphBuilder, LexError, ParseError, TaskCost

    prog = request["program"]
    work = prog.get("work", {})
    default_work = float(work.get("*", 0.0))

    def cost_for(value: float) -> TaskCost:
        return TaskCost(work=lambda env, sizes, _w=value: _w)

    try:
        builder = GraphBuilder(prog["dsl"], prog.get("sizes", {}), prog.get("main"))
    except (LexError, ParseError) as exc:
        raise RequestError(400, "parse_error", f"program.dsl does not parse: {exc}")
    except (KeyError, ValueError, TypeError) as exc:
        raise RequestError(400, "build_error", f"program.dsl does not build: {exc}")
    declared = set(builder.template.tasks)
    unknown_work = sorted(set(work) - declared - {"*"})
    if unknown_work:
        raise _bad(
            f"program.work names undeclared task(s) "
            f"{', '.join(map(repr, unknown_work))}; declared: "
            f"{', '.join(sorted(declared)) or 'none'}",
            code="unknown_task",
        )
    build = builder.build(
        {name: cost_for(float(work.get(name, default_work))) for name in declared}
    )
    composed = build.composed_nodes()
    loop = prog.get("loop")
    if loop is not None:
        match = [t for t in composed if t.name == loop]
        if not match:
            raise _bad(
                f"program.loop {loop!r} names no composed (while-loop) node; "
                f"have: {', '.join(sorted(t.name for t in composed)) or 'none'}",
                code="unknown_loop",
            )
        return build.body_of(match[0])
    if len(composed) == 1:
        # the canonical shape: schedule the body of the single
        # time-stepping loop, exactly like the paper workloads
        return build.body_of(composed[0])
    if composed:
        raise _bad(
            f"program has {len(composed)} while-loop nodes; pick one with "
            f"program.loop (one of "
            f"{', '.join(sorted(t.name for t in composed))})",
            code="ambiguous_loop",
        )
    return build.graph


def _scheduler_for(request: Dict[str, Any], cost):
    """Instantiate the scheduler a canonical request selects."""
    options = request["options"]
    if "workload" in request:
        from ..experiments.common import paper_scheduler

        return paper_scheduler(
            PAPER_CONFIGS[request["workload"]["solver"]],
            cost,
            options.get("version", "tp"),
            options.get("groups"),
        )
    from ..scheduling import SCHEDULERS

    name = options.get("scheduler", "paper")
    # "paper" stays the service's alias of "gsearch": canonical options
    # and cache keys spell it
    return SCHEDULERS["gsearch" if name == "paper" else name](cost)


# ----------------------------------------------------------------------
# the compiled unit and its content-addressed identity
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompiledProgram:
    """What compiling one request yields: its graph and its identity.

    Immutable and picklable (named workloads and DSL programs alike:
    their tasks carry no function bodies), so the service builds it on a
    server thread, derives the cache key from it and sends it to the
    pool worker, which neither rebuilds nor re-digests the graph.
    """

    graph: TaskGraph
    #: :func:`repro.obs.registry.program_digest` of ``graph``
    program_digest: str
    topology_digest: str
    options_digest: str
    #: number of tasks in ``graph``
    tasks: int

    @property
    def digests(self) -> Dict[str, str]:
        """The ``(program, topology, options)`` digest triple."""
        return {
            "program": self.program_digest,
            "topology": self.topology_digest,
            "options": self.options_digest,
        }


def _platform(request: Dict[str, Any]):
    """The platform prefix a request's topology names; a core count the
    platform cannot allocate (not whole nodes, more than it has) is the
    client's error, a structured 400 like every other bad field."""
    from ..cluster.platforms import by_name

    topology = request["topology"]
    try:
        return by_name(topology["platform"]).with_cores(topology["cores"])
    except ValueError as exc:
        raise _bad(f"topology: {exc}", code="invalid_topology") from None


def compile_request(request: Dict[str, Any]) -> CompiledProgram:
    """Compile one validated request: the only graph build and digest.

    The program digest hashes the *built* task graph's
    scheduling-relevant shape (:func:`repro.obs.registry.program_digest`),
    so two DSL spellings of the same graph -- or a workload and its
    equivalent DSL -- share cache entries; topology and options reuse
    the :func:`repro.recovery.json_digest` canonical-JSON hashing.
    Raises :class:`RequestError` for a topology the platform cannot
    allocate or a DSL program that does not parse or build.
    """
    from ..obs.registry import program_digest, topology_digest

    platform = _platform(request)
    graph = _program_graph(request)
    return CompiledProgram(
        graph=graph,
        program_digest=program_digest(graph),
        topology_digest=topology_digest(platform),
        options_digest=json_digest(request["options"]),
        tasks=len(graph),
    )


def request_digests(request: Dict[str, Any]) -> Dict[str, str]:
    """The ``(program, topology, options)`` digest triple of a request."""
    return compile_request(request).digests


def request_view(request: Dict[str, Any]) -> Dict[str, Any]:
    """The sections of a canonical request that describe its run: the
    ``request`` of a response body and the ``spec`` of a run export."""
    return {
        k: request[k]
        for k in ("workload", "program", "topology", "options")
        if k in request
    }


def cache_key(endpoint: str, digests: Mapping[str, str]) -> str:
    """Content-addressed cache key of one request."""
    return json_digest(
        {
            "endpoint": endpoint,
            "program": digests["program"],
            "topology": digests["topology"],
            "options": digests["options"],
            "schema": "repro.serve.key/1",
        }
    )


# ----------------------------------------------------------------------
# response rendering
# ----------------------------------------------------------------------
def _finite(value: Any) -> Any:
    """Replace non-finite floats with ``None`` (strict-JSON safe)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def render_body(payload: Dict[str, Any]) -> bytes:
    """Canonical response bytes: sorted keys, no whitespace, UTF-8.

    Responses are rendered once and cached as bytes, so a cache hit is
    *byte-identical* to the cold response by construction -- the golden
    property ``tests/test_serve.py`` asserts per solver.
    """
    import json

    return (
        json.dumps(
            _finite(payload), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        ).encode()
        + b"\n"
    )


def _schedule_payload(result) -> Dict[str, Any]:
    """JSON view of a scheduling artefact (layered or timeline)."""
    scheduling = result.scheduling
    out: Dict[str, Any] = {"kind": scheduling.kind}
    if scheduling.layered is not None:
        layers: List[Dict[str, Any]] = []
        for layer in scheduling.layered.layers:
            groups = [
                {
                    "width": int(size),
                    "tasks": [
                        m.name for t in group for m in scheduling.expand_task(t)
                    ],
                }
                for group, size in zip(layer.groups, layer.group_sizes)
            ]
            layers.append({"groups": groups})
        out["layers"] = layers
    if scheduling.timeline is not None:
        out["timeline"] = [
            {
                "task": e.task.name,
                "start": float(e.start),
                "finish": float(e.finish),
                "width": len(e.cores),
            }
            for e in sorted(
                scheduling.timeline.entries, key=lambda e: (e.start, e.task.name)
            )
        ]
    return out


def compute_response(
    request: Dict[str, Any], compiled: Optional[CompiledProgram] = None
) -> Dict[str, Any]:
    """Execute one validated request; runs inside a pool worker.

    ``compiled`` is the request's :func:`compile_request` unit when the
    caller already has it (the service does); without it the request is
    compiled here, through the same function.

    Returns an envelope ``{"body": ..., "record": ..., "seconds": ...,
    "tasks": ...}``: ``body`` is the deterministic response payload (what
    gets rendered, cached and served), ``record`` a
    :class:`~repro.obs.RunRecord` dict (timestamp zero; the service
    stamps and appends it), ``seconds`` the solver wall-clock for the
    per-tenant accounting and ``tasks`` the scheduled task count.
    Compute-side failures (e.g. an unschedulable graph) come back as
    ``{"error": {...}, "status": ...}`` envelopes instead of raising, so
    a worker process never dies on a bad request.
    """
    t0 = time.perf_counter()
    try:
        if compiled is None:
            compiled = compile_request(request)
        if request["endpoint"] == "run":
            body, tasks = _compute_run(request, compiled)
            record = None
        else:
            body, tasks, record = _compute_pipeline(request, compiled)
    except RequestError as exc:
        return {"error": exc.to_dict()["error"], "status": exc.status}
    except Exception as exc:  # structured 422, never a traceback
        return {
            "error": {
                "code": "unschedulable",
                "message": f"{type(exc).__name__}: {exc}",
            },
            "status": 422,
        }
    return {
        "body": body,
        "record": record,
        "seconds": time.perf_counter() - t0,
        "tasks": tasks,
    }


def run_pipeline(
    request: Dict[str, Any],
    compiled: CompiledProgram,
    options=None,
    obs=None,
    backend: str = "serve",
):
    """Run the scheduling pipeline of a schedule/simulate request.

    The one modelled run of a request, whatever its front door: the
    service renders a response body from it, ``python -m repro.obs``
    traces, reports and records it.  ``options`` are the
    :class:`~repro.sim.executor.SimulationOptions` of the simulation
    stage (fault injection, speculation; the service sends none), ``obs``
    an :class:`~repro.obs.Instrumentation` to record into and
    ``backend`` the record's label.  Returns the
    :class:`~repro.pipeline.PipelineResult` and its
    :class:`~repro.obs.RunRecord` (timestamp zero; its program digest is
    the compiled unit's, not a second hash of the graph), whose ``spec`` is
    ``{endpoint, options, platform}`` plus ``solver`` and ``n`` of a
    named workload and the fault plan or speculation policy when enabled
    (a disabled one runs, and is recorded, as none).
    """
    from ..core.costmodel import CostModel
    from ..mapping.strategies import strategy_by_name
    from ..obs.registry import record_from_result
    from ..pipeline import SchedulingPipeline
    from ..sim.executor import SimulationOptions

    endpoint = request["endpoint"]
    cost = CostModel(_platform(request))
    pipe = SchedulingPipeline(
        _scheduler_for(request, cost),
        strategy=strategy_by_name(request["options"].get("mapping", "consecutive")),
        options=options or SimulationOptions(),
        simulate=endpoint == "simulate",
    )
    result = pipe.run(compiled.graph, obs)
    spec: Dict[str, Any] = {
        "endpoint": endpoint,
        "options": dict(request["options"]),
        "platform": request["topology"]["platform"],
    }
    if "workload" in request:
        spec["solver"] = request["workload"]["solver"]
        spec["n"] = request["workload"]["n"]
    # an enabled fault plan or speculation policy, as the pipeline ran it
    spec.update((k, result.meta[k]) for k in ("faults", "speculation") if k in result.meta)
    record = record_from_result(
        result,
        spec=spec,
        timestamp=0.0,
        backend=backend,
        program=compiled.program_digest,
    )
    return result, record


def _compute_pipeline(
    request: Dict[str, Any], compiled: CompiledProgram
) -> Tuple[Dict[str, Any], int, Dict[str, Any]]:
    """Render the response body of a schedule/simulate request."""
    endpoint = request["endpoint"]
    result, record = run_pipeline(request, compiled)
    digests = compiled.digests
    body: Dict[str, Any] = {
        "schema": f"repro.serve.{endpoint}/1",
        "key": cache_key(endpoint, digests),
        "digests": digests,
        "request": request_view(request),
        "scheduler": result.scheduling.scheduler,
        "cores": int(result.scheduling.nprocs),
        "tasks": compiled.tasks,
        "predicted_makespan": float(result.predicted_makespan),
        "schedule": _schedule_payload(result),
    }
    if endpoint == "simulate":
        body["makespan"] = float(result.makespan)
        # the run's one analysis, as the record carries it
        body["metrics"] = record.metrics
        body["analysis"] = record.analysis
    return body, compiled.tasks, record.to_dict()


def _compute_run(
    request: Dict[str, Any], compiled: CompiledProgram
) -> Tuple[Dict[str, Any], int]:
    """Execute one functional solver step for a run request.

    :func:`repro.ode.run_functional_step` without a journal -- the
    computation of every ``--checkpoint-dir`` run: the step body executes
    for real on numpy arrays.  The response carries the content digests
    of every output array -- deterministic, so run responses cache like
    schedules do.
    """
    from ..ode import bruss2d, run_functional_step
    from ..recovery import array_digest

    wl = request["workload"]
    run, _, _ = run_functional_step(bruss2d(wl["n"]), PAPER_CONFIGS[wl["solver"]])
    digests = compiled.digests
    body = {
        "schema": "repro.serve.run/1",
        "key": cache_key("run", digests),
        "digests": digests,
        "request": request_view(request),
        "tasks": int(run.stats.tasks_executed),
        "tasks_executed": int(run.stats.tasks_executed),
        "retries": int(run.stats.retries),
        # a task that gives up fails the run, so a served run never
        # degraded and its failure records are all "recovered"
        "degraded": False,
        "failures": len(run.failures),
        "variables": {
            name: array_digest(arr)
            for name, arr in sorted(run.variables.items())
        },
    }
    return body, int(run.stats.tasks_executed)
