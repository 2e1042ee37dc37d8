"""Which functions under ``src/repro`` does no user entry point enter?

Run ``python scripts/reach.py`` from the repository root.  It runs every
entry point in :data:`ENTRIES` -- the examples, the three CLIs, a live
server, the chaos scripts, an external cluster worker and the
benchmark -- with a call tracer installed in every process the run
starts, then prints one row per function defined under ``src/repro``
that none of them entered, with its physical and code lines
(``scripts/code_lines.py`` rules), followed by the totals.

Exit status 1 when an unreached function is missing from :data:`KEEP`,
or when a :data:`KEEP` entry was reached or names no function; 0
otherwise.  Uses only the standard library (and the repository's own
dependencies, in the traced processes).

**The tracer.** Each traced thread runs two hooks, and a function counts
as entered when either saw it.  ``cProfile`` is a C-level profile hook:
an exception raised by a signal handler, such as the
``KeyboardInterrupt`` a SIGTERM becomes in ``repro.serve``, cannot unset
it the way it unsets a profile hook written in Python, which runs after
every C call, where pending signals are handled.  But it reports only
calls it saw return, and in the shutdown of an asyncio server its call
stack loses step, so an enclosing function's return goes uncounted.  A
trace hook written in Python notes each call as it starts; Python
handles a pending signal before it calls a trace hook, and the hook
makes no call of its own, so a signal can unset it only by arriving
within the hook.  ``threading`` hands each new thread both; a forked
child keeps its parent's; a ``python`` subprocess starts them from the
``sitecustomize`` module on its ``PYTHONPATH``. Each process writes the
functions it entered to a directory at exit, ``os._exit`` included.  A
process killed by a signal writes nothing, so what only such a process
runs reads as unreached.
"""
from __future__ import annotations

import ast
import atexit
import cProfile
import gc
import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT_ENV = "REACH_OUT"  #: directory a traced process writes its record to
ROOT_ENV = "REACH_ROOT"  #: only functions under this directory are recorded

_INTERFACE = "interface: every {} overrides it"
_TRANSPORT = (
    "interface: DriverBackend is written against it; the pool and cluster "
    "transports implement it"
)
_WITH = (
    "interface: `with backend:` for a caller that owns one; run_program opens "
    "and closes its own"
)
_JOURNAL = "safety: releases the journal's file; every entry leaves that to process exit"
_BACKUP = (
    "speculation: runs only when a backup launches on this backend, when an attempt of a "
    "functional step outlasts the threshold; no entry's step has such a straggler, "
    "tests/test_speculation.py and tests/test_backends.py make one"
)

#: why no entry point enters a function and it stays, by ``module:qualname``
KEEP: Dict[str, str] = {
    "repro.recovery.journal:RunJournal.close": _JOURNAL,
    "repro.recovery.journal:RunJournal.__enter__": _JOURNAL,
    "repro.recovery.journal:RunJournal.__exit__": _JOURNAL,
    "repro.runtime.backends.attempts:crash_result": (
        "safety: a task body that raises in a pool or cluster worker with no retry "
        "policy (tests/test_backends.py::TestWorkerCrash)"
    ),
    "repro.runtime.backends.base:ExecutionBackend.open": _INTERFACE.format("backend"),
    "repro.runtime.backends.base:ExecutionBackend.run_batch": _INTERFACE.format("backend"),
    "repro.runtime.backends.base:ExecutionBackend.close": _INTERFACE.format("backend"),
    "repro.runtime.backends.base:ExecutionBackend.__enter__": _WITH,
    "repro.runtime.backends.base:ExecutionBackend.__exit__": _WITH,
    "repro.runtime.backends.cluster:_Coordinator._check_stranded": (
        "safety: every cluster worker lost while jobs are unresolved "
        "(tests/test_cluster.py::TestElasticMembership)"
    ),
    **{f"repro.runtime.backends.driver:Transport.{name}": _TRANSPORT
       for name in ("start", "submit", "submit_backup", "poll", "idle", "stop")},
    "repro.runtime.backends.pool:ProcessPoolBackend.submit_backup": _BACKUP,
    "repro.runtime.backends.serial:SerialBackend._race": _BACKUP,
    "repro.scheduling.base:Scheduler._plan": _INTERFACE.format("scheduler"),
}


# ----------------------------------------------------------------------
# the tracer (runs inside every traced process)
# ----------------------------------------------------------------------
_profilers: List[cProfile.Profile] = []
_entered: Dict[Tuple[str, int], None] = {}  #: ``(path, first line)`` seen by the trace hook
_os_exit = os._exit


def install() -> None:
    """Trace this process, its new threads and its forked children."""
    threading.setprofile(_thread_started)
    threading.settrace(_trace)
    sys.settrace(_trace)
    _profile()
    os._exit = _exit
    atexit.register(dump)


def _trace(frame, event, arg) -> None:
    # a global trace hook sees "call" events only and returns no local
    # one; it calls nothing, so no signal handler runs inside it
    code = frame.f_code
    _entered[code.co_filename, code.co_firstlineno] = None


def _profile() -> None:
    profiler = cProfile.Profile()
    _profilers.append(profiler)
    profiler.enable()


def _thread_started(frame, event, arg) -> None:
    # threading's profile hook sees a new thread's first event only: it
    # swaps itself for a C-level profiler of the thread's own
    _trace(frame, event, arg)
    _profile()


def _exit(code: int) -> None:
    try:
        dump()
    finally:
        _os_exit(code)


def dump() -> None:
    """Write ``[path, first line]`` of every function entered so far."""
    out, root = os.environ.get(OUT_ENV), os.environ.get(ROOT_ENV)
    if not out or not root:
        return
    # a profiler's table must not change while it is read: no Python
    # code may run meanwhile, so no profiled call and no GIL switch
    sys.setprofile(None)
    sys.settrace(None)
    gc.disable()
    codes = set()
    for profiler in list(_profilers):
        codes.update(entry.code for entry in profiler.getstats())
    gc.enable()
    keys = set(_entered) | {
        (code.co_filename, code.co_firstlineno)
        for code in codes if isinstance(code, types.CodeType)
    }
    keys = sorted(key for key in keys if key[0].startswith(root))
    path = Path(out) / f"{os.getpid()}-{time.monotonic_ns()}.json"
    path.write_text(json.dumps(keys))


def reached(out: Path) -> Set[Tuple[str, int]]:
    """Union of every record written to ``out``."""
    keys: Set[Tuple[str, int]] = set()
    for path in out.glob("*.json"):
        keys.update((p, line) for p, line in json.loads(path.read_text()))
    return keys


SITECUSTOMIZE = """\
import importlib.util, os
if os.environ.get({env!r}):
    _spec = importlib.util.spec_from_file_location("_reach", {path!r})
    _reach = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_reach)
    _reach.install()
"""


def traced_env(site: Path, out: Path, root: Path, *paths: Path) -> Dict[str, str]:
    """Environment of a traced ``python``: ``site`` gets the bootstrap
    module, ``paths`` follow it on ``PYTHONPATH``."""
    (site / "sitecustomize.py").write_text(
        SITECUSTOMIZE.format(env=OUT_ENV, path=str(Path(__file__).resolve()))
    )
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(str(p) for p in (site, *paths)),
        **{OUT_ENV: str(out), ROOT_ENV: str(root)},
    )


# ----------------------------------------------------------------------
# the functions defined under a package
# ----------------------------------------------------------------------
class Func(NamedTuple):
    """One ``def`` under the traced package."""

    key: str  #: ``module:qualname``
    path: str
    first: int  #: first line (the first decorator's), as code objects count
    last: int
    code: int  #: code lines, ``scripts/code_lines.py`` rules


def defined(package: Path) -> List[Func]:
    """Every function and method defined in ``package``'s modules."""
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from code_lines import code_line_numbers

    funcs = []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        code = code_line_numbers(path)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    lines = range(first, child.end_lineno + 1)
                    funcs.append(Func(
                        f"{module}:{prefix}{child.name}", str(path), first,
                        child.end_lineno, len(code.intersection(lines)),
                    ))
                    walk(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_bytes()), "")
    return funcs


def problems(unreached: Iterable[str], known: Iterable[str], keep: Dict[str, str]) -> List[str]:
    """What makes the table fail: unexplained, reached or stale entries."""
    unreached, known = set(unreached), set(known)
    out = [f"unreached and not in KEEP: {k}" for k in sorted(unreached - set(keep))]
    for key in sorted(keep):
        if key not in known:
            out.append(f"KEEP names no function: {key}")
        elif key not in unreached:
            out.append(f"KEEP entry is reached: {key}")
    return out


# ----------------------------------------------------------------------
# the entry points
# ----------------------------------------------------------------------
PY = sys.executable
SOLVERS = ("irk", "diirk", "epol", "pab", "pabm")
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def obs(*args: str) -> List[str]:
    return [PY, "-m", "repro.obs", *args]


def experiments(*args: str) -> List[str]:
    return [PY, "-m", "repro.experiments", *args]


def journaled(backend: str) -> List[List[str]]:
    """A journaled step on ``backend``, then its resume."""
    run = obs("export", "--solver", "irk", "--cores", "16", "--quick", "-o", "trace.json",
              "--checkpoint-dir", f"ckpt-{backend}", "--backend", backend)
    return [run, run + ["--resume"]]


DSL = """
task prep(a : vector : out : replic);
task left(a : vector : in : replic, b : vector : out : replic);
task right(a : vector : in : replic, c : vector : out : replic);
task join(b : vector : in : replic, c : vector : in : replic,
          d : vector : out : replic);
cmmain MAIN(d : vector : out : replic) {
  var a, b, c : vector;
  seq { prep(a); par { left(a, b); right(a, c); } join(b, c, d); }
}
"""

#: bodies that must answer 4xx, each with its endpoint
BAD_REQUESTS = [
    ("schedule", b"not json"),
    ("schedule", b"[1, 2]"),
    ("schedule", {"workload": {"solver": "rk4"}}),
    ("schedule", {"workload": {"solver": "irk", "n": 10**6}}),
    ("schedule", {"workload": {"solver": "irk"}, "options": {"colour": 1}}),
    ("schedule", {"workload": {"solver": "irk"}, "options": {"scheduler": "amtha"}}),
    ("schedule", {"workload": {"solver": "irk"}, "topology": {"platform": "moon"}}),
    ("schedule", {"workload": {"solver": "irk"}, "tenant": "a b"}),
    ("schedule", {"workload": {"solver": "irk"}, "program": {"dsl": DSL}}),
    ("schedule", {"program": {"dsl": "task {"}}),
    ("schedule", {"program": {"dsl": "task @"}}),
    ("schedule", {"program": {"dsl": "task /* open"}}),
    ("schedule", {"program": {"dsl": DSL, "sizes": {"vector": 8}, "work": {"ghost": 1.0}}}),
    ("schedule", {"program": {"dsl": DSL}, "options": {"groups": 2}}),
    ("run", {"program": {"dsl": DSL, "sizes": {"vector": 8}}}),
    ("teleport", {"workload": {"solver": "irk"}}),
    ("schedule", b"x" * (2 << 20)),
]


def serve_session(env: Dict[str, str], work: Path) -> None:
    """A live two-worker server: every endpoint, solver, option set and
    program scheduler from two tenants, the 4xx cases, the scrapes and
    the stats, then a SIGTERM that must stop it."""
    proc = subprocess.Popen(
        [PY, "-m", "repro.serve", "--port", "0", "--workers", "2",
         "--cache-dir", "serve-cache", "--registry-dir", "serve-registry"],
        cwd=work, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"the server did not start: {line!r}")
        port = int(line.rsplit(":", 1)[1])

        def send(method: str, path: str, body=b"") -> int:
            if not isinstance(body, bytes):
                body = json.dumps(body).encode()
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
            try:
                conn.request(method, path, body)
                resp = conn.getresponse()
                resp.read()
                return resp.status
            finally:
                conn.close()

        def ok(method: str, path: str, body=b"") -> None:
            status = send(method, path, body)
            if status != 200:
                raise RuntimeError(f"{method} {path} {body!r:.80} answered {status}")

        for endpoint in ("schedule", "simulate", "run"):
            for solver in SOLVERS:
                for options in ({}, {"mapping": "scattered", "version": "dp"}, {"groups": 2}):
                    for tenant in ("alpha", "beta"):
                        ok("POST", f"/v1/{endpoint}", {
                            "workload": {"solver": solver, "n": 24},
                            "topology": {"cores": 16}, "options": options,
                            "tenant": tenant})
        for endpoint in ("schedule", "simulate"):
            for scheduler in ("paper", "gsearch", "amtha", "moldable"):
                ok("POST", f"/v1/{endpoint}", {
                    "program": {"dsl": DSL, "sizes": {"vector": 64}, "work": {"*": 2.0}},
                    "topology": {"cores": 8}, "options": {"scheduler": scheduler}})
        for endpoint, body in BAD_REQUESTS:
            status = send("POST", f"/v1/{endpoint}", body)
            if not 400 <= status < 500:
                raise RuntimeError(f"{endpoint} {body!r:.80} answered {status}, not 4xx")
        if not 400 <= send("GET", "/v1/schedule") < 500:
            raise RuntimeError("GET /v1/schedule did not answer 4xx")
        ok("GET", "/metrics")
        ok("GET", "/healthz")
        ok("GET", "/v1/stats")
        time.sleep(0.5)  # the SIGTERM finds the server idle, as in the CI drill
        proc.send_signal(signal.SIGTERM)
        if proc.wait(timeout=60) != 0:
            raise RuntimeError(f"the server exited {proc.returncode} on SIGTERM")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


#: importable bodies for the external cluster worker
CLUSTER_PROGRAM = """\
import time
from repro.core import AccessMode, DistributionSpec, MTask, Parameter, TaskGraph


def task(name, inp, out, func):
    replic = DistributionSpec("replic")
    params = tuple(Parameter(v, AccessMode.IN, 4, dist=replic) for v in inp)
    params += tuple(Parameter(v, AccessMode.OUT, 4, dist=replic) for v in out)
    return MTask(name, params=params, func=func)


def program():
    g = TaskGraph()
    src = g.add_task(task("src", ["x"], ["s"], lambda c, v: {"s": v["x"] + 1}))

    def body(i):
        def run(ctx, values):
            time.sleep(0.5 if i == 0 else 0.05)  # w0 outlasts a poll
            return {f"o{i}": values["s"] * (i + 2)}
        return run

    for i in range(8):
        g.connect(src, g.add_task(task(f"w{i}", ["s"], [f"o{i}"], body(i))))
    return g
"""

#: a cluster run that an external ``cluster_worker`` joins between batches
CLUSTER_DRIVER = """\
import subprocess, sys, time
import numpy as np
from repro.runtime import ClusterBackend, run_program
from reach_cluster_program import program


class Joined(ClusterBackend):
    external = None

    def run_batch(self, tasks, prepare, commit):
        if self.external is None:
            host, port = self.coordinator_address
            self.external = subprocess.Popen([
                sys.executable, "-m", "repro.runtime.backends.cluster_worker",
                f"{host}:{port}", "--worker-id", "7",
                "--program", "reach_cluster_program:program"])
            deadline = time.monotonic() + 60
            while self._coord.alive_count() < 2:
                assert time.monotonic() < deadline, "the external worker never joined"
                time.sleep(0.01)
        super().run_batch(tasks, prepare, commit)


backend = Joined(workers=1)
out = run_program(program(), {"x": np.ones(4)}, backend=backend)
assert backend.external.wait(timeout=30) == 0
assert out["o0"].tolist() == [4.0] * 4
"""


#: a pool run in which a poll for results times out
SLOW_POOL_STEP = """\
import numpy as np
from repro.runtime import ProcessPoolBackend, run_program
from reach_cluster_program import program

out = run_program(program(), {"x": np.ones(4)}, backend=ProcessPoolBackend(workers=2))
assert out["o7"].tolist() == [18.0] * 4
"""

#: a cluster run that loses a worker while it holds a task: worker 0
#: sleeps in every task and is killed once another worker's result is in
WORKER_LOST = """\
import numpy as np
from repro.runtime import ClusterBackend, run_program
from reach_cluster_program import program

backend = ClusterBackend(workers=2, worker_delay={0: 2.0}, chaos_kill=(0, 2))
out = run_program(program(), {"x": np.ones(4)}, backend=backend)
assert out["o7"].tolist() == [18.0] * 4
"""


#: an argv list (must exit 0), an ``(argv, exit status)`` pair, or a
#: callable ``(env, workdir)``
Step = object

#: independent chains of steps; the steps of one chain run in order in
#: one working directory
ENTRIES: Dict[str, List[Step]] = {
    **{f"example {p.name}": [[PY, str(p)]] for p in EXAMPLES},
    "experiments --quick": [experiments("--quick", "--out", "figures")],
    "experiments --shootout, diff": [
        experiments("--shootout", "--quick", "--shootout-out", "shootout.json"),
        obs("diff", "--threshold", "1.25", "--verbose",
            str(ROOT / "BENCH_shootout.json"), "shootout.json"),
    ],
    "experiments --faults": [experiments("--faults", "7:0.2:1:2", "--quick")],
    "experiments --speculate": [
        experiments("--quick", "--speculate", "1.5", "--straggler-faults", "7:0.5"),
    ],
    "obs run commands, history, trend, diff": [
        *[obs("export", "--solver", s, "--cores", "16", "--quick", "-o", f"{s}.json",
              "--run-json", f"{s}.run.json", "--registry-dir", "registry")
          for s in SOLVERS],
        obs("export", "--solver", "irk", "--cores", "16", "--quick", "-o", "irk.json",
            "--run-json", "irk2.run.json", "--registry-dir", "registry-irk"),
        obs("export", "--solver", "irk", "--cores", "16", "--quick", "-o", "irk.json",
            "--registry-dir", "registry-irk"),
        obs("export", "--cores", "64", "--quick", "--faults", "7:0.2:1:2",
            "--speculate", "1.5", "-o", "faults.json", "--run-json", "faults.run.json"),
        obs("report", "--run", "irk.run.json"),
        obs("report", "--cores", "16", "--quick", "--per-core", "--mapping", "scattered",
            "--version", "dp"),
        obs("gantt", "--cores", "16", "--quick", "--layers", "--by", "node"),
        obs("prom", "--cores", "16", "--quick", "-o", "metrics.prom"),
        obs("calib", "--cores", "64", "--quick", "--gate", "--max-bias", "1.0",
            "--max-mape", "1.0"),
        (obs("calib", "--cores", "64", "--quick", "--gate", "--max-bias", "0.05"), 1),
        (obs("export", "--quick", "--backend", "threads", "--checkpoint-dir", "bad"), 2),
        obs("calib", "--cores", "16", "--quick", "--checkpoint-dir", "calib-ckpt",
            "--backend", "pool:2"),
        obs("history", "--registry-dir", "registry"),
        obs("trend", "--registry-dir", "registry-irk"),
        obs("diff", "irk.run.json", "irk2.run.json"),
    ],
    **{f"obs journaled {b}": journaled(b) for b in ("serial", "pool:2", "cluster:2")},
    "serve": [serve_session],
    **{f"chaos_kill_resume {b}": [[
        PY, str(ROOT / "scripts" / "chaos_kill_resume.py"), "--workdir", "chaos",
        "--n", "40", "--crash-after", "5", "--backend", b]]
       for b in ("serial", "pool:2", "cluster:2")},
    "chaos_kill_worker": [[
        PY, str(ROOT / "scripts" / "chaos_kill_worker.py"), "--workdir", "kill",
        "--n", "40", "--kill-after", "2", "--crash-after", "5"]],
    "chaos_kill_worker --straggler": [[
        PY, str(ROOT / "scripts" / "chaos_kill_worker.py"), "--workdir", "straggler",
        "--n", "40", "--straggler", "0.4", "--trace-out", "straggler.json"]],
    "cluster_worker": [[PY, "-c", CLUSTER_DRIVER]],
    "cluster worker lost mid-task": [[PY, "-c", WORKER_LOST]],
    "pool step with a slow task": [[PY, "-c", SLOW_POOL_STEP]],
    "perfbench --all --quick --trace": [
        [PY, str(ROOT / "perfbench" / "run.py"), "--all", "--quick", "--trace"],
    ],
}
JOBS = 2  #: chains run at once


def run_chain(name: str, steps: List[Step], env: Dict[str, str], work: Path) -> Tuple[str, float]:
    work.mkdir(parents=True)
    t0 = time.monotonic()
    for step in steps:
        if callable(step):
            step(env, work)
            continue
        step, status = step if isinstance(step, tuple) else (step, 0)
        done = subprocess.run(step, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=1800)
        if done.returncode != status:
            raise RuntimeError(f"{name}: {' '.join(step)} exited {done.returncode}\n"
                               f"{done.stderr[-2000:]}")
    return name, time.monotonic() - t0


def main() -> int:
    package = ROOT / "src" / "repro"
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = Path(tmp)
        out, site = tmp / "out", tmp / "site"
        out.mkdir()
        site.mkdir()
        env = traced_env(site, out, package, ROOT / "src")
        (site / "reach_cluster_program.py").write_text(CLUSTER_PROGRAM)
        with ThreadPoolExecutor(JOBS) as pool:
            futures = [pool.submit(run_chain, name, steps, env, tmp / f"work{i}")
                       for i, (name, steps) in enumerate(ENTRIES.items())]
            for future in futures:
                name, seconds = future.result()
                print(f"{seconds:7.1f} s  {name}", file=sys.stderr, flush=True)
        keys = reached(out)

    funcs = defined(package)
    unreached = [f for f in funcs if (f.path, f.first) not in keys]
    print(f"{'phys':>5} {'code':>5}  function (not entered by any entry point)")
    for f in unreached:
        mark = " " if f.key in KEEP else "!"
        print(f"{f.last - f.first + 1:5d} {f.code:5d} {mark}{f.key}")
    lines = {(f.path, n) for f in unreached for n in range(f.first, f.last + 1)}
    print(f"{len(unreached)} of {len(funcs)} functions unreached, "
          f"{len(lines)} physical lines; {len(KEEP)} kept, "
          f"{sum(f.key not in KEEP for f in unreached)} to act on")
    found = problems((f.key for f in unreached), (f.key for f in funcs), KEEP)
    for problem in found:
        print(problem)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
