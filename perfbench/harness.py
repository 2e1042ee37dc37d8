"""Shared plumbing of the benchmark: statistics, spans, environment stamp.

Nothing here knows about a workload.  The workload modules
(``wl_*.py``) use :class:`Tracer` for the traced run, the percentile
helpers for their medians and :func:`timed_sweeps` for the measurement
loop; ``run.py`` uses :func:`env_stamp` for the result files.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"


def require_program() -> None:
    """Exit (non-zero, no result) when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under test at {SRC}/repro")


def use_source_tree() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    The benchmark measures the program in *this* checkout; a ``repro``
    importable from anywhere else (a pip install, a stray PYTHONPATH)
    would silently measure other code, so that is an error.
    """
    require_program()
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(
            f"perfbench: 'repro' resolved to {repro.__file__}, not to {SRC}"
        )


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def lower_quartile(samples: Sequence[float]) -> float:
    """The benchmark's estimate of what an operation costs: its 25th
    percentile over repeats.

    On a small shared VM interference from other tenants only ever *adds*
    time, in bursts that can cover most of a short run, so the median of
    identical repeats moves with the neighbours (a fifth between runs of
    the same code when this was chosen) while the lower quartile stays
    put as long as a quarter of the repeats ran undisturbed.  The minimum
    would be steadier still but rests on a single sample.
    """
    return percentile(samples, 25.0)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; every case weighs the same whatever its size."""
    if not values or any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {list(values)}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ----------------------------------------------------------------------
# what every workload shares
# ----------------------------------------------------------------------
class Workload:
    """Base of the workloads: the tally of verified operations.

    A subclass supplies ``setup(seed, quick)``, ``measure(seconds)``,
    ``trace(seconds, tracer)``, ``sizes()`` and ``pinned_facts(seed)``,
    keeps its deterministic facts in ``self.facts`` and reports every
    operation's check through :meth:`record`.
    """

    name = ""
    #: False when a time-bounded run observes only part of the fact set
    facts_are_fixed = True

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: List[str] = []
        self.facts: Dict[str, Any] = {}
        self._tally_lock = threading.Lock()  # serve-mix records from two threads

    def record(self, where: str, problems: Sequence[str]) -> None:
        """Count one operation; it failed if any check found a problem."""
        with self._tally_lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{where}: {p}" for p in problems]

    def forget_clean_setup(self) -> None:
        """Warm-up operations count only where they failed."""
        self.attempted = self.failed

    def tally(self) -> Dict[str, Any]:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems[:20],
            "facts": self.facts,
            "facts_are_fixed": self.facts_are_fixed,
            "sizes": self.sizes(),
        }

    def sizes(self) -> Dict[str, Any]:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever set-up started; must be safe to call twice."""


# ----------------------------------------------------------------------
# measurement loop
# ----------------------------------------------------------------------
def timed_sweeps(
    cases: Sequence[str],
    operation: Callable[[str], Any],
    seconds: float,
    verify: Callable[[str, Any], None],
) -> Dict[str, Any]:
    """Round-robin closed loop of one caller: whole sweeps until time is up.

    One sweep runs ``operation(case)`` once for every case.  ``gc.collect``
    runs before each operation, outside its timed region, so a collection
    triggered by one case's garbage is not billed to the next;
    ``verify(case, outcome)`` checks the operation's output, also outside
    the timed region.  Returns
    the per-case samples in ms and the per-sweep busy seconds (the sum of
    the sweep's operation times, collection pauses excluded).
    """
    samples: Dict[str, List[float]] = {c: [] for c in cases}
    sweep_seconds: List[float] = []
    first_op = time.time()
    deadline = time.perf_counter() + seconds
    while True:
        busy = 0.0
        for case in cases:
            gc.collect()
            t0 = time.perf_counter()
            outcome = operation(case)
            dt = time.perf_counter() - t0
            samples[case].append(dt * 1e3)
            busy += dt
            verify(case, outcome)
        sweep_seconds.append(busy)
        if time.perf_counter() >= deadline:
            break
    return {
        "samples_ms": samples,
        "sweep_seconds": {"sweep": sweep_seconds},
        "first_op_time": first_op,
    }


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder of the traced run.

    Spans are opened from the benchmark's own files around calls into
    the program's public functions -- the program itself is not
    touched.  Each span has a ``name``, the ``layer`` (module under
    ``src/repro``) it bills, ``start``/``end`` on ``perf_counter``, its
    ``parent`` span and the ``op`` id all spans of one operation share.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._op = 0
        self._case = ""

    def begin_op(self, case: str) -> None:
        self._op += 1
        self._case = case

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[Dict[str, Any]]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "op": self._op,
            "case": self._case,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, layer: str, seconds: float) -> None:
        """A span timed elsewhere (e.g. summed inside a cost proxy).

        It nests under the currently open span and is laid at its
        parent's start; only its length carries meaning.
        """
        parent = self.spans[self._stack[-1]] if self._stack else None
        start = parent["start"] if parent else time.perf_counter()
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "layer": layer,
                "op": self._op,
                "case": self._case,
                "parent": parent["id"] if parent else None,
                "start": start,
                "end": start + seconds,
            }
        )

    # ------------------------------------------------------------------
    def self_seconds(self) -> Dict[int, float]:
        """Self time of every span: its length minus its children's."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def durations_ms(self, name: str, case: Optional[str] = None) -> List[float]:
        """Per-operation total of the spans called ``name``, in ms."""
        per_op: Dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name and (case is None or s["case"] == case):
                per_op[s["op"]] = per_op.get(s["op"], 0.0) + (s["end"] - s["start"])
        return [v * 1e3 for v in per_op.values()]

    def layer_self_ms(self) -> Dict[str, float]:
        """Total self time per layer over the whole traced run, in ms."""
        self_s = self.self_seconds()
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s["layer"]] = out.get(s["layer"], 0.0) + self_s[s["id"]] * 1e3
        return out

    def write(self, path: Path, extra: Optional[Dict[str, Any]] = None) -> None:
        self_s = self.self_seconds()
        origin = self.spans[0]["start"] if self.spans else 0.0
        payload = {
            "schema": "perfbench.trace/1",
            **(extra or {}),
            "layer_self_ms": self.layer_self_ms(),
            "spans": [
                {
                    **s,
                    "start": s["start"] - origin,
                    "end": s["end"] - origin,
                    "self": self_s[s["id"]],
                }
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, plus its largest waited-for
    child when ``children`` (the runtime workload forks its workers)."""
    peak = _maxrss_mb(resource.RUSAGE_SELF)
    if children:
        peak += _maxrss_mb(resource.RUSAGE_CHILDREN)
    return peak


def proc_tree(pid: int) -> List[int]:
    """``pid`` and its direct children, read from ``/proc``."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [pid] + [int(k) for k in fh.read().split()]
    except OSError:
        return [pid]


def proc_tree_hwm_mb(pid: int) -> float:
    """Sum of the resident-set high-water marks of ``pid`` and its
    direct children, read from ``/proc`` while they are still alive."""

    def hwm(p: int) -> float:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    return sum(hwm(p) for p in proc_tree(pid))


# ----------------------------------------------------------------------
# processors
# ----------------------------------------------------------------------
def set_cpus(pids: Sequence[int], cpus: Sequence[int]) -> None:
    """Restrict every thread of the processes ``pids`` to ``cpus``;
    threads and processes they start later inherit it (Linux, like the
    ``/proc`` readers above)."""
    for pid in pids:
        try:
            threads = [int(t) for t in os.listdir(f"/proc/{pid}/task")]
        except OSError:
            continue
        for tid in threads:
            try:
                os.sched_setaffinity(tid, cpus)
            except OSError:  # the thread has ended meanwhile
                pass


# ----------------------------------------------------------------------
# environment stamp
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return float("nan")


def env_stamp() -> Dict[str, Any]:
    """What a reader needs to judge whether two result files compare."""
    import networkx
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "load_1min_start": load_average(),
    }


def warn_if_loaded() -> None:
    """A busy machine makes timings meaningless; say so, do not fail."""
    load, nproc = load_average(), os.cpu_count() or 1
    if load > nproc / 2:
        print(
            f"perfbench: warning: 1-min load average {load:.2f} exceeds "
            f"nproc/2 = {nproc / 2:.1f}; timings will be noisy",
            file=sys.stderr,
        )
