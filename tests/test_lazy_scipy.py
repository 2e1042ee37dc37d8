"""scipy loads on first use, never on ``import repro``.

Only DIIRK's implicit solves, the BRUSS2D Jacobian and
``reference_solution`` call scipy, so only they import it -- inside the
function, or, for the functional DIIRK program, when the program is
built (forked workers inherit the module and no task pays for loading
it).  Every front door and every other computation starts without the
355 ``scipy*`` modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.ode import PAPER_CONFIGS, bruss2d, reference_solution, run_functional_step
from repro.recovery import array_digest, json_digest

from .test_front_door import N, STEP_DIGESTS

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
import repro, repro.serve, repro.obs.cli, repro.runtime.backends.cluster_worker

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

assert not scipy_loaded(), "import loads " + ", ".join(scipy_loaded()[:5])

from repro.cluster import chic
from repro.core import CostModel
from repro.graphs import synthesize
from repro.ode import PAPER_CONFIGS, bruss2d, reference_solution, run_functional_step
from repro.pipeline import SchedulingPipeline
from repro.recovery import array_digest, json_digest
from repro.runtime.backends import parse_backend_spec
from repro.scheduling import LayerBasedScheduler
from repro.serve import api

N, STEP_DIGESTS = {n}, {digests}

def digest(run):
    return json_digest({{k: array_digest(v) for k, v in sorted(run.variables.items())}})

for solver in ("irk", "pabm"):
    for spec in ("serial", "pool:2"):
        run, _, _ = run_functional_step(
            bruss2d(N), PAPER_CONFIGS[solver], backend=parse_backend_spec(spec))
        assert digest(run) == STEP_DIGESTS[solver], (solver, spec)
for endpoint in ("schedule", "simulate"):
    request = api.validate_request(endpoint, {{
        "workload": {{"solver": "diirk", "n": 60}}, "topology": {{"cores": 64}}}})
    assert "body" in api.compute_response(request), endpoint
scheduler = LayerBasedScheduler(CostModel(chic().with_cores(64)))
SchedulingPipeline(scheduler, simulate=False).run(synthesize("layered", 300))
assert not scipy_loaded(), "the workloads load " + ", ".join(scipy_loaded()[:5])

problem = bruss2d(6)
jac = problem.jac(0.0, problem.y0)
assert scipy_loaded(), "the Jacobian ran without scipy"
diirk, _, _ = run_functional_step(
    bruss2d(N), PAPER_CONFIGS["diirk"], backend=parse_backend_spec("pool:2"))
print(json.dumps({{
    "jac": array_digest(jac.toarray()),
    "diirk": digest(diirk),
    "reference": array_digest(reference_solution(problem, 0.1)),
}}))
"""


def test_scipy_loads_only_on_first_use():
    """Fresh interpreter: the four front doors, IRK and PABM steps on
    serial and ``pool:2``, a served schedule and simulation and a
    synthetic pipeline leave ``scipy`` out of ``sys.modules``; the
    Jacobian, a DIIRK step on ``pool:2`` and the reference solution then
    load it and equal this process's serial results bit for bit."""
    script = SCRIPT.format(n=N, digests=STEP_DIGESTS)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    child = json.loads(done.stdout.strip().splitlines()[-1])

    problem = bruss2d(6)
    serial, _, _ = run_functional_step(bruss2d(N), PAPER_CONFIGS["diirk"])
    assert child == {
        "jac": array_digest(problem.jac(0.0, problem.y0).toarray()),
        "diirk": json_digest(
            {k: array_digest(v) for k, v in sorted(serial.variables.items())}
        ),
        "reference": array_digest(reference_solution(problem, 0.1)),
    }
