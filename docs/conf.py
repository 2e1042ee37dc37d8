"""Sphinx configuration for the repro API documentation.

Built in CI with ``sphinx-build -W -n`` -- every warning and every
broken cross-reference inside the documented subsystems fails the
build.  References into subsystems outside the API reference scope
(cluster, core, ode, ...) and into third-party projects are resolved
via intersphinx or explicitly ignored below.
"""

import os
import sys

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src")))

project = "repro"
author = "repro contributors"
copyright = "2026, repro contributors"  # noqa: A001 - sphinx convention

extensions = [
    "sphinx.ext.autodoc",
    "sphinx.ext.napoleon",
    "sphinx.ext.intersphinx",
    "sphinx.ext.viewcode",
    "myst_parser",
]

source_suffix = {
    ".rst": "restructuredtext",
    ".md": "markdown",
}
myst_enable_extensions = ["dollarmath", "colon_fence"]

master_doc = "index"
exclude_patterns = ["_build"]
html_theme = "alabaster"

autodoc_member_order = "bysource"
autodoc_typehints = "description"
autodoc_typehints_format = "short"
napoleon_google_docstring = False
napoleon_numpy_docstring = True

intersphinx_mapping = {
    "python": ("https://docs.python.org/3", None),
    "numpy": ("https://numpy.org/doc/stable/", None),
}

nitpicky = True
nitpick_ignore_regex = [
    # subsystems outside the API-reference scope: referenced from
    # docstrings, documented in README/DESIGN instead
    (r"py:.*", r"repro\.(core|cluster|comm|distribution|spec|scheduling"
               r"|mapping|sim|ode|npb|hybrid|experiments)(\..*)?"),
    # short annotation forms autodoc emits for unimported names
    (r"py:.*", r"(np|numpy\.typing)\..*"),
    (r"py:class", r"(optional|callable|array_like|dict-like)"),
    # stdlib objects that occasionally miss the intersphinx inventory
    (r"py:class", r"(multiprocessing|queue|argparse|json)\..*"),
    # forward references rendered as bare names by dataclass fields
    (r"py:class", r"(MTask|TaskGraph|Parameter|RuntimeContext|GroupContext"
                  r"|CollectiveSpec|Instrumentation|SpanRecord|FailureRecord"
                  r"|FaultPlan|RetryPolicy|SpeculationPolicy|SpeculationRecord"
                  r"|RunJournal|CheckpointStore|ExecutionBackend"
                  r"|RunContext|TaskRequest|TaskOutcome|AttemptEvent"
                  r"|RunResult|RunStats|ndarray"
                  r"|CostModel|Scheduler|SchedulingResult|LayeredSchedule"
                  r"|Timeline|ExecutionTrace|TaskCost"
                  r"|ScheduleService|ScheduleCache|Response|RequestError"
                  r"|MetricsRegistry|RunRegistry)"),
]
