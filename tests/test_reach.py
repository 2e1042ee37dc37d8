"""The call tracer of ``scripts/reach.py`` and its ``KEEP`` table.

The tracer must record a function wherever a run enters it: in a forked
worker, in a thread, and after a SIGTERM that the process turns into a
``KeyboardInterrupt``.  That exception unsets a profile hook written
in Python: the fixture makes the SIGTERM arrive while the process waits
in a C call, so that Python handles it in the hook that runs when the
call returns.
"""
import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "scripts" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

FIXTURE = '''
import multiprocessing
import os
import signal
import threading
import time


def in_child():
    return 1


def in_thread():
    return 2


def after_sigterm():
    return 3


def never():
    return 4


def sigterm_soon():
    """A child process sends this one SIGTERM while it waits in a read."""
    if os.fork() == 0:
        time.sleep(0.2)
        os.kill(os.getppid(), signal.SIGTERM)
        os._exit(0)


def main():
    child = multiprocessing.get_context("fork").Process(target=in_child)
    child.start()
    child.join()
    assert child.exitcode == 0
    thread = threading.Thread(target=in_thread)
    thread.start()
    thread.join()
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    signal.siginterrupt(signal.SIGTERM, False)
    r, w = os.pipe()
    os.set_blocking(w, False)
    signal.set_wakeup_fd(w)
    sigterm_soon()
    try:
        # the wakeup byte ends the read, which checks no signal: Python
        # handles it on the read's return, in a profile hook if one is set
        os.read(r, 1)
        raise AssertionError("no KeyboardInterrupt")
    except KeyboardInterrupt:
        os.wait()
    after_sigterm()
'''


def test_tracer_records_forked_threaded_and_post_sigterm_calls(tmp_path):
    package = tmp_path / "pkg" / "reachfix"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(FIXTURE)
    (package / "__main__.py").write_text("from reachfix import main\nmain()\n")
    out, site = tmp_path / "out", tmp_path / "site"
    out.mkdir()
    site.mkdir()
    env = reach.traced_env(site, out, package, package.parent)
    done = subprocess.run([sys.executable, "-m", "reachfix"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    keys = reach.reached(out)
    entered = {f.key for f in reach.defined(package) if (f.path, f.first) in keys}
    assert {"reachfix:in_child", "reachfix:in_thread",
            "reachfix:after_sigterm", "reachfix:main"} <= entered
    assert "reachfix:never" not in entered
    # the forked child wrote a record of its own
    assert len(list(out.glob("*.json"))) >= 2


def test_every_keep_entry_names_a_function():
    known = {f.key for f in reach.defined(ROOT / "src" / "repro")}
    assert set(reach.KEEP) <= known, sorted(set(reach.KEEP) - known)
    assert all(reason.strip() for reason in reach.KEEP.values())


def test_unexplained_reached_and_stale_entries_fail():
    known = ["m:a", "m:b", "m:c"]
    keep = {"m:a": "interface", "m:b": "safety", "m:gone": "deleted"}
    found = reach.problems(unreached=["m:a", "m:c"], known=known, keep=keep)
    assert found == [
        "unreached and not in KEEP: m:c",
        "KEEP entry is reached: m:b",
        "KEEP names no function: m:gone",
    ]
    assert reach.problems(["m:a"], known, {"m:a": "interface"}) == []


def test_defined_names_methods_nested_functions_and_decorated_lines(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent('''
        import functools


        class A:
            @functools.lru_cache()
            def m(self):
                def inner():
                    return 1
                return inner()
    '''))
    funcs = {f.key: f for f in reach.defined(package)}
    assert set(funcs) == {"pkg.mod:A.m", "pkg.mod:A.m.<locals>.inner"}
    assert funcs["pkg.mod:A.m"].first == 6  # the decorator's line
    assert funcs["pkg.mod:A.m"].code == 5
