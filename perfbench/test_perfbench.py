"""Self-checks of the benchmark (``python -m pytest perfbench -q``).

Not part of the tier-1 suite: they spend about twenty seconds on a
``--quick`` run of every workload.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick_run(tmp_path_factory):
    """One ``--all --quick --trace`` run: (result file payload, stdout)."""
    out = tmp_path_factory.mktemp("perfbench") / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--quick", "--trace",
         "--seed", "3", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout


def test_benchmark_json_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_units_bounds(spec):
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_quick_run_is_correct_and_prints_every_metric(spec, quick_run):
    payload, stdout = quick_run
    run = payload["runs"][-1]
    assert set(run["workloads"]) == {w["name"] for w in spec["workloads"]}
    for key in ("python", "numpy", "networkx", "cpu", "nproc", "git_commit",
                "load_1min_start", "load_1min_end"):
        assert key in run["env"], key
    declared_e2e = {m["name"] for m in spec["end_to_end"]}
    declared_layers = {m["name"] for m in spec["per_layer"]}
    produced_layers = set()
    for name, record in run["workloads"].items():
        assert record["failed"] == 0, record["problems"]
        assert record["attempted"] >= 1
        assert set(record["end_to_end"]) == declared_e2e
        assert all(v > 0 for v in record["end_to_end"].values()), record["end_to_end"]
        produced_layers |= set(record["per_layer"])
    # every per-layer metric some workload produces is declared, and every
    # declared one is produced by at least one workload
    assert produced_layers == declared_layers
    for metric in declared_e2e | declared_layers | {"trace_overhead_share", "failed_share"}:
        assert re.search(rf"^\s+{re.escape(metric)}\s", stdout, re.M), metric


def test_driver_mode_result_line(spec):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ode-pipeline", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_missing_program_is_an_error(tmp_path):
    """With only BENCHMARK.json and perfbench/ present there is nothing
    to measure: non-zero exit, no result line."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ode-pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")


def _scaled(run, factor):
    """A copy of ``run`` with every timing ``factor`` times slower."""
    out = copy.deepcopy(run)
    for record in out["workloads"].values():
        record["end_to_end"]["op_p25_ms"] *= factor
        record["end_to_end"]["ops_per_s"] /= factor
    return out


def _write_set(path, runs):
    path.write_text(json.dumps({"schema": "perfbench.result/1", "runs": runs}))
    return str(path)


def test_compare_flags_a_slowdown_beyond_the_bound_and_passes_3_percent(
    spec, quick_run, tmp_path, capsys
):
    base = quick_run[0]["runs"][-1]
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["op_p25_ms"]
    jitter = (1.0, 1.004, 0.997)
    parent = _write_set(tmp_path / "a.json", [_scaled(base, j) for j in jitter])
    slow = _write_set(tmp_path / "slow.json", [_scaled(base, (1 + 1.5 * bound) * j) for j in jitter])
    slow3 = _write_set(tmp_path / "b3.json", [_scaled(base, 1.03 * j) for j in jitter])
    assert compare.main([parent, slow3]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([parent, slow]) == 1
    assert "regressed" in capsys.readouterr().out


def test_compare_reports_wide_spread_as_unresolved(quick_run, tmp_path, capsys):
    base = quick_run[0]["runs"][-1]
    parent = _write_set(tmp_path / "a.json", [_scaled(base, j) for j in (0.8, 1.0, 1.3)])
    other = _write_set(tmp_path / "b.json", [_scaled(base, j) for j in (0.9, 1.05, 1.25)])
    assert compare.main([parent, other]) == 0
    assert "unresolved" in capsys.readouterr().out
