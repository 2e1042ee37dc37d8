"""Tests for the recovery subsystem: content-addressed checkpoints, the
crash-consistent write-ahead run journal, checkpoint/resume bit-identity
in the functional runtime, and the kill-resume chaos script."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import AccessMode, DistributionSpec, MTask, Parameter, TaskGraph
from repro.faults import FaultPlan, RetryPolicy
from repro.recovery import (
    CheckpointStore,
    JournalError,
    JournalMismatch,
    RunJournal,
    array_digest,
)
from repro.recovery.files import CorruptLog, append_line, open_log, publish, read_log
from repro.runtime import run_program


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def task(name, inp=(), out=(), func=None, elements=4):
    params = tuple(
        Parameter(v, AccessMode.IN, elements, dist=DistributionSpec("replic"))
        for v in inp
    ) + tuple(
        Parameter(v, AccessMode.OUT, elements, dist=DistributionSpec("replic"))
        for v in out
    )
    return MTask(name, params=params, func=func)


def chain_graph(b_func=None):
    """a -> b -> c, each doubling its input (``b_func`` replaces b's body)."""
    g = TaskGraph()
    a = g.add_task(task("a", inp=["x"], out=["y"], func=lambda c, v: {"y": v["x"] * 2}))
    b = g.add_task(task("b", inp=["y"], out=["z"],
                        func=b_func or (lambda c, v: {"z": v["y"] * 2})))
    c = g.add_task(task("c", inp=["z"], out=["w"], func=lambda c, v: {"w": v["z"] * 2}))
    g.connect(a, b)
    g.connect(b, c)
    return g


def journal_at(tmp_path, **kw):
    return RunJournal(tmp_path / "journal.jsonl", **kw)


def truncate_to_task_records(path: Path, keep: int, tear: bool = True) -> None:
    """Rewrite the journal keeping the header + first ``keep`` task
    records, optionally followed by a torn (half-written) line."""
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    kept, tasks = [], 0
    for line in lines:
        rec = json.loads(line)
        if rec["kind"] == "task":
            if tasks >= keep:
                break
            tasks += 1
        kept.append(line)
    text = "\n".join(kept) + "\n"
    if tear:
        text += lines[-1][: len(lines[-1]) // 2]  # no trailing newline
    path.write_text(text)


# ----------------------------------------------------------------------
# the durable-file rules every store shares
# ----------------------------------------------------------------------
class TestDurableFiles:
    @pytest.mark.parametrize("tail", ["", "{}", "[1, 2", "[1, 2\n", "[1, 2\n\n"])
    def test_append_repairs_exactly_what_load_drops(self, tmp_path, tail):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n' + tail)
        records, torn = read_log(path)
        assert records == [{"a": 1}] and torn == bool(tail)
        with open_log(path) as fh:
            append_line(fh, '{"b": 2}')
        assert read_log(path) == ([{"a": 1}, {"b": 2}], False)

    def test_mid_file_corruption_names_the_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\nnot json\n{"b": 2}\n')
        with pytest.raises(CorruptLog, match="line 3"):
            read_log(path)

    def test_failed_publish_leaves_nothing(self, tmp_path):
        def explode(fh):
            fh.write(b"half")
            raise OSError("disk full")

        with pytest.raises(OSError):
            publish(tmp_path / "entry.json", explode)
        assert list(tmp_path.iterdir()) == []
        assert publish(tmp_path / "entry.json", lambda fh: fh.write(b"whole"))
        assert not publish(tmp_path / "entry.json", lambda fh: fh.write(b"other"))
        assert (tmp_path / "entry.json").read_bytes() == b"whole"


# ----------------------------------------------------------------------
# CheckpointStore
# ----------------------------------------------------------------------
class TestCheckpointStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        arr = np.linspace(0.0, 1.0, 17)
        digest, nbytes = store.put(arr)
        assert nbytes == arr.nbytes
        assert (store.root / f"{digest}.npy").exists()
        np.testing.assert_array_equal(store.get(digest), arr)
        assert store.get(digest).dtype == arr.dtype

    def test_content_addressing_dedupes(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        arr = np.arange(8.0)
        d1, _ = store.put(arr)
        written = store.bytes_written
        d2, _ = store.put(arr.copy())
        assert d1 == d2
        assert store.bytes_written == written  # no second write
        assert len(list(store.root.glob("*.npy"))) == 1

    def test_digest_covers_dtype_and_shape(self):
        a = np.zeros(4, dtype=np.float64)
        assert array_digest(a) != array_digest(a.astype(np.float32))
        assert array_digest(a) != array_digest(a.reshape(2, 2))

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        arr = np.arange(6.0)
        digest, _ = store.put(arr)
        assert [p.name for p in store.root.iterdir()] == [f"{digest}.npy"]
        stored = (store.root / f"{digest}.npy").stat().st_mtime_ns
        again = CheckpointStore(store.root)
        assert again.put(arr) == (digest, arr.nbytes)  # a second put is a no-op
        assert again.bytes_written == 0
        assert (store.root / f"{digest}.npy").stat().st_mtime_ns == stored
        assert [p.name for p in store.root.iterdir()] == [f"{digest}.npy"]
        np.testing.assert_array_equal(again.get(digest), arr)

    def test_missing_and_corrupt_checkpoints(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt")
        with pytest.raises(KeyError):
            store.get("0" * 64)
        digest, _ = store.put(np.arange(4.0))
        # corrupt the stored content under its digest name
        victim = store.root / f"{digest}.npy"
        np.save(open(victim, "wb"), np.arange(5.0))
        with pytest.raises(ValueError, match="corrupt"):
            store.get(digest)


# ----------------------------------------------------------------------
# RunJournal
# ----------------------------------------------------------------------
class TestRunJournal:
    def test_write_load_roundtrip(self, tmp_path):
        journal = journal_at(tmp_path)
        with journal:
            journal.begin({"graph": "g", "tasks": 2})
            journal.record_completion(
                "a", {"y": np.arange(4.0)}, attempts=1, seconds=0.5, q=2
            )
            journal.record_completion(
                "b", {"z": np.arange(4.0) * 2}, attempts=3, seconds=0.7,
                error="boom", backoff_seconds=0.01,
            )
        state = journal_at(tmp_path).load()
        assert not state.torn and not state.empty
        assert state.header["graph"] == "g" and state.header["tasks"] == 2
        done = state.completed
        assert set(done) == {"a", "b"}
        assert done["a"]["q"] == 2 and "error" not in done["a"]
        assert done["b"]["attempts"] == 3
        assert done["b"]["error"] == "boom"
        assert done["b"]["backoff_seconds"] == 0.01

    def test_empty_and_missing_journal(self, tmp_path):
        assert journal_at(tmp_path).load().empty

    def test_torn_final_line_dropped(self, tmp_path):
        journal = journal_at(tmp_path)
        with journal:
            journal.begin({"graph": "g"})
            journal.record_completion("a", {"y": np.arange(4.0)})
            journal.record_completion("b", {"z": np.arange(4.0)})
        path = journal.path
        # crash mid-append: half a record, no trailing newline
        path.write_text(path.read_text() + '{"kind": "task", "ta')
        state = journal_at(tmp_path).load()
        assert state.torn
        assert set(state.completed) == {"a", "b"}

    def test_torn_final_line_with_newline_dropped(self, tmp_path):
        journal = journal_at(tmp_path)
        with journal:
            journal.begin({"graph": "g"})
            journal.record_completion("a", {"y": np.arange(4.0)})
        path = journal.path
        path.write_text(path.read_text() + '{"kind": "task", "ta\n')
        state = journal_at(tmp_path).load()
        assert state.torn
        assert set(state.completed) == {"a"}

    @pytest.mark.parametrize("tail", ['{"kind": "task", "ta', '{"kind": "task", "ta\n'])
    def test_append_after_torn_final_line(self, tmp_path, tail):
        journal = journal_at(tmp_path)
        with journal:
            journal.begin({"graph": "g"})
            journal.record_completion("a", {"y": np.arange(4.0)})
        path = journal.path
        path.write_text(path.read_text() + tail)
        journal = journal_at(tmp_path)
        journal.load()
        with journal:
            journal.begin({"graph": "g"})
            journal.record_completion("b", {"z": np.arange(4.0)})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["kind"] for line in lines] == ["header", "task", "task"]
        state = journal_at(tmp_path).load()
        assert not state.torn
        assert list(state.completed) == ["a", "b"]

    def test_mid_file_corruption_raises(self, tmp_path):
        journal = journal_at(tmp_path)
        with journal:
            journal.begin({"graph": "g"})
            journal.record_completion("a", {"y": np.arange(4.0)})
        path = journal.path
        lines = path.read_text().splitlines()
        lines.insert(1, "not json at all")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            journal_at(tmp_path).load()

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "header", "version": 99}\n')
        with pytest.raises(JournalError, match="version"):
            journal_at(tmp_path).load()

    def test_records_without_header_raise(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"kind": "task", "task": "a", "outputs": {}}\n')
        with pytest.raises(JournalError, match="no header"):
            journal_at(tmp_path).load()

    def test_only_durable_failures_journaled(self, tmp_path):
        """A retried task's failures are journaled only as the retry
        accounting of its completion record: no line of their own."""
        plan = FaultPlan(task_faults={"b": 2})
        with journal_at(tmp_path) as journal:
            run_program(chain_graph(), {"x": np.arange(4.0)}, faults=plan,
                        retry=RetryPolicy(), journal=journal)
        records = journal_at(tmp_path).load().records
        assert [(r["kind"], r["task"]) for r in records] == [
            ("task", "a"), ("task", "b"), ("task", "c")]
        assert records[1]["attempts"] == 3
        assert records[1]["error"] == "injected fault: task 'b', attempt 1"


# ----------------------------------------------------------------------
# checkpoint/resume through run_program
# ----------------------------------------------------------------------
class TestResume:
    def test_full_resume_is_bit_identical(self, tmp_path):
        inputs = {"x": np.arange(4.0)}
        reference = run_program(chain_graph(), inputs)
        with journal_at(tmp_path) as journal:
            first = run_program(chain_graph(), inputs, journal=journal)
        assert first.stats.checkpoint_bytes > 0
        with journal_at(tmp_path) as journal:
            resumed = run_program(chain_graph(), inputs, journal=journal, resume=True)
        assert resumed.stats.resumed_tasks == 3
        assert resumed.stats.tasks_executed == reference.stats.tasks_executed
        assert resumed.stats.checkpoint_bytes == 0  # nothing new written
        assert set(resumed.variables) == set(reference.variables)
        for name in reference.variables:
            assert array_digest(resumed.variables[name]) == array_digest(
                reference.variables[name]
            )
        assert resumed.stats.redistributed_bytes == reference.stats.redistributed_bytes

    def test_partial_resume_completes_the_run(self, tmp_path):
        inputs = {"x": np.arange(4.0)}
        reference = run_program(chain_graph(), inputs)
        with journal_at(tmp_path) as journal:
            run_program(chain_graph(), inputs, journal=journal)
        # crash after two completions, tearing the final record
        truncate_to_task_records(journal.path, keep=2, tear=True)
        with journal_at(tmp_path) as journal:
            resumed = run_program(chain_graph(), inputs, journal=journal, resume=True)
        assert resumed.stats.resumed_tasks == 2
        assert resumed.stats.tasks_executed == 3
        for name in reference.variables:
            assert array_digest(resumed.variables[name]) == array_digest(
                reference.variables[name]
            )
        # the re-executed suffix was journaled: a fresh resume skips all 3
        with journal_at(tmp_path) as journal:
            again = run_program(chain_graph(), inputs, journal=journal, resume=True)
        assert again.stats.resumed_tasks == 3

    def test_resume_replays_retry_accounting(self, tmp_path):
        """One retrying task, then three over several seeds: a resumed
        run totals the journaled records in commit order, as the
        uninterrupted run totals its own, to the last bit."""
        inputs = {"x": np.arange(4.0)}
        cases = [(FaultPlan(task_faults={"b": 2}), RetryPolicy())] + [
            (FaultPlan(task_faults={"a": 2, "b": 3, "c": 2}),
             RetryPolicy(seed=seed, max_retries=4))
            for seed in range(8)
        ]
        for i, (plan, retry) in enumerate(cases):
            reference = run_program(chain_graph(), inputs, faults=plan, retry=retry)
            with journal_at(tmp_path / str(i)) as journal:
                run_program(chain_graph(), inputs, faults=plan, retry=retry,
                            journal=journal)
            with journal_at(tmp_path / str(i)) as journal:
                resumed = run_program(
                    chain_graph(), inputs, faults=plan, retry=retry,
                    journal=journal, resume=True,
                )
            assert resumed.stats.resumed_tasks == 3
            assert resumed.failures == reference.failures
            assert [f.to_dict() for f in resumed.failures] == [
                f.to_dict() for f in reference.failures]
            assert resumed.stats.retries == reference.stats.retries
            assert (resumed.stats.backoff_seconds.hex()
                    == reference.stats.backoff_seconds.hex()), (i, retry.seed)

    @pytest.mark.parametrize("spec", ["serial", "pool:2", "cluster:2"])
    def test_resumed_give_up_raises_again(self, spec, tmp_path):
        """A task that gives up fails the run, uninterrupted or resumed:
        the resume re-executes it instead of replaying a journaled
        failure, and the journal never holds one."""
        from repro.runtime import parse_backend_spec

        def boom(ctx, values):
            raise ValueError("b exploded")

        message = r"^task 'b' failed after 1 attempt\(s\): b exploded$"
        for resume in (False, True):
            with journal_at(tmp_path) as journal:
                with pytest.raises(RuntimeError, match=message):
                    run_program(
                        chain_graph(boom), {"x": np.arange(4.0)},
                        retry=RetryPolicy(max_retries=0), journal=journal,
                        resume=resume, backend=parse_backend_spec(spec),
                    )
        records = journal_at(tmp_path).load().records
        assert [(r["kind"], r["task"]) for r in records] == [("task", "a")]

    def test_nonempty_journal_without_resume_raises(self, tmp_path):
        inputs = {"x": np.arange(4.0)}
        with journal_at(tmp_path) as journal:
            run_program(chain_graph(), inputs, journal=journal)
        with journal_at(tmp_path) as journal:
            with pytest.raises(JournalError, match="resume=True"):
                run_program(chain_graph(), inputs, journal=journal)

    def test_resume_refuses_different_inputs(self, tmp_path):
        with journal_at(tmp_path) as journal:
            run_program(chain_graph(), {"x": np.arange(4.0)}, journal=journal)
        with journal_at(tmp_path) as journal:
            with pytest.raises(JournalMismatch, match="inputs"):
                run_program(
                    chain_graph(), {"x": np.ones(4)}, journal=journal, resume=True
                )

    def test_resume_refuses_different_fault_config(self, tmp_path):
        inputs = {"x": np.arange(4.0)}
        with journal_at(tmp_path) as journal:
            run_program(chain_graph(), inputs, journal=journal)
        with journal_at(tmp_path) as journal:
            with pytest.raises(JournalMismatch, match="faults"):
                run_program(
                    chain_graph(), inputs,
                    faults=FaultPlan(seed=3, failure_rate=0.5),
                    retry=RetryPolicy(),
                    journal=journal, resume=True,
                )

    def test_obs_counters_emitted(self, tmp_path):
        from repro.obs import Instrumentation

        inputs = {"x": np.arange(4.0)}
        with journal_at(tmp_path) as journal:
            run_program(chain_graph(), inputs, journal=journal)
        obs = Instrumentation()
        with journal_at(tmp_path) as journal:
            run_program(chain_graph(), inputs, journal=journal, resume=True, obs=obs)
        assert obs.counter("recovery.resume_skipped_tasks") == 3
        assert obs.counter("recovery.checkpoint_bytes") == 0


# ----------------------------------------------------------------------
# kill-resume chaos (out of process: the chaos hook kills its process)
# ----------------------------------------------------------------------
class TestKillResumeChaos:
    def test_chaos_script_asserts_bit_identity(self, tmp_path):
        script = Path(__file__).resolve().parent.parent / "scripts" / "chaos_kill_resume.py"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(script), "--workdir", str(tmp_path),
             "--n", "20", "--crash-after", "5"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "bit-identical" in proc.stdout
