"""Crash-consistent write-ahead run journal.

A :class:`RunJournal` is an append-only JSONL file recording, one fsync'd
line at a time, everything a functional run completed: a header
describing the run (program, input digests, fault/retry configuration),
one ``task`` record per successful task completion (attempt count,
output digests, timings, faults consumed) and advisory ``speculation``
records.  A task that gives up fails the run and leaves no record: a
resume re-executes it.  Bulk output data lives next to the journal in a
content-addressed :class:`~repro.recovery.checkpoint.CheckpointStore`.

Write-ahead semantics: a record is appended (and fsync'd) *after* its
task completed but *before* the run proceeds, so after a crash the
journal holds exactly the prefix of the run that finished.  The file is
a log of :mod:`repro.recovery.files`: a torn final line -- the crash
struck mid-append -- is dropped on load and truncated before the next
append; a malformed line anywhere else is corruption and raises.

Because every fault/retry/speculation draw is keyed per ``(task,
attempt)`` (see :mod:`repro.faults`), a run resumed from its journal
re-executes the remaining tasks with exactly the draws the uninterrupted
run would have used: the resumed run is bit-identical, and a task that
gave up gives up again with the same error.

``crash_after`` is the chaos-testing hook: the journal commits that many
``task`` records normally, then tears the next append mid-line and kills
the process -- deterministically simulating a crash for the kill-resume
CI job.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from .checkpoint import CheckpointStore
from .files import CorruptLog, append_line, open_log, read_log

__all__ = ["JournalError", "JournalMismatch", "JournalState", "RunJournal"]

#: journal format version (bumped on incompatible record changes)
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The journal is unusable (corrupt, wrong version, already used)."""


class JournalMismatch(JournalError):
    """The journal belongs to a different run (program/inputs/config)."""


@dataclass
class JournalState:
    """Parsed journal contents, in append order."""

    header: Optional[Dict[str, Any]] = None
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: the final line was torn mid-write and dropped
    torn: bool = False

    @property
    def completed(self) -> Dict[str, Dict[str, Any]]:
        """Task name -> its ``task`` completion record."""
        return {r["task"]: r for r in self.records if r.get("kind") == "task"}

    @property
    def empty(self) -> bool:
        return self.header is None and not self.records


class RunJournal:
    """Append-only, fsync'd JSONL write-ahead log of one functional run.

    Parameters
    ----------
    path:
        The journal file.  The checkpoint store defaults to the sibling
        directory ``<path>.ckpt``.
    store:
        Explicit :class:`CheckpointStore` for the output arrays.
    crash_after:
        Chaos hook: commit this many ``task`` records, then tear the
        next one mid-line and ``os._exit(137)``.
    """

    def __init__(
        self,
        path,
        store: Optional[CheckpointStore] = None,
        crash_after: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.store = store if store is not None else CheckpointStore(
            self.path.with_name(self.path.name + ".ckpt")
        )
        self.crash_after = crash_after
        self._fh = None
        self._task_records = 0
        #: tasks whose completion is already journaled (exactly-once guard)
        self._completed_tasks: set = set()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def load(self) -> JournalState:
        """Parse the journal; tolerates (and drops) a torn final line."""
        state = JournalState()
        try:
            parsed, state.torn = read_log(self.path)
        except CorruptLog as exc:
            raise JournalError(f"journal {exc}") from None
        for i, rec in enumerate(parsed):
            if not isinstance(rec, dict) or "kind" not in rec:
                raise JournalError(
                    f"journal {self.path} is corrupt: record {i + 1} is not a "
                    "journal record"
                )
            if rec["kind"] == "header":
                if state.header is not None:
                    raise JournalError(
                        f"journal {self.path} has more than one header"
                    )
                if rec.get("version") != JOURNAL_VERSION:
                    raise JournalError(
                        f"journal {self.path} has version "
                        f"{rec.get('version')!r}, expected {JOURNAL_VERSION}"
                    )
                state.header = rec
            else:
                state.records.append(rec)
        if state.records and state.header is None:
            raise JournalError(f"journal {self.path} has records but no header")
        self._completed_tasks = {
            r["task"] for r in state.records if r.get("kind") == "task"
        }
        return state

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def begin(self, header: Dict[str, Any]) -> None:
        """Open for appending; writes the header on a fresh journal."""
        self._fh = open_log(self.path)
        if self._fh.tell() == 0:
            rec = {"kind": "header", "version": JOURNAL_VERSION}
            rec.update(header)
            self._write(rec)

    def _write(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            raise JournalError("journal is not open; call begin() first")
        line = json.dumps(record, sort_keys=True, default=str)
        if (
            self.crash_after is not None
            and record.get("kind") == "task"
            and self._task_records >= self.crash_after
        ):
            # chaos hook: tear this record mid-line and die like a crash
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            os.fsync(self._fh.fileno())
            os._exit(137)
        append_line(self._fh, line)
        if record.get("kind") == "task":
            self._task_records += 1

    def record_completion(
        self,
        task: str,
        outputs: Dict[str, Any],
        *,
        attempts: int = 1,
        seconds: float = 0.0,
        redist_bytes: int = 0,
        q: int = 1,
        error: str = "",
        backoff_seconds: float = 0.0,
    ) -> Dict[str, Any]:
        """Checkpoint ``outputs`` and append the task completion record.

        Each task may complete exactly once per run: a second record for
        the same task (e.g. a duplicate commit of a requeued-then-
        recovered cluster dispatch leaking past the backend's dedup)
        raises :class:`JournalError` instead of silently double-
        appending -- a resumed run would otherwise restore whichever
        record happened to parse last.
        """
        if task in self._completed_tasks:
            raise JournalError(
                f"duplicate completion for task {task!r}: the journal "
                "already holds its record (exactly-once commit violated)"
            )
        digests: Dict[str, str] = {}
        checkpoint_bytes = 0
        for name, arr in outputs.items():
            digest, nbytes = self.store.put(arr)
            digests[name] = digest
            checkpoint_bytes += nbytes
        rec: Dict[str, Any] = {
            "kind": "task",
            "task": task,
            "attempts": attempts,
            "outputs": digests,
            "seconds": seconds,
            "redist_bytes": redist_bytes,
            "q": q,
            "checkpoint_bytes": checkpoint_bytes,
        }
        if attempts > 1:
            rec["error"] = error
            rec["backoff_seconds"] = backoff_seconds
        self._write(rec)
        self._completed_tasks.add(task)
        return rec

    def record_speculation(self, record: Dict[str, Any]) -> None:
        """Append an advisory speculation record."""
        rec = {"kind": "speculation"}
        rec.update(record)
        self._write(rec)

    def close(self) -> None:
        """Flush and close the journal file."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
