"""Crash-consistent checkpoint/resume and speculative straggler mitigation.

Three pillars:

* :class:`RunJournal` -- append-only, fsync'd JSONL write-ahead log of
  task completions (tolerates a torn final record on reload) backed by a
  content-addressed :class:`CheckpointStore` of output arrays;
* ``run_program(..., journal=..., resume=True)`` -- completed tasks are
  skipped, their outputs restored, and the resumed run is bit-identical
  to an uninterrupted one (fault/retry draws are keyed per
  ``(task, attempt)``);
* :class:`SpeculationPolicy` / :class:`SpeculationRecord` -- backup
  attempts for suspected stragglers, first finisher wins, in both the
  simulator and the functional runtime.

The two durable-file rules the journal and the store rest on -- the
append-only log with its torn-tail repair and the atomic publish of a
content-addressed file -- live in :mod:`repro.recovery.files`; the run
registry and the schedule cache use the same module.
"""

from .checkpoint import CheckpointStore, array_digest, json_digest
from .journal import JournalError, JournalMismatch, JournalState, RunJournal
from .speculation import SpeculationPolicy, SpeculationRecord, parse_speculation_spec

__all__ = [
    "CheckpointStore",
    "array_digest",
    "json_digest",
    "RunJournal",
    "JournalState",
    "JournalError",
    "JournalMismatch",
    "SpeculationPolicy",
    "SpeculationRecord",
    "parse_speculation_spec",
]
