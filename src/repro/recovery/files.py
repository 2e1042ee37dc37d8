"""Durable files: the append-only JSONL log and the atomic publish.

Every store of the package that survives a crash follows one of two
rules, and this module is the only place either is written down:

* **The log** -- an append-only file of one JSON document per line
  (the run journal, the run registry).  :func:`read_log` returns the
  parsed lines and whether the final record was *torn*: a final line
  without its newline, or a final line that does not parse (the crash
  also flushed the newline).  A torn record is dropped; a malformed line
  anywhere else is corruption and raises :class:`CorruptLog` naming the
  line.  :func:`open_log` physically truncates a torn tail before it
  hands out the file for appending, so the first record appended after a
  crash never glues onto half a line; :func:`append_line` writes one
  line, flushes and fsyncs.  Callers encode their own lines.
* **The publish** -- :func:`publish` creates a content-addressed file
  (a checkpoint array, a cached response) under a temporary name unique
  per process and write, then renames it into place; a crash mid-write
  never leaves a partial file under the final name, concurrent writers
  of the same name never interleave bytes, and an existing final name
  is not written again.  A leftover ``*.tmp-*`` file of a crashed writer
  is not an entry.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import IO, Any, Callable, List, Tuple

__all__ = ["CorruptLog", "read_log", "open_log", "append_line", "publish"]

#: numbers the temporary files this process writes; with the pid it makes
#: a name unique per process and write
_WRITES = itertools.count()


class CorruptLog(ValueError):
    """A line other than the final one does not parse."""


def read_log(path) -> Tuple[List[Any], bool]:
    """The parsed lines of the log at ``path`` and whether its final
    record was torn (and dropped); a missing log is empty."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return [], False
    lines = raw.split(b"\n")
    # a committed record always ends in a newline: text after the last
    # one is a torn final record
    torn = lines.pop() != b""
    numbered = [(i, line) for i, line in enumerate(lines, 1) if line.strip()]
    records: List[Any] = []
    for i, line in numbered:
        try:
            records.append(json.loads(line))
        except ValueError:
            if i == numbered[-1][0]:
                torn = True
                break
            raise CorruptLog(
                f"{path} is corrupt: unparseable record on line {i} "
                "(not the final line)"
            ) from None
    return records, torn


def _torn_tail(fh: IO[bytes]) -> int:
    """Offset at which the torn final record of the open log starts, or
    the log's size when its final record is whole; reads only the tail."""
    size = fh.seek(0, os.SEEK_END)
    tail, pos = b"", size
    while pos > 0 and b"\n" not in tail.rstrip():
        step = min(pos, 1 << 16)
        pos -= step
        fh.seek(pos)
        tail = fh.read(step) + tail
    body = tail.rstrip()
    cut = body.rfind(b"\n") + 1
    if not body[cut:]:
        return size
    try:
        json.loads(body[cut:])
    except ValueError:
        return pos + cut
    return size if b"\n" in tail[len(body):] else pos + cut


def open_log(path) -> IO[str]:
    """Open the log at ``path`` for appending, creating it (and its
    directory) if needed; a torn final record is truncated first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        with open(path, "rb+") as fh:
            cut = _torn_tail(fh)
            if cut < fh.seek(0, os.SEEK_END):
                fh.truncate(cut)
                fh.flush()
                os.fsync(fh.fileno())
    return open(path, "a", encoding="utf-8")


def append_line(fh: IO[str], line: str) -> None:
    """Append ``line`` and its newline to an :func:`open_log` file,
    durably: flushed and fsync'd before this returns."""
    fh.write(line + "\n")
    fh.flush()
    os.fsync(fh.fileno())


def publish(path: Path, write: Callable[[IO[bytes]], Any]) -> bool:
    """Create ``path`` atomically from what ``write(fh)`` writes to a
    binary file; returns ``False`` (writing nothing) when ``path``
    already exists."""
    if path.exists():
        return False
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp-{os.getpid()}-{next(_WRITES)}")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return True
