"""Crash-consistent file writes: whole-file replace and line append.

Two shapes of durable state exist in the package, and each has one
helper here:

* :func:`atomic_write` replaces a whole file (a pipeline artifact, a
  campaign manifest).  The bytes go to a temp file in the same
  directory, which is fsynced and renamed over the target, and then the
  directory is fsynced so the rename itself survives a crash.  A reader
  sees the old file or the new one, never a torn mix.
* :func:`append_line` adds one record to an append-only JSONL journal
  (the campaign shard journal, the run ledger).  The record is a single
  ``O_APPEND`` write, so racing processes interleave whole lines, and
  it is fsynced before returning.  A crash mid-append leaves a torn
  last line that readers skip; the next append starts a fresh line so
  it never glues its record onto the fragment.  Appenders hold an
  exclusive ``flock`` while they check the tail and write, so another
  process's record that is still being copied in is never mistaken for
  a torn tail.
"""

from __future__ import annotations

import fcntl
import os
import tempfile


def atomic_write(path, data):
    """Durably replace ``path`` with ``data`` (bytes); on any error
    ``path`` is left untouched."""
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(mode="wb", dir=directory,
                                         delete=False)
    try:
        with handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def append_line(path, line):
    """Durably append ``line`` and a newline to ``path`` in one write."""
    data = line.encode("utf-8") + b"\n"
    with open(path, "a+b", buffering=0) as handle:
        fd = handle.fileno()
        fcntl.flock(fd, fcntl.LOCK_EX)  # released when the file closes
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data  # a torn tail: start a fresh line
        handle.write(data)
        os.fsync(fd)
