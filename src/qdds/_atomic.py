"""Atomic artifact writes: readers see the old file or the whole new one."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_open(path):
    """Open a text file that replaces path only when the block completes.

    Writes go to a temporary file in path's directory, which os.replace
    moves over path on a clean exit; on any exception, KeyboardInterrupt
    included, the temporary file is removed and path is left untouched.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
