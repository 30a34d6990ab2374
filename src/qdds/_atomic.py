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
    An OSError is raised again with path in its message.
    """
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise OSError(f"writing {path}: {exc}") from exc
        raise
