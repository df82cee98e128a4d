"""Artifact writes that never leave a half-written file at the final path."""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open the temporary file path + ".tmp"; replace path with it on success.

    The temporary file lives in the same directory, so os.replace is a
    rename within one filesystem: readers see the old file or the whole new
    one.  If the body raises, the temporary file is removed and path is
    left as it was.  Each path has one writer at a time, so a killed writer
    leaves at most one temporary, which the next write of path replaces.
    """
    path = os.fspath(path)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
