"""Directory flush for crash-safe renames.

A temp-file + rename write survives a power cut only once the directory
entry of the rename is on disk as well.  The checkpoint writer
(:func:`repro.runtime.resilience.atomic_write_json`), the sharded store's
compaction and the surrogate cache's compaction all end with
:func:`fsync_dir`.  The module imports only :mod:`os`, so the history
service uses it without loading numpy.
"""

from __future__ import annotations

import os

__all__ = ["fsync_dir"]


def fsync_dir(path: str) -> None:
    """Flush a directory entry (a rename inside ``path``) to disk; a no-op
    where directories cannot be opened (Windows)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
