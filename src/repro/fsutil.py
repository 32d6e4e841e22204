"""Atomic file-write helpers (write to a temp file, ``os.replace``).

A fuzz-corpus case or a saved graph must never be observed half-written
— a crash mid-write would otherwise leave a file that parses as a
truncated (and silently wrong) artifact.  POSIX ``rename``/``replace``
within one directory is atomic, so every writer in this package funnels
through these helpers: the payload goes to a uniquely named sibling
temp file first and is moved over the destination only once fully
flushed.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import Iterator, Union

__all__ = ["atomic_write_path", "atomic_write_text"]

PathLike = Union[str, os.PathLike]


@contextlib.contextmanager
def atomic_write_path(path: PathLike, suffix: str = "") -> Iterator[Path]:
    """Yield a temp path next to *path*; on clean exit, replace *path*.

    The temp file lives in the destination's directory (``os.replace``
    must not cross filesystems) and carries the pid so concurrent
    writers cannot collide.  *suffix* is appended to the temp name for
    writers that key behavior on the extension (``np.savez`` appends
    ``.npz`` unless the name already ends with it).  If the body
    raises, the temp file is removed and the destination is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}{suffix}")
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            tmp.unlink()


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace *path* with *text* (tmp + ``os.replace``)."""
    with atomic_write_path(path) as tmp:
        tmp.write_text(text, encoding=encoding)
