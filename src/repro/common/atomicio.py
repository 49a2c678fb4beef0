"""Crash-atomic text-file writes.

Every on-disk artifact the harness produces — disk-cache entries, the
golden corpus, metrics and trace exports, supervised-run reports —
goes through :func:`atomic_write_text`: the content is written to a
temporary file in the destination directory and published with
``os.replace``, so a reader (or a process killed mid-write) observes
either the old file or the complete new one, never a torn prefix.

``fsync=True`` additionally flushes the file and its directory entry
before the rename, which protects against power loss at the cost of a
synchronous disk barrier. Artifacts that are self-validating (the
checksummed disk cache) skip the fsync; artifacts that *are* the
source of truth (run journals, reports, the corpus) keep it.
"""

from __future__ import annotations

import os
import secrets
from typing import Tuple, Union

PathLike = Union[str, "os.PathLike[str]"]


def fsync_directory(directory: str) -> None:
    """Best-effort fsync of a directory entry (no-op where unsupported)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _create_temp(directory: str, prefix: str) -> Tuple[int, str]:
    """Create a fresh temporary file in *directory*; return (fd, path).

    The file is created with mode 0666, which the kernel filters
    through the umask exactly as for ``open(path, "w")``.
    ``tempfile.mkstemp`` would create it 0600, and ``os.replace`` keeps
    that mode on the published file; a chmod afterwards would need the
    umask, and reading it means briefly setting it for every thread.
    """
    for _ in range(100):
        tmp = os.path.join(directory, f"{prefix}{secrets.token_hex(6)}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        return fd, tmp
    raise FileExistsError(f"no free temporary name in {directory}")


def atomic_write_text(
    path: PathLike,
    text: str,
    encoding: str = "utf-8",
    fsync: bool = True,
) -> None:
    """Atomically replace *path* with *text* (temp file + ``os.replace``).

    The temporary file lives in the destination directory so the final
    rename never crosses a filesystem boundary, and it gets the mode a
    plain ``open()`` would give it. On any failure the temporary file
    is removed and the original *path* is untouched.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = _create_temp(directory, os.path.basename(target) + ".")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        fsync_directory(directory)
