"""Injectable OS facade for the durable journal.

Every system call the journal makes — open, write, fsync, truncate,
rename, unlink — goes through an :class:`OsFacade` instead of the
:mod:`os` module directly, for the same reason the GPU layer routes
faults through :class:`repro.resilience.FaultProfile`: durability code
is only trustworthy if its failure paths are *testable*.  The default
facade is a thin pass-through; :class:`FaultyOs` wraps it with seeded,
scriptable failures:

- **fsync failures** — the write landed in the page cache but never
  reached the platter (the classic "fsyncgate" shape);
- **short writes** — the kernel accepted only a prefix of the frame
  (interrupted write, quota edge);
- **disk full** — ``ENOSPC`` raised from ``write``;
- **hard write errors** — ``EIO`` raised from ``write``.

It also remembers each file's length at its last successful fsync, so
:meth:`FaultyOs.power_cut_copy` can build the journal a power cut would
leave behind: every byte written but not yet fsync'd is gone.

Faults are *scheduled by call count* (fail the k-th write / fsync), so
a test or soak scenario derives the schedule from its seed and the
failure lands deterministically mid-batch.  After the scheduled
failure fires the shim either recovers (``once=True``, default) or
keeps failing — both shapes exist in real storage.
"""

from __future__ import annotations

import errno
import os
from typing import Dict, List, Optional


class OsFacade:
    """Pass-through system-call surface used by :class:`~repro.durability.Journal`."""

    def open(self, path: str, flags: int, mode: int = 0o644) -> int:
        return os.open(path, flags, mode)

    def write(self, fd: int, data: bytes) -> int:
        return os.write(fd, data)

    def fsync(self, fd: int) -> None:
        os.fsync(fd)

    def ftruncate(self, fd: int, length: int) -> None:
        os.ftruncate(fd, length)

    def close(self, fd: int) -> None:
        os.close(fd)

    def rename(self, src: str, dst: str) -> None:
        os.rename(src, dst)

    def unlink(self, path: str) -> None:
        os.unlink(path)

    def fsync_dir(self, path: str) -> None:
        """Durably record directory mutations (segment create/delete)."""
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class FaultyOs(OsFacade):
    """An :class:`OsFacade` with scheduled, deterministic failures.

    ``fail_write_at`` / ``fail_fsync_at`` / ``short_write_at`` /
    ``enospc_at`` name the 1-based call ordinal at which the matching
    operation fails (``None`` disables that fault class).  With
    ``once=True`` (default) the fault fires exactly once and later
    calls succeed — the "transient blip" shape; with ``once=False``
    the device stays broken.  Injected faults are tallied in
    :attr:`injected` so harnesses can assert the fault actually fired.
    """

    def __init__(
        self,
        *,
        fail_write_at: Optional[int] = None,
        fail_fsync_at: Optional[int] = None,
        short_write_at: Optional[int] = None,
        enospc_at: Optional[int] = None,
        once: bool = True,
    ) -> None:
        self.fail_write_at = fail_write_at
        self.fail_fsync_at = fail_fsync_at
        self.short_write_at = short_write_at
        self.enospc_at = enospc_at
        self.once = once
        self.writes = 0
        self.fsyncs = 0
        self.injected: List[str] = []
        #: path -> its length at its last successful fsync
        self.synced: Dict[str, int] = {}
        self._paths: Dict[int, str] = {}

    def _fire(self, kind: str, at: Optional[int], count: int) -> bool:
        if at is None:
            return False
        if (count == at) if self.once else (count >= at):
            self.injected.append(kind)
            return True
        return False

    def write(self, fd: int, data: bytes) -> int:
        self.writes += 1
        if self._fire("enospc", self.enospc_at, self.writes):
            raise OSError(errno.ENOSPC, "no space left on device (injected)")
        if self._fire("write", self.fail_write_at, self.writes):
            raise OSError(errno.EIO, "I/O error (injected)")
        if self._fire("short_write", self.short_write_at, self.writes):
            n = max(1, len(data) // 2)
            os.write(fd, data[:n])
            return n
        return os.write(fd, data)

    def fsync(self, fd: int) -> None:
        self.fsyncs += 1
        if self._fire("fsync", self.fail_fsync_at, self.fsyncs):
            raise OSError(errno.EIO, "fsync failed (injected)")
        os.fsync(fd)
        path = self._paths.get(fd)
        if path is not None:
            self.synced[path] = os.fstat(fd).st_size

    # -- what a power cut keeps ------------------------------------------
    def open(self, path: str, flags: int, mode: int = 0o644) -> int:
        fd = os.open(path, flags, mode)
        self._paths[fd] = path
        return fd

    def close(self, fd: int) -> None:
        self._paths.pop(fd, None)
        os.close(fd)

    def ftruncate(self, fd: int, length: int) -> None:
        os.ftruncate(fd, length)
        path = self._paths.get(fd)
        if path in self.synced:
            self.synced[path] = min(self.synced[path], length)

    def rename(self, src: str, dst: str) -> None:
        os.rename(src, dst)
        if src in self.synced:
            self.synced[dst] = self.synced.pop(src)
        for fd, path in self._paths.items():
            if path == src:
                self._paths[fd] = dst

    def unlink(self, path: str) -> None:
        os.unlink(path)
        self.synced.pop(path, None)

    def power_cut_copy(self, src_dir: str, dst_dir: str) -> None:
        """Copy the journal directory *src_dir* to *dst_dir* as a power
        cut would leave it: each file cut to its length at its last
        successful fsync, a file never fsync'd left out."""
        os.makedirs(dst_dir)
        for name in sorted(os.listdir(src_dir)):
            length = self.synced.get(os.path.join(src_dir, name))
            if length is None:
                continue
            with open(os.path.join(src_dir, name), "rb") as src, open(
                os.path.join(dst_dir, name), "wb"
            ) as dst:
                dst.write(src.read(length))


__all__ = ["OsFacade", "FaultyOs"]
