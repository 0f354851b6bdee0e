"""Read-only journal validation: ``repro fsck <journal>``.

Runs the same fold over a :class:`~repro.durability.Journal` directory
that :meth:`Journal.open` runs (:func:`~repro.durability.journal.fold_log`)
— headers and their ``format``, frames and checksums, the record
schema, sequence monotonicity, settle-exactly-once — without touching a
byte, and reports every finding where open() raises at the first.
Operators run it before pointing a recovering gateway at a journal;
the crash soak runs it after every SIGKILL cycle to prove the log it
is about to replay is internally consistent.

Severity model:

- ``corruptions`` (bad frame / checksum / marker mid-log, a record
  that breaks :data:`~repro.durability.journal.RECORD_SCHEMA`, sequence
  regression, duplicate accept or settle, orphan settle, a segment
  header of a newer format than this build reads) — the journal can no
  longer prove exactly-once settlement, or is not this build's to
  judge; open() refuses it and ``repro fsck`` exits 1;
- ``torn_tail_bytes`` — expected crash residue at the end of the final
  segment; open() will truncate it; *not* an error;
- ``tmp_segments`` — an uncommitted ``*.tmp`` compact segment left by
  a crash mid-compaction; the superseded generation is still complete
  and open() removes the residue; *not* an error;
- ``unsettled`` — accepted work with no settlement yet; normal for a
  journal whose gateway crashed (recovery will resubmit it); an error
  only under ``--strict`` (a journal that *should* be fully drained).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.durability.journal import fold_log


@dataclass
class FsckFinding:
    """One corruption finding: where and what."""

    kind: str  # checksum | frame | marker | pickle | field | format | sequence | duplicate | orphan | missing
    segment: str
    offset: int
    detail: str = ""

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class FsckReport:
    """Everything ``repro fsck`` learned about one journal directory."""

    path: str
    segments: int = 0
    records: int = 0
    record_kinds: Dict[str, int] = field(default_factory=dict)
    bytes_scanned: int = 0
    torn_tail_bytes: int = 0
    stale_segments: int = 0  # pre-compaction leftovers (ignored, like open())
    tmp_segments: int = 0  # uncommitted *.tmp compact residue (removed by open())
    accepted: int = 0
    settled: int = 0
    frozen: int = 0
    unsettled: List[Tuple[int, str]] = field(default_factory=list)  # (jid, key)
    corruptions: List[FsckFinding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """No corruption — the journal is safe to open and recover."""
        return not self.corruptions

    @property
    def drained(self) -> bool:
        """Clean *and* every accepted entry settled (``--strict`` bar)."""
        return self.clean and not self.unsettled

    def to_dict(self) -> dict:
        return {
            "schema": "repro.fsck-report/1",
            "path": self.path,
            "segments": self.segments,
            "records": self.records,
            "record_kinds": dict(self.record_kinds),
            "bytes_scanned": self.bytes_scanned,
            "torn_tail_bytes": self.torn_tail_bytes,
            "stale_segments": self.stale_segments,
            "tmp_segments": self.tmp_segments,
            "accepted": self.accepted,
            "settled": self.settled,
            "frozen": self.frozen,
            "unsettled": [list(u) for u in self.unsettled],
            "corruptions": [c.to_dict() for c in self.corruptions],
            "clean": self.clean,
            "drained": self.drained,
        }

    def render_text(self) -> str:
        lines = [
            f"journal {self.path}",
            f"  segments: {self.segments} "
            f"({self.stale_segments} stale pre-compaction leftover(s))"
            if self.stale_segments
            else f"  segments: {self.segments}",
            f"  records:  {self.records} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.record_kinds.items())) or 'none'})",
            f"  bytes:    {self.bytes_scanned}"
            + (f" (+{self.torn_tail_bytes} torn tail)" if self.torn_tail_bytes else ""),
            f"  entries:  {self.accepted} accepted, {self.settled} settled, "
            f"{len(self.unsettled)} unsettled, {self.frozen} frozen",
        ]
        if self.tmp_segments:
            lines.append(
                f"  tmp:      {self.tmp_segments} uncommitted compact "
                f"segment(s) (crash residue; open() removes them)"
            )
        for jid, key in self.unsettled[:20]:
            lines.append(f"    unsettled jid={jid}" + (f" key={key!r}" if key else ""))
        if len(self.unsettled) > 20:
            lines.append(f"    ... and {len(self.unsettled) - 20} more")
        if self.corruptions:
            lines.append(f"  CORRUPT ({len(self.corruptions)} finding(s)):")
            for c in self.corruptions:
                lines.append(
                    f"    {c.kind} in {c.segment} at byte {c.offset}"
                    + (f": {c.detail}" if c.detail else "")
                )
        else:
            lines.append("  clean: no corruption")
        return "\n".join(lines)


def fsck(path: str) -> FsckReport:
    """Validate the journal directory at *path* read-only."""
    if not os.path.isdir(path):
        return FsckReport(
            path=str(path),
            corruptions=[FsckFinding("missing", "", 0, f"{path} is not a directory")],
        )
    corruptions: List[FsckFinding] = []
    fold = fold_log(path, lambda *finding: corruptions.append(FsckFinding(*finding)))
    return FsckReport(
        path=str(path),
        segments=len(fold.live),
        records=fold.records,
        record_kinds=fold.record_kinds,
        bytes_scanned=fold.bytes_scanned,
        torn_tail_bytes=fold.torn[2] if fold.torn else 0,
        stale_segments=len(fold.stale),
        tmp_segments=len(fold.tmp),
        accepted=len(fold.entries),
        settled=len(fold.entries) - len(fold.unsettled),
        frozen=len(fold.frozen),
        unsettled=[(jid, fold.entries[jid].key) for jid in sorted(fold.unsettled)],
        corruptions=corruptions,
    )


__all__ = ["fsck", "FsckReport", "FsckFinding"]
