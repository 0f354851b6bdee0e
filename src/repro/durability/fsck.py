"""Read-only journal validation: ``repro fsck <journal>``.

Walks every segment of a :class:`~repro.durability.Journal` directory
without mutating a byte, re-deriving exactly the judgements
:meth:`Journal.open` would make — checksums, frame structure, sequence
monotonicity, settle-exactly-once — and reporting them instead of
acting on them.  Operators run it before pointing a recovering gateway
at a journal; the crash soak runs it after every SIGKILL cycle to
prove the log it is about to replay is internally consistent.

Severity model:

- ``corruptions`` (bad frame / checksum / marker mid-log, sequence
  regression, duplicate accept or settle, orphan settle, a record
  missing a field open() needs, a segment header of a newer format
  than this build reads) — the journal can no longer prove
  exactly-once settlement, or is not this build's to judge;
  ``repro fsck`` exits 1;
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
from typing import Dict, List, Optional, Tuple

from repro.durability.journal import (
    is_tmp_segment,
    record_problem,
    scan_bytes,
    segment_header,
    segment_index,
)


@dataclass
class FsckFinding:
    """One corruption finding: where and what."""

    kind: str  # checksum | frame | marker | pickle | sequence | duplicate | orphan | format | field
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
    report = FsckReport(path=str(path))
    if not os.path.isdir(path):
        report.corruptions.append(
            FsckFinding("missing", "", 0, f"{path} is not a directory")
        )
        return report
    listing = os.listdir(path)
    report.tmp_segments = sum(1 for n in listing if is_tmp_segment(n))
    names = sorted(n for n in listing if segment_index(n) is not None)

    # mirror open(): the newest compact segment supersedes older ones
    start = 0
    for i, name in enumerate(names):
        if segment_header(os.path.join(path, name)).get("compact"):
            start = i
    report.stale_segments = start
    names = names[start:]

    entries: Dict[int, bool] = {}  # jid -> settled?
    keys: Dict[int, str] = {}
    max_seq = 0
    for pos, name in enumerate(names):
        final = pos == len(names) - 1
        spath = os.path.join(path, name)
        with open(spath, "rb") as fh:
            data = fh.read()
        records, good_end, problem = scan_bytes(data)
        report.segments += 1
        report.bytes_scanned += good_end
        if problem is not None:
            kind, offset = problem
            if final:
                report.torn_tail_bytes += len(data) - good_end
            else:
                report.corruptions.append(
                    FsckFinding(kind, name, offset, "in a non-final segment")
                )
        for offset, rec in records:
            report.records += 1
            kind = rec.get("kind", "?")
            report.record_kinds[kind] = report.record_kinds.get(kind, 0) + 1
            seq = rec.get("seq", 0)
            if seq <= max_seq:
                report.corruptions.append(
                    FsckFinding(
                        "sequence", name, offset,
                        f"seq {seq} after {max_seq}",
                    )
                )
            else:
                max_seq = seq
            problem = record_problem(rec)
            if problem is not None:
                bad, detail = problem
                report.corruptions.append(FsckFinding(bad, name, offset, detail))
                continue
            if kind == "accepted":
                jid = rec.get("jid")
                if jid in entries:
                    report.corruptions.append(
                        FsckFinding("duplicate", name, offset, f"accepted jid {jid} twice")
                    )
                else:
                    entries[jid] = False
                    keys[jid] = rec.get("key", "")
                    report.accepted += 1
            elif kind == "settled":
                jid = rec.get("jid")
                if jid not in entries:
                    report.corruptions.append(
                        FsckFinding("orphan", name, offset, f"settle for unknown jid {jid}")
                    )
                elif entries[jid]:
                    report.corruptions.append(
                        FsckFinding("duplicate", name, offset, f"jid {jid} settled twice")
                    )
                else:
                    entries[jid] = True
                    report.settled += 1
            elif kind == "frozen":
                report.frozen += 1

    report.unsettled = sorted(
        (jid, keys.get(jid, "")) for jid, done in entries.items() if not done
    )
    return report


__all__ = ["fsck", "FsckReport", "FsckFinding"]
