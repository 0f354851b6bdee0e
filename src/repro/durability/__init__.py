"""Durable submission journal + crash-consistent gateway recovery.

The gateway (PR 8/9) survives *worker* death; this package makes it
survive its *own* death.  A :class:`Journal` is an append-only,
checksummed, fsync'd write-ahead log the gateway writes through:
``accepted`` is written before the client sees a submission handle,
``settled`` is journaled — and its fsync makes both records durable —
before the client's Result resolves, and a
client-supplied ``idempotency_key=`` dedupes resubmission after a
crash — a replayed key returns the journaled settlement instead of
re-running.  :meth:`repro.gateway.Gateway.recover` replays the log on
restart and guarantees every journaled submission reaches exactly one
settlement (docs/durability.md).

Layout:

- :mod:`~repro.durability.journal` — segment files, CRC-framed
  records, torn-tail truncation, rotation + compaction;
- :mod:`~repro.durability.osshim` — injectable system-call surface
  (:class:`FaultyOs` schedules fsync failures, short writes, ENOSPC,
  and copies the journal a power cut would leave);
- :mod:`~repro.durability.fsck` — read-only validation
  (``repro fsck <journal>``);
- :mod:`~repro.durability.soak` — the gateway crash suite
  (``python -m repro verify gateway-crash``), not imported here so
  importing the journal never drags in the gateway.
"""

from repro.durability.fsck import FsckFinding, FsckReport, fsck
from repro.durability.journal import (
    Journal,
    JournalEntry,
    OpenReport,
    encode_record,
    scan_bytes,
    segment_index,
    segment_name,
)
from repro.durability.osshim import FaultyOs, OsFacade

__all__ = [
    "Journal",
    "JournalEntry",
    "OpenReport",
    "encode_record",
    "scan_bytes",
    "segment_name",
    "segment_index",
    "OsFacade",
    "FaultyOs",
    "fsck",
    "FsckReport",
    "FsckFinding",
]
