"""Durable submission journal: an append-only, checksummed WAL.

The crash-consistency backbone of the gateway (docs/durability.md).  A
:class:`Journal` is a directory of **segment files** filled with
CRC-framed records; the gateway writes *through* it so that every
accepted submission and every settlement is on disk — fsync'd — before
the client observes it.  After a gateway crash,
:meth:`repro.gateway.Gateway.recover` replays the journal and
guarantees every journaled submission reaches exactly one settlement.

Frame layout (little-endian)::

    +--------+----------+---------+-----------------+
    | marker | length   | crc32   | payload         |
    | 2 B    | u32      | u32     | `length` bytes  |
    +--------+----------+---------+-----------------+

The payload decodes to a dict carrying ``kind`` and a strictly
increasing ``seq``.  It has one of two forms, told apart by its first
byte (:func:`decode_payload`): the two per-op records — ``accepted``
without a spec and ``settled`` — are struct-packed (a tag byte,
fixed-width fields, length-prefixed UTF-8 strings); every other record
is a restricted pickle, whose first byte is pickle's PROTO opcode
``0x80``.  Four record kinds exist:

==================  ==================================================
``segment_header``  first record of every segment (index, compact flag, format, next jid)
``accepted``        one submission entered the gateway (jid, key, spec)
``settled``         terminal outcome of one jid — at most once per jid
``frozen``          a frozen topology's fid + spec (re-shipped on recover)
==================  ==================================================

Crash-consistency rules, in the style of etcd's WAL:

- a **torn tail** — a partial or checksum-failing frame at the end of
  the *final* segment — is the expected residue of an interrupted
  append and is truncated away on :meth:`Journal.open`;
- corruption anywhere else (bad frame mid-segment, checksum failure in
  a non-final segment, a record that breaks :data:`RECORD_SCHEMA`, a
  sequence regression, a duplicate settle) cannot be explained by a
  crash and raises a structured :class:`~repro.errors.JournalCorruptError`
  instead of guessing — as does a segment header whose ``format`` is
  newer than this build reads.  :func:`fold_log` is the one read of a
  log, shared with ``repro fsck``: open() repairs nothing until it
  found nothing, so a refused log is left byte for byte as it was;
- every append is written as one frame and fsync'd (policy
  ``"always"``) before the caller proceeds; a failed write is rolled
  back by truncating to the pre-append offset, so torn bytes never
  masquerade as a committed record — the caller gets a structured
  :class:`~repro.errors.JournalWriteError`;
- **rotation** caps segment size; **compaction** rewrites the *live*
  records (frozen specs, unsettled entries, and — by default — keyed
  settled entries, whose results must stay replayable for idempotent
  dedupe) into a fresh segment whose header carries ``compact=True``.
  The compact segment is written under a temporary name and only
  :func:`os.rename`\\ d into place after every live record is on disk
  and fsync'd, so open() can never observe a *partial* compact
  generation: a crash mid-compaction leaves the old segments fully
  intact plus a stale ``*.tmp`` file that the next open() removes.  On
  open, every segment older than the newest compact header is ignored
  (and removed).

All I/O goes through an injectable :class:`~repro.durability.osshim.OsFacade`
so fault-injection tests and the crash soak can schedule fsync
failures, short writes, and ``ENOSPC`` deterministically.
"""

from __future__ import annotations

import errno
import io
import operator
import os
import pickle
import re
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import JournalCorruptError, JournalError, JournalWriteError
from repro.durability.osshim import OsFacade

#: two-byte frame marker; a frame that does not start with it is torn
#: (final segment) or corrupt (anywhere else)
MARKER = b"\xa6\x5c"

#: the fixed frame prefix: marker, payload length, crc32(payload)
_FRAME = struct.Struct("<2sII")

#: full fixed overhead of one frame
FRAME_OVERHEAD = _FRAME.size

#: segment file naming: seg-00000001.wal, strictly increasing indices
_SEGMENT_RE = re.compile(r"^seg-(\d{8})\.wal$")

#: suffix of an uncommitted compact segment being written; renamed to
#: its final name only once complete, removed as stale residue on open
TMP_SUFFIX = ".tmp"

#: largest first-frame payload segment_header() will read (a real
#: ``segment_header`` is a few dozen bytes)
_HEADER_FRAME_MAX = 64 << 10

#: the only globals a journal payload may reference when decoded: the
#: picklable spec classes plus a handful of benign builtins.  ``repro
#: fsck`` is documented as safe to run on a suspect journal, so the
#: codec must never import or execute anything a crafted (CRC-valid)
#: frame names — anything outside this allowlist is reported as a
#: ``"pickle"`` problem by :func:`scan_bytes`, exactly like a payload
#: that fails to parse.
SAFE_GLOBALS = {
    ("builtins", "set"),
    ("builtins", "frozenset"),
    ("builtins", "bytearray"),
    ("builtins", "complex"),
    ("repro.gateway.spec", "WorkSpec"),
    ("repro.gateway.spec", "GeneratedSpec"),
    ("repro.gateway.spec", "BuiltinSpec"),
    ("repro.gateway.spec", "BurstSpec"),
}


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that refuses any global outside :data:`SAFE_GLOBALS`."""

    def find_class(self, module: str, name: str):
        if (module, name) in SAFE_GLOBALS:
            return super().find_class(module, name)
        raise pickle.UnpicklingError(
            f"journal payload references disallowed global "
            f"{module}.{name}"
        )


#: log format written into every ``segment_header``: 2 adds the
#: struct-packed payloads.  A build that predates it reads a struct
#: frame as an undecodable payload, so it must not open a format-2 log
#: (docs/durability.md, "The log format")
FORMAT = 2

#: first byte of a pickled payload (pickle's PROTO opcode, protocol 2+)
PICKLE_PROTO = 0x80
_TAG_ACCEPTED = 0x01
_TAG_SETTLED = 0x02

#: accepted target names by their 2-bit code in the flags byte
_TARGETS = ("spec", "frozen", "instance")
#: flags-byte presence bits of the optional accepted fields
_HAS_FID, _HAS_IID, _HAS_DEADLINE = 0x04, 0x08, 0x10

#: tag, flags, seq, jid, fid, iid, priority, repeats, deadline, then
#: the UTF-8 byte lengths of key and tenant, which follow in that order
_ACCEPTED = struct.Struct("<BBQQqqiidHH")
#: tag, seq, jid, passes, replans, wid, wall_s, then the UTF-8 byte
#: lengths of outcome, error and reason, which follow in that order
_SETTLED = struct.Struct("<BQQiiidHHH")

#: target name -> its 2-bit code in the accepted flags byte
_TARGET_CODES = {name: code for code, name in enumerate(_TARGETS)}

#: the default of a schema field that has none: a record without it
#: is corrupt
REQUIRED = object()

_INT, _STR, _NONE = (int,), (str,), type(None)

#: The one rule for what a record holds, shared by the codec, open()
#: and ``repro fsck``: record kind -> its fields in write order, each
#: ``name: (allowed, default)``.  *allowed* is a tuple of exact types
#: (a bool is not an int) or of the str values the field may take, or
#: None for any value; *default* fills a field a record omits, or is
#: :data:`REQUIRED`.  Every kind also carries ``seq``, a required int.
#: It describes what formats 1 and 2 write, so an int ``wall_s`` or
#: ``deadline`` (which the struct form pickles rather than widen) is
#: allowed.
RECORD_SCHEMA: Dict[str, Dict[str, tuple]] = {
    "segment_header": {
        "index": (_INT, REQUIRED),
        "compact": ((bool,), REQUIRED),
        "format": (_INT, 1),
        # the jid high-water mark a compact segment carries, so that
        # the jids of the settled entries it drops are never handed out
        # again; format-2 readers that predate it ignore it
        "next_jid": (_INT, 1),
    },
    "accepted": {
        "jid": (_INT, REQUIRED),
        "key": (_STR, ""),
        "target": (_TARGETS, "spec"),
        "spec": (None, None),
        "fid": ((int, _NONE), None),
        "iid": ((int, _NONE), None),
        "priority": (_INT, 0),
        "deadline": ((float, int, _NONE), None),
        "repeats": (_INT, 1),
        "tenant": (_STR, ""),
    },
    "settled": {
        "jid": (_INT, REQUIRED),
        "outcome": (_STR, "failed"),
        "passes": (_INT, 0),
        "error": (_STR, ""),
        "reason": (_STR, ""),
        "wall_s": ((float, int), 0.0),
        "replans": (_INT, 0),
        "wid": (_INT, -1),
    },
    "frozen": {"fid": (_INT, REQUIRED), "spec": (None, REQUIRED)},
}
for _fields in RECORD_SCHEMA.values():
    _fields["seq"] = (_INT, REQUIRED)

#: record kinds a segment may carry
RECORD_KINDS = tuple(RECORD_SCHEMA)
#: keys of a record that carries every field of its kind (and ``kind``)
_KEYS = {kind: len(fields) + 1 for kind, fields in RECORD_SCHEMA.items()}
#: the defaults a pickled record's omitted fields take
_DEFAULTS = {
    kind: {name: d for name, (_a, d) in fields.items() if d is not REQUIRED}
    for kind, fields in RECORD_SCHEMA.items()
}
#: the fields a :class:`JournalEntry` keeps, in its constructor's order,
#: and those kept as :attr:`JournalEntry.settled`
_ENTRY_NAMES = tuple(n for n in RECORD_SCHEMA["accepted"] if n != "seq")
_SETTLED_NAMES = tuple(n for n in RECORD_SCHEMA["settled"] if n not in ("jid", "seq"))
_entry_values = operator.itemgetter(*_ENTRY_NAMES)


def _pack(record: dict) -> Optional[bytes]:
    """The struct-packed payload of *record*, or None when it is not a
    per-op record or does not fit the packed layout exactly (the
    caller pickles it instead).  A record fits when it has exactly the
    keys its kind declares in :data:`RECORD_SCHEMA` — the length check
    plus reading every one of them — with ints of type int within
    their fields' widths, floats of type float, and strings of type str
    that encode to UTF-8 (no lone surrogates) within a u16 length."""
    try:
        kind = record["kind"]
        if kind == "settled" and len(record) == _KEYS["settled"]:
            seq, jid, wall_s = record["seq"], record["jid"], record["wall_s"]
            passes, replans, wid = record["passes"], record["replans"], record["wid"]
            outcome, error, reason = record["outcome"], record["error"], record["reason"]
            if (type(seq) is type(jid) is type(passes) is type(replans)
                    is type(wid) is int and type(wall_s) is float
                    and type(outcome) is type(error) is type(reason) is str):
                o, e, r = outcome.encode(), error.encode(), reason.encode()
                return _SETTLED.pack(
                    _TAG_SETTLED, seq, jid, passes, replans, wid, wall_s,
                    len(o), len(e), len(r),
                ) + o + e + r
        elif (kind == "accepted" and len(record) == _KEYS["accepted"]
                and record["spec"] is None):
            seq, jid, fid, iid = record["seq"], record["jid"], record["fid"], record["iid"]
            priority, repeats, deadline = (
                record["priority"], record["repeats"], record["deadline"]
            )
            key, tenant = record["key"], record["tenant"]
            flags = _TARGET_CODES[record["target"]]
            if fid is not None:
                flags |= _HAS_FID
            else:
                fid = 0
            if iid is not None:
                flags |= _HAS_IID
            else:
                iid = 0
            if deadline is not None:
                flags |= _HAS_DEADLINE
            else:
                deadline = 0.0
            if (type(seq) is type(jid) is type(fid) is type(iid)
                    is type(priority) is type(repeats) is int
                    and type(deadline) is float
                    and type(key) is type(tenant) is str):
                k, t = key.encode(), tenant.encode()
                return _ACCEPTED.pack(
                    _TAG_ACCEPTED, flags, seq, jid, fid, iid, priority,
                    repeats, deadline, len(k), len(t),
                ) + k + t
    except (KeyError, TypeError, struct.error, UnicodeEncodeError):
        # a missing key, an unknown target, an int or string past its
        # field's width, a lone surrogate: pickled instead
        pass
    return None


def _unpack_accepted(payload: bytes) -> dict:
    (_tag, flags, seq, jid, fid, iid, priority, repeats, deadline, klen,
     tlen) = _ACCEPTED.unpack_from(payload)
    start = _ACCEPTED.size
    mid = start + klen
    if mid + tlen != len(payload) or flags >> 5:
        raise ValueError("inconsistent accepted payload")
    return {
        "kind": "accepted",
        "jid": jid,
        "key": payload[start:mid].decode() if klen else "",
        "target": _TARGETS[flags & 3],
        "spec": None,
        "fid": fid if flags & _HAS_FID else None,
        "iid": iid if flags & _HAS_IID else None,
        "priority": priority,
        "deadline": deadline if flags & _HAS_DEADLINE else None,
        "repeats": repeats,
        "tenant": payload[mid:].decode() if tlen else "",
        "seq": seq,
    }


def _unpack_settled(payload: bytes) -> dict:
    (_tag, seq, jid, passes, replans, wid, wall_s, olen, elen,
     rlen) = _SETTLED.unpack_from(payload)
    a = _SETTLED.size
    b = a + olen
    c = b + elen
    if c + rlen != len(payload):
        raise ValueError("inconsistent settled payload")
    return {
        "kind": "settled",
        "jid": jid,
        "outcome": payload[a:b].decode() if olen else "",
        "passes": passes,
        "error": payload[b:c].decode() if elen else "",
        "reason": payload[c:].decode() if rlen else "",
        "wall_s": wall_s,
        "replans": replans,
        "wid": wid,
        "seq": seq,
    }


_UNPACKERS = {_TAG_ACCEPTED: _unpack_accepted, _TAG_SETTLED: _unpack_settled}


def decode_payload(payload: bytes) -> dict:
    """Decode one frame payload, whichever form its first byte names:
    a restricted pickle (:data:`SAFE_GLOBALS` allowlist) or a
    struct-packed per-op record.  Both yield the same record dict; any
    undecodable payload raises."""
    tag = payload[0]
    unpack = _UNPACKERS.get(tag)
    if unpack is not None:
        return unpack(payload)
    if tag == PICKLE_PROTO:
        return _RestrictedUnpickler(io.BytesIO(payload)).load()
    raise ValueError(f"unknown journal payload tag {tag:#04x}")


def segment_name(index: int) -> str:
    return f"seg-{index:08d}.wal"


def segment_index(name: str) -> Optional[int]:
    m = _SEGMENT_RE.match(name)
    return int(m.group(1)) if m else None


def is_tmp_segment(name: str) -> bool:
    """A stale mid-compaction leftover (``seg-XXXXXXXX.wal.tmp``)."""
    return name.endswith(TMP_SUFFIX) and (
        segment_index(name[: -len(TMP_SUFFIX)]) is not None
    )


def encode_record(record: dict) -> bytes:
    """Frame one record dict: marker + length + crc32 + payload, the
    payload struct-packed where the record fits that form and pickled
    otherwise."""
    payload = _pack(record)
    if payload is None:
        payload = pickle.dumps(record, protocol=4)
    return _FRAME.pack(MARKER, len(payload), zlib.crc32(payload)) + payload


def scan_bytes(data: bytes) -> Tuple[List[Tuple[int, dict]], int, Optional[Tuple[str, int]]]:
    """Decode every whole frame in *data*.

    Returns ``(records, good_end, problem)`` where *records* is a list
    of ``(offset, record)`` pairs, *good_end* is the byte offset just
    past the last intact frame, and *problem* is ``None`` for a clean
    scan or ``(kind, offset)`` — ``kind`` one of ``"marker"``,
    ``"frame"``, ``"checksum"``, ``"pickle"`` — naming the first bad
    frame.  The caller decides whether the problem is a torn tail
    (final segment: truncate) or corruption (raise / report).
    """
    records: List[Tuple[int, dict]] = []
    append = records.append
    unpack_frame = _FRAME.unpack_from
    crc32 = zlib.crc32
    off = 0
    n = len(data)
    while off < n:
        start = off + FRAME_OVERHEAD
        if start > n:
            return records, off, ("frame", off)
        marker, length, crc = unpack_frame(data, off)
        if marker != MARKER:
            return records, off, ("marker", off)
        end = start + length
        if end > n:
            return records, off, ("frame", off)
        payload = data[start:end]
        if crc32(payload) != crc:
            return records, off, ("checksum", off)
        try:
            record = decode_payload(payload)
        except Exception:
            return records, off, ("pickle", off)
        append((off, record))
        off = end
    return records, off, None


def segment_header(path: str) -> dict:
    """The ``segment_header`` record that starts the segment at *path*,
    or ``{}`` when its first frame is missing, unreadable or not a
    header; reads and decodes that one frame only.  :func:`fold_log`
    judges every segment's header by it, stale ones included, and
    starts the live generation at the newest compact one."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(FRAME_OVERHEAD)
            if len(head) == FRAME_OVERHEAD:
                head += fh.read(min(_FRAME.unpack(head)[1], _HEADER_FRAME_MAX))
    except OSError:
        return {}
    records = scan_bytes(head)[0]
    rec = records[0][1] if records else None
    return rec if type(rec) is dict and rec.get("kind") == "segment_header" else {}


def record_problem(rec: object) -> Optional[Tuple[str, str]]:
    """Why a decoded, CRC-valid record breaks :data:`RECORD_SCHEMA`, as
    ``(kind, detail)``, or None when it keeps it: ``"format"`` for a
    segment header whose ``format`` is not an int this build reads (its
    frames are not this build's to read, let alone truncate), ``"field"``
    for anything else — a record that is not a dict, of no or an
    unknown kind, without a required field, or with a field of a type
    or value its kind does not allow."""
    if type(rec) is not dict:
        return "field", f"a {type(rec).__name__} record, not a dict"
    kind = rec.get("kind")
    fields = RECORD_SCHEMA.get(kind) if type(kind) is str else None
    if fields is None:
        return "field", f"a record of unknown kind {kind!r:.40}"
    if kind == "segment_header":
        fmt = rec.get("format", 1)
        if type(fmt) is not int or fmt > FORMAT:
            return "format", (
                f"segment format {fmt!r:.40} is not one this build reads "
                f"(format {FORMAT} or older)"
            )
    for name, (allowed, default) in fields.items():
        if name not in rec:
            if default is REQUIRED:
                return "field", f"{kind} record without {name}"
            continue
        value = rec[name]
        if allowed is not None and type(value) not in allowed and not (
            type(value) is str and value in allowed
        ):
            return "field", f"{kind} record with {name}={value!r:.40}"
    return None


@dataclass(slots=True)
class JournalEntry:
    """In-memory view of one journaled submission (jid-keyed): the
    ``accepted`` fields of :data:`RECORD_SCHEMA`, in its order, plus
    the settled fields once settled."""

    jid: int
    key: str
    target: str  # "spec" | "frozen" | "instance"
    spec: object
    fid: Optional[int]
    iid: Optional[int]
    priority: int
    deadline: Optional[float]
    repeats: int
    tenant: str
    settled: Optional[dict] = None

    @property
    def is_settled(self) -> bool:
        return self.settled is not None

    @classmethod
    def from_record(cls, rec: dict) -> "JournalEntry":
        """The entry of an accepted record that carries every field
        (struct-packed ones by construction; :func:`fold_log` fills a
        pickled one's omitted fields from the schema)."""
        return cls(*_entry_values(rec))

    def accepted_record(self) -> dict:
        """The (seq-less) accepted record this entry re-serializes to —
        used by compaction to carry live entries forward."""
        return {"kind": "accepted", **{n: getattr(self, n) for n in _ENTRY_NAMES}}

    def settled_record(self) -> dict:
        """The (seq-less) settled record this entry re-serializes to —
        used by compaction to keep keyed settlements replayable."""
        return {"kind": "settled", "jid": self.jid, **(self.settled or {})}


@dataclass
class LogFold:
    """What one read-only pass over a journal directory found
    (:func:`fold_log`): the state :meth:`Journal.open` installs and
    ``repro fsck`` reports, and the repairs open() makes once the pass
    found nothing."""

    live: List[str] = field(default_factory=list)  # from the newest compact header on
    stale: List[str] = field(default_factory=list)  # superseded by a compact segment
    tmp: List[str] = field(default_factory=list)  # uncommitted *.tmp compact residue
    torn: Optional[Tuple[str, int, int]] = None  # (segment, good end, torn bytes)
    records: int = 0
    record_kinds: Dict[str, int] = field(default_factory=dict)
    bytes_scanned: int = 0
    max_seq: int = 0
    next_jid: int = 1  # the live generation's compact-header mark
    entries: Dict[int, JournalEntry] = field(default_factory=dict)
    by_key: Dict[str, int] = field(default_factory=dict)
    unsettled: Set[int] = field(default_factory=set)
    frozen: Dict[int, object] = field(default_factory=dict)


def fold_log(
    path: str, on_finding: Callable[[str, str, int, str], None]
) -> LogFold:
    """Read every segment of the journal directory *path* and fold its
    records into one state, touching no file.

    Every segment header, stale ones included, is judged first (a
    segment whose header is refused is not read further); the live
    generation starts at the newest compact header.  A bad frame is a
    torn tail only at the end of the final segment.  Every pickled
    record is checked against :data:`RECORD_SCHEMA` — struct-packed
    ones are typed by construction — and a schema failure is corruption
    wherever it is, since truncating a CRC-valid record would lose
    data.  Then come the sequence, duplicate-accept, orphan-settle and
    duplicate-settle rules.  Each finding goes to *on_finding* as
    ``(kind, segment, offset, detail)``, and the record it names is not
    applied: :meth:`Journal.open` raises at the first, ``repro fsck``
    collects them all."""
    fold = LogFold()
    listing = os.listdir(path)
    fold.tmp = sorted(n for n in listing if is_tmp_segment(n))
    names = sorted(n for n in listing if segment_index(n) is not None)
    refused: Set[str] = set()
    start = 0
    for i, name in enumerate(names):
        header = segment_header(os.path.join(path, name))
        problem = record_problem(header) if header else None
        if problem is not None:
            refused.add(name)
            on_finding(problem[0], name, 0, problem[1])
        elif header.get("compact"):
            start = i
            fold.next_jid = header.get("next_jid", 1)
    fold.stale, fold.live = names[:start], names[start:]

    entries, by_key, unsettled = fold.entries, fold.by_key, fold.unsettled
    kinds = fold.record_kinds
    max_seq = 0
    for pos, name in enumerate(fold.live):
        if name in refused:
            continue
        with open(os.path.join(path, name), "rb") as fh:
            data = fh.read()
        records, good_end, problem = scan_bytes(data)
        fold.records += len(records)
        fold.bytes_scanned += good_end
        for offset, rec in records:
            if data[offset + FRAME_OVERHEAD] == PICKLE_PROTO:
                bad = record_problem(rec)
                if bad is not None:
                    on_finding(bad[0], name, offset, bad[1])
                    continue
                rec = {**_DEFAULTS[rec["kind"]], **rec}
            kind = rec["kind"]
            kinds[kind] = kinds.get(kind, 0) + 1
            seq = rec["seq"]
            if seq <= max_seq:
                on_finding("sequence", name, offset, f"seq {seq} after {max_seq}")
                continue
            max_seq = seq
            if kind == "accepted":
                jid = rec["jid"]
                if jid in entries:
                    on_finding("duplicate", name, offset, f"accepted jid {jid} twice")
                    continue
                entry = entries[jid] = JournalEntry.from_record(rec)
                unsettled.add(jid)
                if entry.key:
                    by_key[entry.key] = jid
            elif kind == "settled":
                jid = rec["jid"]
                entry = entries.get(jid)
                if entry is None:
                    on_finding("orphan", name, offset, f"settle for unknown jid {jid}")
                elif entry.settled is not None:
                    on_finding("duplicate", name, offset, f"jid {jid} settled twice")
                else:
                    entry.settled = {k: rec[k] for k in _SETTLED_NAMES}
                    unsettled.discard(jid)
            elif kind == "frozen":
                fold.frozen[rec["fid"]] = rec["spec"]
        if problem is not None:
            if pos == len(fold.live) - 1:
                fold.torn = (name, good_end, len(data) - good_end)
            else:
                on_finding(problem[0], name, problem[1], "in a non-final segment")
    fold.max_seq = max_seq
    return fold


def _refuse(kind: str, segment: str, offset: int, detail: str) -> None:
    """:meth:`Journal.open`'s answer to a finding."""
    raise JournalCorruptError(
        kind, segment, offset,
        f"journal corrupt ({kind}: {detail}) in segment {segment!r} at "
        f"byte {offset}",
    )


@dataclass
class OpenReport:
    """What :meth:`Journal.open` found and repaired."""

    segments: int = 0
    records: int = 0
    torn_tail_bytes: int = 0
    torn_truncations: int = 0
    dropped_segments: int = 0  # pre-compaction leftovers removed
    tmp_removed: int = 0  # uncommitted *.tmp compact segments removed
    entries: int = 0
    unsettled: int = 0
    frozen: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


class Journal:
    """Append-only, checksummed, fsync'd submission journal.

    *path* is a directory (created on open).  ``fsync_policy`` is
    ``"always"`` (fsync every append — the durability the gateway
    relies on), ``"batch"`` (fsync on :meth:`flush`, rotation, and
    close), or ``"never"`` (tests only).  ``os_impl`` swaps the
    system-call surface for fault injection
    (:class:`~repro.durability.osshim.FaultyOs`).

    ``compact_retain_keyed`` (default True) makes compaction carry
    settled entries that have an idempotency key forward, so a
    replayed key keeps returning the journaled Result no matter how
    many compactions have run; set it False to bound the dedupe
    window at one compaction (keyed settlements are then dropped like
    unkeyed ones).  It is fixed at construction: the count of entries
    a compaction would drop is kept up to date append by append, and
    that count depends on it.
    """

    def __init__(
        self,
        path: str,
        *,
        os_impl: Optional[OsFacade] = None,
        segment_max_bytes: int = 1 << 20,
        fsync_policy: str = "always",
        auto_compact: bool = True,
        compact_min_settled: int = 256,
        compact_retain_keyed: bool = True,
        metrics=None,
    ) -> None:
        if fsync_policy not in ("always", "batch", "never"):
            raise JournalError(
                f"unknown fsync_policy {fsync_policy!r}: expected "
                "'always', 'batch', or 'never'"
            )
        if segment_max_bytes < 4 * FRAME_OVERHEAD:
            raise JournalError("segment_max_bytes is too small to hold records")
        self.path = str(path)
        self.segment_max_bytes = segment_max_bytes
        self.fsync_policy = fsync_policy
        self.auto_compact = auto_compact
        self.compact_min_settled = compact_min_settled
        self._retain_keyed = compact_retain_keyed
        self._os = os_impl or OsFacade()
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        self._seg_index = 0
        self._seg_size = 0
        self._compacting = False
        self._open = False
        self._next_seq = 1
        self._next_jid = 1
        self.entries: Dict[int, JournalEntry] = {}
        self.by_key: Dict[str, int] = {}
        self.frozen_specs: Dict[int, object] = {}
        # summary counts, kept in step with ``entries`` at every state
        # change so no append has to walk the log: the jids accepted
        # but not settled, and how many settled entries compaction
        # would drop
        self._unsettled: Set[int] = set()
        self._droppable_count = 0
        self.open_report = OpenReport()

        # journal.* metrics (docs/observability.md, "Journal counters")
        if metrics is None:
            from repro.metrics.registry import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        self._m_appends = metrics.counter("journal.appends")
        self._m_bytes = metrics.counter("journal.bytes")
        self._m_fsyncs = metrics.counter("journal.fsyncs")
        self._m_rotations = metrics.counter("journal.rotations")
        self._m_compactions = metrics.counter("journal.compactions")
        self._m_torn = metrics.counter("journal.torn_truncations")
        self._m_errors = metrics.counter("journal.errors")
        metrics.register_callback("journal.segments", self._num_segments)
        metrics.register_callback(
            "journal.unsettled", lambda: len(self._unsettled)
        )

    # -- introspection -------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def compact_retain_keyed(self) -> bool:
        return self._retain_keyed

    @property
    def next_fid(self) -> int:
        return max(self.frozen_specs, default=0) + 1

    def _num_segments(self) -> int:
        if not os.path.isdir(self.path):
            return 0
        return sum(1 for n in os.listdir(self.path) if segment_index(n) is not None)

    def counts(self) -> Dict[str, int]:
        unsettled = len(self._unsettled)
        return {
            "entries": len(self.entries),
            "settled": len(self.entries) - unsettled,
            "unsettled": unsettled,
            "frozen": len(self.frozen_specs),
        }

    def lookup(self, key: str) -> Optional[int]:
        """jid journaled under idempotency key *key*, or None."""
        return self.by_key.get(key)

    def get(self, jid: int) -> Optional[JournalEntry]:
        return self.entries.get(jid)

    def unsettled(self) -> List[JournalEntry]:
        """Entries accepted but never settled, in jid order — exactly
        the work :meth:`repro.gateway.Gateway.recover` must resubmit."""
        return [self.entries[jid] for jid in sorted(self._unsettled)]

    # -- open / close --------------------------------------------------
    def open(self) -> "Journal":
        """Open (or create) the journal: fold every segment into the
        in-memory state (:func:`fold_log`), and only once the log proved
        sound repair it — remove ``*.tmp`` residue and pre-compaction
        segments, truncate a torn tail — and position the write head.
        A refused log raises :class:`~repro.errors.JournalCorruptError`
        with every file as it was.  Idempotent."""
        if self._open:
            return self
        os.makedirs(self.path, exist_ok=True)
        fold = fold_log(self.path, _refuse)
        report = OpenReport(segments=len(fold.live), records=fold.records)
        # an uncommitted compact segment (crash mid-compaction, before
        # the rename) is residue, never state — the superseded
        # generation it was replacing is still complete on disk
        for name in fold.tmp:
            self._os.unlink(os.path.join(self.path, name))
            report.tmp_removed += 1
        # a crash between "write compact segment" and "delete the old
        # ones" leaves harmless leftovers
        for name in fold.stale:
            self._os.unlink(os.path.join(self.path, name))
            report.dropped_segments += 1
        if fold.torn is not None:
            # torn tail: the expected residue of an interrupted append
            name, good_end, report.torn_tail_bytes = fold.torn
            report.torn_truncations = 1
            self._m_torn.inc()
            fd = self._os.open(os.path.join(self.path, name), os.O_WRONLY)
            try:
                self._os.ftruncate(fd, good_end)
                if self.fsync_policy != "never":
                    self._os.fsync(fd)
            finally:
                self._os.close(fd)

        self.entries, self.by_key = fold.entries, fold.by_key
        self.frozen_specs, self._unsettled = fold.frozen, fold.unsettled
        self._droppable_count = sum(
            1 for e in self.entries.values() if self._droppable(e)
        )
        self._next_seq = fold.max_seq + 1
        self._next_jid = max(fold.next_jid, max(self.entries, default=0) + 1)
        report.entries, report.unsettled, report.frozen = (
            len(self.entries), len(self._unsettled), len(self.frozen_specs)
        )
        self.open_report = report

        self._open = True
        if fold.live:
            self._seg_index = segment_index(fold.live[-1])
            spath = os.path.join(self.path, fold.live[-1])
            self._seg_size = os.path.getsize(spath)
            self._fd = self._os.open(spath, os.O_WRONLY)
            os.lseek(self._fd, self._seg_size, os.SEEK_SET)
        else:
            self._new_segment(1, compact=False)
        return self

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                if self.fsync_policy != "never":
                    try:
                        self._os.fsync(self._fd)
                        self._m_fsyncs.inc()
                    except OSError:
                        pass
                try:
                    self._os.close(self._fd)
                except OSError:  # pragma: no cover - already gone
                    pass
                self._fd = None
            self._open = False

    def flush(self) -> None:
        """fsync the current segment (a no-op under ``"always"`` where
        every append already synced)."""
        with self._lock:
            if self._fd is not None and self.fsync_policy != "never":
                self._os.fsync(self._fd)
                self._m_fsyncs.inc()

    # -- appends -------------------------------------------------------
    def append_accepted(
        self,
        *,
        key: str = "",
        target: str = "spec",
        spec: object = None,
        fid: Optional[int] = None,
        iid: Optional[int] = None,
        priority: int = 0,
        deadline: Optional[float] = None,
        repeats: int = 1,
        tenant: str = "",
    ) -> int:
        """Journal one accepted submission; returns its durable jid.

        The record is on disk (and fsync'd, policy permitting) before
        this returns — the gateway calls it before the client sees the
        submission handle, so a crash can never lose accepted work."""
        with self._lock:
            self._check_writable()
            if key and key in self.by_key:
                raise JournalError(
                    f"idempotency key {key!r} already journaled as "
                    f"jid {self.by_key[key]} (dedupe before appending)"
                )
            jid = self._next_jid
            rec = {
                "kind": "accepted",
                "jid": jid,
                "key": key,
                "target": target,
                "spec": spec,
                "fid": fid,
                "iid": iid,
                "priority": priority,
                "deadline": deadline,
                "repeats": repeats,
                "tenant": tenant,
            }
            self._append(rec)
            self._next_jid = jid + 1
            entry = JournalEntry.from_record(rec)
            self.entries[jid] = entry
            self._unsettled.add(jid)
            if key:
                self.by_key[key] = jid
            return jid

    def append_settled(
        self,
        jid: int,
        *,
        outcome: str,
        passes: int = 0,
        error: str = "",
        reason: str = "",
        wall_s: float = 0.0,
        replans: int = 0,
        wid: int = -1,
    ) -> None:
        """Journal the terminal outcome of *jid* — exactly once.

        On disk before the gateway resolves the client's Result, so a
        settlement the client observed is never re-run after a crash."""
        with self._lock:
            self._check_writable()
            entry = self.entries.get(jid)
            if entry is None:
                raise JournalError(f"cannot settle unknown jid {jid}")
            if entry.is_settled:
                raise JournalError(
                    f"jid {jid} already settled "
                    f"({entry.settled.get('outcome')!r}); settlements are "
                    f"exactly-once"
                )
            fields = {
                "outcome": outcome,
                "passes": passes,
                "error": error,
                "reason": reason,
                "wall_s": wall_s,
                "replans": replans,
                "wid": wid,
            }
            self._append({"kind": "settled", "jid": jid, **fields})
            entry.settled = fields
            self._unsettled.discard(jid)
            if self._droppable(entry):
                self._droppable_count += 1
            self._maybe_compact()

    def append_frozen(self, fid: int, spec: object) -> None:
        """Journal one frozen topology so recovery can re-ship it."""
        with self._lock:
            self._check_writable()
            if fid in self.frozen_specs:
                raise JournalError(f"fid {fid} already journaled")
            self._append({"kind": "frozen", "fid": fid, "spec": spec})
            self.frozen_specs[fid] = spec

    def _check_writable(self) -> None:
        if not self._open or self._fd is None:
            raise JournalError("journal is not open")

    def _append(self, record: dict) -> None:
        """Frame, write, and (policy permitting) fsync one record; the
        caller holds the lock.  A failed write rolls the segment back
        to its pre-append offset and raises a structured error."""
        record = dict(record)
        record["seq"] = self._next_seq
        frame = encode_record(record)
        if frame[FRAME_OVERHEAD] == PICKLE_PROTO:
            # never commit a record open() would refuse the log for
            problem = record_problem(record)
            if problem is not None:
                self._m_errors.inc()
                raise JournalError(f"cannot journal {problem[1]}")
        if (
            not self._compacting  # a compact segment holds ALL live state
            and self._seg_size + len(frame) > self.segment_max_bytes
            and self._seg_size > 0
        ):
            self._rotate_locked()
            # the new segment's header consumed a seq: re-stamp
            record["seq"] = self._next_seq
            frame = encode_record(record)
        seg = segment_name(self._seg_index)
        offset = self._seg_size
        try:
            n = self._os.write(self._fd, frame)
        except OSError as exc:
            self._rollback(offset)
            self._m_errors.inc()
            reason = "enospc" if exc.errno == errno.ENOSPC else "write"
            raise JournalWriteError(
                reason, segment=seg, errno_code=exc.errno or 0
            ) from exc
        if n != len(frame):
            self._rollback(offset)
            self._m_errors.inc()
            raise JournalWriteError("short_write", segment=seg)
        if self.fsync_policy == "always":
            try:
                self._os.fsync(self._fd)
            except OSError as exc:
                # the bytes may or may not be durable: roll back so the
                # record is *definitely not* committed rather than maybe
                self._rollback(offset)
                self._m_errors.inc()
                raise JournalWriteError(
                    "fsync", segment=seg, errno_code=exc.errno or 0
                ) from exc
            self._m_fsyncs.inc()
        self._seg_size += len(frame)
        self._next_seq += 1
        self._m_appends.inc()
        self._m_bytes.inc(len(frame))

    def _rollback(self, offset: int) -> None:
        """Best-effort truncate back to *offset* after a failed append;
        if even that fails, the torn bytes are cleaned by the torn-tail
        scan on the next open."""
        try:
            self._os.ftruncate(self._fd, offset)
            os.lseek(self._fd, offset, os.SEEK_SET)
        except OSError:  # pragma: no cover - doubly-faulty device
            pass

    # -- rotation / compaction ----------------------------------------
    def rotate(self) -> None:
        """Seal the current segment and open a fresh one."""
        with self._lock:
            self._check_writable()
            self._rotate_locked()

    def _rotate_locked(self) -> None:
        if self.fsync_policy != "never":
            try:
                self._os.fsync(self._fd)
                self._m_fsyncs.inc()
            except OSError as exc:
                self._m_errors.inc()
                raise JournalWriteError(
                    "rotate",
                    segment=segment_name(self._seg_index),
                    errno_code=exc.errno or 0,
                ) from exc
        self._os.close(self._fd)
        self._fd = None
        self._new_segment(self._seg_index + 1, compact=False)
        self._m_rotations.inc()

    def _new_segment(self, index: int, *, compact: bool) -> None:
        spath = os.path.join(self.path, segment_name(index))
        self._fd = self._os.open(
            spath, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
        )
        self._seg_index = index
        self._seg_size = 0
        self._append(
            {"kind": "segment_header", "index": index, "compact": compact,
             "format": FORMAT}
        )
        try:
            self._os.fsync_dir(self.path)
        except OSError:  # pragma: no cover - exotic filesystems
            pass

    def _droppable(self, entry: JournalEntry) -> bool:
        """Would compaction discard *entry*?  Settled and either
        unkeyed or keyed-retention disabled."""
        return entry.is_settled and (not entry.key or not self._retain_keyed)

    def _maybe_compact(self) -> None:
        """Auto-compact once enough settled entries are droppable; the
        caller holds the lock.  A failed compaction was already counted
        in ``journal.errors`` and rolled back; it never fails the settle
        that triggered it, and the next settle retries."""
        if not self.auto_compact or self._droppable_count < self.compact_min_settled:
            return
        try:
            self._compact_locked()
        except JournalWriteError:
            pass

    def compact(self) -> int:
        """Rewrite the live records — frozen specs, unsettled entries,
        and (with ``compact_retain_keyed``, the default) keyed settled
        entries whose results must stay replayable for dedupe — into a
        fresh compact segment and drop everything older.  Returns the
        number of settled entries dropped.

        Crash-safe: the compact segment is written under a temporary
        name and renamed into place — atomically — only after every
        live record is on disk and fsync'd.  Until that rename the old
        generation is the only one open() can see, so a crash at any
        point mid-compaction loses nothing; open() removes the stale
        ``*.tmp`` file.  A journal *write* failure mid-compaction
        rolls the whole compaction back (the temporary file is
        unlinked, appends resume on the old generation) and re-raises
        the structured :class:`~repro.errors.JournalWriteError`."""
        with self._lock:
            return self._compact_locked()

    def _compact_locked(self) -> int:
        self._check_writable()
        old = [
            n
            for n in sorted(os.listdir(self.path))
            if segment_index(n) is not None
        ]
        if self.fsync_policy != "never":
            try:
                self._os.fsync(self._fd)
            except OSError as exc:
                # nothing written or closed yet: appends carry on as
                # they were
                self._m_errors.inc()
                raise JournalWriteError(
                    "fsync", segment=segment_name(self._seg_index),
                    errno_code=exc.errno or 0,
                ) from exc
            self._m_fsyncs.inc()
        self._os.close(self._fd)
        self._fd = None
        prev_index, prev_size = self._seg_index, self._seg_size
        keep: List[JournalEntry] = []
        drop: List[JournalEntry] = []
        for e in self.entries.values():
            (drop if self._droppable(e) else keep).append(e)
        keep.sort(key=lambda e: e.jid)
        index = prev_index + 1
        final_path = os.path.join(self.path, segment_name(index))
        tmp_path = final_path + TMP_SUFFIX
        try:
            self._compacting = True
            try:
                self._fd = self._os.open(
                    tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except OSError as exc:
                self._m_errors.inc()
                raise JournalWriteError(
                    "enospc" if exc.errno == errno.ENOSPC else "write",
                    segment=segment_name(index), errno_code=exc.errno or 0,
                ) from exc
            self._seg_index = index
            self._seg_size = 0
            self._append(
                {"kind": "segment_header", "index": index, "compact": True,
                 "format": FORMAT, "next_jid": self._next_jid}
            )
            for fid in sorted(self.frozen_specs):
                self._append(
                    {"kind": "frozen", "fid": fid,
                     "spec": self.frozen_specs[fid]}
                )
            for entry in keep:
                self._append(entry.accepted_record())
            for entry in keep:
                if entry.is_settled:
                    self._append(entry.settled_record())
            if self.fsync_policy != "never":
                try:
                    self._os.fsync(self._fd)
                except OSError as exc:
                    self._m_errors.inc()
                    raise JournalWriteError(
                        "fsync", segment=segment_name(index),
                        errno_code=exc.errno or 0,
                    ) from exc
                self._m_fsyncs.inc()
            # the commit point: the complete, fsync'd compact
            # segment becomes visible atomically
            try:
                self._os.rename(tmp_path, final_path)
            except OSError as exc:
                self._m_errors.inc()
                raise JournalWriteError(
                    "rename", segment=segment_name(index),
                    errno_code=exc.errno or 0,
                ) from exc
        except JournalWriteError:
            # roll the whole compaction back: remove the temporary
            # segment and resume appends on the old generation,
            # which was never touched
            if self._fd is not None:
                try:
                    self._os.close(self._fd)
                except OSError:  # pragma: no cover - already gone
                    pass
                self._fd = None
            try:
                self._os.unlink(tmp_path)
            except OSError:  # pragma: no cover - never created
                pass
            self._seg_index, self._seg_size = prev_index, prev_size
            self._fd = self._os.open(
                os.path.join(self.path, segment_name(prev_index)),
                os.O_WRONLY,
            )
            os.lseek(self._fd, prev_size, os.SEEK_SET)
            raise
        finally:
            self._compacting = False
        try:
            self._os.fsync_dir(self.path)
        except OSError:  # pragma: no cover - exotic filesystems
            pass
        # the compact generation is durable: drop the discarded
        # settled entries from memory and the old segments from disk
        for entry in drop:
            del self.entries[entry.jid]
            if entry.key:
                self.by_key.pop(entry.key, None)
        self._droppable_count = 0
        for name in old:
            self._os.unlink(os.path.join(self.path, name))
        try:
            self._os.fsync_dir(self.path)
        except OSError:  # pragma: no cover - exotic filesystems
            pass
        self._m_compactions.inc()
        return len(drop)


__all__ = [
    "Journal",
    "JournalEntry",
    "OpenReport",
    "MARKER",
    "FRAME_OVERHEAD",
    "FORMAT",
    "PICKLE_PROTO",
    "RECORD_KINDS",
    "SAFE_GLOBALS",
    "TMP_SUFFIX",
    "encode_record",
    "decode_payload",
    "scan_bytes",
    "segment_name",
    "segment_index",
    "is_tmp_segment",
    "segment_header",
    "record_problem",
    "RECORD_SCHEMA",
    "REQUIRED",
    "LogFold",
    "fold_log",
]
