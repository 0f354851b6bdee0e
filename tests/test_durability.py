"""Tests for the durable submission journal (:mod:`repro.durability`).

Pure file-level tests — no gateway, no spawned processes (those live in
tests/test_gateway_durability.py).  The property-style classes sweep
seeded random record batches through the codec and the journal under
truncation, bit flips, and scheduled system-call faults: every torn
tail must truncate cleanly, every flipped bit must be rejected by the
checksum, and every injected fault must surface as a structured
:class:`~repro.errors.JournalWriteError` with the record rolled back.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import random
import shutil
import struct
import sys
import tempfile
import threading
import time
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.durability import (
    FaultyOs,
    FsckReport,
    Journal,
    encode_record,
    fsck,
    scan_bytes,
    segment_index,
    segment_name,
)
from repro.durability.journal import (
    FORMAT,
    FRAME_OVERHEAD,
    MARKER,
    PICKLE_PROTO,
    RECORD_SCHEMA,
    TMP_SUFFIX,
    JournalEntry,
)
from repro.errors import JournalCorruptError, JournalError, JournalWriteError

#: the format-1 (all-pickle) journal committed under tests/data/
V1_JOURNAL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "journal_v1")


def _record(rng: random.Random, seq: int) -> dict:
    return {
        "kind": "accepted",
        "seq": seq,
        "jid": seq,
        "key": f"k{seq}" if rng.random() < 0.5 else "",
        "target": rng.choice(("spec", "frozen", "instance")),
        "payload": rng.randbytes(rng.randint(0, 200)),
    }


def _fill(journal: Journal, n: int, *, settle: int = 0) -> None:
    for i in range(n):
        journal.append_accepted(key=f"k{i}", target="spec", tenant="t")
    for jid in range(1, settle + 1):
        journal.append_settled(jid, outcome="completed")


class TestCodec:
    def test_roundtrip_random_batches(self):
        for seed in range(8):
            rng = random.Random(seed)
            records = [_record(rng, s) for s in range(1, rng.randint(2, 30))]
            blob = b"".join(encode_record(r) for r in records)
            scanned, good_end, problem = scan_bytes(blob)
            assert problem is None
            assert good_end == len(blob)
            assert [r for _off, r in scanned] == records

    def test_truncation_at_every_boundary(self):
        """A torn tail at ANY byte offset yields exactly the records
        whose frames are complete — never an exception, never a
        half-parsed record."""
        rng = random.Random(42)
        records = [_record(rng, s) for s in range(1, 6)]
        frames = [encode_record(r) for r in records]
        blob = b"".join(frames)
        ends = [0]
        for f in frames:
            ends.append(ends[-1] + len(f))
        for cut in range(len(blob) + 1):
            scanned, good_end, problem = scan_bytes(blob[:cut])
            complete = sum(1 for e in ends[1:] if e <= cut)
            assert len(scanned) == complete
            assert good_end == ends[complete]
            assert (problem is None) == (cut == ends[complete])

    def test_bit_flips_rejected(self):
        rng = random.Random(7)
        records = [_record(rng, s) for s in range(1, 10)]
        blob = bytearray(b"".join(encode_record(r) for r in records))
        for _ in range(32):
            pos = rng.randrange(len(blob))
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << rng.randrange(8)
            scanned, _good_end, problem = scan_bytes(bytes(flipped))
            # the flip must cost records from its frame onward, and the
            # scan must flag the damage — silent acceptance is the bug
            assert problem is not None
            assert len(scanned) < len(records)

    def test_segment_names(self):
        assert segment_name(3) == "seg-00000003.wal"
        assert segment_index("seg-00000003.wal") == 3
        assert segment_index("other.txt") is None

    def test_spec_payloads_roundtrip_restricted(self):
        # the allowlisted spec classes decode normally
        from repro.gateway.spec import BurstSpec, GeneratedSpec

        rec = {
            "kind": "accepted", "seq": 1, "jid": 1,
            "spec": GeneratedSpec(seed=3, num_gpus=1),
            "extra": (BurstSpec(width=2), frozenset({1, 2})),
        }
        scanned, good_end, problem = scan_bytes(encode_record(rec))
        assert problem is None
        assert scanned[0][1]["spec"] == GeneratedSpec(seed=3, num_gpus=1)

    def test_malicious_frame_is_rejected_not_executed(self, tmp_path):
        # a crafted, CRC-valid frame naming a global outside the
        # allowlist must surface as a "pickle" problem — the payload is
        # never imported or executed, even by read-only fsck
        pwned = tmp_path / "pwned"

        class Evil:
            def __reduce__(self):
                return (os.mkdir, (str(pwned),))

        evil = encode_record({"kind": "accepted", "seq": 2, "spec": Evil()})
        scanned, _good_end, problem = scan_bytes(evil)
        assert problem is not None and problem[0] == "pickle"
        assert scanned == [] and not pwned.exists()

        # planted in a sealed (non-final) segment it is corruption:
        # fsck flags it, open() refuses — and neither executes it
        jdir = tmp_path / "j"
        jdir.mkdir()
        (jdir / segment_name(1)).write_bytes(
            encode_record(
                {"kind": "segment_header", "index": 1, "compact": False,
                 "seq": 1}
            )
            + evil
        )
        (jdir / segment_name(2)).write_bytes(
            encode_record(
                {"kind": "segment_header", "index": 2, "compact": False,
                 "seq": 3}
            )
        )
        report = fsck(str(jdir))
        assert not report.clean
        assert report.corruptions[0].kind == "pickle"
        with pytest.raises(JournalCorruptError):
            Journal(str(jdir)).open()
        assert not pwned.exists()


#: texts a struct-packed string field must carry exactly
_TEXTS = ("", "k", "clé-ü", "雪" * 3, "\U0001f600", "a\x00b", "x" * 300)
#: ints at and beyond the packed widths (i32 and i64 fields)
_WIDE = (2**31 - 1, -(2**31), 2**31, 2**63 - 1, -(2**63), 2**63, 2**64)


def _frame(payload: bytes) -> bytes:
    """A CRC-valid frame around *payload*, whatever it holds."""
    return MARKER + struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


def _per_op_record(rng: random.Random, seq: int) -> dict:
    """A seeded accepted-without-spec or settled record, mostly
    packable, sometimes with a lone surrogate or an over-wide int."""

    def text():
        return "\ud800" if rng.random() < 0.02 else rng.choice(_TEXTS)

    def num(lo, hi):
        return rng.choice(_WIDE) if rng.random() < 0.05 else rng.randint(lo, hi)

    if rng.random() < 0.5:
        return {
            "kind": "accepted", "jid": seq, "key": text(),
            "target": rng.choice(("spec", "frozen", "instance")), "spec": None,
            "fid": rng.choice((None, num(0, 99))), "iid": rng.choice((None, num(0, 99))),
            "priority": num(-5, 5), "deadline": rng.choice((None, rng.uniform(0, 60))),
            "repeats": num(1, 4), "tenant": text(), "seq": seq,
        }
    return {
        "kind": "settled", "jid": seq,
        "outcome": rng.choice(("completed", "failed", "worker_lost", "")),
        "passes": num(0, 3), "error": text(), "reason": text(),
        "wall_s": rng.uniform(0, 1), "replans": num(0, 2), "wid": num(-1, 3),
        "seq": seq,
    }


def _packable(rec: dict) -> bool:
    """Does *rec* fit the struct layout (the codec must pack exactly
    these and pickle the rest)?"""
    texts = [v for v in rec.values() if isinstance(v, str)]
    try:
        for t in texts:
            t.encode("utf-8")
    except UnicodeEncodeError:
        return False
    narrow = ("passes", "replans", "wid", "priority", "repeats")
    for k, v in rec.items():
        if k in narrow and not -(2**31) <= v < 2**31:
            return False
        if k in ("seq", "jid") and not 0 <= v < 2**64:
            return False
        if k in ("fid", "iid") and v is not None and not -(2**63) <= v < 2**63:
            return False
    return True


def _payload_form(frame: bytes) -> str:
    return "pickle" if frame[FRAME_OVERHEAD] == PICKLE_PROTO else "struct"


class TestStructCodec:
    """The two per-op records are struct-packed; every decoded record
    equals the dict that was encoded, whichever form carried it."""

    def test_seeded_roundtrip_equals_input(self):
        forms = {"struct": 0, "pickle": 0}
        for seed in range(20):
            rng = random.Random(seed)
            records = [_per_op_record(rng, s) for s in range(1, 60)]
            frames = [encode_record(r) for r in records]
            for rec, frame in zip(records, frames):
                form = _payload_form(frame)
                assert form == ("struct" if _packable(rec) else "pickle"), rec
                forms[form] += 1
            scanned, good_end, problem = scan_bytes(b"".join(frames))
            assert problem is None and good_end == sum(map(len, frames))
            assert [r for _off, r in scanned] == records
        # both forms were exercised, the fallback included
        assert forms["struct"] > 500 and forms["pickle"] > 50

    def test_edge_values_roundtrip(self):
        base = {
            "kind": "accepted", "jid": 1, "key": "", "target": "frozen",
            "spec": None, "fid": None, "iid": None, "priority": 0,
            "deadline": None, "repeats": 1, "tenant": "", "seq": 1,
        }
        cases = [
            (base, "struct"),
            (dict(base, key="雪\U0001f600", tenant="t", deadline=2.5, fid=0, iid=-3), "struct"),
            (dict(base, key="\udc80"), "pickle"),  # lone surrogate
            (dict(base, priority=2**31), "pickle"),  # beyond i32
            (dict(base, fid=2**63), "pickle"),  # beyond i64
            (dict(base, seq=2**64), "pickle"),  # beyond u64
            (dict(base, deadline=5), "pickle"),  # an int deadline stays an int
            (dict(base, priority=True), "pickle"),  # a bool stays a bool
            (dict(base, key="k" * 70_000), "pickle"),  # over the u16 length
            (dict(base, target="elsewhere"), "pickle"),
            (dict(base, spec={"width": 2}), "pickle"),
            (dict(base, extra=1), "pickle"),
            ({k: v for k, v in base.items() if k != "iid"}, "pickle"),
            ({"kind": "settled", "jid": 2, "outcome": "completed", "passes": 1,
              "error": "", "reason": "", "wall_s": 0.0, "replans": 0, "wid": -1,
              "seq": 2}, "struct"),
            ({"kind": "settled", "jid": 2, "outcome": "completed", "passes": 1,
              "error": "", "reason": "", "wall_s": 0, "replans": 0, "wid": -1,
              "seq": 2}, "pickle"),  # an int wall_s stays an int
            ({"kind": "segment_header", "index": 1, "compact": False,
              "format": FORMAT, "seq": 1}, "pickle"),
        ]
        for rec, form in cases:
            frame = encode_record(rec)
            assert _payload_form(frame) == form, rec
            scanned, _good_end, problem = scan_bytes(frame)
            assert problem is None
            decoded = scanned[0][1]
            assert decoded == rec
            assert [type(v) for v in decoded.values()] == [type(v) for v in rec.values()]

    def test_truncation_at_every_boundary(self):
        rng = random.Random(42)
        records = [_per_op_record(rng, s) for s in range(1, 9)]
        frames = [encode_record(r) for r in records]
        assert {_payload_form(f) for f in frames} == {"struct"}
        blob = b"".join(frames)
        ends = [0]
        for f in frames:
            ends.append(ends[-1] + len(f))
        for cut in range(len(blob) + 1):
            scanned, good_end, problem = scan_bytes(blob[:cut])
            complete = sum(1 for e in ends[1:] if e <= cut)
            assert len(scanned) == complete
            assert good_end == ends[complete]
            assert (problem is None) == (cut == ends[complete])

    def test_bit_flips_rejected(self):
        rng = random.Random(7)
        records = [_per_op_record(rng, s) for s in range(1, 12)]
        blob = bytearray(b"".join(encode_record(r) for r in records))
        for _ in range(64):
            pos = rng.randrange(len(blob))
            flipped = bytearray(blob)
            flipped[pos] ^= 1 << rng.randrange(8)
            scanned, _good_end, problem = scan_bytes(bytes(flipped))
            assert problem is not None
            assert len(scanned) < len(records)

    @staticmethod
    def _bad_struct_payloads():
        settled = encode_record({
            "kind": "settled", "jid": 1, "outcome": "completed", "passes": 1,
            "error": "", "reason": "", "wall_s": 0.0, "replans": 0, "wid": 0,
            "seq": 3,
        })[FRAME_OVERHEAD:]
        accepted = encode_record({
            "kind": "accepted", "jid": 1, "key": "k", "target": "frozen",
            "spec": None, "fid": 1, "iid": None, "priority": 0,
            "deadline": None, "repeats": 1, "tenant": "t", "seq": 2,
        })[FRAME_OVERHEAD:]
        assert settled[0] != PICKLE_PROTO and accepted[0] != PICKLE_PROTO
        return {
            "unknown tag": b"\x07" + settled[1:],
            "empty": b"",
            "lengths short": settled[:-1],
            "lengths long": settled + b"x",
            "accepted lengths long": accepted + b"x",
            "accepted lengths short": accepted[:-1],
            "unknown flag bits": accepted[:1] + bytes([accepted[1] | 0x80]) + accepted[2:],
            "target code 3": accepted[:1] + bytes([accepted[1] | 0x03]) + accepted[2:],
            "invalid utf-8": accepted[:-1] + b"\xff",
        }

    def test_malformed_struct_frame_is_a_pickle_problem(self):
        for name, payload in self._bad_struct_payloads().items():
            scanned, good_end, problem = scan_bytes(_frame(payload))
            assert (scanned, good_end, problem) == ([], 0, ("pickle", 0)), name

    def test_malformed_struct_frame_torn_in_final_segment_corrupt_elsewhere(self, tmp_path):
        for i, (name, payload) in enumerate(self._bad_struct_payloads().items()):
            path = str(tmp_path / f"j{i}")
            j = Journal(path, fsync_policy="never")
            j.open()
            _fill(j, 3, settle=2)
            j.rotate()
            j.close()
            final = os.path.join(path, segment_name(2))
            sealed = os.path.join(path, segment_name(1))
            clean_size = os.path.getsize(final)

            # final segment: a torn tail, truncated by open
            with open(final, "ab") as fh:
                fh.write(_frame(payload))
            report = fsck(path)
            assert report.clean and report.torn_tail_bytes > 0, name
            j2 = Journal(path)
            j2.open()
            assert j2.open_report.torn_truncations == 1, name
            assert j2.counts() == {"entries": 3, "settled": 2, "unsettled": 1, "frozen": 0}
            j2.close()
            assert os.path.getsize(final) == clean_size

            # a sealed segment: corruption, refused by open and fsck
            with open(sealed, "ab") as fh:
                fh.write(_frame(payload))
            report = fsck(path)
            assert [c.kind for c in report.corruptions] == ["pickle"], name
            assert report.corruptions[0].segment == segment_name(1)
            with pytest.raises(JournalCorruptError) as err:
                Journal(path).open()
            assert err.value.kind == "pickle"


class TestFormatCompatibility:
    """A format-1 journal (all pickle, written by an older build) opens
    unchanged, takes struct-packed appends and reopens."""

    def test_v1_journal_opens_and_takes_format_2_appends(self, tmp_path):
        path = str(tmp_path / "j")
        shutil.copytree(V1_JOURNAL, path)
        (seg,) = os.listdir(path)
        data = open(os.path.join(path, seg), "rb").read()
        v1_records, _end, problem = scan_bytes(data)
        assert problem is None
        assert "format" not in v1_records[0][1]
        assert v1_records[0][1]["compact"] is True

        j = Journal(path)
        j.open()
        assert j.open_report.torn_truncations == 0
        assert j.counts() == {"entries": 7, "settled": 6, "unsettled": 1, "frozen": 1}
        assert [(e.jid, e.key, e.priority, e.deadline) for e in j.unsettled()] == [
            (8, "pending", 2, 60.0)
        ]
        k4 = j.get(j.lookup("k4"))
        assert k4.settled == {
            "outcome": "failed", "passes": 0, "error": "RuntimeError('boom')",
            "reason": "task_error", "wall_s": 0.003, "replans": 0, "wid": 0,
        }
        assert j.get(j.lookup("spec-1")).spec.width == 3
        jid = j.append_accepted(key="new", target="frozen", fid=1, tenant="t0")
        j.append_settled(jid, outcome="completed", passes=1, wall_s=0.01, wid=0)
        j.append_settled(8, outcome="completed", passes=1, wall_s=0.02, wid=0)
        j.close()

        data = open(os.path.join(path, seg), "rb").read()
        records, _end, problem = scan_bytes(data)
        assert problem is None
        new = [off for off, _rec in records[len(v1_records):]]
        assert len(new) == 3
        assert all(data[off + FRAME_OVERHEAD] != PICKLE_PROTO for off in new)

        j2 = Journal(path)
        j2.open()
        assert j2.counts() == {"entries": 8, "settled": 8, "unsettled": 0, "frozen": 1}
        assert j2.get(jid).settled["wall_s"] == 0.01
        # a compaction carries the old entries forward in format 2
        j2.compact()
        j2.close()
        report = fsck(path)
        assert report.clean and report.drained
        (seg2,) = os.listdir(path)
        header = scan_bytes(open(os.path.join(path, seg2), "rb").read())[0][0][1]
        assert header["format"] == FORMAT and header["compact"] is True


    @pytest.mark.parametrize("fmt", [3, "3"])
    def test_newer_format_is_refused_and_nothing_truncated(self, tmp_path, fmt):
        """A format-3 header: this build cannot read the frames after
        it, so open() refuses the log instead of truncating them as a
        torn tail, and fsck calls it corrupt.  A ``format`` that is not
        an int is refused the same way, not with a bare TypeError."""
        path = tmp_path / "j"
        path.mkdir()
        seg = path / segment_name(1)
        data = encode_record(
            {"kind": "segment_header", "seq": 1, "index": 1,
             "compact": False, "format": fmt}
        )
        # a record in a layout this build does not know
        data += _frame(bytes([0x7F]) + b"format-3 record")
        seg.write_bytes(data)
        assert FORMAT < 3
        with pytest.raises(JournalCorruptError) as err:
            Journal(str(path)).open()
        assert err.value.kind == "format"
        assert (err.value.segment, err.value.offset) == (segment_name(1), 0)
        assert seg.read_bytes() == data
        assert os.listdir(path) == [segment_name(1)]
        report = fsck(str(path))
        assert not report.clean
        assert [c.kind for c in report.corruptions] == ["format"]


def _header(seq: int = 1, index: int = 1, *, compact: bool = False, fmt: object = FORMAT) -> bytes:
    return encode_record(
        {"kind": "segment_header", "seq": seq, "index": index,
         "compact": compact, "format": fmt}
    )


def _accepted(seq: int, jid: object = 7, **extra) -> bytes:
    return encode_record({"kind": "accepted", "seq": seq, "jid": jid, **extra})


def _snapshot(path) -> dict:
    return {n: (path / n).read_bytes() for n in sorted(os.listdir(path))}


def _judge(path):
    """fsck's findings and open()'s error on the log at *path*; open()
    may raise nothing but JournalCorruptError."""
    report = fsck(str(path))
    try:
        Journal(str(path)).open().close()
    except JournalCorruptError as exc:
        return report, (exc.kind, exc.segment, exc.offset)
    return report, None


class TestRecordFields:
    """A CRC-valid record that breaks the record schema is corruption —
    the same finding in open() and in fsck, never a bare exception,
    and open() leaves every byte as it was."""

    @pytest.mark.parametrize(
        "rec",
        [
            {"kind": "accepted", "seq": 2},
            {"kind": "settled", "seq": 2},
            {"kind": "frozen", "seq": 2, "fid": 1},
            {"kind": "frozen", "seq": 2, "spec": None},
        ],
        ids=["accepted-jid", "settled-jid", "frozen-spec", "frozen-fid"],
    )
    def test_missing_field_is_corruption(self, tmp_path, rec):
        path = tmp_path / "j"
        path.mkdir()
        seg = path / segment_name(1)
        data = encode_record(
            {"kind": "segment_header", "seq": 1, "index": 1,
             "compact": False, "format": FORMAT}
        ) + encode_record(rec)
        seg.write_bytes(data)
        offset = len(data) - len(encode_record(rec))
        with pytest.raises(JournalCorruptError) as err:
            Journal(str(path)).open()
        assert err.value.kind == "field"
        assert (err.value.segment, err.value.offset) == (segment_name(1), offset)
        assert seg.read_bytes() == data
        report = fsck(str(path))
        assert [(c.kind, c.offset) for c in report.corruptions] == [("field", offset)]

    #: hand-written CRC-valid logs, one list of segments each, that
    #: open() once met with a bare exception or accepted while fsck
    #: crashed or called them clean
    ROWS = {
        "jid-str": [_header() + _accepted(2, "7")],
        "seq-str": [_header() + _accepted("2")],
        "not-a-dict": [_header() + _frame(pickle.dumps([1, 2, 3], protocol=4))],
        "no-kind": [_header() + encode_record({"seq": 2, "jid": 7})],
        "key-int": [_header() + _accepted(2, key=5)],
        "passes-str": [
            _header() + _accepted(2)
            + encode_record({"kind": "settled", "seq": 3, "jid": 7, "passes": "x"})
        ],
        "stale-format-99": [_header(fmt=99), _header(5, 2, compact=True)],
    }

    @pytest.mark.parametrize("row", sorted(ROWS))
    def test_open_and_fsck_agree(self, tmp_path, row):
        for index, data in enumerate(self.ROWS[row], 1):
            (tmp_path / segment_name(index)).write_bytes(data)
        before = _snapshot(tmp_path)
        report, error = _judge(tmp_path)
        assert error is not None and not report.clean
        first = report.corruptions[0]
        assert (first.kind, first.segment, first.offset) == error
        assert error[0] == ("format" if row.startswith("stale") else "field")
        assert _snapshot(tmp_path) == before

    def test_refusal_touches_no_file(self, tmp_path):
        """A log open() refuses keeps its residue, its stale segment
        and its torn tail: repairs wait until the fold found nothing."""
        (tmp_path / segment_name(1)).write_bytes(_header() + _accepted(2, 1))
        (tmp_path / (segment_name(3) + TMP_SUFFIX)).write_bytes(_header(9, 3))
        (tmp_path / segment_name(2)).write_bytes(
            _header(3, 2, compact=True) + _accepted(4, 1) + _accepted(5, 1)
        )
        (tmp_path / segment_name(4)).write_bytes(_header(6, 4) + b"torn")
        before = _snapshot(tmp_path)
        report, error = _judge(tmp_path)
        duplicate = len(_header(3, 2, compact=True) + _accepted(4, 1))
        assert error == ("duplicate", segment_name(2), duplicate)
        assert [c.kind for c in report.corruptions] == ["duplicate"]
        assert (report.stale_segments, report.tmp_segments) == (1, 1)
        assert report.torn_tail_bytes == 4
        assert _snapshot(tmp_path) == before

    def test_sparse_pickled_record_takes_schema_defaults(self, tmp_path):
        (tmp_path / segment_name(1)).write_bytes(
            _header() + _accepted(2)
            + encode_record({"kind": "settled", "seq": 3, "jid": 7})
        )
        assert fsck(str(tmp_path)).clean
        j = Journal(str(tmp_path))
        j.open()
        entry = j.get(7)
        assert entry.accepted_record() == {
            "kind": "accepted", "jid": 7, "key": "", "target": "spec",
            "spec": None, "fid": None, "iid": None, "priority": 0,
            "deadline": None, "repeats": 1, "tenant": "",
        }
        assert entry.settled == {
            "outcome": "failed", "passes": 0, "error": "", "reason": "",
            "wall_s": 0.0, "replans": 0, "wid": -1,
        }
        j.close()

    def test_entry_fields_follow_the_schema(self):
        names = [f.name for f in dataclasses.fields(JournalEntry)]
        assert names == [n for n in RECORD_SCHEMA["accepted"] if n != "seq"] + ["settled"]

    def test_writer_refuses_what_open_would(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        size = os.path.getsize(os.path.join(path, segment_name(1)))
        with pytest.raises(JournalError, match="priority"):
            j.append_accepted(key="odd", priority=1.5)
        with pytest.raises(JournalError, match="fid"):
            j.append_frozen("1", {"w": 2})
        assert os.path.getsize(os.path.join(path, segment_name(1))) == size
        assert j.counts()["entries"] == 0 and j.lookup("odd") is None
        assert j.metrics.snapshot()["journal.errors"] == 2
        jid = j.append_accepted(key="ok", deadline=5)
        j.close()
        j2 = Journal(path)
        j2.open()
        assert j2.get(jid).deadline == 5
        j2.close()


#: values a retyped field takes: str, int, None, bool and list
_RETYPED = st.one_of(
    st.text(max_size=3), st.integers(-2, 9), st.none(), st.booleans(),
    st.lists(st.integers(0, 3), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    settle=st.integers(0, 5),
    victim=st.integers(0, 10),
    damage=st.one_of(
        st.tuples(st.just("drop"), st.integers(0, 11)),
        st.tuples(st.just("retype"), st.integers(0, 11), _RETYPED),
        st.tuples(st.just("replace"), st.one_of(
            st.lists(st.integers(0, 3), max_size=3), st.integers(), st.text(max_size=3),
            st.none(), st.tuples(st.just("kind"), st.just("accepted")),
        )),
    ),
)
def test_open_and_fsck_agree_on_a_damaged_pickled_record(n, settle, victim, damage):
    """One record of a ``_fill``-shaped log, re-framed as a pickle with
    a field dropped or retyped or the whole record replaced: open()
    raises nothing but JournalCorruptError, fsck never raises, and
    fsck's first finding is open()'s error."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        _fill(j, n, settle=min(settle, n))
        j.close()
        seg = os.path.join(path, segment_name(1))
        with open(seg, "rb") as fh:
            records = [rec for _off, rec in scan_bytes(fh.read())[0]]
        victim %= len(records)
        rec = dict(records[victim])
        if damage[0] == "replace":
            rec = damage[1]
        else:
            name = sorted(rec)[damage[1] % len(rec)]
            if damage[0] == "drop":
                del rec[name]
            else:
                rec[name] = damage[2]
        frames = [encode_record(r) for r in records]
        frames[victim] = _frame(pickle.dumps(rec, protocol=4))
        data = b"".join(frames)
        with open(seg, "wb") as fh:
            fh.write(data)
        report, error = _judge(path)
        if error is None:
            assert report.clean
        else:
            first = report.corruptions[0]
            assert (first.kind, first.segment, first.offset) == error
            with open(seg, "rb") as fh:
                assert fh.read() == data


class TestJournal:
    def test_append_reopen_rebuilds_state(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        j.append_frozen(1, {"spec": "burst"})
        _fill(j, 6, settle=4)
        j.close()

        j2 = Journal(path)
        j2.open()
        assert j2.counts() == {
            "entries": 6, "settled": 4, "unsettled": 2, "frozen": 1
        }
        assert [e.jid for e in j2.unsettled()] == [5, 6]
        assert j2.lookup("k2") == 3
        assert j2.get(1).settled["outcome"] == "completed"
        assert j2.next_fid == 2
        # appends continue after the replayed sequence
        jid = j2.append_accepted(key="fresh", target="spec")
        assert jid == 7
        j2.close()

    def test_exactly_once_refusals(self, tmp_path):
        j = Journal(str(tmp_path / "j"), fsync_policy="never")
        j.open()
        jid = j.append_accepted(key="once", target="spec")
        j.append_settled(jid, outcome="completed")
        with pytest.raises(JournalError, match="exactly-once"):
            j.append_settled(jid, outcome="failed")
        with pytest.raises(JournalError, match="already journaled"):
            j.append_accepted(key="once", target="spec")
        with pytest.raises(JournalError, match="unknown jid"):
            j.append_settled(99, outcome="completed")
        j.close()

    def test_rotation_and_compaction(self, tmp_path):
        # compact_retain_keyed=False bounds the dedupe window: every
        # settled entry is dropped, keyed or not
        path = str(tmp_path / "j")
        j = Journal(
            path, fsync_policy="never", segment_max_bytes=512,
            auto_compact=False, compact_retain_keyed=False,
        )
        j.open()
        j.append_frozen(1, {"w": 8})
        _fill(j, 20, settle=17)
        assert j._num_segments() > 1
        dropped = j.compact()
        assert dropped == 17
        j.close()

        j2 = Journal(path)
        j2.open()
        # settled history is gone, live state survives
        assert j2.counts()["entries"] == 3
        assert j2.counts()["unsettled"] == 3
        assert j2.frozen_specs == {1: {"w": 8}}
        assert {e.key for e in j2.unsettled()} == {"k17", "k18", "k19"}
        j2.close()

    def test_compaction_retains_keyed_dedupe(self, tmp_path):
        # the default: keyed settlements survive compaction, so a
        # replayed idempotency key keeps returning the journaled
        # Result; only unkeyed settled history is dropped
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never", auto_compact=False)
        j.open()
        _fill(j, 4, settle=4)  # keyed k0..k3, all settled
        unkeyed = [j.append_accepted(target="spec") for _ in range(3)]
        for jid in unkeyed:
            j.append_settled(jid, outcome="completed")
        live = j.append_accepted(key="live", target="spec")
        dropped = j.compact()
        assert dropped == 3  # the unkeyed settlements, nothing else
        assert j.counts() == {
            "entries": 5, "settled": 4, "unsettled": 1, "frozen": 0
        }
        j.close()

        j2 = Journal(path)
        j2.open()
        for i in range(4):
            jid = j2.lookup(f"k{i}")
            assert jid is not None
            assert j2.get(jid).settled["outcome"] == "completed"
        assert all(j2.get(jid) is None for jid in unkeyed)
        assert [e.jid for e in j2.unsettled()] == [live]
        # a second compaction keeps carrying the keyed settlements
        assert j2.compact() == 0
        assert j2.lookup("k0") is not None
        j2.close()
        assert fsck(path).clean

    def test_jids_are_not_reused_after_compaction(self, tmp_path):
        # compaction drops the newest settled unkeyed entries; the
        # compact header's jid mark keeps a reopened journal from
        # handing their jids out again
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never", auto_compact=False)
        j.open()
        jids = [j.append_accepted(target="spec") for _ in range(3)]
        assert jids == [1, 2, 3]
        for jid in jids:
            j.append_settled(jid, outcome="completed")
        assert j.compact() == 3
        j.close()

        j2 = Journal(path, fsync_policy="never")
        j2.open()
        assert j2.counts()["entries"] == 0
        assert j2.append_accepted(target="spec") == 4
        j2.close()
        assert fsck(path).clean

    def test_crash_mid_compaction_residue_is_harmless(self, tmp_path):
        # a crash between "start writing the compact segment" and the
        # commit rename leaves only a *.tmp file: the old generation is
        # untouched, open() keeps every record and removes the residue
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        j.append_frozen(1, {"w": 2})
        _fill(j, 6, settle=4)
        j.close()
        # fabricate the residue: a header-only compact segment that
        # never got renamed into place
        tmp = tmp_path / "j" / (segment_name(2) + ".tmp")
        tmp.write_bytes(encode_record(
            {"kind": "segment_header", "index": 2, "compact": True,
             "seq": 999}
        ))
        pre = fsck(path)
        assert pre.clean and pre.tmp_segments == 1
        assert pre.accepted == 6 and pre.settled == 4

        j2 = Journal(path)
        j2.open()
        assert j2.open_report.tmp_removed == 1
        assert j2.counts() == {
            "entries": 6, "settled": 4, "unsettled": 2, "frozen": 1
        }
        assert not tmp.exists()
        j2.close()
        assert fsck(path).tmp_segments == 0

    def test_compaction_write_failure_rolls_back(self, tmp_path):
        # a device fault mid-compaction must abort the whole pass:
        # tmp removed, appends resume on the old generation, no record
        # lost — never a partial compact generation
        path = str(tmp_path / "j")
        j = Journal(
            path, os_impl=FaultyOs(fail_write_at=9),
            fsync_policy="always", auto_compact=False,
        )
        j.open()
        _fill(j, 5, settle=2)  # writes 1-8: header + 5 accepted + 2 settled
        with pytest.raises(JournalWriteError):
            j.compact()  # write 9 is the compact segment's header
        assert not any(
            n.endswith(".tmp") for n in os.listdir(path)
        )
        # the journal keeps working on the old generation...
        j.append_accepted(key="after", target="spec")
        # ...and a retried compaction succeeds (transient device)
        assert j.compact() == 0  # keyed settlements are retained
        j.close()

        j2 = Journal(path)
        j2.open()
        assert j2.counts() == {
            "entries": 6, "settled": 2, "unsettled": 4, "frozen": 0
        }
        assert j2.lookup("after") == 6
        j2.close()
        assert fsck(path).clean

    def test_failed_auto_compaction_does_not_fail_the_settle(self, tmp_path):
        # writes 1-6: header, 3 accepted, 2 settled; write 7 is the
        # header of the compaction the second settle triggers
        path = str(tmp_path / "j")
        j = Journal(
            path, os_impl=FaultyOs(fail_write_at=7), compact_min_settled=2
        )
        j.open()
        a, b, c = (j.append_accepted(target="spec") for _ in range(3))
        j.append_settled(a, outcome="completed")
        j.append_settled(b, outcome="completed")  # must not raise
        assert j.get(b).is_settled
        assert j.metrics.counter("journal.errors").value == 1
        assert j.metrics.counter("journal.compactions").value == 0
        assert not any(n.endswith(".tmp") for n in os.listdir(path))
        report = fsck(path)
        assert report.clean and report.settled == 2
        # the trigger stays armed: the next settle compacts
        j.append_settled(c, outcome="completed")
        assert j.metrics.counter("journal.compactions").value == 1
        assert j.counts() == {
            "entries": 0, "settled": 0, "unsettled": 0, "frozen": 0
        }
        j.close()
        j2 = Journal(path)
        j2.open()
        assert j2.counts()["entries"] == 0
        j2.close()
        assert fsck(path).clean

    @pytest.mark.parametrize("fault", ["seal", "commit", "tmp_exists"])
    def test_compaction_io_failure_rolls_back(self, tmp_path, fault):
        # under "batch" the compaction makes the only fsyncs: the first
        # seals the old segment, the second makes the compact segment
        # durable before its commit rename; a leftover *.tmp under the
        # compact segment's name makes creating it fail.  Each failure
        # leaves the old generation in use.
        path = str(tmp_path / "j")
        j = Journal(
            path,
            os_impl=FaultyOs(fail_fsync_at={"seal": 1, "commit": 2}.get(fault)),
            fsync_policy="batch", auto_compact=False,
        )
        j.open()
        jid = j.append_accepted(target="spec")
        j.append_settled(jid, outcome="completed")
        if fault == "tmp_exists":
            (tmp_path / "j" / (segment_name(2) + TMP_SUFFIX)).write_bytes(b"")
        with pytest.raises(JournalWriteError) as ei:
            j.compact()
        assert ei.value.reason == ("write" if fault == "tmp_exists" else "fsync")
        assert j.counts()["settled"] == 1
        assert not any(n.endswith(TMP_SUFFIX) for n in os.listdir(path))
        j.append_accepted(key="after", target="spec")
        assert j.compact() == 1
        j.close()
        j2 = Journal(path)
        j2.open()
        assert j2.counts() == {
            "entries": 1, "settled": 0, "unsettled": 1, "frozen": 0
        }
        j2.close()
        assert fsck(path).clean

    def test_compact_retain_keyed_is_fixed_at_construction(self, tmp_path):
        j = Journal(str(tmp_path / "j"), compact_retain_keyed=False)
        assert j.compact_retain_keyed is False
        with pytest.raises(AttributeError):
            j.compact_retain_keyed = True

    def test_open_drops_segments_older_than_a_compact_one(self, tmp_path):
        # a crash between the commit rename and the unlink of the old
        # generation leaves it beside the compact segment: open() must
        # recognise the compact header and ignore (and remove) the rest
        path = tmp_path / "j"
        j = Journal(str(path), fsync_policy="never", auto_compact=False)
        j.open()
        _fill(j, 3, settle=2)
        unkeyed = j.append_accepted(target="spec")
        j.append_settled(unkeyed, outcome="completed")
        old = (path / segment_name(1)).read_bytes()
        assert j.compact() == 1
        j.close()
        (path / segment_name(1)).write_bytes(old)
        j2 = Journal(str(path))
        j2.open()
        assert j2.open_report.dropped_segments == 1
        assert not (path / segment_name(1)).exists()
        assert j2.get(unkeyed) is None
        assert j2.counts() == {
            "entries": 3, "settled": 2, "unsettled": 1, "frozen": 0
        }
        j2.close()

    def test_settle_cost_flat_in_log_size(self, tmp_path):
        """A settle's bookkeeping must not grow with the log: settling
        on a 20k-entry keyed log costs no more than on a 1k-entry one
        (min of 3 rounds of 300 settles, no fsync)."""
        def settle_cost(n: int) -> float:
            path = str(tmp_path / f"log{n}")
            seed = Journal(path, fsync_policy="never", auto_compact=False)
            seed.open()
            _fill(seed, n, settle=n)
            seed.close()
            j = Journal(path, fsync_policy="never")
            j.open()
            best = float("inf")
            for r in range(3):
                jids = [
                    j.append_accepted(key=f"r{r}-{i}", target="spec")
                    for i in range(300)
                ]
                t0 = time.perf_counter()
                for jid in jids:
                    j.append_settled(jid, outcome="completed")
                best = min(best, (time.perf_counter() - t0) / len(jids))
            assert j.counts()["entries"] == n + 900  # keyed: all retained
            j.close()
            return best

        small, large = settle_cost(1_000), settle_cost(20_000)
        assert large / small < 3, (
            f"settle costs {small * 1e6:.1f} us on a 1k-entry log but "
            f"{large * 1e6:.1f} us on a 20k-entry log"
        )

    def test_torn_tail_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        _fill(j, 5)
        j.close()
        seg = tmp_path / "j" / segment_name(1)
        with open(seg, "ab") as fh:
            fh.write(b"\xa6\x5c\xff\xff")  # marker + torn header
        size_torn = seg.stat().st_size

        j2 = Journal(path)
        j2.open()
        assert j2.open_report.torn_truncations == 1
        assert j2.counts()["entries"] == 5
        assert seg.stat().st_size == size_torn - 4
        j2.close()

    def test_corruption_mid_log_refuses_open(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never", segment_max_bytes=512)
        j.open()
        _fill(j, 20)
        assert j._num_segments() > 1
        j.close()
        first = tmp_path / "j" / segment_name(1)
        data = bytearray(first.read_bytes())
        data[len(data) // 2] ^= 0x40
        first.write_bytes(bytes(data))
        with pytest.raises(JournalCorruptError):
            Journal(path).open()
        report = fsck(path)
        assert not report.clean
        assert report.corruptions[0].segment == segment_name(1)

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(JournalError, match="fsync_policy"):
            Journal(str(tmp_path / "j"), fsync_policy="sometimes")


class TestSummaryCounts:
    """The journal keeps its settled/unsettled/droppable counts up to
    date append by append.  Random operation sequences check them
    against a recount over ``entries`` after every step, and check
    ``journal.compactions`` against the rule "compact after a settle
    once at least ``compact_min_settled`` settled entries are
    droppable", applied to a model of the log."""

    MIN_SETTLED = 3

    def _journal(self, path, shim, retain, auto):
        j = Journal(
            path, os_impl=shim, fsync_policy="never", auto_compact=auto,
            compact_min_settled=self.MIN_SETTLED,
            compact_retain_keyed=retain,
        )
        return j.open()

    @staticmethod
    def _check_counts(j, retain):
        entries = j.entries.values()
        settled = sum(1 for e in entries if e.is_settled)
        droppable = sum(
            1 for e in entries if e.is_settled and (not e.key or not retain)
        )
        assert j.counts() == {
            "entries": len(j.entries), "settled": settled,
            "unsettled": len(j.entries) - settled, "frozen": 0,
        }
        assert j._droppable_count == droppable
        assert j.metrics.snapshot()["journal.unsettled"] == len(j.entries) - settled
        assert [e.jid for e in j.unsettled()] == sorted(
            e.jid for e in entries if not e.is_settled
        )

    def _check(self, j, model, retain, compactions):
        self._check_counts(j, retain)
        assert {jid: e.is_settled for jid, e in j.entries.items()} == {
            jid: settled for jid, (_key, settled) in model.items()
        }
        assert j.metrics.counter("journal.compactions").value == compactions

    @pytest.mark.parametrize("retain", [True, False])
    @pytest.mark.parametrize("auto", [True, False])
    def test_counts_match_recount(self, tmp_path, retain, auto):
        for seed in range(6):
            rng = random.Random(seed)
            path = str(tmp_path / f"{retain}-{auto}-{seed}")
            shim = FaultyOs()
            j = self._journal(path, shim, retain, auto)
            model: dict = {}  # jid -> (key, settled)
            compactions = 0
            failed = 0

            def droppable():
                return sum(
                    1 for key, settled in model.values()
                    if settled and (not key or not retain)
                )

            def compacted():
                for jid in [
                    jid for jid, (key, settled) in model.items()
                    if settled and (not key or not retain)
                ]:
                    del model[jid]

            for step in range(120):
                op = rng.choices(
                    ("accept", "settle", "compact", "reopen"),
                    weights=(10, 8, 1, 1),
                )[0]
                unsettled = [jid for jid, (_k, s) in model.items() if not s]
                if op == "settle" and unsettled:
                    jid = rng.choice(unsettled)
                    model[jid] = (model[jid][0], True)
                    triggers = auto and droppable() >= self.MIN_SETTLED
                    fail = triggers and rng.random() < 0.3
                    if fail:
                        # write +1 is the settle, +2 the compaction header
                        shim.fail_write_at = shim.writes + 2
                    j.append_settled(jid, outcome="completed")
                    if fail:
                        failed += 1
                    elif triggers:
                        compacted()
                        compactions += 1
                elif op == "compact":
                    if rng.random() < 0.3:
                        shim.fail_write_at = shim.writes + 1
                        with pytest.raises(JournalWriteError):
                            j.compact()
                        failed += 1
                    else:
                        assert j.compact() == droppable()
                        compacted()
                        compactions += 1
                elif op == "reopen":
                    j.close()
                    j = self._journal(path, shim, retain, auto)
                    compactions = 0  # a fresh instance, fresh counters
                else:
                    key = f"k{step}" if rng.random() < 0.5 else ""
                    model[j.append_accepted(key=key, target="spec")] = (
                        key, False
                    )
                self._check(j, model, retain, compactions)
            assert len(shim.injected) == failed
            j.close()
            assert fsck(path).clean

    def test_counts_hold_under_concurrent_appends(self, tmp_path):
        # more threads than cores, accepting and settling at once with a
        # short switch interval: a count updated outside the lock would
        # drift from the recount
        j = Journal(
            str(tmp_path / "j"), fsync_policy="never",
            compact_min_settled=self.MIN_SETTLED,
        )
        j.open()

        def work(t: int) -> None:
            for i in range(150):
                jid = j.append_accepted(
                    key=f"t{t}-{i}" if i % 2 else "", target="spec"
                )
                if i % 3:
                    j.append_settled(jid, outcome="completed")

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        self._check_counts(j, retain=True)
        assert j.counts()["unsettled"] == 8 * 50
        j.close()


class TestFaultInjection:
    @pytest.mark.parametrize("fault,reason", [
        ("fail_fsync_at", "fsync"),
        ("short_write_at", "short_write"),
        ("fail_write_at", "write"),
        ("enospc_at", "enospc"),
    ])
    def test_scheduled_fault_is_structured_and_rolled_back(
        self, tmp_path, fault, reason
    ):
        for seed in range(4):
            rng = random.Random(seed)
            n = rng.randint(4, 12)
            at = rng.randint(3, n + 1)  # ordinal 1 is the segment header
            path = str(tmp_path / f"{fault}-{seed}")
            shim = FaultyOs(**{fault: at})
            j = Journal(path, os_impl=shim, fsync_policy="always")
            j.open()
            failures = 0
            for i in range(n):
                try:
                    j.append_accepted(key=f"k{i}", target="spec")
                except JournalWriteError as exc:
                    assert exc.reason == reason
                    failures += 1
                    # transient device (once=True): the retry commits
                    j.append_accepted(key=f"k{i}", target="spec")
            j.close()
            assert failures == 1 and shim.injected == [reason]

            j2 = Journal(path)
            j2.open()
            # the failed append never half-committed; the retry did
            assert j2.counts()["entries"] == n
            assert [j2.lookup(f"k{i}") for i in range(n)] == list(
                range(1, n + 1)
            )
            j2.close()
            assert fsck(path).clean

    def test_persistent_enospc_keeps_refusing(self, tmp_path):
        shim = FaultyOs(enospc_at=3, once=False)
        j = Journal(str(tmp_path / "j"), os_impl=shim, fsync_policy="always")
        j.open()
        j.append_accepted(key="a", target="spec")
        for _ in range(3):
            with pytest.raises(JournalWriteError) as ei:
                j.append_accepted(key="b", target="spec")
            assert ei.value.reason == "enospc"
        j.close()
        j2 = Journal(str(tmp_path / "j"))
        j2.open()
        assert j2.counts()["entries"] == 1
        j2.close()


class TestFsck:
    def test_clean_and_drained(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        j.append_frozen(1, {"w": 2})
        _fill(j, 4, settle=4)
        j.close()
        report = fsck(path)
        assert report.clean and report.drained
        assert (report.accepted, report.settled, report.frozen) == (4, 4, 1)
        assert report.record_kinds["segment_header"] == 1
        assert "clean" in report.render_text()
        assert report.to_dict()["schema"].startswith("repro.fsck")

    def test_unsettled_reported(self, tmp_path):
        path = str(tmp_path / "j")
        j = Journal(path, fsync_policy="never")
        j.open()
        _fill(j, 3, settle=1)
        j.close()
        report = fsck(path)
        assert report.clean and not report.drained
        assert report.unsettled == [(2, "k1"), (3, "k2")]

    def test_missing_directory(self, tmp_path):
        report = fsck(str(tmp_path / "nope"))
        assert not report.clean
        assert report.corruptions[0].kind == "missing"

    def test_property_random_batches_with_damage(self, tmp_path):
        """Random journals + random damage: fsck must agree with what
        open() would do — count every intact record, flag every tear."""
        for seed in range(6):
            rng = random.Random(seed)
            path = str(tmp_path / f"p{seed}")
            j = Journal(path, fsync_policy="never", segment_max_bytes=2048)
            j.open()
            n = rng.randint(5, 25)
            _fill(j, n, settle=rng.randint(0, n))
            j.close()
            clean = fsck(path)
            assert clean.clean and clean.accepted == n

            segs = sorted(
                p for p in os.listdir(path) if segment_index(p) is not None
            )
            final = os.path.join(path, segs[-1])
            with open(final, "ab") as fh:
                fh.write(rng.randbytes(rng.randint(1, FRAME_OVERHEAD + 8)))
            damaged = fsck(path)
            # a torn FINAL tail is recoverable, never corruption
            assert damaged.clean
            assert damaged.torn_tail_bytes > 0
            j2 = Journal(path)
            j2.open()
            assert j2.counts()["entries"] == n
            assert j2.open_report.torn_truncations == 1
            j2.close()
            assert fsck(path).torn_tail_bytes == 0
