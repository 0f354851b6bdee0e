"""JOURNAL-OPEN — journal reopen time against log size, format 1 vs 2.

The reopen-vs-log-size curve of ROADMAP item 4.  For each size N, the
script writes the ``serve_keyed`` pre-seed shape with the current
build (one frozen spec, then N keyed frozen entries, each an
``accepted`` and a ``settled`` record): that is a format-2 log, whose
per-op records are struct-packed.  It then re-frames every record of
it as a pickle payload and drops the header's ``format`` field, which
gives the format-1 log builds before format 2 wrote (same records,
same seqs; segment boundaries stay where format 2 put them).  Both
logs are reopened with ``Journal.open()``, alternately, and the record
gives the median and best reopen time of each, and the ratio of the
medians (format 2 over format 1).  The same code opens both, so the
ratio is the payload form's share of the cost and the machine's speed
cancels out of it.

Usage::

    PYTHONPATH=src python benchmarks/bench_journal_open.py \\
        [--smoke] [--json OUT] [--max-ratio R]

``--smoke`` runs 1k and 10k entries with fewer repeats; ``--max-ratio``
exits 1 when the 10k ratio exceeds R (the CI gate).  The committed
record ``benchmarks/results/BENCH_journal_open.json`` is the full run
and carries its own ``regenerate`` command.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import struct
import sys
import tempfile
import time
import zlib

from repro.durability.journal import MARKER, Journal, scan_bytes, segment_index
from repro.gateway.spec import BurstSpec

FULL_SIZES = (1_000, 10_000, 50_000)
SMOKE_SIZES = (1_000, 10_000)
FULL_REPEATS = 15
SMOKE_REPEATS = 7
#: the size the ratio gate reads
GATE_SIZE = 10_000
REGENERATE = (
    "PYTHONPATH=src python benchmarks/bench_journal_open.py "
    "--json benchmarks/results/BENCH_journal_open.json"
)


def write_v2(path: str, entries: int) -> None:
    """The pre-seed shape, written by the current build (format 2)."""
    journal = Journal(path, fsync_policy="never", auto_compact=False)
    journal.open()
    try:
        journal.append_frozen(1, BurstSpec(width=16))
        for i in range(entries):
            jid = journal.append_accepted(
                key=f"seed-{i}", target="frozen", fid=1, tenant=f"c{i % 2}"
            )
            journal.append_settled(
                jid, outcome="completed", passes=1, wall_s=0.001 + i * 1e-9, wid=0
            )
    finally:
        journal.close()


def transcode_v1(src: str, dst: str) -> None:
    """Re-frame every record of the format-2 log *src* as a pickle
    payload into *dst*: the log a format-1 build writes."""
    os.makedirs(dst)
    for name in sorted(os.listdir(src)):
        if segment_index(name) is None:
            continue
        with open(os.path.join(src, name), "rb") as fh:
            records, _end, problem = scan_bytes(fh.read())
        if problem is not None:
            raise RuntimeError(f"{name}: {problem}")
        out = bytearray()
        for _off, rec in records:
            rec.pop("format", None)
            payload = pickle.dumps(rec, protocol=4)
            out += MARKER + struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        with open(os.path.join(dst, name), "wb") as fh:
            fh.write(out)


def log_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def reopen_s(path: str, entries: int) -> float:
    journal = Journal(path, fsync_policy="never")
    t0 = time.perf_counter()
    journal.open()
    dt = time.perf_counter() - t0
    journal.close()
    if journal.counts()["entries"] != entries:
        raise RuntimeError(f"{path}: reopened {journal.counts()}, expected {entries} entries")
    return dt


def measure(workdir: str, entries: int, repeats: int) -> dict:
    v2 = os.path.join(workdir, f"v2-{entries}")
    v1 = os.path.join(workdir, f"v1-{entries}")
    write_v2(v2, entries)
    transcode_v1(v2, v1)
    times = {"v1": [], "v2": []}
    for r in range(repeats):
        # alternate which form goes first, so drift hits both alike
        for form in ("v1", "v2") if r % 2 == 0 else ("v2", "v1"):
            times[form].append(reopen_s(v1 if form == "v1" else v2, entries))
    row = {"entries": entries, "records": 2 * entries + 1}
    for form, path in (("v1", v1), ("v2", v2)):
        row[f"{form}_bytes"] = log_bytes(path)
        row[f"{form}_median_ms"] = statistics.median(times[form]) * 1e3
        row[f"{form}_best_ms"] = min(times[form]) * 1e3
    row["ratio"] = row["v2_median_ms"] / row["v1_median_ms"]
    shutil.rmtree(v1)
    shutil.rmtree(v2)
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true", help="1k and 10k entries, fewer repeats")
    ap.add_argument("--json", default="", help="write the record here")
    ap.add_argument("--max-ratio", type=float, default=None,
                    help=f"exit 1 if the {GATE_SIZE} ratio exceeds this")
    args = ap.parse_args(argv)
    sizes, repeats = (SMOKE_SIZES, SMOKE_REPEATS) if args.smoke else (FULL_SIZES, FULL_REPEATS)
    with tempfile.TemporaryDirectory(prefix="journal-open-") as workdir:
        rows = [measure(workdir, n, repeats) for n in sizes]
    headers = ["entries", "records", "v1_bytes", "v2_bytes", "v1_median_ms",
               "v2_median_ms", "v1_best_ms", "v2_best_ms", "ratio"]
    for row in rows:
        print("  ".join(f"{h}={row[h]:.3f}" if isinstance(row[h], float) else f"{h}={row[h]}"
                        for h in headers))
    record = {
        "schema": "repro.bench/1",
        "name": "journal_open",
        "title": "JOURNAL-OPEN: reopen time against log size, format 1 (pickle) vs 2 (struct)",
        "headers": headers,
        "rows": [[row[h] for h in headers] for row in rows],
        "notes": f"{repeats} alternating reopens per form and size; ratio = v2/v1 medians",
        "meta": {"repeats": repeats, "smoke": args.smoke, "gate_size": GATE_SIZE},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "regenerate": REGENERATE,
    }
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    gate = next(row for row in rows if row["entries"] == GATE_SIZE)
    if args.max_ratio is not None and gate["ratio"] > args.max_ratio:
        print(f"FAIL: format-2/format-1 reopen ratio {gate['ratio']:.3f} at "
              f"{GATE_SIZE} entries exceeds {args.max_ratio}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
