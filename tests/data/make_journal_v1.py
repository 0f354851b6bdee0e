"""Write the format-1 journal fixture ``tests/data/journal_v1/``.

Format 1 is the all-pickle log that builds before the struct-packed
payloads wrote (segment headers without a ``format`` field).  The
fixture was generated once, by such a build, with::

    PYTHONPATH=src python tests/data/make_journal_v1.py tests/data/journal_v1

Running this script on a newer build writes a format-2 log instead, so
the committed files are the record; this script documents their
contents.  ``TestFormatCompatibility`` in ``tests/test_durability.py``
and ``tests/test_gateway_durability.py`` open them with the current
code.

Contents, in journal order:

- frozen fid 1 (a ``BurstSpec(width=4)``);
- keyed frozen entries ``k0``..``k3``, settled ``completed``;
- one unkeyed spec entry, settled (dropped by the compaction);
- a compaction: ``seg-00000002.wal`` is the compact segment;
- keyed frozen entry ``k4``, settled ``failed`` with an error and reason;
- keyed spec entry ``spec-1`` (a ``BurstSpec(width=3)``), settled;
- keyed frozen entry ``pending`` (priority 2, a 60 s deadline), never settled.
"""

from __future__ import annotations

import sys

from repro.durability import Journal
from repro.gateway.spec import BurstSpec


def main(path: str) -> None:
    j = Journal(path, fsync_policy="never", auto_compact=False)
    j.open()
    try:
        j.append_frozen(1, BurstSpec(width=4))
        for i in range(4):
            jid = j.append_accepted(key=f"k{i}", target="frozen", fid=1, tenant="t0")
            j.append_settled(jid, outcome="completed", passes=1, wall_s=0.001 * (i + 1), wid=0)
        jid = j.append_accepted(target="spec", spec=BurstSpec(width=2), tenant="t1")
        j.append_settled(jid, outcome="completed", passes=1, wall_s=0.002, wid=1)
        j.compact()
        jid = j.append_accepted(key="k4", target="frozen", fid=1, tenant="t0")
        j.append_settled(
            jid, outcome="failed", passes=0, error="RuntimeError('boom')",
            reason="task_error", wall_s=0.003, wid=0,
        )
        jid = j.append_accepted(key="spec-1", target="spec", spec=BurstSpec(width=3), tenant="t1")
        j.append_settled(jid, outcome="completed", passes=1, wall_s=0.004, wid=0)
        j.append_accepted(
            key="pending", target="frozen", fid=1, priority=2, deadline=60.0, tenant="t1",
        )
    finally:
        j.close()


if __name__ == "__main__":
    main(sys.argv[1])
