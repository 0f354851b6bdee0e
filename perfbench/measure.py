"""Measurement helpers: percentiles, /proc readers, the reference loop.

Everything here is standard library only (psutil is not a dependency),
so the benchmark can read CPU time, peak memory and process trees of
the system under test from ``/proc`` on Linux.
"""

from __future__ import annotations

import math
import os
import resource
import signal
import time
from typing import Dict, Iterable, List, Optional, Sequence

CLK_TCK = os.sysconf("SC_CLK_TCK")


def pin_to_one_cpu() -> int:
    """Pin this process to the first CPU it may run on and return that
    CPU.  Threads and processes it starts later inherit the pin, so the
    whole system under test shares one CPU and never waits on a second
    vCPU the hypervisor has lent away (see README "Noise")."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least *p*
    percent of the samples at or below it.  Raises on an empty input."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for even sizes)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -- /proc -----------------------------------------------------------------
def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name (field 3
    onwards), or None when the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except (FileNotFoundError, ProcessLookupError):
        return None
    return raw[raw.rindex(")") + 2 :].split()


def _all_pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def is_running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def descendants(pid: int) -> List[int]:
    """Live (non-zombie) descendants of *pid*, found by parent links."""
    children: Dict[int, List[int]] = {}
    for p in _all_pids():
        fields = _stat_fields(p)
        if fields is not None and fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(p)
    out: List[int] = []
    stack = list(children.get(pid, ()))
    while stack:
        p = stack.pop()
        out.append(p)
        stack.extend(children.get(p, ()))
    return sorted(out)


def session_members(sid: int) -> List[int]:
    """Live processes whose session id is *sid*."""
    out = []
    for p in _all_pids():
        fields = _stat_fields(p)
        if fields is not None and fields[0] != "Z" and int(fields[3]) == sid:
            out.append(p)
    return sorted(out)


def cpu_seconds(pids: Iterable[int]) -> float:
    """User + system CPU seconds consumed so far by *pids* (processes
    already gone contribute nothing).  This process is read with
    ``getrusage`` (microseconds); others from ``/proc`` (clock ticks)."""
    total = 0.0
    me = os.getpid()
    for pid in pids:
        if pid == me:
            ru = resource.getrusage(resource.RUSAGE_SELF)
            total += ru.ru_utime + ru.ru_stime
            continue
        fields = _stat_fields(pid)
        if fields is not None:
            total += (int(fields[11]) + int(fields[12])) / CLK_TCK
    return total


def rss_peak_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set sizes (``VmHWM``) of *pids*, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kb / 1024.0


def kill_and_wait(pids: Sequence[int], timeout: float = 10.0) -> List[int]:
    """SIGKILL every live pid in *pids* and wait until each has ended.
    Returns the pids that were still running when the kill was sent."""
    killed = []
    for pid in pids:
        if is_running(pid):
            try:
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + timeout
    for pid in killed:
        while is_running(pid) and time.monotonic() < deadline:
            try:  # reap it if it is our own child
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
            time.sleep(0.01)
    return killed


def cpu_times() -> List[int]:
    """Machine-wide CPU time counters (``/proc/stat`` ``cpu`` line)."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests between
    two :func:`cpu_times` readings (field 8 of the ``cpu`` line)."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding *path* (``/proc/self/mounts``)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/self/mounts") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) < 3:
                continue
            mnt = parts[1].replace("\\040", " ")
            inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
            if inside and len(mnt) >= len(best):
                best, fstype = mnt, parts[2]
    return fstype


#: the reference loop's speed, in iterations per second, that gated
#: times are scaled to (about its speed on a 2.1 GHz Xeon VM)
REF_SPEED = 10_000_000.0


def loop_speed(iterations: int = 30_000) -> float:
    """Iterations per second of the reference loop, timed over a few
    milliseconds.  On a shared VM this speed moves with the program's
    own, in spells of seconds, by up to half (see README "Noise")."""
    return iterations / (ref_loop_ms(iterations) / 1e3)


def ref_loop_ms(iterations: int = 1_000_000) -> float:
    """Time a fixed pure-Python loop.  It shares no code with the
    system under test, so a slow value marks a slow spell of the
    machine, not of the program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * 7) % 1_000_003
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return elapsed * 1e3
