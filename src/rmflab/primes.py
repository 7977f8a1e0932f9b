"""Prime infrastructure: the odd-only segment walk (half the flags of a full sieve), the
process-wide prime table (pi(x) is `cached_primes(x).size`), the Chebyshev-type check
pi(x) < 2x/log(x), the width rule and fan_out behind every thread, and every need's memory check.

`segments` is the one sieve, and strikes a segment ahead on a helper thread.  `sieve_primes` keeps
a lone segment or writes the segments into one array; `cached_primes` keeps the largest table so
far, and smaller limits are read-only views of it.  A sum over primes it reads once, c01's 9
million, walks the segments and keeps no table.  Tables are int32, exact up to the cap 2^31 - 1:
the 664,579 primes below 10^7 take 2.7 MB, and a pass over a table takes _CHUNK primes at a time.
Search a table with a key of its dtype, or numpy copies it to int64 on every search.
"""

from __future__ import annotations

import contextlib
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from math import isqrt, log
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

# Flags per segment, 1 MB.  Struck on a helper thread, c01's walk took 228, 205 and 264 ms (medians
# of 5) at 2^19, 2^20 and 2^21 flags, with traced peaks of 3.4, 5.6 and 9.8 MB (2-CPU Xeon).
DEFAULT_SEGMENT = 1 << 20
_CHUNK = 1 << 16  # primes per pass over a table, in chebyshev_check and prime_series
_PERIOD = 3 * 5 * 7 * 11 * 13  # odd flags per period of the pre-struck pattern
_WHEEL = np.ones(2 * _PERIOD, dtype=bool)  # two periods, so a period from any phase is one slice
for _p in (3, 5, 7, 11, 13):
    _WHEEL[_p // 2 :: _p] = False  # flag i, for 2i + 1, is a multiple of p where i = p // 2 mod p


def _worker_count(tasks: float = float("inf")) -> int:
    """The width rule: RMFLAB_THREADS, else min(8, usable CPUs), at most tasks and at least 1."""
    env = os.environ.get("RMFLAB_THREADS")
    if env is None:
        affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
        env = min(8, len(affinity(0)) if affinity else os.cpu_count() or 1)
    try:
        return max(1, min(int(env), tasks))
    except ValueError as exc:
        raise ValueError(f"RMFLAB_THREADS must be an integer, got {env!r}") from exc


def fan_out(items: Sequence, work: Callable) -> list:
    """[work(item) for item in items] on the width rule's threads, the first error raised once all
    stop; each call in its own copy of the caller's context, as no Context runs on two threads."""
    contexts = [copy_context() for _ in items]  # in the caller: a worker's own context is empty
    with ThreadPoolExecutor(max_workers=_worker_count(len(contexts))) as pool:
        return list(pool.map(lambda context, item: context.run(work, item), contexts, items))


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds the configured support limits."""


def cgroup_limit(proc: str = "/proc/self/cgroup", root: str = "/sys/fs/cgroup") -> float:
    """This process's cgroup memory limit in bytes, from memory.max (v2) or memory.limit_in_bytes
    (v1) under `root`; files are only read, and "max" or a missing file mean inf."""
    files, limits = {"": "memory.max", "memory": "memory.limit_in_bytes"}, []
    with contextlib.suppress(OSError):
        for line in Path(proc).read_text().splitlines():
            _, kinds, path = line.split(":", 2)
            kind = "memory" if "memory" in kinds.split(",") else kinds
            if kind in files:
                with contextlib.suppress(OSError, ValueError):
                    limits.append(int(Path(root, kind, path.lstrip("/"), files[kind]).read_text()))
    return float(min(limits, default=float("inf")))


def check_memory(need: int, what: str) -> None:
    """Raise ResourceLimitError if `need` bytes for `what` exceed physical or cgroup memory."""
    ram, cgroup = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"), cgroup_limit()
    if need > min(ram, cgroup):
        raise ResourceLimitError(
            f"{what}: {need} B > {'physical RAM' if ram <= cgroup else 'cgroup memory limit'}")


def prime_count_bound(x: int) -> int:
    """An integer >= pi(x): Rosser and Schoenfeld's pi(x) < 1.25506 x / log x for x > 1."""
    return int(1.25506 * x / log(x)) + 1 if x > 1 else 0


def _sieve_limit(limit: int) -> int:
    """limit, once it lies in [2, 2^31 - 1]: tables are int32."""
    if not 2 <= limit <= np.iinfo(np.int32).max:
        raise ValueError(f"sieve limit must be >= 2 and within the int32 cap 2^31 - 1, got {limit}")
    return limit


def table_need(limit: int) -> int:
    """Bytes of the primes <= limit at most, once limit is a sieve limit and memory holds them:
    4 B per prime_count_bound(limit) prime (the one table), a segment's flags on each of up to two
    threads, 12 B a prime of it (at most 2y/log y in y integers) and one pass's 4 _CHUNK float64."""
    flags = _worker_count(2) * (DEFAULT_SEGMENT + _PERIOD)  # the strike and extract stages
    segment = flags + 12 * int(4 * DEFAULT_SEGMENT / log(2 * DEFAULT_SEGMENT))  # Brun-Titchmarsh
    need = 4 * prime_count_bound(_sieve_limit(limit)) + segment + 32 * _CHUNK
    check_memory(need, f"prime table to {limit}")
    return need


def segments(limit: int) -> Iterator[np.ndarray]:
    """The primes <= limit, ascending, as one int32 array per segment of DEFAULT_SEGMENT flags.

    Odd-only: flag i stands for 2i + 1, and flag 0, for 1, is written as 2.  `strike` starts a
    segment as _WHEEL from its phase, sets back the flags 1, 2, 3, 5 and 6 of 3, 5, 7, 11 and 13,
    and lets the primes p from 17 to sqrt(limit), walked first once the limit is checked, whose p^2
    lies below its end strike it from `offsets`.  A walk of several segments given two threads by
    the width rule strikes on a helper thread in the caller's context (joined at the end, on close
    or on an error) into two buffers, each handed back once extracted, while the caller extracts."""
    _sieve_limit(limit)
    roots = list(segments(isqrt(limit))) if limit >= 4 else [np.zeros(0, np.int32)]
    base = np.concatenate(roots)[6:].astype(np.int64)  # 17, 19, ...: 2 to 13 need no strikes
    squares = base * base // 2  # the flags of p^2, ascending
    offsets = squares.copy()
    los = range(0, (limit + 1) // 2, DEFAULT_SEGMENT)  # the segments' first flags
    pipelined = _worker_count(min(2, len(los))) > 1  # the strike and extract stages

    def strike(lo: int, buf: np.ndarray) -> np.ndarray:  # the flags of segment lo, in buf
        n = min(los.step, los.stop - lo)
        buf.reshape(-1, _PERIOD)[:] = _WHEEL[lo % _PERIOD :][:_PERIOD]  # whole periods
        flags = buf[:n]
        flags[[i - lo for i in (1, 2, 3, 5, 6) if lo <= i < lo + n]] = True
        active = int(np.searchsorted(squares, lo + n))
        for p, o in zip(base[:active].tolist(), offsets[:active].tolist()):
            flags[o::p] = False
        offsets[:] -= n
        np.remainder(offsets[:active], base[:active], out=offsets[:active])
        return flags

    def walk() -> Iterator[np.ndarray]:
        free, ready, stop = queue.SimpleQueue(), queue.SimpleQueue(), threading.Event()
        for _ in range(1 + pipelined):  # the flag buffers, of whole periods
            free.put(np.empty(-(-min(los.step, los.stop) // _PERIOD) * _PERIOD, bool))

        def helper() -> None:  # the strike stage, until the walk runs out or is stopped
            try:
                for lo in los:
                    buf = free.get()
                    if stop.is_set():
                        return
                    ready.put(strike(lo, buf))
            except BaseException as exc:  # re-raised by the caller
                ready.put(exc)

        striker = threading.Thread(target=copy_context().run, args=(helper,), daemon=True)
        if pipelined:  # a daemon: an unclosed walk cannot block exit
            striker.start()
        try:
            for lo in los:  # the extract stage
                flags = ready.get() if pipelined else strike(lo, free.get())
                if isinstance(flags, BaseException):
                    raise flags
                found = np.multiply(np.flatnonzero(flags), 2, dtype=np.int32, casting="unsafe")
                free.put(flags.base)  # handed back once extracted
                found += 2 * lo + 1
                found[:1] += lo == 0  # the first segment's 1 becomes 2
                yield found
        finally:
            if pipelined:
                stop.set()
                free.put(None)  # wakes a helper that waits for a buffer
                striker.join()

    return walk()


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int32 view of a lone segment's array, or of
    the filled prefix of one array of prime_count_bound(limit) primes that the `segments` fill."""
    table_need(limit)  # before anything is sieved
    lone, walk = (limit + 1) // 2 <= DEFAULT_SEGMENT, segments(limit)
    table = next(walk) if lone else np.empty(prime_count_bound(limit), np.int32)
    n = table.size if lone else 0
    for found in walk:
        table[n : n + found.size], n = found, n + found.size
    table.flags.writeable = False
    return table[:n]


def nth_prime_upper(n: int) -> int:
    """Upper bound for the n-th prime (Rosser): n(log n + log log n) for n >= 6."""
    return 13 if n < 6 else int(n * (log(n) + log(log(n)))) + 1


class ChebyshevReport(NamedTuple):
    max_ratio: float
    holds: bool
    worst_prime: int


def chebyshev_check(primes: np.ndarray) -> ChebyshevReport:
    """Check pi(x) < 2x/log(x) at every prime x of `primes`, the ascending primes to some limit.

    max_ratio is the maximum of pi(x) * log(x) / (2x) over primes, taken _CHUNK primes at a time
    (worst_prime is its first prime); the bound holds iff max_ratio < 1.
    """
    if primes.size == 0:
        raise ValueError("chebyshev_check needs at least one prime")
    max_ratio, k = -np.inf, 0
    for lo in range(0, primes.size, _CHUNK):
        p = primes[lo : lo + _CHUNK].astype(np.float64)
        ratios = np.arange(lo + 1, lo + p.size + 1, dtype=np.float64) * np.log(p) / (2.0 * p)
        j = int(np.argmax(ratios))
        if ratios[j] > max_ratio:  # strictly: an equal ratio later names a later prime
            max_ratio, k = float(ratios[j]), lo + j
    return ChebyshevReport(max_ratio, bool(max_ratio < 1.0), int(primes[k]))


_largest: tuple[int, np.ndarray] | None = None  # (limit, sieve_primes(limit))


def cached_primes(limit: int) -> np.ndarray:
    """The primes <= limit, ascending, as a read-only int32 view of one table shared across
    the process.

    The largest table sieved so far is kept; a smaller limit gets a view of it, so no
    limit is sieved twice.
    """
    global _largest
    limit = _sieve_limit(int(limit))
    if _largest is None or _largest[0] < limit:
        _largest = (limit, sieve_primes(limit))
    table = _largest[1]
    return table[: int(np.searchsorted(table, table.dtype.type(limit), side="right"))]
