"""Layer spans for the benchmark's traced runs.

`Tracer.install` replaces public functions of the rmflab modules with
wrappers that record a span per call: name, start, end, parent span and
thread.  Work counters are computed from each call's arguments and result
shapes, so they repeat exactly between runs.  Nothing under `src/` is edited;
`uninstall` puts the original functions back.

The rise of the process's RSS high-water mark is read at every span
boundary and charged to the span that was running on that thread, so the
rises of all layers add up to the process's total rise.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from rmflab import chaining, concentration, prime_series, primes, rmf

MB = 1024.0  # ru_maxrss is in KiB on Linux


_ORIGINAL_CACHED_PRIMES = primes.cached_primes


def _count_sup_scan(result, args):
    signs, limit = args["signs"], args["limit"]
    limit = signs.prime_limit if limit is None else limit
    return result.grid_size * int(np.searchsorted(signs.primes, limit, side="right"))


def _terms_log_weighted(result, args):
    n_cut, table = args["n_cut"], args["table"]
    if table is None or table.limit < n_cut:
        table = _ORIGINAL_CACHED_PRIMES(n_cut)  # the table the call itself used
    return int(np.searchsorted(table.primes, n_cut, side="right"))


# module -> {function: counter(result, arguments by name) or None}
LAYERS = {
    primes: {
        "sieve_primes": lambda r, a: int(r.size),
        "cached_primes": None,
    },
    rmf: {
        "derive_seed": None,
        "sample_signs": lambda r, a: int(r.signs.size),
        "sign_matrix": lambda r, a: tuple(int(n) for n in r.shape),
        "partial_sum_trace": lambda r, a: int(a["x_max"]),
        "sign_change_points": None,
        "random_prime_sum_batch": None,
        "sup_scan": _count_sup_scan,
    },
    chaining: {
        "oscillation_batch": lambda r, a: 2 ** int(a["r_max"]) + 1,
    },
    concentration: {
        "step2_experiment": lambda r, a: int(a["trials"]),
    },
    prime_series: {
        "euler_tail_constant": lambda r, a: (int(a["n_primes"]), r.upper - r.lower),
        "log_weighted_sum": _terms_log_weighted,
    },
}


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Spans as lists [name, start, end, parent, thread, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.rss_rise: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = {threading.main_thread().ident: 0}
        self._rss_last = _maxrss_kib()
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording --

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _charge_rss(self, running: int | None) -> None:
        """Charge the high-water rise since the last boundary to `running`."""
        now = _maxrss_kib()
        layer = "other" if running is None else self.spans[running][0].split(".")[0]
        with self._lock:
            if now > self._rss_last:
                self.rss_rise[layer] += (now - self._rss_last) / MB
                self._rss_last = now

    def _open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self._charge_rss(parent)
        ident = threading.get_ident()
        with self._lock:
            thread = self._threads.setdefault(ident, len(self._threads))
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, thread, None])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._charge_rss(idx)
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, module, fname: str, counter):
        fn = getattr(module, fname)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[idx][5] = counter(result, bound.arguments)
            return result

        return traced

    def install(self) -> None:
        for module, functions in LAYERS.items():
            for fname, counter in functions.items():
                if not hasattr(module, fname):
                    print(f"tracer: {module.__name__}.{fname} not found; not traced",
                          file=sys.stderr)
                    continue
                self._originals.append((module, fname, getattr(module, fname)))
                setattr(module, fname, self._wrap(module, fname, counter))

    def uninstall(self) -> None:
        for module, fname, fn in reversed(self._originals):
            setattr(module, fname, fn)
        self._originals.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "thread")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    # -------------------------------------------------------------- metrics --

    def metrics(self, wall: float, workers: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded; `wall` is the traced wall
        time of the commands, `workers` the CLI thread-pool size."""
        spans = self.spans
        children: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            if s[3] is not None:
                children[s[3]].append(i)
        dur = [s[2] - s[1] for s in spans]
        self_t = [dur[i] - sum(dur[c] for c in children[i]) for i in range(len(spans))]
        by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s[0]].append(i)

        def selftime(*names):
            return sum(self_t[i] for n in names for i in by_name[n])

        def total(name):
            return sum(dur[i] for i in by_name[name])

        def counts(name):
            return [spans[i][5] for i in by_name[name]]

        def descendants(i):
            todo, out = list(children[i]), []
            while todo:
                j = todo.pop()
                out.append(j)
                todo.extend(children[j])
            return out

        def hashes_under(i):
            shapes = [spans[j][5] for j in descendants(i) if spans[j][0] == "rmf.sign_matrix"]
            return sum(r * c for r, c in shapes), max((c for _, c in shapes), default=0)

        m: dict[str, float] = {}
        m["rmf.trace_s"] = selftime("rmf.partial_sum_trace")
        m["rmf.trace_values"] = sum(counts("rmf.partial_sum_trace"))
        m["rmf.scan_s"] = selftime("rmf.sign_change_points")
        m["rmf.hash_s"] = selftime("rmf.sign_matrix", "rmf.sample_signs")
        m["rmf.hash_count"] = sum(counts("rmf.sample_signs")) + sum(
            r * c for r, c in counts("rmf.sign_matrix"))
        m["rmf.derive_seed_s"] = selftime("rmf.derive_seed")
        m["rmf.prime_sum_s"] = selftime("rmf.random_prime_sum_batch")
        m["rmf.sup_scan_s"] = selftime("rmf.sup_scan")
        m["rmf.sup_scan_cells"] = sum(counts("rmf.sup_scan"))

        hashed = distinct = 0
        for i in by_name["concentration.step2_experiment"]:
            h, n_primes = hashes_under(i)
            hashed += h
            distinct += spans[i][5] * n_primes
        m["concentration.hash_per_sign"] = hashed / distinct if distinct else 0.0
        m["concentration.step2_s"] = total("concentration.step2_experiment")

        m["chaining.oscillation_s"] = selftime("chaining.oscillation_batch")
        m["chaining.grid_cells"] = sum(
            spans[i][5] * hashes_under(i)[1] for i in by_name["chaining.oscillation_batch"])

        m["primes.sieve_s"] = selftime("primes.sieve_primes")
        m["primes.sieved"] = sum(counts("primes.sieve_primes"))
        calls = by_name["primes.cached_primes"]
        hits = sum(1 for i in calls if not any(
            spans[j][0] == "primes.sieve_primes" for j in descendants(i)))
        m["primes.cache_hit_ratio"] = hits / len(calls) if calls else 0.0

        m["prime_series.euler_tail_s"] = selftime("prime_series.euler_tail_constant")
        m["prime_series.log_weighted_s"] = selftime("prime_series.log_weighted_sum")
        euler = counts("prime_series.euler_tail_constant")
        m["prime_series.terms"] = sum(n for n, _ in euler) + sum(
            counts("prime_series.log_weighted_sum"))
        m["prime_series.c01_width"] = euler[-1][1] if euler else 0.0

        for layer in ("primes", "rmf", "chaining"):
            m[f"{layer}.rss_hw_mb"] = self.rss_rise.get(layer, 0.0)

        # Time inside CLI commands that no library span covers, on any thread.
        lib = sorted((s[1], s[2]) for s in spans if not s[0].startswith("cli."))
        merged: list[list[float]] = []
        for a, b in lib:
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        covered = sum(b - a for a, b in merged)
        cli = [i for i, s in enumerate(spans) if s[0].startswith("cli.")]
        cli_covered = sum(
            max(0.0, min(b, spans[i][2]) - max(a, spans[i][1])) for i in cli for a, b in merged)
        m["cli.self_s"] = sum(dur[i] for i in cli) - cli_covered
        for i in cli:
            m[f"{spans[i][0]}_s"] = m.get(f"{spans[i][0]}_s", 0.0) + dur[i]
        m["trace.coverage"] = covered / wall if wall > 0 else 0.0

        pooled = sum(dur[i] for i, s in enumerate(spans) if s[3] is None and s[4] != 0)
        sweep = total("cli.signchanges")
        m["cli.pool_efficiency"] = pooled / (workers * sweep) if sweep else 0.0
        return m
