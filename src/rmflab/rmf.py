"""Rademacher random multiplicative function simulation.

Signs on primes come from a counter-based keyed hash of (seed, prime), so an
assignment is reproducible from (seed, prime_limit) alone, independent of
evaluation order and thread count.  The multiplicative extension, partial sums M_f with
sign-change events, the random prime sum P(sigma) over many seeds at once with no BLAS bit (a
gemm only screens its exceedance counts), the exact Abel-summation identity, and grid scans of
sup_t of cosine-weighted prime sums, summed exactly by numpy one t row at a time and only on
the rows that the certified estimate of `_low_rank` cannot rule out, all live here.

Each kernel first calls its need (extension_need, prime_sum_need, sup_scan_need), which refuses bad
values, then memory, before any sieve, hash or allocation.  The multiplicative extension has one
path, and partial_sum_trace is its one entry for M_f.  Up to 64 seeds' negative signs are the bits
of one sign_words word per prime; a factor table sieved once per process gives each TRACE_SEGMENT
block w(n) = w(q) ^ w(n / q), q the least prime of n, by two gathers at its squarefree n, whose -1
signs one uint64 cumsum counts for four seeds in 16-bit lanes; a ramp makes M_f's zeros one uint16
compare; sign changes follow only them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isqrt
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import primes as primes_mod
from .prime_series import _G, _U, DivergenceError
from .primes import check_memory

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_PRIME_SALT = np.uint64(0xD1B54A32D192ED03)
_SIGN_FOLD = np.uint64(0x933111EB00000000)  # _MIX2 * (2^63 + 2^32) mod 2^64

TRACE_SEGMENT = 1 << 16
PACKED_SIGNS = 64  # sign assignments per uint64 word of the multiplicative extension
_LANES = np.uint64(0x0001000100010001)  # bit 0 of each 16-bit lane of a uint64
_HASH_CELLS = 1 << 16  # float64 cells per sign_matrix tile, each hashed in place as uint64
_T_CHUNK = 32  # t-grid rows per block of the sup-scan estimates
_EXACT_LOG1P = 10**4  # sup-scan estimates take the exact log1p for primes up to here
_LOW_RANK_CELLS = 1 << 19  # float64 cells per prime chunk or grid chunk of _low_rank
_SUM_CELLS = 1 << 18  # float64 cells per sign block of the prime-sum batches, on each thread
_SCREEN_ROWS = 8  # rows per screening np.dot (np.matmul's did not overlap across threads): at
# P = 9,592 and OPENBLAS_NUM_THREADS=2, 8 rows ran on the calling thread; 1 and 27 rows did not
_factors: tuple | None = None  # (x_max, flags, least, rest) of the largest _factor_table built


def _sign_bit(x, out=None, tmp=None, last=_SIGN_FOLD) -> np.ndarray:
    """mix64 up to its last multiply, which is by `last`, in place in `out` with shifts in `tmp`.
    With _SIGN_FOLD, bit 63 holds bit 0 of mix64(x): with z = y * _MIX2, that bit of z ^ (z >> 31)
    is z's bit 0 xor bit 31, which is bit 63 of z * (2^63 + 2^32)."""
    with np.errstate(over="ignore"):
        z = np.add(np.asarray(x, dtype=np.uint64), _GOLDEN, out=out)
        z ^= np.right_shift(z, np.uint64(30), out=tmp)
        z *= _MIX1
        z ^= np.right_shift(z, np.uint64(27), out=tmp)
        z *= last
    return z


def mix64(x) -> np.ndarray:
    """SplitMix64 finalizer over uint64 scalars or arrays."""
    z = _sign_bit(x, last=_MIX2)
    return z ^ (z >> np.uint64(31))


def derive_seed(base_seed: int, index: int | np.ndarray) -> int | np.ndarray:
    """Per-trial seed: keyed hash of (base_seed, index).  An integer array of
    indices gives the uint64 array of their seeds."""
    if isinstance(index, int):  # Python ints may be negative or wider than 64 bits
        index &= _MASK64
    with np.errstate(over="ignore"):
        key = np.uint64(base_seed & _MASK64) ^ (np.asarray(index).astype(np.uint64) * _GOLDEN)
    z = mix64(key)
    return int(z) if z.ndim == 0 else z


def _salted(trial_seeds: np.ndarray | Sequence[int], primes: np.ndarray) -> tuple:
    """The hash keys mix64(seed mod 2^64) and, made in place, the salted primes p * _PRIME_SALT."""
    if not isinstance(trial_seeds, np.ndarray):
        trial_seeds = [int(s) & _MASK64 for s in trial_seeds]
    pk = primes.astype(np.uint64)
    pk *= _PRIME_SALT
    return mix64(np.asarray(trial_seeds, dtype=np.uint64)), pk


def sign_matrix(trial_seeds: np.ndarray | Sequence[int], primes: np.ndarray) -> np.ndarray:
    """The sign hash: row t holds the +-1.0 signs of `primes` under trial_seeds[t], by _sign_tiles
    into a new float64 (len(trial_seeds), primes.size) array."""
    keys, pk = _salted(trial_seeds, primes)
    return _sign_tiles(keys, pk, np.empty((keys.size, primes.size)))


def _sign_tiles(keys: np.ndarray, pk: np.ndarray, out: np.ndarray, tmp=None) -> np.ndarray:
    """The sign hash of _salted's keys and salted primes pk into `out`, a C-contiguous float64
    (len(keys), P) array: tiles of max(1, _HASH_CELLS // P) rows go through _sign_bit in place, bit
    63 set where f(p) = -1, shifts in `tmp` (None: a new one) of min(tile rows, len(keys)) rows."""
    rows = max(1, _HASH_CELLS // max(1, pk.size))
    tmp = np.empty((min(rows, keys.size), pk.size), dtype=np.uint64) if tmp is None else tmp
    for start in range(0, keys.size, rows):
        key = keys[start : start + rows, None]
        z = out[start : start + key.size].view(np.uint64)
        _sign_bit(np.bitwise_xor(pk, key, out=z), out=z, tmp=tmp[: key.size])
        z &= np.uint64(1 << 63)  # the hashed sign bit, then 1.0's exponent bits: +-1.0
        z |= np.uint64(0x3FF0000000000000)
    return out


def sign_words(seeds: np.ndarray | Sequence[int], primes: np.ndarray) -> np.ndarray:
    """The sign hash of at most PACKED_SIGNS seeds, one uint64 per prime: bit 16 (j % 4) + j // 4
    set where sign_matrix's row j is -1.0, so (w >> g) & _LANES holds seeds 4g..4g+3 in lanes."""
    if len(seeds) > PACKED_SIGNS:
        raise ValueError(f"at most {PACKED_SIGNS} seeds share a sign word, got {len(seeds)}")
    keys, pk = _salted(seeds, primes)
    words, z, tmp = np.zeros_like(pk), np.empty_like(pk), np.empty_like(pk)
    for j, key in enumerate(keys):
        _sign_bit(np.bitwise_xor(pk, key, out=z), out=z, tmp=tmp)
        z >>= np.uint64(63)
        z <<= np.uint64(16 * (j % 4) + j // 4)
        words |= z
    return words


def _hash_tile_bytes(rows: int, n_primes: int) -> int:
    """Bytes of sign_matrix's shift temporary and xor's two ufunc buffers, for `rows` seeds."""
    return 8 * (max(n_primes, min(rows * n_primes, _HASH_CELLS)) + 2 * np.getbufsize())


@dataclass(frozen=True)
class SignAssignment:
    """Deterministic map prime -> {-1, +1} for primes up to prime_limit."""

    seed: int
    prime_limit: int
    primes: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        self.primes.flags.writeable = False
        self.signs.flags.writeable = False

    def up_to(self, limit: int) -> tuple[np.ndarray, np.ndarray]:
        """(primes, signs) views restricted to p <= limit."""
        if limit > self.prime_limit:
            raise ValueError(f"limit {limit} exceeds prime_limit {self.prime_limit}")
        idx = int(np.searchsorted(self.primes, self.primes.dtype.type(limit), side="right"))
        return self.primes[:idx], self.signs[:idx]


def sample_signs(seed: int, prime_limit: int) -> SignAssignment:
    """Reproducible +-1.0 assignment on the primes up to prime_limit: a sign_matrix row."""
    ps = primes_mod.cached_primes(prime_limit)
    signs = sign_matrix([seed], ps)[0]
    return SignAssignment(seed=seed, prime_limit=prime_limit, primes=ps, signs=signs)


def _factor_table(x_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flags, least, rest) to at least x_max, the largest built so far: bit n - 1 of the packed
    flags is set where n is squarefree, and at such an n's rank r (1 has rank 0) least[r] is the
    word of its least prime q (the k-th prime's is k, 1's is 0) and rest[r] the rank of n / q."""
    global _factors
    if (table := _factors) is None or table[0] < x_max:  # one read: no concurrent swap
        ps = primes_mod.cached_primes(max(x_max, 2))
        small = ps[: np.searchsorted(ps, ps.dtype.type(isqrt(x_max)), side="right")].tolist()
        squarefree = np.append(False, np.ones(x_max, bool))  # squarefree[n], with 0 not counted
        for p in small:
            squarefree[p * p :: p * p] = False
        ranks = np.cumsum(squarefree[: x_max // 2 + 1], dtype=np.int32)  # m's rank at m - 1
        least, rest = np.empty((2, int(np.count_nonzero(squarefree))), np.int32)
        word_prime, start, b = np.append(np.int32(1), ps), 0, 0  # 1 has the zero word 0
        for lo in range(1, x_max + 1, TRACE_SEGMENT):
            hi = min(lo + TRACE_SEGMENT - 1, x_max)
            k = np.zeros(hi - lo + 1, np.int32)  # the word of the least prime dividing n, or 0
            for i, p in reversed(list(enumerate(small, 1))):
                k[-lo % p :: p] = i
            a, b = b, int(np.searchsorted(ps, ps.dtype.type(hi), side="right"))
            k[ps[a:b] - lo] = np.arange(a + 1, b + 1, dtype=np.int32)  # the block's primes
            n = lo + np.flatnonzero(squarefree[lo : hi + 1])
            least[start : start + n.size] = k = k[n - lo]
            # q divides n < 2^31, so the float64 quotient, faster than int64 //, is exact
            rest[start : start + n.size] = ranks[(n / word_prime[k]).astype(np.int32) - 1]
            start += n.size
        _factors = table = (x_max, np.packbits(squarefree[1:], bitorder="little"), least, rest)
    return table[1:]


def _signed_blocks(words: np.ndarray, x_max: int) -> Iterator[tuple]:
    """Yield (lo, squarefree, sq, w) per block lo..hi <= x_max: the flags and offsets sq of its
    squarefree n and at them the packed words of f, a bit set where its assignment has f = -1:
    w(n) = word(q) ^ w(n / q) by _factor_table, with the words of n <= x_max / 2 kept by rank.
    Every n / q <= n / 2 lies below its block, but in the first, taken in ranges [a, 2a) of n."""
    flags, least, rest = _factor_table(x_max)
    words, start = np.append(np.uint64(0), words), 0  # word 0 is 1's; start: a block's first rank
    kept = np.zeros(np.unpackbits(flags, count=x_max // 2 + 1, bitorder="little").sum(), np.uint64)
    for lo in range(1, x_max + 1, TRACE_SEGMENT):
        hi, skip = min(lo + TRACE_SEGMENT - 1, x_max), (lo - 1) % 8
        squarefree = np.unpackbits(flags[(lo - 1) // 8 :], count=skip + hi - lo + 1,
                                   bitorder="little")[skip:].view(bool)
        sq = np.flatnonzero(squarefree)
        w = words[least[start : start + sq.size]]
        cuts = np.searchsorted(sq, (2 << np.arange(hi.bit_length())) - 1) if lo == 1 else [sq.size]
        for a, b in zip([0, *cuts], cuts):
            w[a:b] ^= kept[rest[start + a : start + b]]
            kept[start + a : start + b] = w[a:b][: max(0, kept.size - start - a)]
        yield lo, squarefree, sq, w
        start += sq.size
        del squarefree, sq, w  # not kept through the next block


def _signed_rows(words: np.ndarray, rows: int, x_max: int) -> np.ndarray:
    """f(1..x_max) of the assignments j < rows packed in `words`, one int8 row each."""
    out = np.zeros((rows, x_max), dtype=np.int8)
    for lo, _, sq, w in _signed_blocks(words, x_max):
        for j, row in enumerate(out):
            row[lo - 1 + sq] = 1 - 2 * (w >> (16 * (j % 4) + j // 4) & 1).astype(np.int8)
    return out


def signed_value_rows(seeds: Sequence[int], x_max: int) -> np.ndarray:
    """Row j: f(1..x_max) under sample_signs(seeds[j], x_max) as int8 (index i holds f(i+1)),
    for at most PACKED_SIGNS seeds, from one extension pass."""
    ps = primes_mod.cached_primes(max(x_max, 2))[: max(x_max - 1, 0)]  # pi(x) <= x - 1
    return _signed_rows(sign_words(seeds, ps), len(seeds), x_max)


def sign_change_points(values: np.ndarray) -> np.ndarray:
    """Indices n where a nonzero value of opposite sign to the previous nonzero value appears,
    with values[i] the value at n = i + 1.  Runs of zeros collapse; a terminal zero run adds
    nothing."""
    signs = np.sign(np.asarray(values)).astype(np.int8)
    nz = np.flatnonzero(signs)
    s = signs[nz]
    return (nz[1:][s[1:] != s[:-1]] + 1).astype(np.int64)


@dataclass(frozen=True)
class PartialSumTrace:
    """M_f(n) for n = 1..x_max: its sign-change events, its final value, and
    values[k] = M_f((k + 1) * stride) for every multiple of stride up to x_max."""

    x_max: int
    change_points: np.ndarray
    final_value: int
    stride: int
    values: np.ndarray

    def __post_init__(self):
        self.change_points.flags.writeable = False

    def count_changes(self, x: int | None = None) -> int:
        if x is None:
            x = self.x_max
        if x > self.x_max:
            raise ValueError(f"x={x} beyond trace range {self.x_max}")
        return int(np.searchsorted(self.change_points, x, side="right"))


def _traces(words: np.ndarray, rows: int, x_max: int, stride: int):
    """([(change points, M(x_max))] of the assignments j < rows packed in `words`, and their M
    at n = stride, 2 stride, ... <= x_max as one int64 row each).  In a block of
    n squarefree entries, slot i of lane group g holds in seed 4g + k's 16-bit lane its -1 signs
    c among the first i plus the ramp 2^15 + 1 - ceil(i/2): D_i, in 2^15 + 1 +- n/2 (no multiple
    of 4 is squarefree, so no carry).  From the carried M = v, M_i = v + i - 2c = v + 2^16 + 2 -
    (i & 1) - 2 D_i is 0 just where i >= |v|, i = v mod 2 and D_i = 2^15 + 1 + v // 2.  Steps
    are +-1, so M changes sign only right after a zero, where D differs on its two sides; slot -1
    holds the last nonzero M before the block (before the first, slot 1: M(1) is no change)."""
    value, last, changes = [0] * rows, [0] * rows, [[np.empty(0, np.int64)] for _ in range(rows)]
    samples = np.empty((rows, x_max // stride), np.int64)

    def walk(lo: int, squarefree: np.ndarray, sq: np.ndarray, w: np.ndarray) -> None:
        n, first = sq.size, (lo - 1) // stride  # first: the multiples of stride below lo
        at = np.empty(0, np.intp)  # M at n = lo + i is at the slot of the count of entries <= i
        if -lo % stride < squarefree.size:  # the block holds a sample, at offset -lo % stride
            at = np.cumsum(squarefree, dtype=np.intp)[-lo % stride :: stride].copy()
        ramp = (2**15 + 1 - (np.arange(1, n + 2, dtype=np.uint64) >> np.uint64(1))) * _LANES
        counts, lanes = np.empty(n + 2, np.uint64), np.zeros(n + 1, np.uint64)  # slot 0: none
        for g in range(-(-rows // 4)):
            np.bitwise_and(np.right_shift(w, g, out=lanes[1:]), _LANES, out=lanes[1:])
            np.cumsum(lanes, out=counts[:-1])  # not in place: an in-place cumsum holds the GIL
            counts[:-1] += ramp
            for j, lane in zip(range(4 * g, rows), counts.view(np.uint16).reshape(-1, 4).T):
                v = value[j]  # slot -1: M = last[j], or M at slot 1 before there is one
                lane[-1] = 2**15 + (last[j] < 0) if last[j] else lane[1]
                if abs(v) < n:  # M = 0 only at slots |v|, |v| + 2, ... before n
                    z = abs(v) + 2 * np.flatnonzero(lane[abs(v) : n : 2] == 2**15 + 1 + (v >> 1))
                    if z.size:
                        changes[j].append(lo + sq[z[lane[z + 1] != lane[z - 1]]])
                if at.size:
                    samples[j, first : first + at.size] = (
                        v + 2**16 + 2 - (at & 1) - np.int64(2) * lane[at])
                end = v + 2**16 + 2 - (n & 1) - 2 * int(lane[n])
                value[j], last[j] = end, end or v + 2**16 + 1 + (n & 1) - 2 * int(lane[n - 1])

    for block in _signed_blocks(words, x_max):
        walk(*block)
        del block  # the block's buffers die before the next one is formed
    return [(np.concatenate(c), v) for c, v in zip(changes, value)], samples


def extension_need(x_max: int, seeds: int, stride: int) -> int:
    """Bytes partial_sum_trace allocates at most for `seeds` seeds sampled every stride-th n, once
    x_max >= 1, stride >= 1 and memory holds them: x_max // stride int64 samples each, a new
    _factor_table's build (4 B per integer, 8 B per squarefree n, 4 B per prime, 32 B per integer
    of a block) and, per thread walking a pass, sign_words' four uint64 arrays per prime, 8 B per
    squarefree n <= x_max / 2, 64 KiB for the pool, lists and headers, and 63 B an integer for one
    block at a time (under m - m // 4 + 1 squarefree n up to m): its walk holds 1 B per integer of
    flags, 40 B per squarefree n, at most 8 B per integer of sampled slots and 24 B per sample."""
    if x_max < 1:
        raise ValueError(f"x_max must be >= 1, got {x_max}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    block, primes = min(TRACE_SEGMENT, x_max), primes_mod.prime_count_bound(x_max)
    need = 32 * primes + 8 * (x_max // 2 - x_max // 8 + 1) + 63 * block + (1 << 16)
    need *= primes_mod._worker_count(-(-seeds // PACKED_SIGNS))  # the threads walking a pass
    need += 8 * seeds * (x_max // stride)
    if _factors is None or _factors[0] < x_max:
        need += 4 * x_max + 8 * (x_max - x_max // 4 + 1) + 4 * primes + 32 * block
    check_memory(need, f"x_max={x_max} factor table and sign hash")
    return need


def partial_sum_trace(seeds: Sequence[int], x_max: int, stride: int) -> list[PartialSumTrace]:
    """Exact M_f up to x_max under sample_signs(seed, max(x_max, 2)), sampled at every stride-th
    n, for each seed in order.  The n seeds split into the fewest extension passes of at most
    PACKED_SIGNS seeds, ceil(n / passes) each but the last, each hashed by one sign_words call
    under primes.fan_out, sharing one _factor_table; stride x_max + 1 samples none."""
    extension_need(x_max, len(seeds), stride)  # before anything is sieved or allocated
    # pi(x) <= x - 1, so only x = 1 empties the slice; both tables exist before the threads start
    ps, _ = primes_mod.cached_primes(max(x_max, 2))[: x_max - 1], _factor_table(x_max)
    passes = -(-len(seeds) // PACKED_SIGNS)
    size = -(-len(seeds) // passes) if passes else 1  # seeds per pass

    def traces(start: int) -> list[PartialSumTrace]:
        block = seeds[start : start + size]
        walked, values = _traces(sign_words(block, ps), len(block), x_max, stride)
        return [PartialSumTrace(x_max, c, m, stride, v) for (c, m), v in zip(walked, values)]

    return [tr for trs in primes_mod.fan_out(range(0, len(seeds), size), traces) for tr in trs]


def prime_sum_need(n_seeds: int, limit: int, n_sigmas: int) -> int:
    """Bytes either prime-sum batch takes at most, once memory holds them: n_sigmas + 2 float64 per
    seed and n_sigmas + 3 per prime <= limit, 64 KiB of headers, per thread a block and tiles."""
    n_primes = primes_mod.prime_count_bound(limit)
    rows = min(max(1, _SUM_CELLS // max(1, n_primes)), n_seeds)
    threads = primes_mod._worker_count(-(-n_seeds // max(1, rows)))
    need = 8 * (n_sigmas + 2) * (n_seeds + n_primes) + 8 * n_primes + (1 << 16)
    need += threads * (8 * rows * n_primes + _hash_tile_bytes(rows, n_primes))
    check_memory(need, f"prime sums of {n_seeds} seeds at {n_sigmas} sigmas")
    return need


def _prime_sum_blocks(seeds, sigmas: Sequence[float], limit: int, dtype, reducer) -> np.ndarray:
    """A new (len(seeds), len(sigmas)) dtype array, once prime_sum_need passes and every sigma >
    1/2, filled by reduce(signs, out), reduce = reducer(weights), per block of max(1, _SUM_CELLS
    // P) seeds and out their rows: signs hashed by _sign_tiles under primes.fan_out, task k of T
    into blocks[k] and tiles[k] for blocks k, k + T, ..., and weights[j] = p^(-sigmas[j]) over the
    P primes p <= limit.  The keys, salted primes and weights are made once, in the caller."""
    prime_sum_need(len(seeds), limit, len(sigmas))  # before anything is sieved or allocated
    if not all(sigma > 0.5 for sigma in sigmas):
        raise DivergenceError(f"P(sigma) requires sigma > 1/2, got {sigmas}")
    ps = primes_mod.cached_primes(limit)
    (keys, pk), out = _salted(seeds, ps), np.empty((len(seeds), len(sigmas)), dtype)
    weights = np.empty((len(sigmas), ps.size))  # filled row by row: one temporary at a time
    for w, sigma in zip(weights, sigmas):
        w[:] = ps.astype(np.float64) ** (-sigma)
    n, rows, reduce = len(seeds), max(1, _SUM_CELLS // max(1, ps.size)), reducer(weights)
    threads = primes_mod._worker_count(-(-n // rows))
    blocks = np.empty((threads, min(rows, n), ps.size))  # allocated here: pool threads keep pages
    tiles = np.empty((threads, min(n, _HASH_CELLS // ps.size or 1), ps.size), np.uint64)  # shifts

    def run(k: int) -> None:  # blocks k, k + threads, ... in blocks[k]
        for start in range(k * rows, n, threads * rows):
            signs = _sign_tiles(keys[start : start + rows], pk, blocks[k, : n - start], tiles[k])
            reduce(signs, out[start : start + len(signs)])

    primes_mod.fan_out(range(threads), run)
    return out


def random_prime_sum_batch(trial_seeds: np.ndarray | Sequence[int], sigmas: Sequence[float],
                           limit: int) -> np.ndarray:
    """Truncated P(sigma) for many seeds at once at every sigma, shape (len(seeds), len(sigmas)):
    one einsum per block of _prime_sum_blocks, numpy's own loop with no BLAS, so a row's bits
    depend on neither its block nor the thread count."""
    return _prime_sum_blocks(trial_seeds, sigmas, limit, np.float64, lambda weights: lambda
                             signs, out: np.einsum("ip,sp->is", signs, weights, out=out))


def prime_sum_exceedances(trial_seeds: np.ndarray | Sequence[int], sigmas: Sequence[float],
                          lams: Sequence[float], limit: int) -> np.ndarray:
    """Per sigma, how many seeds have a random_prime_sum_batch value >= lams[sigma], exactly.

    Gemms of _SCREEN_ROWS rows only screen each block.  A row's terms +-w_p are exact, so its einsum
    and any BLAS order lie within gamma_(P-1) sum_p w_p of the exact sum (Higham, 4.2), and within
    twice that of each other; 1.01 covers the rounding of sum w and of gemm - lam.  A row within
    that of lam at some sigma, or NaN, is decided by its einsum, whose bits no block changes."""
    lams = np.asarray(lams, dtype=np.float64)

    def screen(weights: np.ndarray):  # count(signs, hits) per block, under one eps
        eps = 2.02 * weights.shape[1] * _G * weights.sum(axis=1)  # S P adds, once per call
        def count(signs: np.ndarray, hits: np.ndarray) -> None:
            d = np.empty((len(signs), len(lams)))
            for i in range(0, len(signs), _SCREEN_ROWS):
                np.dot(signs[i : i + _SCREEN_ROWS], weights.T, out=d[i : i + _SCREEN_ROWS])
            np.greater(d, lams, out=hits)
            for j in np.flatnonzero(~np.all(np.abs(d - lams) > eps, axis=1)):
                hits[j] = np.einsum("ip,sp->is", signs[j : j + 1], weights)[0] >= lams
        return count

    return np.count_nonzero(_prime_sum_blocks(trial_seeds, sigmas, limit, bool, screen), axis=0)


def abel_weights(sigma: float, x: int) -> tuple[np.ndarray, np.ndarray]:
    """(n^(-sigma) for n = 1..x, and n^(-sigma) - (n+1)^(-sigma) for n = 1..x-1 computed
    cancellation-free): the weights of f and of M in `abel_residuals`."""
    power = np.arange(1, x + 1, dtype=np.float64) ** (-sigma)
    return power, power[:-1] * (-np.expm1(-sigma * np.log1p(1.0 / np.arange(1.0, x))))


def abel_residuals(rows: np.ndarray, sigma: float) -> np.ndarray:
    """Per row f(1..x) of `rows`, |sum f(n) n^(-sigma) - M(x) x^(-sigma) - sigma * integral| over
    sum |f(n)| n^(-sigma), the integral of M(u) u^(-1-sigma) on [1, x] taken exactly piecewise:
    floating-point noise, since summation by parts is exact for every real sigma."""
    x = rows.shape[1]
    power, steps = abel_weights(sigma, x)
    scale = float(np.sum(np.abs(rows[:1]) * power))  # every row's |f| is the squarefree indicator

    def residual(f: np.ndarray) -> float:  # one row's M dies with its call
        lhs = float(np.sum(f * power))  # before M: 8 bytes per n alive at most
        m = f.astype(np.float64)
        np.cumsum(m, out=m)  # M in place, exact as |M| <= x < 2^53
        m[:-1] *= steps
        return abs(lhs - m[-1] * x ** (-sigma) - float(np.sum(m[:-1]))) / scale

    return np.array([residual(f) for f in rows])


_RHO = 1.0 + np.logspace(-3.0, 3.0, 241)  # _interp_error's grid, and its terms set by rho alone
_LOG_M = {True: (_RHO - 1 / _RHO) / 2, False: (_RHO + 1 / _RHO) / 2 - 1}  # log M / a, by osc
_LOG_4_GAP, _LOG_RHO = np.log(4 / (_RHO - 1)), np.log(_RHO)


def _interp_error(a: float, n: int, osc: bool) -> float:
    """min over rho of 4 M rho^-n / (rho - 1) >= |f - p_n| / max|f| on [-1, 1] for f = e^(z k r x),
    |k| r <= a, p_n in n + 1 Chebyshev points, M = e^(a (rho - 1/rho) / 2) (osc) or e^(a ((rho +
    1/rho) / 2 - 1)) (ATAP Thm 8.2)."""
    return float(np.exp(np.min(a * _LOG_M[osc] + _LOG_4_GAP - n * _LOG_RHO)))


def _degree(a: float, osc: bool, floor: float) -> tuple[int, float, float]:
    """(n, E, Lambda): the least n with (1 + Lambda) E <= floor, Lambda >= the Lebesgue constant."""
    for n in range(1, 2 * int(a) + 100):
        lam, e = 1.02 * (2 / np.pi * np.log(n + 1) + 1), _interp_error(a, n, osc)  # ATAP Thm 15.2
        if (1.0 + lam) * e <= floor:
            break
    return n, e, lam


def _split_kernel(ks: np.ndarray, z: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """e^(i k z) for integer ks at the points z, as e^(i 64 a z) steps[m], k = 64 a + m, m < 64."""
    a, at = np.unique(ks // 64, return_inverse=True)
    kernel = np.exp(1j * np.multiply.outer(64.0 * a, z))[at]
    kernel *= steps[(ks % 64).astype(np.intp)]
    return kernel


def _node_error(k, c: float, r: float, osc: bool):
    """_low_rank's node term per unit of G: the kernel's error for |ks| <= k at z_j = c + r x_j."""
    return 1.01 * _U * ((k + 126 if osc else k) * (2 * abs(c) + 3 * r) + (15 if osc else 9))


def _low_rank(theta, kmax: float, osc: bool, complex_coef: bool):
    """estimate(coef, ks, scale) -> (values, eps): values[i, s] ~ sum_p coef[p, s] e^(z ks[i]
    theta_p), z = i (integer ks) or 1, |ks| <= kmax, within eps[s] if scale[s] >= sum_p |coef[p,
    s]|: the kernel interpolated in theta = c + r x at n + 1 Chebyshev points x_j, n of _degree at
    gamma_{P+1} (2 gamma_{P+1} for complex coef) for every estimate, b_j = sum_p coef_p l_j(x_p)
    on a barycentric basis each estimate streams in chunks of primes.  Per unit of G scale, G >=
    |e^(z k theta)|, eps adds (1 + Lambda_n) E of _interp_error at the estimate's max |k| r; the
    barycentric roundoff 2 alpha Lambda_n max|p_n|, alpha = gamma_{3n+6} (Higham, IMA J. Numer.
    Anal. 24, 2004); gamma_{P+1} and 2 gamma_{n+3} for the sums; x_p's rounding; the kernel at the
    nodes, e^(i k z) = e^(i 64 a z) e^(i m z) for k = 64 a + m, 0 <= m < 64, from two rounded
    arguments (|64 a| + m <= |k| + 126), two cis to 4 sqrt(2) u, a product to sqrt(2) gamma_2."""
    lo, hi = (float(theta.min()), float(theta.max())) if theta.size else (0.0, 0.0)
    c, r = (lo + hi) / 2, (hi - lo) / 2
    gam_p = (theta.size + 1) * _G * (2 if complex_coef else 1)
    n, _, lam_n = _degree(kmax * r, osc, gam_p)
    x_j = np.sin(np.pi * np.arange(n, -n - 1, -2) / (2 * n))  # Chebyshev points, symmetric
    lam = 1.0 / np.prod(2.0 * np.subtract.outer(x_j, x_j) + np.eye(n + 1), axis=1)  # weights
    z_j, rows = c + r * x_j, max(1, _LOW_RANK_CELLS // (n + 1))
    steps = np.exp(1j * np.multiply.outer(np.arange(64.0), z_j)) if osc else None  # e^(i m z)

    # coef: (P, S), or part(i, j) -> its rows i..j-1 made per chunk; scale None: sum_p |coef[p, s]|
    def estimate(coef, ks, scale=None) -> tuple[np.ndarray, np.ndarray]:
        part, head = (coef, coef(0, 0)) if callable(coef) else (lambda i, j: coef[i:j], coef)
        b, sums = np.zeros((n + 1, head.shape[1]), head.dtype), np.zeros(head.shape[1])
        floats = b.view(np.float64).shape[1]
        size = max(1, _LOW_RANK_CELLS // (n + 1 + 2 * floats))  # basis, coef and coef / s per prime
        basis = np.empty((n + 1, min(size, theta.size)))  # a chunk's l_j(x_p) s_p, reused
        for i in range(0, theta.size, size):
            x = np.clip((theta[i : i + size] - c) / (r or 1.0), -1.0, 1.0)
            q = np.subtract(x, x_j[:, None], out=basis[:, : x.size])
            with np.errstate(divide="ignore", invalid="ignore"):
                s = np.sum(np.divide(lam[:, None], q, out=q), axis=0)  # l_j(x_p) = q_j / s_p
            hit = np.flatnonzero(~np.isfinite(s))  # x_p on a node: l_j(x_p) = [x_j == x_p]
            q[:, hit], s[hit] = np.isinf(q[:, hit]), 1.0
            a = part(i, i + x.size)
            sums += np.sum(np.abs(a), axis=0) if scale is None else 0.0
            ab = a.view(np.float64) if np.iscomplexobj(a) else a  # 1/s_p: the side of fewer floats
            q, ab = (np.divide(q, s, out=q), ab) if n + 1 <= floats else (q, ab / s[:, None])
            b.view(np.float64)[:] += q @ ab
        basis = q = a = ab = None  # the last chunk's buffers die before the kernel products
        scale, k = sums if scale is None else scale, float(np.max(np.abs(ks), initial=0.0))
        values = np.empty((ks.size, b.shape[1]), b.dtype)
        kernel = ((lambda chunk: _split_kernel(chunk, z_j, steps)) if osc
                  else lambda chunk: np.exp(np.multiply.outer(chunk, z_j)))  # one alive at a time
        for i in range(0, ks.size, rows):  # values[i] = sum_j e^(z ks[i] theta_j) b_j
            np.matmul(kernel(ks[i : i + rows]), b, out=values[i : i + rows])
        g = 1.0 if osc else float(np.exp(np.max(np.multiply.outer([ks.min(), ks.max()], [lo, hi]))))
        interp, alpha = _interp_error(k * r, n, osc), (3 * n + 6) * _G
        node = _node_error(k, c, r, osc)
        bary = 2 * alpha * lam_n * (1 + interp) / (1 - alpha * lam_n)
        sums = (1 + node) * lam_n * (gam_p + 2 * (n + 3) * _G * (1 + gam_p))
        shift = 3.03 * _U * k * (r + abs(lo) + abs(hi))
        unit = (1 + lam_n) * interp + lam_n * node + bary + sums + shift
        return values, 1.01 * g * scale * unit

    return estimate


def _sup_scan_estimates(ts, sizes, logp, sg, amps) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per amp = p^(-sigma), (est, eps) on its rows ts[:size]: est[0] the cos sum and est[1]
    log|F| = 0.5 sum_p log1p(x_p), x = 2 w c + amp^2, w = sg amp, c = cos(t log p), at every t,
    each within eps[i, 0] of sup_scan_batch's exact row.  On the centred grid t = t0 + m h of all
    of ts, primes p <= _EXACT_LOG1P take the exact log1p of cells Re e^(i (t0 + (start - mid) h)
    log p) e^(i j h log p), built once per block for every sigma.  Above, one _low_rank pass in
    theta = h log p at k = m and 2 m, forming three columns per sigma chunk by chunk, gives the cos
    sum and 0.5 (x - x^2/2) = w (1 - amp^2) c - amp^2 cos(2 t log p) / 2 - amp^4 / 4, within sum
    |x|^3 / (3 (1 - |x|)) of log|F|.  eps adds, over the sigma's rows and t0, the distance of an
    exact cell (rounding of t log p, np.cos at 2 ulps, the gap of ts from t0 + m h) and of an
    estimated cell or phase from cos(t log p) through Lipschitz bounds of log1p, np.log1p at 2
    ulps, the rounding of x, and gamma_n sum_p |term_p| (Higham, ch. 3)."""
    h, mid = (ts[1] - ts[0] if ts.size > 1 else 0.0), (ts.size - 1) // 2
    m = np.arange(ts.size, dtype=np.float64) - mid
    ns = int(np.searchsorted(logp, np.log(_EXACT_LOG1P)))
    jh = np.multiply.outer(np.arange(_T_CHUNK) * h, logp[:ns])
    step_re, step_im, x = np.cos(jh), np.sin(jh), jh  # e^(i j h log p); jh's cells then hold x
    small = [(np.empty((2, n)), sg[:ns] * a[:ns], a[:ns] * a[:ns]) for n, a in zip(sizes, amps)]
    for start in range(0, ts.size, _T_CHUNK):  # in place: fresh temporaries cost page faults
        base = np.exp(1j * (ts[mid] + (start - mid) * h) * logp[:ns])
        c = step_re[: ts.size - start] * base.real
        c -= step_im[: ts.size - start] * base.imag
        for est, w, aa in small:  # each sigma's rows of the block, if any
            rows = c[: max(0, est.shape[1] - start)]
            est[0, start : start + len(rows)] = rows @ w
            xs = np.multiply(rows, 2.0 * w, out=x[: len(rows)])
            xs += aa
            est[1, start : start + len(rows)] = 0.5 * np.sum(np.log1p(xs, out=xs), axis=1)

    lp = logp[ns:]

    def coef(i: int, j: int) -> np.ndarray:  # w turn, w (1 - amp^2) turn, -amp^2 turn^2 / 2
        out, turn = np.empty((j - i, 3 * len(amps)), complex), np.exp(1j * ts[mid] * lp[i:j])
        for s, amp in enumerate(amps):
            a = amp[ns + i : ns + j]
            w, aa = sg[ns + i : ns + j] * a, a * a
            out[:, 3 * s], out[:, 3 * s + 1] = w * turn, w * (1.0 - aa) * turn
            out[:, 3 * s + 2] = -0.5 * aa * turn * turn
        return out

    ks = np.concatenate([m, 2 * m])  # |ks| <= 2 (ts.size - 1 - mid), as mid <= ts.size - 1 - mid
    values, ev = _low_rank(h * lp, 2.0 * (ts.size - 1 - mid), True, True)(coef, ks)
    theta, gam, out = float(np.max(logp, initial=0.0)), (logp.size + 8) * _G, []
    for s, ((est, _, _), amp) in enumerate(zip(small, amps)):
        size, aa = est.shape[1], amp * amp
        const = np.sum(aa[ns:] * aa[ns:]) / 4
        est[0] += values[:size, 3 * s].real
        est[1] += values[:size, 3 * s + 1].real + values[ts.size :][:size, 3 * s + 2].real - const
        tmax = 1.01 * max(float(np.max(np.abs(ts[:size]))), abs(float(ts[mid])))
        gap = float(np.max(np.abs(ts[:size] - (ts[mid] + m[:size] * h)))) + 4 * _U * tmax
        cell = 4 * _U + _U * tmax * theta + theta * gap  # an exact cell against cos(t log p)
        phase = 5.05 * _U * tmax * theta + 17 * _U  # an estimated cell or coefficient phase
        a1 = amp * (1.0 + cell + phase)  # bounds |w c| on exact and estimated cells
        xb, lam, lip = 2.0 * a1 + aa, -2.02 * np.log1p(-a1), 1.01 / (1.0 - a1) ** 2
        rest = np.sum(xb[ns:] ** 3 / (3.0 * (1.0 - xb[ns:])))  # log1p(x) - (x - x^2/2)
        eps_cos = np.sum(amp) * (cell + phase) + 2 * gam * np.sum(a1) + ev[3 * s]
        eps_log = (rest / 2 + (cell + phase) * np.sum(amp * lip) + gam * np.sum(lam)
                   + _U * np.sum(4 * lam + lip * (4 * a1 + 2 * aa))
                   + (np.sum(amp[ns:] * (1.0 - aa[ns:])) + np.sum(aa[ns:])) * phase
                   + ev[3 * s + 1] + ev[3 * s + 2] + const * (gam + 3 * _U))
        out.append((est, 1.01 * np.array([[eps_cos], [eps_log]])))
    return out


def sup_scan_need(sigmas: Sequence[float], t_maxes: Sequence[float], grid_step: float,
                  limit: int) -> int:
    """Bytes sup_scan_batch allocates at most, once there is one t_max >= 1 per sigma > 1/2 and at
    least one, grid_step lies in (2^-52, 0.01] (a smaller one leaves t at 1) and memory holds for
    S sigma 12 + S float64 per prime <= limit (each p^(-sigma), an exact row, the eps terms), 10 +
    14 S per row of the largest t grid (counted in floats, as 2^63 beyond; the estimates and 2 x 3
    S complex values), seven _LOW_RANK_CELLS buffers and five _T_CHUNK-row exact-cell tables."""
    for sigma, t_max in zip(sigmas, t_maxes, strict=True):
        if not sigma > 0.5:
            raise DivergenceError(f"sup scan requires sigma > 1/2, got {sigma}")
        if not t_max >= 1.0:
            raise ValueError(f"t_max must be >= 1, got {t_max}")
    if not 2 * _U < grid_step <= 0.01 + 1e-12:
        raise ValueError(f"grid_step must lie in (2^-52, 0.01], got {grid_step}")
    n_t, s = int(min((max(t_maxes) - 1.0) / grid_step, 2.0**63)) + 2, len(sigmas)
    n_primes = primes_mod.prime_count_bound(limit)
    small = 5 * _T_CHUNK * min(n_primes, primes_mod.prime_count_bound(_EXACT_LOG1P))
    need = 8 * ((12 + s) * n_primes + (10 + 14 * s) * n_t + 7 * _LOW_RANK_CELLS + small)
    check_memory(need, f"sup-scan t grid of {n_t} rows")
    return need


class SupScanResult(NamedTuple):
    sup_cos: float
    argmax_t: float
    sup_abs_f: float
    grid_size: int


def sup_scan_batch(signs: SignAssignment, sigmas: Sequence[float], t_maxes: Sequence[float],
                   grid_step: float, limit: int) -> list[SupScanResult]:
    """Per sigma, grid maxima over t in {1, 1+step, ..., its t_max} of the truncated sums
    sum_p sign(p) cos(t log p) p^(-sigma) and |prod_p (1 + sign(p) p^(-sigma-it))|.

    Grid maxima are lower bounds for the true suprema; ties go to the earliest t.  np.arange
    fills t_i = 1 + i step whatever its end, so each sigma reads its own grid as a prefix of the
    largest, and one _sup_scan_estimates call serves every sigma.  Only rows whose estimate + eps
    reaches the best estimate - eps are summed exactly, one row at a time by np.sum with no BLAS,
    and log1p only on such rows of log|F|: the maxima keep every row's bits, at any thread count.
    """
    sup_scan_need(sigmas, t_maxes, grid_step, limit)  # before the t grid or anything is allocated
    ps, sg = signs.up_to(limit)
    logp = np.log(p := ps.astype(np.float64))
    amps = [p ** (-sigma) for sigma in sigmas]
    ts = np.arange(1.0, max(t_maxes) + grid_step * 0.5, grid_step)
    sizes = [ceil((t_max + grid_step * 0.5 - 1.0) / grid_step) for t_max in t_maxes]  # arange's
    c, results = np.empty_like(logp), []  # c: cos(t log p) of one row
    for amp, (est, eps) in zip(amps, _sup_scan_estimates(ts, sizes, logp, sg, amps)):
        w = sg * amp
        keep = ~(est + eps < np.max(est - eps, axis=1, keepdims=True))  # may decide; NaN: all
        cos_vals, log_f = np.full((2, est.shape[1]), -np.inf)  # rows outside `keep` decide nothing
        for i in np.flatnonzero(keep[0] | keep[1]):
            cos_vals[i] = np.sum(np.cos(np.multiply(ts[i], logp, out=c), out=c) * w)
            if keep[1, i]:  # log|1 + sign(p) p^(-sigma-it)|^2
                log_f[i] = 0.5 * np.sum(np.log1p(c * (2.0 * w) + amp * amp))
        i = int(np.argmax(cos_vals))
        results.append(SupScanResult(float(cos_vals[i]), float(ts[i]),
                                     float(np.exp(np.max(log_f))), cos_vals.size))
    return results


def sup_scan(signs: SignAssignment, sigma: float, t_max: float, grid_step: float,
             limit: int) -> SupScanResult:
    """sup_scan_batch at one sigma."""
    return sup_scan_batch(signs, [sigma], [t_max], grid_step, limit)[0]
