"""Sum sets, product sets and representation (multiplicity) functions
over Z_m.

Each operation has one exact result; the dispatch inside it only picks how
that result is computed, and every path agrees with the pair-enumeration
oracles in the test suite. Counts (`indicator` and the rows of `_row_counts`)
are int64 arrays of length m, built only once the memory budget
`BYTES_PER_RESIDUE * m` plus one enumeration block fits in physical memory.
Per-modulus tables (the unit group's shape, generators, log tables and
residues, and the gcd classes of frequencies) live in one store, `_TABLES`,
built on first read; it evicts whole moduli, least recently read first, past
a sixteenth of physical memory, and to make room for a count `_require_fits` admits.

One engine, `_row_counts`, forms every set and count of x + y, x - y, x y
and x y^-1: a sweep's set family all rows at once, one set as a family of
one row. A count is a cyclic correlation over Z_m, or over the axes of the
unit group (`_unit_group`) for units, y negated for x - y and x y^-1: one
exact rfftn of all rows (`_cyclic_rows`) on each axis only as long as the
operands' arcs need (`_fft_plan`) when `_fft_pays`, a row that fails its
guard enumerated alone; one sum set on such a window is read off its box,
with no length-m array. Else `_enumerated` forms the pairs of one row or all
rows at once (`_pair_blocks`; x y^-1 as x times y's Euler inverses), each
row in its own stretch of m + 1 cells, bincounted or, for sets, marked in a
boolean row; one set above `BITSET_LIMIT` (2^24) merges its blocks' distinct
values. Over a prime with |A||B| > 4m `productset` shifts bit masks instead.

An `indicator` is built only for a spectrum of a set (`spectra`); the ring
chain builds none, as its Parseval checks read the set itself.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from .residues import Modulus, ResidueSet, _distinct, _units_mask, find_generator, make_modulus

# Cap on m for the length-m boolean scatter of pair enumeration (at most
# 16 MiB) and for the discrete-log tables of a product set.
BITSET_LIMIT = 1 << 24
# Cap on elements materialized per vectorized chunk.
_CHUNK_ELEMS = 1 << 22
_SELF_ROWS = 32  # fewest rows in a block of a set's pairs with itself
# Sweeps batch each size as set families (_row_counts) whose float64 temporaries
# and enumeration blocks hold about _ROW_BUDGET elements.
_ROW_BUDGET = 1 << 18
# Peak memory of a report per residue: a field report with its spectral
# checks (p = 1000003 and 2097143, |A| = 300 and 1000) raises the peak RSS
# by 240-265 bytes per residue, of which tracemalloc sees about 129 (it
# misses pocketfft's buffers). A ring report's traced peak, by at most 58 (67 with its transform on a second
# CPU) and its RSS by at most 20, at m = 720720 and 1441440 with |A| = 1000 and 3000. The int64 enumeration
# blocks (_CHUNK_ELEMS) do not shrink with m: _require_fits charges one of them on top. Every figure was measured
# on an empty store, so it holds Z_m's own tables: 12 bytes per residue for a prime (an int32 log table, int64
# residues), at most 16 for a composite m (int32 gcd classes and log tables per prime power, int64 units; 5.5 at
# 720720, near 16 at a prime power). Other moduli's tables are evicted to make room.
BYTES_PER_RESIDUE = 265


@lru_cache(maxsize=1)
def _physical_memory() -> int:
    """Bytes of physical memory of this machine, read once: every count checks the budget against it."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (1 under taskset -c 0), else os.cpu_count()."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _require_fits(n: int, keep: int | None = None) -> None:
    """Refuse, before any length-n allocation, counts whose estimated peak memory (length-n arrays and one int64
    enumeration block) exceeds physical memory; else evict the tables (_TABLES) of moduli other than keep (default
    n) until they fit beside it."""
    need, have = BYTES_PER_RESIDUE * n + 8 * _CHUNK_ELEMS, _physical_memory()
    if need > have:
        raise ValueError(
            f"counts over Z_{n} need about {need >> 20} MiB, "
            f"more than the {have >> 20} MiB of physical memory"
        )
    _TABLES.shrink(have - need, n if keep is None else keep)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def indicator(a_set: ResidueSet) -> np.ndarray:
    """0/1 counts of a set: counts[t] = 1 exactly when t is in it."""
    m = a_set.modulus.m
    _require_fits(m)
    counts = np.zeros(m, dtype=np.int64)
    counts[a_set.array] = 1
    return _freeze(counts)


def _require_same_modulus(a: ResidueSet, b: ResidueSet) -> Modulus:
    if a.modulus.m != b.modulus.m:
        raise ValueError(f"modulus mismatch: {a.modulus.m} vs {b.modulus.m}")
    return a.modulus


def _pair_blocks(a: np.ndarray, b: np.ndarray, m: int, combine: np.ufunc, same=False):
    """combine(a[r, i], b[r, j]) mod m over the pairs of each row r (a leading axis), in (rows, k) blocks chunked
    over a's columns, of about _CHUNK_ELEMS values for one row and _ROW_BUDGET for more. With more rows, row r's
    values lie in its own stretch of m + 1 cells, r (m + 1) + [0, m], whose last cell takes its pairs with a
    padding entry (-1). Entries are in [0, m) with m <= 2^31, so every sum and product is below 2^62: exact in
    int64 (and in int32 for (m + 1) max(m, rows) < 2^31).

    With same (b is a) entries [lo, hi) of a meet b[lo:] alone: k blocks of at
    least _SELF_ROWS entries form (k + 1) / (2k) of the n^2 pairs, 9/16 for k = 8."""
    rows, n = a.shape
    if rows > 1:
        pad = min(a.min(initial=0), b.min(initial=0)) < 0
        offsets = (m + 1) * np.arange(rows, dtype=a.dtype)[:, None, None]
    step = max(1, (_CHUNK_ELEMS if rows == 1 else _ROW_BUDGET) // max(1, b.size))
    if same:
        step = min(step, max(_SELF_ROWS, -(-n // 8)))
    for lo in range(0, n if b.size else 0, step):
        xs, ys = a[:, lo : lo + step, None], b[:, None, lo if same else 0 :]
        vals = combine(xs, ys)
        np.remainder(vals, m, out=vals)
        if rows > 1:
            if pad:
                np.putmask(vals, (xs < 0) | (ys < 0), m)
            vals += offsets
        yield vals.reshape(rows, -1)


def sumset(a_set: ResidueSet, b_set: ResidueSet) -> ResidueSet:
    """Exact {a + b mod m}: the one-row family of the two sets (_row_counts)."""
    mod = _require_same_modulus(a_set, b_set)
    x = a_set.array[None]
    return ResidueSet(mod, _row_counts(x, x if b_set is a_set else b_set.array[None], mod.m, sets=True)[0])


def _rotate_mask(mask: int, shift: int, m: int, full: int) -> int:
    shift %= m
    if shift == 0:
        return mask
    return ((mask << shift) | (mask >> (m - shift))) & full


def _power_table(g: int, count: int, m: int) -> np.ndarray:
    """g^e mod m for e in [0, count): giant powers g^(kB) times baby powers
    g^j, B = ceil(sqrt(count)), both below m <= 2^31 (exact in int64)."""
    step = math.isqrt(count - 1) + 1
    giant = np.array([pow(g, step * k, m) for k in range(-(-count // step))], dtype=np.int64)
    baby = np.array([pow(g, j, m) for j in range(step)], dtype=np.int64)
    return _outer_products([giant, baby], m)[:count]


def _outer_products(tables: list[np.ndarray], m: int) -> np.ndarray:
    """x_1 ... x_r mod m over one entry of each table, in C order."""
    out = np.ones(1, dtype=np.int64)
    for table in tables:
        out = (out[:, None] * table[None, :] % m).ravel()
    return out


def _prime_power_axes(p: int, k: int, m: int) -> list[tuple[int, int]]:
    """(length, generator mod p^k) of each cyclic axis of (Z/p^k)^x
    (Ireland-Rosen, ch. 4): odd p^k has one, generated by the smallest
    primitive root g mod p, or g + p if g^(p-1) = 1 mod p^2; 4 one; 2^k with
    k >= 3 two (-1 and 5); 2 none (Z_2 itself: one of length 1)."""
    if p > 2:
        g = find_generator(make_modulus(p))
        return [(p ** (k - 1) * (p - 1), g + p if k > 1 and pow(g, p - 1, p * p) == 1 else g)]
    return [(2, p**k - 1), (2 ** (k - 2), 5)] if k > 2 else [(2, 3)] if k == 2 else [(1, 1)] if m == 2 else []


def _unit_shape(m: int) -> dict:
    """Table "shape": the axis lengths of the unit group, without its other tables."""
    factors = make_modulus(m).factorization
    lengths = (n for p, k in factors for n, _ in _prime_power_axes(p, k, m))
    return {"shape": tuple(sorted(lengths, key=lambda n: (_whole((n,))[1], n)))}


def _unit_group(m: int) -> dict:
    """(Z/m)^x as the product of the axes of its prime powers q, each generator lifted to itself mod q and 1 mod
    m/q, in the order of "shape", ascending in transform length (rfftn halves the last axis: at m = 720720 the
    reverse order costs 61 ms per transform against 7 ms): "gens", the generator of each axis, and "logs", per
    axis an int32 log table of length q from units mod q to coordinates."""
    axes = []
    for p, k in make_modulus(m).factorization:
        q, gens = p**k, _prime_power_axes(p, k, m)
        lift = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod m/q
        logs = [np.zeros(q, dtype=np.int32) for _ in gens]  # kept: below the temporaries (RSS)
        powers = [_power_table(g, n, q) for n, g in gens]
        own = powers[0] if len(gens) == 1 else _outer_products(powers, q)  # one axis: no copy
        coords = np.indices([n for n, _ in gens], dtype=np.int32).reshape(len(gens), own.size)
        for (n, g), coord, log in zip(gens, coords, logs):
            log[own] = coord
            axes.append((n, (1 + (g - 1) * lift) % m, _freeze(log)))
    axes.sort(key=lambda axis: (_whole((axis[0],))[1], axis[0]))
    return {"gens": tuple(g for _, g, _ in axes), "logs": tuple(log for *_, log in axes)}


def _box_residues(m: int, plan: tuple) -> np.ndarray:
    """Residues of the cells of a box (_fft_plan) of the unit group, C order: g^(sx + sy) g^j per axis."""
    axes = zip(_TABLES.read(m, _unit_group)["gens"], plan)
    return _outer_products([_power_table(g, w, m) * pow(g, s + t, m) % m for g, (_, s, t, w, _) in axes], m)


def _unit_residues(m: int) -> dict:
    """Table "residues": all residues of the unit group, built apart from its log tables: windowed counts skip them."""
    return {"residues": _freeze(_box_residues(m, _whole(_TABLES.read(m, _unit_shape)["shape"])[0]))}


def _gcd_classes(m: int) -> dict:
    """Tables "freqs", the frequencies [1, m) grouped by gcd(k, m) over the proper divisors d of m, ascending in d
    and inside each group; "starts", where each group starts, and "lengths", its length. gcd(k, m) = d exactly when
    k = d n with n coprime to m/d, so a group is d times a sieve over [0, m/d), never empty (n = 1). They fit
    int32 (m <= 2^31); for a prime m the one group is the slice [1, m)."""
    mod, groups = make_modulus(m), []
    for d in () if mod.is_prime else mod.divisors[:-1]:
        coprime = np.ones(m // d, dtype=bool)
        for prime in (p for p, _ in mod.factorization if (m // d) % p == 0):
            coprime[::prime] = False
        groups.append((d * np.flatnonzero(coprime)).astype(np.int32))
    lengths = np.array([g.size for g in groups] or [m - 1])
    freqs = slice(1, m) if mod.is_prime else _freeze(np.concatenate(groups))
    return {"freqs": freqs, "starts": _freeze(np.cumsum(lengths) - lengths), "lengths": _freeze(lengths)}


def _nbytes(tables: dict) -> int:
    """Bytes of the arrays among tables, alone or in tuples; other entries (ints, a slice) count 0."""
    entries = (a for t in tables.values() for a in (t if isinstance(t, tuple) else (t,)))
    return sum(a.nbytes for a in entries if isinstance(a, np.ndarray))


class _Tables:
    """The one store of per-modulus tables: under m, per builder (_unit_shape, _unit_group, _unit_residues,
    _gcd_classes) the tables it returns by name, built on its first read; the moduli in order of their last read.
    Whole moduli are evicted, least recently read first, once the tables pass cap bytes and to make room for a count
    (_require_fits); a caller still holding an evicted table keeps it alive. Sweep threads share it: every read
    takes one lock."""

    def __init__(self, cap: int):
        self.cap, self.nbytes, self._lock, self._moduli = cap, 0, threading.RLock(), {}

    def read(self, m: int, build) -> dict:
        """The tables build(m) returns, by name."""
        with self._lock:
            built = self._moduli[m] = self._moduli.pop(m, {})  # now the last read
            if build not in built:
                built[build] = build(m)
                self.nbytes += _nbytes(built[build])
                self.shrink(self.cap, m)
            return built[build]

    def shrink(self, limit: int, keep: int | None) -> None:
        """Evict the moduli but keep, least recently read first, until the tables hold at most limit bytes."""
        with self._lock:
            while self.nbytes > limit and (m := next((k for k in self._moduli if k != keep), None)) is not None:
                self.nbytes -= sum(map(_nbytes, self._moduli.pop(m).values()))

    def clear(self) -> None:
        self.shrink(-1, None)


# A sixteenth of physical memory: about 500 MiB on a machine with 8 GiB.
_TABLES = _Tables(_physical_memory() >> 4)


def _inverses(units: np.ndarray, mod: Modulus) -> np.ndarray:
    """u^-1 = u^(phi(m) - 1) mod m (Euler) for every unit u, squaring and
    multiplying all of them at once; each product is below m^2 <= 2^62."""
    m, e = mod.m, math.prod(p ** (k - 1) * (p - 1) for p, k in mod.factorization) - 1
    out, base = np.ones_like(units), units.copy()
    while e:
        if e & 1:
            out = out * base % m
        base, e = base * base % m, e >> 1
    return out


def productset(a_set: ResidueSet, b_set: ResidueSet) -> ResidueSet:
    """Exact {a * b mod m}: the one-row family of the two sets (_row_counts). Over a prime with |A||B| > 4m, an
    exponent sum set mod m-1 on bit masks; 0 is stripped first and put back in front, as absorbing."""
    mod = _require_same_modulus(a_set, b_set)
    m = mod.m
    if not (mod.is_prime and 2 < m <= BITSET_LIMIT and a_set.size * b_set.size > 4 * m):
        x = a_set.array[None]
        return ResidueSet(mod, _row_counts(x, x if b_set is a_set else b_set.array[None], m, np.multiply, sets=True)[0])
    a_arr, b_arr = (s.array[int(0 in s) :] for s in (a_set, b_set))  # a 0 is the first entry of a sorted array
    pow_of, (exp_of,) = _TABLES.read(m, _unit_residues)["residues"], _TABLES.read(m, _unit_group)["logs"]
    group, full = m - 1, (1 << (m - 1)) - 1
    bits = np.zeros(group, dtype=np.uint8)
    bits[exp_of[b_arr]] = 1
    base = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
    acc = 0
    for e in exp_of[a_arr]:
        acc |= _rotate_mask(base, int(e), group, full)
    raw = acc.to_bytes((group + 7) // 8, "little")
    exps = np.flatnonzero(np.unpackbits(np.frombuffer(raw, np.uint8), count=group, bitorder="little"))
    # Both zero-free parts are nonempty (|A|, |B| > 4): a 0 in either puts 0 in the result.
    return ResidueSet(mod, np.concatenate((np.zeros(int(0 in a_set or 0 in b_set), np.int64), np.sort(pow_of[exps]))))


# Every 5-smooth length up to 2^32, ascending: pocketfft is fast on them.
_SMOOTH = sorted(s << a for s in (3**b * 5**c for b in range(21) for c in range(14)) if s <= 1 << 32
                 for a in range(((1 << 32) // s).bit_length()))


def _smooth(n: int) -> int:
    """The smallest 5-smooth length >= n, for 1 <= n <= 2^32."""
    return _SMOOTH[bisect_left(_SMOOTH, n)]


def _arc(c: np.ndarray, n: int) -> tuple[int, int]:
    """(start, length) of the shortest arc of Z_n holding every c: past the widest gap."""
    v = np.sort(c)
    gaps = v[1:] - v[:-1]
    k = int(gaps.argmax()) if v.size > 1 else 0
    if v.size == 1 or gaps[k] <= int(v[0]) + n - int(v[-1]):
        return int(v[0]), int(v[-1] - v[0]) + 1
    return int(v[k + 1]), n + 1 - int(gaps[k])


@lru_cache(maxsize=256)
def _whole(shape: tuple[int, ...]) -> tuple[tuple, tuple[int, ...]]:
    """Z_n1 x ... x Z_nr planned whole, and its lengths: per axis (n, x start 0, y start 0,
    box length n, L), L = n if n is 5-smooth, else padded to >= 2n - 1 and folded mod n."""
    lengths = tuple(n if _smooth(n) == n else _smooth(2 * n - 1) for n in shape)
    return tuple((n, 0, 0, n, length) for n, length in zip(shape, lengths)), lengths


def _window(axis: tuple, x: np.ndarray, y: np.ndarray) -> tuple[int, int, int, int, int]:
    """A whole axis (_whole) cut to the arcs of x, y (start s, length l) if w = lx + ly - 1 < n and the
    smallest 5-smooth L >= w is shorter; the rows shift to 0 and box entry j counts t = sx + sy + j."""
    n, *_, whole = axis
    sx, lx = _arc(x, n)
    sy, ly = _arc(y, n) if lx + y.size - 1 < n else (0, n)  # else no room beside x's arc (exact in 1-D)
    w = lx + ly - 1
    return (n, sx, sy, w, _smooth(w)) if w < n and _smooth(w) < whole else axis


# Enumeration steps per FFT axis (its pocketfft passes and call overhead):
# the measured crossovers at m = 720, 3600 and 4096 put an extra axis at
# 9,500 to 14,500, and one axis at p = 499 near 16,000-20,000 pairs.
_AXIS_STEPS = 1 << 13


def _fft_pays(pairs: int, *lengths: int, rows: int = 1) -> bool:
    """The FFT gate of every count and sum set: the transforms of rows at the planned lengths, of size S each,
    must cost less than enumeration of all rows' pairs at one step per pair: one row about S log2 S plus
    _AXIS_STEPS per axis, a batch (a set family) S log2 S / 4 per row plus twice that per axis. At 25 rows, the
    most pairs seen enumerated faster / the fewest seen transformed faster (gate): p = 101 11,460 / 46,140
    (20,500-26,900); p = 499 48,944 / 88,220 (78,700); m = 720 sums 40,000 / 160,000 (59,100), units (4 axes)
    18,589 / 71,541 (74,600); m = 3600 sums 230,400 / 409,600 (282,200), units 70,090 / 185,523 (125,000)."""
    size = math.prod(lengths)
    share, per_axis = (1, _AXIS_STEPS) if rows == 1 else (1 / 4, 2 * _AXIS_STEPS)
    return pairs > rows * share * size * math.log2(size) + per_axis * len(lengths)


def _fft_plan(shape: tuple[int, ...], pairs: int, box: int, points, rows: int):
    """(plan, x, y) of the counts of all rows' pairs over Z_n1 x ... x Z_nr if _fft_pays at the planned lengths,
    else None, box the longest row's |X| + |Y| - 1; x, y = points(), all rows' entries, are read only if the least
    box pays, and None from it is None. Windows are tried where box < n, on the arcs of all rows' entries together."""
    plan, lengths = _whole(shape)
    if room := box < max(shape):  # the least box: X + Y in 1-D, 1 on each such axis else
        lengths = [_smooth(box)] if len(shape) == 1 else [1 if box < n else L for n, L in zip(shape, lengths)]
    if not (pairs and _fft_pays(pairs, *lengths, rows=rows)) or (xy := points()) is None:
        return None
    x, y = xy
    if room:
        plan = tuple(_window(axis, xi, yi) if box < axis[0] else axis for axis, xi, yi in zip(plan, x[1:], y[1:]))
        if not _fft_pays(pairs, *[axis[4] for axis in plan], rows=rows):
            return None
    return plan, x, y


# c and u of the a-priori FFT error bound c u log2(S) |X| |Y| < 1/4 derived
# in _cyclic_rows; u is the unit roundoff of float64.
_FFT_ERROR_CONSTANT = 64
_UNIT_ROUNDOFF = 2.0**-53


def _histogram(v: tuple, k: int, plan: tuple, padded: tuple[int, ...]) -> np.ndarray:
    """Points v on the padded box of a plan, shifted to x's starts (plan[1], k = 1) or y's (plan[2], k = 2)."""
    coords = (v[0], *(c if axis[k] == 0 else (c - axis[k]) % axis[0] for c, axis in zip(v[1:], plan)))
    counts = np.bincount(np.ravel_multi_index(coords, padded), minlength=math.prod(padded))
    return counts.reshape(padded).astype(np.float64)


def _cyclic_rows(plan: tuple, x: tuple, y: tuple, rows: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(counts, ok): counts[r, t] = #{(i, j) in row r : x[i] + y[j] = t}, exactly, on the box of an _fft_plan in
    C order, for x, y its points, and ok[r] whether row r passed its guard; None if the a-priori bound fails.
    rfftn over axes 1 .. r composes 1-D transforms at L_i: t = sum log2 L_i below.

    Error bound. Higham (Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 24.2) bounds a computed length-L FFT by
    ||fl(Fv) - Fv||_2 <= e ||Fv||_2, e = t h / (1 - t h), t = log2 L,
    h = mu + g4 (sqrt2 + mu), g4 = 4u / (1 - 4u), with mu the error of the
    twiddle factors; pocketfft's are accurate to mu <= u, so h <= 7u and
    e <= 7tu to first order. Let N = |X||Y|, the product of the l1 norms of
    the histograms (an integer vector's l2 norm is at most its l1 norm, and
    ||Fv||_inf <= ||v||_1). In the l2 norm, divided by sqrt L to undo the
    unnormalized transforms, the error of z = F^-1(Fx . Fy) is at most e N
    from each forward transform, e N from the inverse, sqrt2 g2 N from the
    pointwise product and u N from the 1/L scaling, so
    ||fl(z) - z||_inf <= (3e + 4u) N <= 25 t u N to first order. c = 64
    leaves a factor 2.5 for pocketfft's radix-3, -4 and -5 passes and its
    real-input transforms, which the radix-2 theorem does not cover.

    Rows are rounded to int64 only when c u t N < 1/4 for the largest N; a row passes
    when its largest rounding residual is below 1/4 and its rounded counts sum to its N.
    """
    pairs = np.bincount(x[0], minlength=rows) * np.bincount(y[0], minlength=rows)
    padded, axes = tuple(axis[4] for axis in plan), range(1, len(plan) + 1)
    bound = _FFT_ERROR_CONSTANT * _UNIT_ROUNDOFF * max(1.0, sum(map(math.log2, padded))) * int(pairs.max())
    if not bound < 0.25:
        return None
    spectrum = np.fft.rfftn(_histogram(x, 1, plan, (rows, *padded)), axes=axes)
    spectrum *= spectrum if y is x else np.fft.rfftn(_histogram(y, 2, plan, (rows, *padded)), axes=axes)
    linear = np.fft.irfftn(spectrum, padded, axes=axes)
    rounded = np.rint(linear)
    ok = np.abs(linear - rounded).reshape(rows, -1).max(axis=1) < 0.25
    # The rounded entries are integers below 2^53: folding them is exact.
    for axis, (n, _, _, w, length) in enumerate(plan):
        lead = (slice(None),) * (axis + 1)
        if w == n < length:
            rounded[lead + (slice(0, n - 1),)] += rounded[lead + (slice(n, 2 * n - 1),)]
        rounded = rounded[lead + (slice(0, w),)]
    counts = rounded.astype(np.int64).reshape(rows, -1)
    return counts, ok & (counts.sum(axis=1) == pairs)


def _row_support(counts: np.ndarray) -> np.ndarray:
    """The positions of each row's nonzero entries, ascending, padded with -1 to the longest row (one row: none)."""
    if len(counts) == 1:
        return np.flatnonzero(counts)[None]
    mask = counts.astype(bool, copy=False)  # numpy reads a bool mask faster than int64 counts
    sizes = mask.sum(axis=1)
    out = np.full((len(mask), int(sizes.max(initial=0))), -1, dtype=np.int64)
    out[np.arange(out.shape[1]) < sizes[:, None]] = np.flatnonzero(mask) % mask.shape[1]
    return out


def _family_step(m: int, size: int) -> int:
    """Rows per set family of |A| = size over Z_m: its longest transform fills
    _ROW_BUDGET and its |A|^2 pairs per row _CHUNK_ELEMS, with one row at least."""
    longest = max(math.prod(_whole(shape)[1]) for shape in ((m,), _TABLES.read(m, _unit_shape)["shape"]))
    return max(1, min(_ROW_BUDGET // longest, _CHUNK_ELEMS // size**2))


def _points(x: np.ndarray, y: np.ndarray, m: int, combine: np.ufunc, shape: tuple) -> tuple[tuple, tuple] | None:
    """(row ids, coordinates per axis) of the entries of x and of y that are not -1 (one row: all): residues (a sum
    or difference) or log coordinates on each axis of the unit group ("logs"), None if an operand holds a non-unit
    (checked before the logs are read); a difference's or quotient's y negated mod each axis length (shape)."""
    add, invert = combine in (np.add, np.subtract), combine in (np.subtract, np.divide)
    operands = (x,) if y is x and not invert else (x, y)
    if not add and not all(_units_mask(v, make_modulus(m)).all() for v in operands):  # -1 padding reads as a unit
        return None
    out, logs = [], () if add else _TABLES.read(m, _unit_group)["logs"]
    for v in operands:
        ids, vals = (np.zeros(v.shape[1], np.intp), v[0]) if len(v) == 1 else (
            np.flatnonzero(v >= 0) // v.shape[1], v[v >= 0])
        coords = (vals,) if add else tuple(log[vals % log.size if log.size < m else vals] for log in logs)
        out.append((ids, *(-c % n for c, n in zip(coords, shape))) if out and invert else (ids, *coords))
    return out[0], out[-1]


def _enumerated(x: np.ndarray, y: np.ndarray, m: int, combine: np.ufunc, sets=False) -> np.ndarray:
    """_row_counts by enumeration: each row's pairs (_pair_blocks; x y^-1 as x times y's inverses) bincounted, or
    with sets marked in a boolean row, in one stretch of m + 1 cells per row, the last (pairs with padding)
    dropped. More rows go as int32 where products and row offsets fit, a set's padding read as its row's maximum
    (a repeat leaves the set as it is). One set past BITSET_LIMIT merges its blocks' _distinct values instead."""
    if combine is np.divide:
        y, combine = np.where(y >= 0, _inverses(y, make_modulus(m)), -1), np.multiply
    same = sets and y is x and combine is not np.subtract  # a set needs each unordered pair once, counts every one
    if sets and len(x) == 1 and m > BITSET_LIMIT:
        pieces = [_distinct(vals) for vals in _pair_blocks(x, y, m, combine, same)]
        return (_distinct(np.concatenate(pieces)) if pieces else np.empty(0, dtype=np.int64))[None]
    if len(x) > 1:
        dtype = np.int32 if (m + 1) * max(m, len(x)) < 1 << 31 else np.int64
        rows = [(np.where(v >= 0, v, v.max(axis=1, keepdims=True, initial=-1)) if sets else v).astype(dtype)
                for v in ((x,) if y is x else (x, y))]
        x, y = rows[0], rows[-1]
    cells = np.zeros(len(x) * (m + 1), dtype=bool if sets else np.int64)
    for vals in _pair_blocks(x, y, m, combine, same):
        if sets:
            cells[vals] = True
        else:
            cells += np.bincount(vals.ravel(), minlength=cells.size)
    cells = cells.reshape(len(x), m + 1)[:, :m]
    return _row_support(cells) if sets else cells


def _row_counts(x: np.ndarray, y: np.ndarray, m: int, combine: np.ufunc = np.add, sets=False):
    """counts[r, t] = #{(i, j) : combine(x[r, i], y[r, j]) = t (mod m)}, (rows, m) int64, for a set family's rows
    of residues padded with -1 (one row: one set, unpadded), combine np.add, np.subtract, np.multiply or np.divide
    (x y^-1, y's entries units); with sets each row's values with counts > 0, ascending and padded with -1. A
    correlation (over Z_m, or over the unit group where _points finds units only) is one rfftn of all rows
    (_cyclic_rows) on the box of an _fft_plan, a row that fails its guard enumerated alone and unpadded; else,
    and for one product or quotient set (no log tables), all rows' pairs are enumerated at once (_enumerated)."""
    if one := len(x) == 1:  # plain ints: a tiny report makes several of these calls
        pairs, box = x.size * y.size, x.size + y.size - 1
    else:
        nx, ny = (x >= 0).sum(axis=1), (y >= 0).sum(axis=1)
        pairs, box = int(nx @ ny), int((nx + ny).max()) - 1
    if not (sets and one):  # before the log tables and any length-m array; one set's pair values need neither
        _require_fits(m)
    add = combine in (np.add, np.subtract)
    shape = (m,) if add else None if sets and one else _TABLES.read(m, _unit_shape)["shape"]
    if planned := shape and _fft_plan(shape, pairs, box, lambda: _points(x, y, m, combine, shape), len(x)):
        plan, xs, ys = planned
        whole = all(n == w for n, _, _, w, _ in plan)
        boxed = sets and one and not whole  # one sum or difference set read off its box: no length-m array
        _require_fits(plan[0][4] if boxed else m, m)  # any other set's values pass through length-m counts
        if add:  # a window's box lies at sx + sy + j
            cells = None if whole else (plan[0][1] + plan[0][2] + np.arange(plan[0][3])) % m
        else:  # residues before the transform: a table built after its temporaries pins them (RSS)
            cells = _TABLES.read(m, _unit_residues)["residues"] if whole else _box_residues(m, plan)
        out = _cyclic_rows(plan, xs, ys, len(x))
        if boxed:
            if out is not None and out[1][0]:  # else its values are enumerated below
                return np.sort(cells[out[0][0] > 0])[None]
        elif out is not None:
            counts = out[0]
            if cells is not None:  # np.zeros leaves the cells outside the box unfaulted
                counts = np.zeros((len(x), m), dtype=np.int64)
                counts[:, cells] = out[0]
            for r in np.flatnonzero(~out[1]):
                counts[r] = _enumerated(x[r][x[r] >= 0][None], y[r][y[r] >= 0][None], m, combine)[0]
            return _row_support(counts) if sets else counts
    return _enumerated(x, y, m, combine, sets)
