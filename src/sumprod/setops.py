"""Sum sets, product sets and representation (multiplicity) functions
over Z_m.

Each operation has one exact result; the dispatch inside it only picks how
that result is computed, and every path agrees with the pair-enumeration
oracles in the test suite. Counts (`indicator`, `additive_rep`, `unit_quotient_rep`)
are read-only int64 arrays of length m, built only once the memory budget
`BYTES_PER_RESIDUE * m` plus one enumeration block fits in physical memory.

One engine, `_row_counts`, forms every sum set and count: a sweep's set
family all rows at once, and one set as a family of one row. A count is a
cyclic correlation over Z_m or the axes of the unit group (`_unit_group`):
one exact rfftn of all rows (`_cyclic_rows`) on each axis only as long as
the arcs the operands occupy need (`_fft_plan`) when `_fft_pays`, a row that
fails its guard enumerated alone; one sum set on such a window is read off
its box, with no length-m array. Else pairs are enumerated in int64 blocks
(`_pair_blocks`), bincounted or, for a set, scattered into a length-m
boolean array (m <= `BITSET_LIMIT`, 2^24) or merged by np.unique above it.
Over a prime with |A||B| > 4m `productset` forms an exponent sum set on bit
masks instead.

An `indicator` is built only for a spectrum of a set (`spectra`); the ring
chain builds none, as its Parseval checks read the set itself.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from functools import lru_cache

import numpy as np

from .residues import Modulus, NonInvertibleError, ResidueSet, _units_mask, find_generator, make_modulus

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
# blocks (_CHUNK_ELEMS) do not shrink with m: _require_fits charges one of them on top.
BYTES_PER_RESIDUE = 265


@lru_cache(maxsize=1)
def _physical_memory() -> int:
    """Bytes of physical memory of this machine, read once: every count checks the budget against it."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask (1 under taskset -c 0), else os.cpu_count()."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _require_fits(m: int) -> None:
    """Refuse, before any length-m allocation, counts over Z_m whose estimated peak
    memory (length-m arrays and one int64 enumeration block) exceeds physical memory."""
    need, have = BYTES_PER_RESIDUE * m + 8 * _CHUNK_ELEMS, _physical_memory()
    if need > have:
        raise ValueError(
            f"counts over Z_{m} need about {need >> 20} MiB, "
            f"more than the {have >> 20} MiB of physical memory"
        )


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
    """combine(a[i], b[j]) mod m over all pairs, in flat blocks of about
    _CHUNK_ELEMS values, chunked over a and reduced in place; for rows a, b (a
    leading axis) each row's pairs, one flat row each, in blocks of _ROW_BUDGET.
    Entries are in [0, m) with m <= 2^31, so every sum and product is below
    2^62: exact in int64 (and in int32 for m^2 < 2^31).

    With same (b is a) entries [lo, hi) of a meet b[lo:] alone: k blocks of at
    least _SELF_ROWS entries form (k + 1) / (2k) of the n^2 pairs, 9/16 for k = 8."""
    n, rows = a.shape[-1], a.size // max(1, a.shape[-1])
    if n and b.size:
        step = max(1, (_CHUNK_ELEMS if a.ndim == 1 else _ROW_BUDGET) // (rows * b.shape[-1]))
        if same:
            step = min(step, max(_SELF_ROWS, -(-n // 8)))
        for lo in range(0, n, step):
            vals = combine(a[..., lo : lo + step, None], b[..., None, lo if same else 0 :])
            yield np.remainder(vals, m, out=vals).reshape(*a.shape[:-1], -1)


def _pairwise_values(a: np.ndarray, b: np.ndarray, m: int, combine: np.ufunc, same=False) -> np.ndarray:
    """Sorted distinct pair values of _pair_blocks: scattered into one
    length-m boolean array (at most 16 MiB) for m <= BITSET_LIMIT, merged
    from each block's np.unique above it."""
    if m <= BITSET_LIMIT:
        seen = np.zeros(m, dtype=bool)
        for vals in _pair_blocks(a, b, m, combine, same):
            seen[vals] = True
        return np.flatnonzero(seen)
    pieces = [np.unique(vals) for vals in _pair_blocks(a, b, m, combine, same)]
    return np.unique(np.concatenate(pieces)) if pieces else np.empty(0, dtype=np.int64)


def _pair_counts(x: np.ndarray, y: np.ndarray, n: int, combine: np.ufunc = np.add) -> np.ndarray:
    """counts[t] = #{(i, j) : combine(x[i], y[j]) = t (mod n)}: the
    histogram of _pair_blocks."""
    counts = np.zeros(n, dtype=np.int64)
    for block in _pair_blocks(x, y, n, combine):
        counts += np.bincount(block, minlength=n)
    return counts


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


@lru_cache(maxsize=64)
def _unit_shape(m: int) -> tuple[int, ...]:
    """The axis lengths of _unit_group(m), without its tables."""
    factors = make_modulus(m).factorization
    lengths = (n for p, k in factors for n, _ in _prime_power_axes(p, k, m))
    return tuple(sorted(lengths, key=lambda n: (_whole((n,))[1], n)))


@lru_cache(maxsize=16)
def _unit_group(m: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, np.ndarray], ...]]:
    """(Z/m)^x as the product of the axes of its prime powers q, each generator
    lifted to itself mod q and 1 mod m/q. Returns _unit_shape(m), ascending in
    transform length (rfftn halves the last axis: at m = 720720 the reverse
    order costs 61 ms per transform against 7 ms), the generator of each axis
    and per axis (q, an int32 log table from units mod q to coordinates)."""
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
            axes.append((n, (1 + (g - 1) * lift) % m, q, _freeze(log)))
    axes.sort(key=lambda axis: (_whole((axis[0],))[1], axis[0]))
    return tuple(n for n, *_ in axes), tuple(g for _, g, *_ in axes), tuple((q, log) for *_, q, log in axes)


def _box_residues(m: int, plan: tuple) -> np.ndarray:
    """Residues of the cells of a box (_fft_plan) of _unit_group(m), C order: g^(sx + sy) g^j per axis."""
    axes = zip(_unit_group(m)[1], plan)
    return _outer_products([_power_table(g, w, m) * pow(g, s + t, m) % m for g, (_, s, t, w, _) in axes], m)


@lru_cache(maxsize=16)
def _unit_residues(m: int) -> np.ndarray:
    """All residues of _unit_group(m), cached apart: windowed counts skip them."""
    return _freeze(_box_residues(m, _whole(_unit_shape(m))[0]))


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
    """Exact {a * b mod m}, formed in 64-bit-safe intermediates. Over a prime
    with large zero-free inputs, an exponent sum set mod m-1 in discrete-log
    coordinates; 0 is stripped first and put back as the absorbing element."""
    mod = _require_same_modulus(a_set, b_set)
    m = mod.m
    a_zero, b_zero = 0 in a_set, 0 in b_set
    zero_in_result = (a_zero and b_set.size > 0) or (b_zero and a_set.size > 0)
    # A 0 is the first entry of a sorted array.
    a_arr, b_arr = a_set.array[int(a_zero) :], b_set.array[int(b_zero) :]
    if mod.is_prime and 2 < m <= BITSET_LIMIT and a_arr.size * b_arr.size > 4 * m:
        pow_of, ((_, exp_of),) = _unit_residues(m), _unit_group(m)[2]
        group, full = m - 1, (1 << (m - 1)) - 1
        bits = np.zeros(group, dtype=np.uint8)
        bits[exp_of[b_arr]] = 1
        base = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        acc = 0
        for e in exp_of[a_arr]:
            acc |= _rotate_mask(base, int(e), group, full)
        raw = acc.to_bytes((group + 7) // 8, "little")
        exps = np.flatnonzero(np.unpackbits(np.frombuffer(raw, np.uint8), count=group, bitorder="little"))
        vals = np.sort(pow_of[exps])
    else:
        x = a_arr[None]
        vals = _row_counts(x, x if b_set is a_set else b_arr[None], m, np.multiply, sets=True)[0]
    # Over a composite modulus the pair products may already include 0.
    if zero_in_result and not (vals.size and vals[0] == 0):
        vals = np.concatenate((np.zeros(1, dtype=np.int64), vals))
    return ResidueSet(mod, vals)


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
    box pays. Windows are tried where box < n, on the arcs of all rows' entries together."""
    plan, lengths = _whole(shape)
    if room := box < max(shape):  # the least box: X + Y in 1-D, 1 on each such axis else
        lengths = [_smooth(box)] if len(shape) == 1 else [1 if box < n else L for n, L in zip(shape, lengths)]
    if not (pairs and _fft_pays(pairs, *lengths, rows=rows)):
        return None
    x, y = points()
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


def additive_rep(a_set: ResidueSet, b_set: ResidueSet, sign: int) -> np.ndarray:
    """counts[t] = number of pairs (a, b) with a + sign*b = t (mod m): a one-row family (_row_counts)."""
    mod = _require_same_modulus(a_set, b_set)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    x = a_set.array[None]
    y = x if b_set is a_set and sign == 1 else (b_set.array if sign == 1 else -b_set.array % mod.m)[None]
    return _freeze(_row_counts(x, y, mod.m)[0])


def unit_quotient_rep(x_set: ResidueSet, a_set: ResidueSet) -> np.ndarray:
    """counts[t] = number of pairs (x, a) with x * a^{-1} = t (mod m).

    Every element of the denominator set must be a unit of Z_m. The unit
    numerators times the inverses are a one-row family of products of units
    (_row_counts); any non-unit numerator (a prime's 0, a ring's non-units)
    is enumerated against the same inverses, and the two counts add."""
    mod = _require_same_modulus(x_set, a_set)
    m, a_arr, x_arr = mod.m, a_set.array, x_set.array
    a_units = _units_mask(a_arr, mod)
    if not a_units.all():
        first = int(a_arr[np.argmin(a_units)])
        raise NonInvertibleError(first, m, math.gcd(first, m))
    x_units, inverses = _units_mask(x_arr, mod), _inverses(a_arr, mod)
    units = x_arr[x_units]
    counts = _row_counts(units[None], inverses[None], m, np.multiply, True)[0]
    if units.size < x_arr.size:  # a non-unit over a unit is a non-unit: the unit counts leave it at 0
        counts += _pair_counts(x_arr[~x_units], inverses, m, np.multiply)
    return _freeze(counts)


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
    longest = max(math.prod(_whole(shape)[1]) for shape in ((m,), _unit_shape(m)))
    return max(1, min(_ROW_BUDGET // longest, _CHUNK_ELEMS // size**2))


def _points(x: np.ndarray, y: np.ndarray, m: int, add: bool) -> tuple[tuple, tuple]:
    """(row ids, coordinates per axis) of the entries of x and of y that are not -1 (one row: all): residues
    (add), or the log coordinates of units on each axis of _unit_group(m); y's are x's when y is x."""
    out = []
    for v in (x,) if y is x else (x, y):
        ids, vals = (np.zeros(v.shape[1], np.intp), v[0]) if len(v) == 1 else (
            np.flatnonzero(v >= 0) // v.shape[1], v[v >= 0])
        out.append((ids, vals) if add else (ids, *(log[vals % q if q < m else vals] for q, log in _unit_group(m)[2])))
    return out[0], out[-1]


def _row_counts(x: np.ndarray, y: np.ndarray, m: int, combine: np.ufunc = np.add, units=False, sets=False):
    """counts[r, t] = #{(i, j) : combine(x[r, i], y[r, j]) = t (mod m)}, (rows, m) int64, for a set family's rows
    of residues padded with -1 (one row: one set, unpadded); with sets each row's values with counts > 0, ascending
    and padded with -1 (y is x for more rows). A correlation (np.add over Z_m, with units a product of units over
    _unit_group(m)) is one rfftn of all rows (_cyclic_rows) on the box of an _fft_plan, a row that fails its guard
    enumerated alone (_pair_counts). Else one row is one set's _pair_counts or _pairwise_values; more go in blocks
    of about _ROW_BUDGET pairs, sets scattering _pair_blocks of each row with itself, counts bincounting by row."""
    if one := len(x) == 1:  # plain ints: a tiny report makes several of these calls
        pairs, box = x.size * y.size, x.size + y.size - 1
    else:
        nx, ny = (x >= 0).sum(axis=1), (y >= 0).sum(axis=1)
        pairs, box = int(nx @ ny), int((nx + ny).max()) - 1
    if not (sets and one):  # before the log tables and any length-m array; one set's pair values need neither
        _require_fits(m)
    add = combine is np.add
    shape = (m,) if add else _unit_shape(m) if units else None  # None: not a correlation
    planned = shape and _fft_plan(shape, pairs, box, lambda: _points(x, y, m, add), len(x))
    if planned:
        plan, xs, ys = planned
        whole = all(n == w for n, _, _, w, _ in plan)
        boxed = sets and one and add and not whole  # one sum set read off its box: no length-m array
        _require_fits(plan[0][4] if boxed else m)  # any other set's values pass through length-m counts
        if add:  # a window's box lies at sx + sy + j
            cells = None if whole else (plan[0][1] + plan[0][2] + np.arange(plan[0][3])) % m
        else:  # residues before the transform: a cache built after its temporaries pins them (RSS)
            cells = _unit_residues(m) if whole else _box_residues(m, plan)
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
                counts[r] = _pair_counts(x[r][x[r] >= 0], y[r][y[r] >= 0], m, combine)
            return _row_support(counts) if sets else counts
    if one:
        pair = _pairwise_values(x[0], y[0], m, combine, y is x) if sets else _pair_counts(x[0], y[0], m, combine)
        return pair[None]
    if sets:
        # A repeat leaves a row's set as it is; products and row offsets below 2^31 fit int32.
        dtype = np.int32 if m * max(m, len(x)) < 1 << 31 else np.int64
        full = np.where(x >= 0, x, x.max(axis=1, keepdims=True, initial=-1)).astype(dtype)
        seen = np.zeros((len(x), m), dtype=bool)
        step = max(1, _ROW_BUDGET // max(1, x.shape[1] * min(x.shape[1], _SELF_ROWS)))  # rows per block
        for lo in range(0, len(x), step):
            for vals in _pair_blocks(full[lo : lo + step], full[lo : lo + step], m, combine, same=True):
                vals += m * np.arange(len(vals), dtype=dtype)[:, None]  # each row's values into its own row
                seen[lo : lo + step].ravel()[vals] = True
        seen[x.max(axis=1, initial=-1) < 0] = False  # rows with no entry
        return _row_support(seen)
    x_row, x_val = _points(x, x, m, True)[0]
    counts, step = np.zeros(len(x) * (m + 1), dtype=np.int64), max(1, _ROW_BUDGET // max(1, y.shape[1]))
    for lo in range(0, x_row.size, step):
        ys = y[x_row[lo : lo + step]]
        vals = combine(x_val[lo : lo + step, None], ys)
        vals %= m
        np.putmask(vals, ys < 0, m)
        vals += (m + 1) * x_row[lo : lo + step, None]
        counts += np.bincount(vals.ravel(), minlength=counts.size)
    return counts.reshape(len(x), m + 1)[:, :m]
