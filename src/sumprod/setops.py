"""Sum sets, product sets and representation (multiplicity) functions
over Z_m.

Each operation has one exact result; the dispatch inside it only picks how
that result is computed, and every path agrees with the pair-enumeration
oracles in the test suite. Counts (`indicator`, `additive_rep`,
`unit_quotient_rep`) are read-only int64 arrays of length m, built only
once the memory budget `BYTES_PER_RESIDUE * m` fits in physical memory.
A count is a cyclic correlation, over Z_m or over the axes of the unit
group (`_unit_group`): one exact rfftn (`_cyclic_counts`) when `_fft_pays`,
pair enumeration otherwise. `sumset` reads A+B off the support of the
additive counts when their FFT pays; `productset` forms, over a prime with
|A||B| > 4m, an exponent sum set on bit masks in discrete-log coordinates.
Otherwise pairs are enumerated in int64 blocks (`_pair_blocks`), each
bincounted into counts or, for a set, scattered into a length-m boolean
array (m <= `BITSET_LIMIT`, 2^24) or merged by np.unique above it.

An `indicator` is built only for a spectrum of a set (`spectra`); the ring
chain builds none, as its Parseval checks read the set itself.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .residues import Modulus, NonInvertibleError, ResidueSet, _units_mask, find_generator, make_modulus

# Cap on m for the length-m boolean scatter of pair enumeration (at most
# 16 MiB) and for the discrete-log tables of a product set.
BITSET_LIMIT = 1 << 24
# Cap on elements materialized per vectorized chunk.
_CHUNK_ELEMS = 1 << 22
_SELF_ROWS = 32  # fewest rows in a block of a set's pairs with itself
# Peak memory of a report per residue: a field report with its spectral
# checks (p = 1000003 and 2097143, |A| = 300 and 1000) raises the peak RSS
# by 240-265 bytes per residue, of which tracemalloc sees about 129 (it
# misses pocketfft's buffers); a ring report's traced peak, by at most 53.
BYTES_PER_RESIDUE = 265


def _physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_fits(m: int) -> None:
    """Refuse, before any length-m allocation, counts over Z_m whose
    estimated peak memory exceeds the machine's physical memory."""
    need, have = BYTES_PER_RESIDUE * m, _physical_memory()
    if need > have:
        raise ValueError(
            f"counts over Z_{m} need about {need >> 20} MiB, "
            f"more than the {have >> 20} MiB of physical memory"
        )


@dataclass(frozen=True, eq=False)
class MultiplicityVector:
    """Integer counts per residue: counts[t] = number of ways t is hit,
    a read-only int64 array of length m."""

    modulus: Modulus
    counts: np.ndarray
    total_mass: int


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _mv_from_dense(mod: Modulus, counts: np.ndarray) -> MultiplicityVector:
    return MultiplicityVector(mod, _freeze(counts), int(counts.sum()))


def indicator(a_set: ResidueSet) -> MultiplicityVector:
    """0/1 multiplicity vector of a set."""
    m = a_set.modulus.m
    _require_fits(m)
    counts = np.zeros(m, dtype=np.int64)
    counts[a_set.array] = 1
    return _mv_from_dense(a_set.modulus, counts)


def _require_same_modulus(a: ResidueSet, b: ResidueSet) -> Modulus:
    if a.modulus.m != b.modulus.m:
        raise ValueError(f"modulus mismatch: {a.modulus.m} vs {b.modulus.m}")
    return a.modulus


def _pair_blocks(a: np.ndarray, b: np.ndarray, m: int, combine: np.ufunc, same=False):
    """combine(a[i], b[j]) mod m over all pairs, in flat blocks of about
    _CHUNK_ELEMS values, chunked over a and reduced in place. Entries are in
    [0, m) with m <= 2^31, so every sum and product is below 2^62: exact in
    int64.

    With same (b is a) rows [lo, hi) meet b[lo:] alone: k blocks of at least
    _SELF_ROWS rows form (k + 1) / (2k) of the n^2 pairs, 9/16 for k = 8."""
    if a.size and b.size:
        step = max(1, _CHUNK_ELEMS // b.size)
        if same:
            step = min(step, max(_SELF_ROWS, -(-a.size // 8)))
        for lo in range(0, a.size, step):
            vals = combine(a[lo : lo + step, None], b[lo if same else 0 :][None, :])
            yield np.remainder(vals, m, out=vals).ravel()


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
    """Exact {a + b mod m}: the nonzero positions of the sum counts when
    their FFT pays, the distinct pair values otherwise."""
    mod = _require_same_modulus(a_set, b_set)
    a, b, m = a_set.array, b_set.array, mod.m
    if _fft_pays(a.size * b.size, m):
        vals = np.flatnonzero(additive_rep(a_set, b_set, 1).counts)
    else:
        vals = _pairwise_values(a, b, m, np.add, a_set is b_set)
    return ResidueSet(mod, vals)


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
    return tuple(sorted(lengths, key=lambda n: (_transform_length(n), n)))


@lru_cache(maxsize=16)
def _unit_group(m: int) -> tuple[tuple[int, ...], np.ndarray, tuple[tuple[int, np.ndarray], ...]]:
    """(Z/m)^x as the product of the axes of its prime powers q, each
    generator lifted to itself mod q and 1 mod m/q. Returns _unit_shape(m),
    ascending in transform length (rfftn halves the last axis: at m = 720720
    the reverse order costs 61 ms per transform against 7 ms), the int64
    residue of every element in C order, and per axis (q, an int32 table
    from units mod q to coordinates); a prime's one axis is its discrete log."""
    axes = []
    for p, k in make_modulus(m).factorization:
        q, gens = p**k, _prime_power_axes(p, k, m)
        lift = m // q * pow(m // q, -1, q)  # 1 mod q, 0 mod m/q
        powers = [_power_table((1 + (g - 1) * lift) % m, n, m) for n, g in gens]
        own, coords = _outer_products(powers, m) % q, np.indices([n for n, _ in gens])
        for (n, _), table, coord in zip(gens, powers, coords.reshape(len(gens), own.size)):
            log = np.zeros(q, dtype=np.int32)
            log[own] = coord
            axes.append((n, table, q, _freeze(log)))
    axes.sort(key=lambda axis: (_transform_length(axis[0]), axis[0]))
    residues = _outer_products([table for _, table, _, _ in axes], m)
    return tuple(n for n, *_ in axes), _freeze(residues), tuple((q, log) for *_, q, log in axes)


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


def _coords(logs: tuple[tuple[int, np.ndarray], ...], units: np.ndarray, m: int) -> tuple:
    """The coordinate rows of units mod m on the axes of _unit_group."""
    return tuple(log[units % q if q < m else units] for q, log in logs)


def productset(a_set: ResidueSet, b_set: ResidueSet) -> ResidueSet:
    """Exact {a * b mod m}; products are formed in 64-bit-safe intermediates.

    For a prime modulus and large zero-free dense inputs the pair
    enumeration is replaced by a discrete-log reduction (products become
    an exponent sum set mod m-1); 0 is stripped first and put back as the
    absorbing element. Both routes produce identical sets.
    """
    mod = _require_same_modulus(a_set, b_set)
    m = mod.m
    a_zero, b_zero = 0 in a_set, 0 in b_set
    zero_in_result = (a_zero and b_set.size > 0) or (b_zero and a_set.size > 0)
    # A 0 is the first entry of a sorted array.
    a_arr, b_arr = a_set.array[int(a_zero) :], b_set.array[int(b_zero) :]
    if mod.is_prime and 2 < m <= BITSET_LIMIT and a_arr.size * b_arr.size > 4 * m:
        _, pow_of, ((_, exp_of),) = _unit_group(m)
        group = m - 1
        full = (1 << group) - 1
        bits = np.zeros(group, dtype=np.uint8)
        bits[exp_of[b_arr]] = 1
        base = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        acc = 0
        for e in exp_of[a_arr]:
            acc |= _rotate_mask(base, int(e), group, full)
        raw = acc.to_bytes((group + 7) // 8, "little")
        exps = np.flatnonzero(
            np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=group, bitorder="little")
        )
        vals = np.sort(pow_of[exps])
    else:
        vals = _pairwise_values(a_arr, b_arr, m, np.multiply, a_set is b_set)
    # Over a composite modulus the pair products may already include 0.
    if zero_in_result and not (vals.size and vals[0] == 0):
        vals = np.concatenate((np.zeros(1, dtype=np.int64), vals))
    return ResidueSet(mod, vals)


@lru_cache(maxsize=64)
def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= 2n - 1: the linear convolution of two
    length-n inputs fits without wrapping, and pocketfft is fast on such
    lengths (n = p and n = p - 1 are not smooth); n <= 2^31."""
    need = 2 * n - 1
    odd = (3**b * 5**c for b in range(21) for c in range(15) if 3**b * 5**c < 2 * need)
    return min(s << ((need - 1) // s).bit_length() for s in odd)


def _transform_length(n: int) -> int:
    """n if it is 5-smooth (as n < 2^32: it divides 2^32 3^21 5^14), as it is;
    otherwise _fft_length(n), zero-padded and then folded mod n."""
    return n if 2**32 * 3**21 * 5**14 % n == 0 else _fft_length(n)


# Enumeration steps per FFT axis (its pocketfft passes and call overhead):
# the measured crossovers at m = 720, 3600 and 4096 put an extra axis at
# 9,500 to 14,500, and one axis at p = 499 near 16,000-20,000 pairs.
_AXIS_STEPS = 1 << 13


def _fft_pays(pairs: int, *shape: int) -> bool:
    """The FFT gate of every count over Z_n1 x ... x Z_nr: a transform of
    size S, the product of the axes' transform lengths, must cost less,
    about S log2 S plus _AXIS_STEPS per axis, than enumeration at one step
    per pair."""
    size = math.prod(map(_transform_length, shape))
    return pairs > size * math.log2(size) + _AXIS_STEPS * len(shape)


# c and u of the a-priori FFT error bound c u log2(S) |X| |Y| < 1/4 derived
# in _cyclic_counts; u is the unit roundoff of float64.
_FFT_ERROR_CONSTANT = 64
_UNIT_ROUNDOFF = 2.0**-53


def _histogram(coords: tuple, padded: tuple[int, ...]) -> np.ndarray:
    counts = np.bincount(np.ravel_multi_index(coords, padded), minlength=math.prod(padded))
    return counts.reshape(padded).astype(np.float64)


def _cyclic_counts(x: tuple, y: tuple, *shape: int) -> np.ndarray | None:
    """counts[t] = #{(i, j) : x[i] + y[j] = t} over Z_n1 x ... x Z_nr, in C
    order, exactly (None if the guard fails); x, y hold a coordinate row per
    axis, padded to L >= 2n - 1 and folded mod n unless n is 5-smooth. rfftn
    composes 1-D transforms, so t = log2 S = sum log2 L_i below.

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

    The result is rounded to int64 only when c u t N < 1/4, the largest
    rounding residual is below 1/4 and the rounded counts sum to N.
    """
    pairs = x[0].size * y[0].size
    padded = tuple(map(_transform_length, shape))
    bound = _FFT_ERROR_CONSTANT * _UNIT_ROUNDOFF * max(1.0, sum(map(math.log2, padded))) * pairs
    if not (pairs and bound < 0.25):
        return None
    spectrum = np.fft.rfftn(_histogram(x, padded))
    spectrum *= np.fft.rfftn(_histogram(y, padded))
    linear = np.fft.irfftn(spectrum, padded, axes=range(len(padded)))
    rounded = np.rint(linear)
    if float(np.max(np.abs(linear - rounded))) >= 0.25:
        return None
    # The rounded entries are integers below 2^53: folding them is exact.
    for axis, (n, length) in enumerate(zip(shape, padded)):
        if length > n:
            lead = (slice(None),) * axis
            rounded[lead + (slice(0, n - 1),)] += rounded[lead + (slice(n, 2 * n - 1),)]
            rounded = rounded[lead + (slice(0, n),)]
    counts = rounded.astype(np.int64).ravel()
    return counts if int(counts.sum()) == pairs else None


def additive_rep(a_set: ResidueSet, b_set: ResidueSet, sign: int) -> MultiplicityVector:
    """counts[t] = number of pairs (a, b) with a + sign*b = t (mod m)."""
    mod = _require_same_modulus(a_set, b_set)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    m, a_arr = mod.m, a_set.array
    _require_fits(m)
    b_arr = b_set.array if sign == 1 else (-b_set.array) % m
    pays = _fft_pays(a_arr.size * b_arr.size, m)
    counts = _cyclic_counts((a_arr,), (b_arr,), m) if pays else None
    return _mv_from_dense(mod, _pair_counts(a_arr, b_arr, m) if counts is None else counts)


def unit_quotient_rep(x_set: ResidueSet, a_set: ResidueSet) -> MultiplicityVector:
    """counts[t] = number of pairs (x, a) with x * a^{-1} = t (mod m).

    Every element of the denominator set must be a unit of Z_m. In the
    coordinates of `_unit_group` x a^{-1} is x - a, a cyclic correlation for
    unit x; non-units (a prime's 0) are enumerated against the inverses, and
    so is every x when the FFT does not pay or its guard fails."""
    mod = _require_same_modulus(x_set, a_set)
    m = mod.m
    _require_fits(m)
    a_arr, x_arr = a_set.array, x_set.array
    a_units = _units_mask(a_arr, mod)
    if not a_units.all():
        first = int(a_arr[np.argmin(a_units)])
        raise NonInvertibleError(first, m, math.gcd(first, m))
    x_units, shape = _units_mask(x_arr, mod), _unit_shape(m)
    flat = None
    if _fft_pays(int(np.count_nonzero(x_units)) * a_arr.size, *shape):
        _, residues, logs = _unit_group(m)
        # An inverse is the negated coordinates.
        inv_coords = tuple(-c % n for c, n in zip(_coords(logs, a_arr, m), shape))
        flat = _cyclic_counts(_coords(logs, x_arr[x_units], m), inv_coords, *shape)
    if flat is None:
        return _mv_from_dense(mod, _pair_counts(x_arr, _inverses(a_arr, mod), m, np.multiply))
    counts = np.zeros(m, dtype=np.int64)
    counts[residues] = flat
    if not x_units.all():  # a non-unit over a unit is a non-unit: disjoint parts
        counts += _pair_counts(x_arr[~x_units], _inverses(a_arr, mod), m, np.multiply)
    return _mv_from_dense(mod, counts)
