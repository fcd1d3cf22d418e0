"""Sum sets, product sets, dilations and representation (multiplicity)
functions over Z_m.

Each operation has one exact result; the dispatch inside it only picks how
that result is computed, and every path agrees with the pair-enumeration
oracles in the test suite.

* Representation counts (`indicator`, `additive_rep`, `unit_quotient_rep`)
  are read-only int64 arrays of length m. Each constructor first checks
  the memory budget: `BYTES_PER_RESIDUE * m`, the measured peak of a report
  per residue, must fit in the machine's physical memory, or it raises
  ValueError before any length-m allocation.
* A count is a cyclic correlation counts[t] = #{(x, y) : x + s y = t mod n}:
  over Z_m for `additive_rep`, and for `unit_quotient_rep` over a prime
  modulus in discrete-log coordinates over Z_{p-1} (a 0 in the numerator
  set adds |A| to counts[0]). `_cyclic_counts` computes it with a real FFT
  of a 5-smooth length L >= 2n - 1 when `_fft_pays` (|X||Y| > L log2 L,
  decided from the sizes alone, before any discrete-log table is built),
  rounding to int64 only when an a-priori error bound, the largest
  rounding residual and the total mass all certify it; otherwise, and for
  quotient counts over a composite modulus, it enumerates pairs.
* Sum sets: `sumset` reads A+B off the support of the additive counts when
  their FFT pays, and otherwise enumerates pairs.
* Product sets: pair enumeration, or for a prime modulus and
  |A||B| > 4m an exponent sum set on bit masks in discrete-log
  coordinates (`_dlog_arrays`), mapped back to residues and sorted. 0 is
  stripped first and put back in front unless the pair products already
  hold it (over a composite modulus non-units can multiply to 0).
* Pair enumeration runs over one generator of int64 pair-value blocks
  (`_pair_blocks`): counts bincount each block, and a set scatters it into
  one length-m boolean array for m <= `BITSET_LIMIT` (2^24), or merges the
  np.unique of every block above that.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .residues import Modulus, NonInvertibleError, ResidueSet, find_generator, make_modulus

# Cap on m for the length-m boolean scatter of pair enumeration (at most
# 16 MiB) and for the discrete-log tables of a product set.
BITSET_LIMIT = 1 << 24
# Cap on elements materialized per vectorized chunk.
_CHUNK_ELEMS = 1 << 22
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

    def _support(self) -> tuple[np.ndarray, np.ndarray]:
        """The residues with a nonzero count and those counts, gathered once
        per vector (a ring report aggregates one vector over every divisor
        period)."""
        memo = self.__dict__
        if "_nz" not in memo:
            nz = np.flatnonzero(self.counts != 0)
            memo["_nz"] = nz, self.counts[nz]
        return memo["_nz"]

    def dense_mod(self, q: int) -> np.ndarray:
        """The counts aggregated by residue mod q, as int64; for q = m the
        stored read-only counts themselves.

        A support under a tenth of m is aggregated from its nonzero
        entries; each costs about as much as ten entries of the full-length
        reshape-sum used otherwise (measured at m = 720720 over every
        divisor period).
        """
        m = self.modulus.m
        if q < 1 or m % q != 0:
            raise ValueError(f"period {q} does not divide the modulus {m}")
        if q == m:
            return self.counts
        nz, values = self._support()
        if 10 * nz.size >= m:
            return self.counts.reshape(m // q, q).sum(axis=0)
        out = np.zeros(q, dtype=np.int64)
        np.add.at(out, nz % q, values)
        return out


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


def _pair_blocks(a: np.ndarray, b: np.ndarray, m: int, combine: np.ufunc):
    """combine(a[i], b[j]) mod m over all pairs, in flat blocks of about
    _CHUNK_ELEMS values, chunked over a and reduced in place. Entries are in
    [0, m) with m <= 2^31, so every sum and product is below 2^62: exact in
    int64."""
    if a.size and b.size:
        step = max(1, _CHUNK_ELEMS // b.size)
        for lo in range(0, a.size, step):
            vals = combine(a[lo : lo + step, None], b[None, :])
            yield np.remainder(vals, m, out=vals).ravel()


def _pairwise_values(a: np.ndarray, b: np.ndarray, m: int, combine: np.ufunc) -> np.ndarray:
    """Sorted distinct pair values of _pair_blocks: scattered into one
    length-m boolean array (at most 16 MiB) for m <= BITSET_LIMIT, merged
    from each block's np.unique above it."""
    if m <= BITSET_LIMIT:
        seen = np.zeros(m, dtype=bool)
        for vals in _pair_blocks(a, b, m, combine):
            seen[vals] = True
        return np.flatnonzero(seen)
    pieces = [np.unique(vals) for vals in _pair_blocks(a, b, m, combine)]
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
        vals = _pairwise_values(a, b, m, np.add)
    return ResidueSet(mod, vals)


def _rotate_mask(mask: int, shift: int, m: int, full: int) -> int:
    shift %= m
    if shift == 0:
        return mask
    return ((mask << shift) | (mask >> (m - shift))) & full


def _powers(base: int, count: int, m: int) -> np.ndarray:
    out = np.empty(count, dtype=np.int64)
    acc = 1
    for k in range(count):
        out[k] = acc
        acc = acc * base % m
    return out


@lru_cache(maxsize=16)
def _dlog_arrays(m: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Cached (g, exponent-of-residue, residue-of-exponent) tables for prime m.

    g^(kB + j) is giant power g^(kB) times baby power g^j with
    B = ceil(sqrt(m - 1)); both factors are below m < 2^31, so their product
    is exact in int64.
    """
    g = find_generator(make_modulus(m))
    order = m - 1
    step = max(1, math.isqrt(order - 1) + 1)
    baby = _powers(g, step, m)
    giant = _powers(pow(g, step, m), -(-order // step), m)
    pow_of = (giant[:, None] * baby[None, :] % m).ravel()[:order]
    exp_of = np.zeros(m, dtype=np.int64)
    exp_of[pow_of] = np.arange(order, dtype=np.int64)
    return g, _freeze(exp_of), _freeze(pow_of)


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
        _, exp_of, pow_of = _dlog_arrays(m)
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
        vals = _pairwise_values(a_arr, b_arr, m, np.multiply)
    # Over a composite modulus the pair products may already include 0.
    if zero_in_result and not (vals.size and vals[0] == 0):
        vals = np.concatenate((np.zeros(1, dtype=np.int64), vals))
    return ResidueSet(mod, vals)


def dilate(c: int, a_set: ResidueSet) -> ResidueSet:
    """{c * a mod m}; its size is at least |A| / gcd(c, m)."""
    m = a_set.modulus.m
    c %= m
    return ResidueSet(a_set.modulus, np.unique((c * a_set.array) % m))


@lru_cache(maxsize=64)
def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= 2n - 1: the linear convolution of two
    length-n inputs fits without wrapping, and pocketfft is fast on such
    lengths (n = p and n = p - 1 are not smooth)."""
    need = 2 * n - 1
    best = 1 << (need - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < need:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _fft_pays(pairs: int, n: int) -> bool:
    """The FFT gate of every count over Z_n: an FFT of length L must cost
    less, about L log2 L, than enumeration at one step per pair."""
    length = _fft_length(n)
    return pairs > length * math.log2(length)


# c and u of the a-priori FFT error bound c u log2(L) |X| |Y| < 1/4 derived
# in _cyclic_counts; u is the unit roundoff of float64.
_FFT_ERROR_CONSTANT = 64
_UNIT_ROUNDOFF = 2.0**-53


def _cyclic_counts(x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """counts[t] = #{(i, j) : x[i] + y[j] = t (mod n)}, exactly, for x, y
    with entries in [0, n): the real FFT of the two histograms, zero-padded
    to L = _fft_length(n), gives their linear convolution, folded mod n.

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
    rounding residual is below 1/4 and the rounded counts sum to N;
    otherwise the pairs are enumerated.
    """
    pairs = x.size * y.size
    length = _fft_length(n)
    bound = _FFT_ERROR_CONSTANT * _UNIT_ROUNDOFF * max(1.0, math.log2(length)) * pairs
    if pairs and bound < 0.25:
        spectrum = np.fft.rfft(np.bincount(x, minlength=length).astype(np.float64))
        spectrum *= np.fft.rfft(np.bincount(y, minlength=length).astype(np.float64))
        linear = np.fft.irfft(spectrum, length)
        rounded = np.rint(linear)
        if float(np.max(np.abs(linear - rounded))) < 0.25:
            counts = rounded[:n].astype(np.int64)
            counts[: n - 1] += rounded[n : 2 * n - 1].astype(np.int64)
            if int(counts.sum()) == pairs:
                return counts
    return _pair_counts(x, y, n)


def additive_rep(a_set: ResidueSet, b_set: ResidueSet, sign: int) -> MultiplicityVector:
    """counts[t] = number of pairs (a, b) with a + sign*b = t (mod m)."""
    mod = _require_same_modulus(a_set, b_set)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    m, a_arr = mod.m, a_set.array
    _require_fits(m)
    b_arr = b_set.array if sign == 1 else (-b_set.array) % m
    if _fft_pays(a_arr.size * b_arr.size, m):
        return _mv_from_dense(mod, _cyclic_counts(a_arr, b_arr, m))
    return _mv_from_dense(mod, _pair_counts(a_arr, b_arr, m))


def unit_quotient_rep(x_set: ResidueSet, a_set: ResidueSet) -> MultiplicityVector:
    """counts[t] = number of pairs (x, a) with x * a^{-1} = t (mod m).

    Every element of the denominator set must be a unit of Z_m. Over a
    prime modulus x a^{-1} = g^(log x - log a), so the counts of the
    units of X are a cyclic correlation of discrete logs over Z_{m-1}.
    """
    mod = _require_same_modulus(x_set, a_set)
    m = mod.m
    _require_fits(m)
    a_arr, x_arr = a_set.array, x_set.array
    shared = np.gcd(a_arr, m)
    if np.any(shared != 1):
        first = int(np.argmax(shared != 1))
        raise NonInvertibleError(int(a_arr[first]), m, int(shared[first]))
    if mod.is_prime:
        has_zero = x_arr.size > 0 and x_arr[0] == 0
        x_units = x_arr[1:] if has_zero else x_arr
        if _fft_pays(x_units.size * a_arr.size, m - 1):
            _, exp_of, pow_of = _dlog_arrays(m)
            counts = np.zeros(m, dtype=np.int64)
            counts[pow_of] = _cyclic_counts(exp_of[x_units], -exp_of[a_arr] % (m - 1), m - 1)
            counts[0] = a_arr.size if has_zero else 0
            return _mv_from_dense(mod, counts)
    inverses = np.array([pow(a, -1, m) for a in a_arr.tolist()], dtype=np.int64)
    return _mv_from_dense(mod, _pair_counts(x_arr, inverses, m, np.multiply))

