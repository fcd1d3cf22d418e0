"""Sum sets, product sets, dilations and representation (multiplicity)
functions over Z_m.

Each operation has one exact result; the dispatch inside it only picks how
that result is computed, and every path agrees with the pair-enumeration
oracles in the test suite.

* Sum sets: `sumset` is the one sum-set function. When the FFT gate
  `_fft_pays` of the counts below admits A+B it reads off the support of
  the exact counts of `_cyclic_counts`; otherwise it enumerates pairs.
* Product sets: pair enumeration, or for a prime modulus and
  |A||B| > 4m an exponent sum set on bit masks in discrete-log
  coordinates (`_dlog_arrays`), mapped back to residues and sorted. 0 is
  stripped first and put back in front unless the pair products already
  hold it (over a composite modulus non-units can multiply to 0).
* Pair enumeration of a sum or product set (`_pairwise_values`) scatters
  the pair values into one length-m boolean array for m <= `BITSET_LIMIT`
  (2^24) and reads off its nonzero positions; above that each chunk goes
  through np.unique. Both give the same sorted array.
* Representation counts (`additive_rep`, `unit_quotient_rep`) are dense
  int64 arrays for m <= `DENSE_COUNT_LIMIT` and dicts above it. A dense
  count is a cyclic correlation counts[t] = #{(x, y) : x + s y = t mod n}:
  over Z_m for `additive_rep`, and for `unit_quotient_rep` over a prime
  modulus in discrete-log coordinates over Z_{p-1} (a 0 in the numerator
  set adds |A| to counts[0]). `_cyclic_counts` computes it with a real FFT
  of a 5-smooth length L >= 2n - 1 when `_fft_pays` (m <= DENSE_COUNT_LIMIT
  and the pair count |X||Y| exceeds the work estimate L log2 L), and by
  pair enumeration otherwise; the choice is made from the sizes alone,
  before any discrete-log table is built. The FFT result is rounded to
  int64 only when an a-priori rounding-error bound, the largest rounding
  residual and the total mass all certify it; otherwise the count is
  enumerated. Quotient counts over a composite modulus and the sparse dict
  paths always enumerate pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .residues import Modulus, NonInvertibleError, ResidueSet, find_generator

# Representation functions are dense length-m arrays below this, sparse
# dicts above; both behave identically.
DENSE_COUNT_LIMIT = 1 << 20
# Cap on m for the length-m boolean scatter of pair enumeration (at most
# 16 MiB) and for the discrete-log tables of a product set.
BITSET_LIMIT = 1 << 24
# Cap on elements materialized per vectorized chunk.
_CHUNK_ELEMS = 1 << 22


@dataclass(frozen=True, eq=False)
class MultiplicityVector:
    """Integer counts per residue: counts[t] = number of ways t is hit.

    counts is a read-only int64 array of length m when m <= 2^20, and a
    dict {residue: count} above that.
    """

    modulus: Modulus
    counts: "np.ndarray | dict[int, int]"
    total_mass: int

    @property
    def is_dense(self) -> bool:
        return isinstance(self.counts, np.ndarray)

    def count(self, t: int) -> int:
        if self.is_dense:
            return int(self.counts[t])
        return self.counts.get(t, 0)

    def support(self) -> frozenset[int]:
        if self.is_dense:
            return frozenset(self._nonzero().tolist())
        return frozenset(t for t, c in self.counts.items() if c > 0)

    def _nonzero(self) -> np.ndarray:
        """Residues with a nonzero dense count, found once per vector (a
        ring report aggregates one vector over every divisor period)."""
        memo = self.__dict__
        if "_nz" not in memo:
            memo["_nz"] = np.flatnonzero(self.counts != 0)
        return memo["_nz"]

    def dense_mod(self, q: int) -> np.ndarray:
        """Aggregate the counts by residue mod q into a dense length-q array.

        A support under a tenth of m is aggregated from its nonzero
        entries; each costs about as much as ten entries of the full-length
        reshape-sum used otherwise (measured at m = 720720 over every
        divisor period).
        """
        if self.modulus.m % q != 0:
            raise ValueError(f"{q} does not divide the modulus {self.modulus.m}")
        if self.is_dense:
            m = self.modulus.m
            if q == m:
                return self.counts.copy()
            nz = self._nonzero()
            if 10 * nz.size >= m:
                return self.counts.reshape(m // q, q).sum(axis=0)
            out = np.zeros(q, dtype=np.int64)
            np.add.at(out, nz % q, self.counts[nz])
            return out
        out = np.zeros(q, dtype=np.int64)
        for t, c in self.counts.items():
            out[t % q] += c
        return out


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _mv_from_dense(mod: Modulus, counts: np.ndarray) -> MultiplicityVector:
    return MultiplicityVector(mod, _freeze(counts), int(counts.sum()))


def _mv_from_dict(mod: Modulus, counts: dict[int, int]) -> MultiplicityVector:
    return MultiplicityVector(mod, counts, sum(counts.values()))


def indicator(a_set: ResidueSet) -> MultiplicityVector:
    """0/1 multiplicity vector of a set."""
    m = a_set.modulus.m
    if m <= DENSE_COUNT_LIMIT:
        counts = np.zeros(m, dtype=np.int64)
        counts[a_set.array] = 1
        return _mv_from_dense(a_set.modulus, counts)
    return _mv_from_dict(a_set.modulus, dict.fromkeys(a_set.array.tolist(), 1))


def _require_same_modulus(a: ResidueSet, b: ResidueSet) -> Modulus:
    if a.modulus.m != b.modulus.m:
        raise ValueError(f"modulus mismatch: {a.modulus.m} vs {b.modulus.m}")
    return a.modulus


def _pairwise_values(a: np.ndarray, b: np.ndarray, m: int, multiply: bool) -> np.ndarray:
    """Sorted distinct values of a[i] op b[j] mod m over all pairs, chunked
    over a. For m <= BITSET_LIMIT each chunk is scattered into one length-m
    boolean array (at most 16 MiB), one store per pair; above it each chunk
    goes through np.unique and the chunks are merged."""
    if a.size == 0 or b.size == 0:
        return np.empty(0, dtype=np.int64)
    step = max(1, _CHUNK_ELEMS // b.size)
    combine = np.multiply if multiply else np.add
    chunks = (combine(a[lo : lo + step, None], b[None, :]) % m for lo in range(0, a.size, step))
    if m <= BITSET_LIMIT:
        seen = np.zeros(m, dtype=bool)
        for vals in chunks:
            seen[vals] = True
        return np.flatnonzero(seen)
    pieces = [np.unique(vals) for vals in chunks]
    return np.unique(np.concatenate(pieces)) if len(pieces) > 1 else pieces[0]


def sumset(a_set: ResidueSet, b_set: ResidueSet) -> ResidueSet:
    """Exact {a + b mod m}: the nonzero positions of the exact sum counts
    when their FFT pays, the distinct pair values otherwise."""
    mod = _require_same_modulus(a_set, b_set)
    a, b, m = a_set.array, b_set.array, mod.m
    if _fft_pays(a.size * b.size, m, m):
        vals = np.flatnonzero(_cyclic_counts(a, b, m))
    else:
        vals = _pairwise_values(a, b, m, multiply=False)
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
    from .residues import make_modulus

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
        vals = _pairwise_values(a_arr, b_arr, m, multiply=True)
    # Over a composite modulus the pair products may already include 0.
    if zero_in_result and not (vals.size and vals[0] == 0):
        vals = np.concatenate((np.zeros(1, dtype=np.int64), vals))
    return ResidueSet(mod, vals)


def dilate(c: int, a_set: ResidueSet) -> ResidueSet:
    """{c * a mod m}; its size is at least |A| / gcd(c, m)."""
    m = a_set.modulus.m
    c %= m
    return ResidueSet(a_set.modulus, np.unique((c * a_set.array) % m))


def _pair_counts(x: np.ndarray, y: np.ndarray, n: int, combine: np.ufunc = np.add) -> np.ndarray:
    """counts[t] = #{(i, j) : combine(x[i], y[j]) = t (mod n)} by pair
    enumeration."""
    counts = np.zeros(n, dtype=np.int64)
    if x.size and y.size:
        step = max(1, _CHUNK_ELEMS // y.size)
        for lo in range(0, x.size, step):
            block = combine(x[lo : lo + step, None], y[None, :]) % n
            counts += np.bincount(block.ravel(), minlength=n)
    return counts


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


def _fft_pays(pairs: int, n: int, m: int) -> bool:
    """The FFT gate of every count over Z_n of a modulus m: the counts must
    be dense (m <= DENSE_COUNT_LIMIT), and an FFT of length L must cost less,
    about L log2 L, than enumeration at one step per pair."""
    if m > DENSE_COUNT_LIMIT:
        return False
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


def _counts_of_pairs(
    a: np.ndarray, b: np.ndarray, mod: Modulus, combine: np.ufunc = np.add
) -> MultiplicityVector:
    """Multiplicity vector of combine(a[i], b[j]) mod m over all pairs, by
    pair enumeration."""
    m = mod.m
    if m <= DENSE_COUNT_LIMIT:
        return _mv_from_dense(mod, _pair_counts(a, b, m, combine))
    out: dict[int, int] = {}
    if a.size and b.size:
        step = max(1, _CHUNK_ELEMS // b.size)
        for lo in range(0, a.size, step):
            block = combine(a[lo : lo + step, None], b[None, :]) % m
            keys, reps = np.unique(block.ravel(), return_counts=True)
            for k, r in zip(keys.tolist(), reps.tolist()):
                out[k] = out.get(k, 0) + r
    return _mv_from_dict(mod, out)


def additive_rep(a_set: ResidueSet, b_set: ResidueSet, sign: int) -> MultiplicityVector:
    """counts[t] = number of pairs (a, b) with a + sign*b = t (mod m)."""
    mod = _require_same_modulus(a_set, b_set)
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    m, a_arr = mod.m, a_set.array
    b_arr = b_set.array if sign == 1 else (-b_set.array) % m
    if _fft_pays(a_arr.size * b_arr.size, m, m):
        return _mv_from_dense(mod, _cyclic_counts(a_arr, b_arr, m))
    return _counts_of_pairs(a_arr, b_arr, mod)


def unit_quotient_rep(x_set: ResidueSet, a_set: ResidueSet) -> MultiplicityVector:
    """counts[t] = number of pairs (x, a) with x * a^{-1} = t (mod m).

    Every element of the denominator set must be a unit of Z_m. Over a
    dense prime modulus x a^{-1} = g^(log x - log a), so the counts of the
    units of X are a cyclic correlation of discrete logs over Z_{m-1}.
    """
    mod = _require_same_modulus(x_set, a_set)
    m = mod.m
    a_arr, x_arr = a_set.array, x_set.array
    shared = np.gcd(a_arr, m)
    if np.any(shared != 1):
        first = int(np.argmax(shared != 1))
        raise NonInvertibleError(int(a_arr[first]), m, int(shared[first]))
    if mod.is_prime:
        has_zero = x_arr.size > 0 and x_arr[0] == 0
        x_units = x_arr[1:] if has_zero else x_arr
        if _fft_pays(x_units.size * a_arr.size, m - 1, m):
            _, exp_of, pow_of = _dlog_arrays(m)
            counts = np.zeros(m, dtype=np.int64)
            counts[pow_of] = _cyclic_counts(exp_of[x_units], -exp_of[a_arr] % (m - 1), m - 1)
            counts[0] = a_arr.size if has_zero else 0
            return _mv_from_dense(mod, counts)
    inverses = np.array([pow(a, -1, m) for a in a_arr.tolist()], dtype=np.int64)
    return _counts_of_pairs(x_arr, inverses, mod, np.multiply)

