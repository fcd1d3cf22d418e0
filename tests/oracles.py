"""Naive reference implementations used as independent test oracles.

Everything here is deliberately written as direct enumeration, independent
of the library's vectorized or bit-array paths: in plain Python, or with
numpy only to test a defining equation or property on every candidate.
"""

import cmath
import math

import numpy as np

from sumprod.residues import NonInvertibleError

# The most quadruples count_quadruples_bruteforce will enumerate.
BRUTE_FORCE_CAP = 10**9


def naive_divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def naive_sumset(a, b, m):
    return {(x + y) % m for x in a for y in b}


def naive_productset(a, b, m):
    return {(x * y) % m for x in a for y in b}


def naive_dilate(c, a, m):
    return {c * x % m for x in a}


def naive_additive_counts(a, b, sign, m):
    out = {}
    for x in a:
        for y in b:
            t = (x + sign * y) % m
            out[t] = out.get(t, 0) + 1
    return out


def naive_product_counts(a, b, m):
    out = {}
    for x in a:
        for y in b:
            t = x * y % m
            out[t] = out.get(t, 0) + 1
    return out


def naive_quotient_counts(xs, a, m):
    out = {}
    for x in xs:
        for y in a:
            t = x * pow(y, -1, m) % m
            out[t] = out.get(t, 0) + 1
    return out


def naive_parseval_sides(a, q, m):
    """(q * sum_r N_r^2, m |A|) with N_r the number of elements of a that
    are r mod q, counted one element at a time."""
    sizes = [0] * q
    for x in a:
        sizes[x % q] += 1
    return q * sum(n * n for n in sizes), m * len(a)


def counts_mod(counts, q):
    """Counts over Z_m summed by residue mod q, for q | m."""
    return counts.reshape(-1, q).sum(axis=0)


def mod_inverse(a, mod):
    """b with a*b = 1 (mod m), or NonInvertibleError carrying gcd(a, m)."""
    m = mod.m
    a %= m
    g = math.gcd(a, m)
    if g != 1:
        raise NonInvertibleError(a, m, g)
    return pow(a, -1, m)


def naive_dft(counts, q):
    """Direct complex summation of sum_t c[t] e_q(n t) for every n."""
    out = []
    for n in range(q):
        acc = 0j
        for t, c in counts.items():
            acc += c * cmath.exp(2j * cmath.pi * n * (t % q) / q)
        out.append(acc)
    return out


def naive_quadruples(a, m):
    """Literal four-fold loop over (x, a1, a2, y) in AA x A x A x (A+A)."""
    prod = sorted(naive_productset(a, a, m))
    sums = sorted(naive_sumset(a, a, m))
    total = 0
    for x in prod:
        for a1 in a:
            lhs = x * pow(a1, -1, m) % m
            for a2 in a:
                for y in sums:
                    if (lhs + a2) % m == y:
                        total += 1
    return total


def count_quadruples_bruteforce(a_set):
    """J by testing x a1^{-1} + a2 = y (mod m) on every quadruple (x, a1,
    a2, y) of AA x A x A x (A+A), with AA and A+A from naive_productset and
    naive_sumset; every element of A must be a unit.

    Refuses inputs with more than BRUTE_FORCE_CAP quadruples.
    """
    m = a_set.modulus.m
    a = a_set.array.tolist()
    arr = np.array(a, dtype=np.int64)
    prod = np.array(sorted(naive_productset(a, a, m)), dtype=np.int64)
    sums = np.array(sorted(naive_sumset(a, a, m)), dtype=np.int64)
    quadruples = prod.size * arr.size * arr.size * sums.size
    if quadruples > BRUTE_FORCE_CAP:
        raise ValueError(f"{quadruples} quadruples exceed the brute-force cap {BRUTE_FORCE_CAP}")
    total = 0
    step = max(1, (1 << 22) // max(1, arr.size * sums.size))
    for a1 in a:
        t = prod * pow(a1, -1, m) % m
        for lo in range(0, t.size, step):
            residual = (t[lo : lo + step, None, None] + arr[None, :, None] - sums[None, None, :]) % m
            total += int(np.count_nonzero(residual == 0))
    return total


def max_nontrivial(amplitudes):
    """(n, |S(n)|) of the largest amplitude of a spectrum over Z_q,
    q = len(amplitudes), over the n in [1, q) with gcd(n, q) = 1. Ties go to
    the smallest n; magnitudes within 1e-12 relative of the peak count as
    tied."""
    q = len(amplitudes)
    n = np.arange(1, q, dtype=np.int64)
    freqs = n[np.gcd(n, q) == 1]
    mags = np.abs(amplitudes[freqs])
    peak = float(mags.max())
    k = int(np.argmax(mags >= peak * (1 - 1e-12)))
    return int(freqs[k]), float(mags[k])


def naive_dlog_table(p, g):
    """table[g^k mod p] = k for k in [0, p - 1), by successive multiplication."""
    table = {}
    acc = 1
    for k in range(p - 1):
        table[acc] = k
        acc = acc * g % p
    return table


def multiplicative_order(g, p):
    k, acc = 1, g % p
    while acc != 1:
        acc = acc * g % p
        k += 1
    return k


def smallest_primitive_root(p):
    if p == 2:
        return 1
    for g in range(2, p):
        if multiplicative_order(g, p) == p - 1:
            return g
    raise AssertionError


def naive_best_window(points, length, p):
    """Exhaustive window scan; smallest offset wins ties."""
    best = (0, -1)
    for offset in range(p):
        window = {(offset + 1 + i) % p for i in range(length)}
        count = len(points & window)
        if count > best[1]:
            best = (offset, count)
    return best


def random_subset(rng, m, size, exclude_zero=False):
    low = 1 if exclude_zero else 0
    picks = rng.choice(m - low, size=size, replace=False) + low
    return [int(x) for x in picks]
