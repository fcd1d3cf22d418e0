"""Naive reference implementations used as independent test oracles.

Everything here is deliberately written as direct enumeration in plain
Python, independent of the library's vectorized or bit-array paths.
"""

import cmath
import math


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


def naive_quotient_counts(xs, a, m):
    out = {}
    for x in xs:
        for y in a:
            t = x * pow(y, -1, m) % m
            out[t] = out.get(t, 0) + 1
    return out


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
