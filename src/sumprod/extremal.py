"""Pigeonhole construction of near-extremal sets in a prime field.

Take the first M powers of a generator and intersect with the best cyclic
window {L+1, ..., L+M}. Averaging over all p offsets, a window holds
M^2/p prefix elements on average, so the best offset holds at least
ceil(M^2/p). With M = ceil(sqrt(p*N)) that yields N elements whose sum
set and product set each live in a structured length-M set, capping both
at 2M - 1 <= 2*ceil(sqrt(p*N)) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .residues import Modulus, ResidueSet, find_generator, make_modulus
from .setops import _power_table, productset, sumset


def power_prefix(mod: Modulus, g: int, length: int) -> ResidueSet:
    """The first `length` powers {g, g^2, ..., g^length} of a primitive root."""
    if not mod.is_prime:
        raise ValueError(f"prime modulus required, got {mod.m}")
    p = mod.m
    if not 1 <= length <= p - 1:
        raise ValueError(f"prefix length {length} out of range [1, {p - 1}]")
    out = np.unique(_power_table(g, length + 1, p)[1:])
    if out.size != length:
        raise ValueError(f"{g} is not a primitive root mod {p}: prefix repeats")
    return ResidueSet(mod, out)


def best_window(points: ResidueSet, length: int) -> tuple[int, int]:
    """Offset L maximizing |points ∩ {L+1, ..., L+length mod p}|.

    The count changes only where a point enters the window, so the smallest
    best offset is 0 or (x - length) mod p for a point x. Each candidate's
    count is read by searchsorted on the points and the points + p, in
    O(n log n) with nothing of length p; ties go to the smallest offset.
    Returns (offset, count).
    """
    p = points.modulus.m
    if not 1 <= length <= p - 1:
        raise ValueError(f"window length {length} out of range [1, {p - 1}]")
    x = points.array
    offsets = np.sort(np.concatenate(([0], (x - length) % p)))  # a repeated 0 leaves the first best as it is
    both = np.concatenate((x, x + p))  # ascending: a window (L, L + length] with L < p lies below 2p
    counts = np.searchsorted(both, offsets + length, side="right") - np.searchsorted(both, offsets, side="right")
    best = int(np.argmax(counts))
    return int(offsets[best]), int(counts[best])


@dataclass(frozen=True)
class ExtremalConstruction:
    """A constructed set of size n with both pair statistics <= 2M - 1."""

    p: int
    n: int
    g: int
    window_len: int
    offset: int
    window_count: int
    prefix: ResidueSet
    chosen: ResidueSet
    sum_size: int
    prod_size: int
    max_size: int

    @property
    def structural_cap(self) -> int:
        return 2 * self.window_len - 1


def build_extremal(p: int, n: int) -> ExtremalConstruction:
    """Construct A with |A| = n and max(|A+A|, |AA|) <= 2*ceil(sqrt(p*n)) - 1.

    Uses M = ceil(sqrt(p*n)), the smallest window length whose pigeonhole
    guarantee ceil(M^2/p) covers n; infeasible when M exceeds p - 1. The
    n smallest representatives of the prefix/window intersection are kept.
    """
    mod = make_modulus(p)
    if not mod.is_prime:
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError(f"target size must be positive, got {n}")
    window_len = math.isqrt(p * n)
    if window_len * window_len < p * n:
        window_len += 1
    if window_len > p - 1:
        raise ValueError(
            f"infeasible: window length {window_len} exceeds p-1 = {p - 1} for n = {n}"
        )
    g = find_generator(mod)
    prefix = power_prefix(mod, g, window_len)
    offset, count = best_window(prefix, window_len)
    # x lies in the cyclic window {offset+1, ..., offset+window_len} mod p.
    pool = prefix.array[(prefix.array - offset - 1) % p < window_len]
    if count < n or pool.size < n:
        raise AssertionError(f"window holds {pool.size} < {n} elements")
    chosen = ResidueSet(mod, pool[:n])
    sums = sumset(chosen, chosen)
    prod = productset(chosen, chosen)
    return ExtremalConstruction(
        p=p,
        n=n,
        g=g,
        window_len=window_len,
        offset=offset,
        window_count=count,
        prefix=prefix,
        chosen=chosen,
        sum_size=sums.size,
        prod_size=prod.size,
        max_size=max(sums.size, prod.size),
    )
