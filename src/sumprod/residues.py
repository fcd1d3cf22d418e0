"""Exact modular arithmetic: modulus metadata, residue sets, inverses and
primitive roots.

A residue set is stored in one form, a sorted, distinct, read-only int64
array; its frozenset view is derived only when a caller asks for it. Every
value in this module is immutable after construction and every function is
pure, so everything here is safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

MODULUS_CAP = 1 << 31


class NonInvertibleError(ValueError):
    """Raised when an element has no inverse; carries the offending gcd."""

    def __init__(self, a: int, m: int, g: int):
        super().__init__(f"{a} is not invertible mod {m} (gcd {g})")
        self.gcd = g


@dataclass(frozen=True)
class Modulus:
    """A ring size m together with its primality, factorization and divisors.

    divisor_halfpower_sum is the sum of sqrt(d) over the proper divisors
    d < m; it equals 1.0 exactly when m is prime.
    """

    m: int
    is_prime: bool
    factorization: tuple[tuple[int, int], ...]
    divisors: tuple[int, ...]
    divisor_halfpower_sum: float

    def __repr__(self) -> str:
        return f"Modulus({self.m})"


@lru_cache(maxsize=None)
def make_modulus(m: int) -> Modulus:
    """Build a Modulus by trial division. Requires 2 <= m <= 2**31."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"modulus must be an integer, got {m!r}")
    if m < 2 or m > MODULUS_CAP:
        raise ValueError(f"modulus must be in [2, 2^31], got {m}")
    factorization = []
    rest = m
    d = 2
    while d * d <= rest:
        if rest % d == 0:
            e = 0
            while rest % d == 0:
                rest //= d
                e += 1
            factorization.append((d, e))
        d += 1 if d == 2 else 2
    if rest > 1:
        factorization.append((rest, 1))

    divisors = [1]
    for prime, exp in factorization:
        prime_powers = [prime**k for k in range(exp + 1)]
        divisors = [dv * pk for dv in divisors for pk in prime_powers]
    divisors.sort()

    halfpower = float(sum(math.sqrt(d) for d in divisors[:-1]))
    return Modulus(
        m=m,
        is_prime=len(divisors) == 2,
        factorization=tuple(factorization),
        divisors=tuple(divisors),
        divisor_halfpower_sum=halfpower,
    )


@dataclass(frozen=True, eq=False)
class ResidueSet:
    """An immutable subset of Z_m with exact membership and cardinality.

    The one stored form is `array`: the sorted, distinct residues as a
    read-only int64 array. `elements` is a frozenset view derived from it on
    first use and cached, for callers that need Python's set operations.
    Sets compare and hash by value, as (m, array), so neither builds it.
    """

    modulus: Modulus
    array: np.ndarray

    def __post_init__(self) -> None:
        self.array.setflags(write=False)

    @cached_property
    def elements(self) -> frozenset[int]:
        return frozenset(self.array.tolist())

    @property
    def size(self) -> int:
        return self.array.size

    def __len__(self) -> int:
        return self.array.size

    def __contains__(self, x: int) -> bool:
        i = int(np.searchsorted(self.array, x))
        return i < self.array.size and bool(self.array[i] == x)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.modulus.m, self.array.tobytes()))

    def __repr__(self) -> str:
        shown = self.array[:8].tolist()
        if self.array.size > 8:
            shown.append("...")
        return f"ResidueSet(mod {self.modulus.m}, {shown})"


def residue_set(modulus: Modulus, elements: Iterable[int]) -> ResidueSet:
    """Validate and build a ResidueSet; every element must be an integer
    (int or a NumPy integer, not bool) in [0, m)."""
    # An integer array passes the type check in bulk, and so do plain ints;
    # any other element is checked one by one.
    if not (isinstance(elements, np.ndarray) and elements.ndim == 1 and elements.dtype.kind in "iu"):
        elements = list(elements)
        if not set(map(type, elements)) <= {int}:
            for x in elements:
                if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                    raise ValueError(f"residue must be an integer, got {x!r}")
    values = np.unique(np.asarray(elements))
    m = modulus.m
    if values.size and not 0 <= values[0] <= values[-1] < m:
        bad = values[0] if values[0] < 0 else values[-1]
        raise ValueError(f"residue {bad} out of range [0, {m})")
    return ResidueSet(modulus, values.astype(np.int64, copy=False))


def find_generator(mod: Modulus) -> int:
    """Smallest generator of the multiplicative group mod a prime p.

    Candidates are tested in increasing order by checking
    g^((p-1)/q) != 1 for every prime q dividing p-1, so the result is
    deterministic and its order is exactly p-1.
    """
    if not mod.is_prime:
        raise ValueError(f"generator search requires a prime modulus, got {mod.m}")
    p = mod.m
    if p == 2:
        return 1
    cofactors = [(p - 1) // q for q, _ in make_modulus(p - 1).factorization]
    for g in range(2, p):
        if all(pow(g, c, p) != 1 for c in cofactors):
            return g
    raise AssertionError("unreachable: every prime has a primitive root")


def min_gcd(a_set: ResidueSet) -> int:
    """Minimum of gcd(a, m) over a in the set, with gcd(0, m) = m."""
    if a_set.size == 0:
        raise ValueError("min_gcd of an empty set")
    return int(np.gcd(a_set.array, a_set.modulus.m).min())


def _units_mask(arr: np.ndarray, mod: Modulus) -> np.ndarray:
    """Which entries of arr are units mod m (a remainder per prime costs less than np.gcd)."""
    return np.logical_and.reduce([arr % p != 0 for p, _ in mod.factorization])


def unit_part(a_set: ResidueSet) -> ResidueSet:
    """The elements coprime to the modulus (the invertible ones)."""
    arr = a_set.array
    return ResidueSet(a_set.modulus, arr[_units_mask(arr, a_set.modulus)])
