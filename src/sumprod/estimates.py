"""Reports and checks for the two sum-product lower bounds.

Prime field: |A+A| * |AA| >= (1/4) * min(p |A|, |A|^4 / p). The 1/4 comes
from splitting the master inequality

    |A|^3 <= |AA| |A|^2 |A+A| / p + sqrt(p |AA| |A|) * sqrt(|A| |A+A|)

by which term dominates: if the first does, |AA||A+A| >= p|A|/2; if the
second does, squaring gives |AA||A+A| >= |A|^4/(4p).

Residue ring: |A+A| * |AA| >= (1/64) * min(m |A|, |A|^4 / (m D(m)^2))
where D(m) sums sqrt(d) over proper divisors d of m. The 1/64 tracks the
reduction chain: when |A|^2 <= 4 m D^2 / d0 the dilation bound
|AA| >= |A|/d0 settles it at 1/4; otherwise non-units number at most
sqrt(m/d0) D < |A|/2, so the unit part A' keeps more than half of A, and
the character-sum chain on A' gives |A'A'||A'+A'| >= |A'|^4/(4 m D^2)
with |A'|^4 > |A|^4/16.

Every quantity a report or check needs comes from one Derivation of the
input set, which builds each piece at most once. Every inequality is one
Check carrying its two sides. Integer inequalities (the prime constant, the
master inequality, the quadruple lower bound, the dilation bound, the
non-unit count, Parseval) are decided exactly; the ones involving D(m), a
square root or an FFT amplitude carry the one-sided relative slack
REL_SLACK so a genuine equality case never fails from double rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .residues import (
    MODULUS_CAP,
    ResidueSet,
    make_modulus,
    min_gcd,
    residue_set,
    unit_part,
)
from .setops import additive_rep, productset, sumset, unit_quotient_rep
from .spectra import dft_counts, dft_counts_beside, gcd_class_peaks, spectrum_of_set

REL_SLACK = 1e-9


@dataclass(frozen=True)
class Check:
    """One inequality on one set: its name, its two sides as compared, and
    whether it holds. The direction (<= or >=) is part of the name's meaning."""

    name: str
    lhs: int | float
    rhs: int | float
    holds: bool


def _all_of(name: str, members: list[Check]) -> Check:
    """Holds when every member does; shows the sides of the member closest
    to failing. Every member reads lhs <= rhs."""
    tightest = max(members, key=lambda c: (not c.holds, c.lhs / c.rhs if c.rhs else 1.0))
    return Check(name, tightest.lhs, tightest.rhs, all(c.holds for c in members))


def _once(build):
    """A property built on first use and kept on the instance. Unlike
    functools.cached_property on Python 3.11 it takes no lock shared by every
    instance, so sweep threads never wait on one another."""
    key = build.__name__

    @functools.wraps(build)
    def get(self):
        memo = self.__dict__
        if key not in memo:
            memo[key] = build(self)
        return memo[key]

    return property(get)


def _require_prime_zero_free(a_set: ResidueSet) -> int:
    mod = a_set.modulus
    if not mod.is_prime:
        raise ValueError(f"prime modulus required, got {mod.m}")
    if 0 in a_set:
        raise ValueError("0 must not be in the set")
    return mod.m


def _mv_dot(x: np.ndarray, y: np.ndarray) -> int:
    """sum_t x[t] y[t] over two count arrays, exactly: a count is at most
    m <= 2^31, so each product fits in int64, and each block's int64 dot is
    short enough that no partial sum passes 2^63 - 1; the blocks are added
    as Python ints."""
    step = max(1, (2**63 - 1) // max(1, int(x.max()) * int(y.max())))
    return sum(int(np.dot(x[lo : lo + step], y[lo : lo + step])) for lo in range(0, x.size, step))


class Derivation:
    """Everything the reports and checks derive from one set A.

    Each piece is built on first use and kept until the instance is
    dropped; one instance serves one report and is used by one thread: a
    worker thread beside it (dft_counts_beside) receives only arrays.
    Nothing is cached across instances. A caller that already holds pieces
    (a sweep's set family) passes them by name in known.
    """

    def __init__(self, a_set: ResidueSet, **known):
        self.a = a_set
        self.modulus = a_set.modulus
        self.m = a_set.modulus.m
        self.size = a_set.size
        self.__dict__.update(known)

    @_once
    def sums(self) -> ResidueSet:
        """A+A."""
        return sumset(self.a, self.a)

    @_once
    def prods(self) -> ResidueSet:
        """AA."""
        return productset(self.a, self.a)

    @_once
    def of_sums(self) -> "Derivation":
        """The derivation of A+A."""
        return Derivation(self.sums)

    @_once
    def _nonunits_removed(self) -> "Derivation | None":
        part = unit_part(self.a)
        return None if part.size == self.size else Derivation(part)

    @property
    def units(self) -> "Derivation":
        """The derivation of the unit part A' (this one when A has no
        non-units). Over a prime field A' is the zero-free core A minus {0}.
        Not stored on itself: a reference cycle would keep every array alive
        until the next garbage collection."""
        return self._nonunits_removed or self

    @_once
    def d0(self) -> int:
        """min gcd(a, m) over A."""
        return min_gcd(self.a)

    @_once
    def spectrum(self) -> np.ndarray:
        """Spectrum of the indicator of A over Z_m."""
        return spectrum_of_set(self.a)

    @_once
    def quotients(self) -> np.ndarray:
        """Counts of x a^{-1} over (x, a) in AA x A; A must consist of units."""
        return unit_quotient_rep(self.prods, self.a)

    @_once
    def quotient_spectrum(self) -> np.ndarray:
        """Spectrum of the quotient counts over Z_m."""
        return dft_counts(self.quotients)

    @_once
    def peaks(self) -> dict[int, float]:
        """Largest quotient-spectrum amplitude per gcd class: peaks[d] over
        the k in [1, m) with gcd(k, m) = d, for each proper divisor d."""
        return dict(zip(self.modulus.divisors, gcd_class_peaks(self.quotient_spectrum).tolist()))

    @property
    def peak(self) -> float:
        """Largest quotient-spectrum amplitude over frequencies coprime to m."""
        return self.peaks[1]

    @_once
    def cap_sq(self) -> int:
        """m |AA| |A|: the squared complete-sum cap on the peak."""
        return self.m * self.prods.size * self.size

    @_once
    def quad_count(self) -> int:
        """Exact number J of solutions of x a1^{-1} + a2 = y over
        (AA) x A x A x (A+A): the quotient counts of (AA, A) dotted with the
        difference counts of (A+A, A). Prime modulus and 0 not in A."""
        _require_prime_zero_free(self.a)
        return _mv_dot(self.quotients, additive_rep(self.sums, self.a, -1))

    @_once
    def spectral_quad_count(self) -> float:
        """J by character orthogonality, (1/p) sum_n Q^(n) A^(n) conj(S^(n))
        with Q the quotient counts and S the sum-set indicator. Prime modulus
        and 0 not in A."""
        p = _require_prime_zero_free(self.a)
        total = np.sum(self.quotient_spectrum * self.spectrum * np.conj(self.of_sums.spectrum)) / p
        return float(total.real)


def _derived(a: "ResidueSet | Derivation") -> Derivation:
    return a if isinstance(a, Derivation) else Derivation(a)


def field_constant(p: int, size_a: int, lhs: int) -> Check:
    """lhs >= (1/4) min(p |A|, |A|^4 / p), scaled by 4p to exact integers."""
    scaled, bound = 4 * lhs * p, min(p * p * size_a, size_a**4)
    return Check("quarter_constant", scaled, bound, scaled >= bound)


def master_inequality(p: int, size_a: int, size_sum: int, size_prod: int) -> Check:
    """|A|^3 <= main + off-diagonal term; decided in exact integers by
    squaring the residual, the sides are shown in floating point."""
    main = size_prod * size_a**2 * size_sum
    excess = p * size_a**3 - main
    holds = excess <= 0 or excess * excess <= p**3 * size_a**2 * size_prod * size_sum
    offdiag = math.sqrt(p * size_prod * size_a) * math.sqrt(size_a * size_sum)
    return Check("master_inequality", size_a**3, main / p + offdiag, holds)


def ring_constant(lhs: int, bound: float) -> Check:
    """64 lhs >= min(m |A|, |A|^4 / (m D^2)) with REL_SLACK for D."""
    return Check("sixtyfourth_constant", 64 * lhs, bound, 64 * lhs >= bound * (1 - REL_SLACK))


def parseval_bound(x: ResidueSet, q: int) -> Check:
    """sum_{n=1..q} |S_q(n)|^2 <= m |X| for the indicator of X over one
    period q | m, in exact integers.

    The range covers one full period (n = q is the trivial character), so
    the left side equals q * sum_r N_r^2, with N_r the number of elements
    of X that are r mod q. It always holds: each N_r is at most m/q, so the
    int64 dot stays below m^2 / q <= 2^62.
    """
    m = x.modulus.m
    if q < 1 or m % q != 0:
        raise ValueError(f"period {q} does not divide the modulus {m}")
    sizes = np.bincount(x.array % q, minlength=q)
    lhs, rhs = q * int(np.dot(sizes, sizes)), m * x.size
    return Check(f"parseval q={q}", lhs, rhs, lhs <= rhs)


def divisor_square_bound(d: Derivation, divisor: int) -> Check:
    """Peak squared quotient-spectrum amplitude at period m/divisor, over
    frequencies coprime to it, against divisor * m * |AA| * |A|.

    A must consist of units. The divisor-1 row is the complete-sum bound
    sqrt(m |AA| |A|), squared.

    Every row reads the one spectrum S_m over Z_m: with c the counts and
    q = m/divisor, the counts aggregated mod q have the spectrum
    S_q(n) = sum_x c[x] e_q(n x) = sum_x c[x] e_m(n (m/q) x) = S_m(n m/q).
    As n runs over the units mod q, n m/q runs over the k in [1, m) with
    gcd(k, m) = divisor: the row's peak is that class's entry of d.peaks.
    """
    peak = d.peaks[divisor]
    peak_sq, cap = peak * peak, float(divisor * d.cap_sq)
    return Check(f"divisor_square_bound d={divisor}", peak_sq, cap, peak_sq <= cap * (1 + REL_SLACK))


@dataclass(frozen=True)
class FieldBoundReport:
    """All sizes, bound terms and proof diagnostics for the prime-field bound.

    Size statistics cover the full input set; the quadruple count and the
    spectral peak are computed on the zero-free part (flagged by
    stripped_zero), which is where they are meaningful.
    """

    p: int
    size_a: int
    size_sum: int
    size_prod: int
    lhs: int
    term_pa: float
    term_a4p: float
    bound: float
    ratio: float
    quad_count: int
    quad_lower: int
    fourier_max: float
    fourier_cap: float
    stripped_zero: bool


def field_bound_report(a: "ResidueSet | Derivation") -> FieldBoundReport:
    d = _derived(a)
    if not d.modulus.is_prime:
        raise ValueError(f"prime modulus required, got {d.m}")
    if d.size == 0:
        raise ValueError("empty set")
    p, k, core = d.m, d.size, d.units
    lhs = d.sums.size * d.prods.size
    term_pa = float(p * k)
    term_a4p = k**4 / p
    bound = min(term_pa, term_a4p)
    return FieldBoundReport(
        p=p,
        size_a=k,
        size_sum=d.sums.size,
        size_prod=d.prods.size,
        lhs=lhs,
        term_pa=term_pa,
        term_a4p=term_a4p,
        bound=bound,
        ratio=lhs / bound,
        quad_count=core.quad_count,
        quad_lower=core.size**3,
        fourier_max=core.peak,
        fourier_cap=math.sqrt(core.cap_sq),
        stripped_zero=core is not d,
    )


def field_checks(a: "ResidueSet | Derivation") -> list[Check]:
    """Every inequality behind the prime-field bound, in reporting order.
    On the derivation a report was built from, nothing is built twice."""
    d = _derived(a)
    rep = field_bound_report(d)
    core = d.units
    return [
        field_constant(rep.p, rep.size_a, rep.lhs),
        Check("quadruple_lower_bound", rep.quad_count, rep.quad_lower, rep.quad_count >= rep.quad_lower),
        replace(divisor_square_bound(core, 1), name="fourier_cap"),
        master_inequality(rep.p, core.size, core.sums.size, core.prods.size),
    ]


def spectral_checks(a: "ResidueSet | Derivation") -> list[Check]:
    """The spectral identity for J, the complete-sum cap and the
    Cauchy-Schwarz bound sum_n |A^(n)| |S^(n)| <= m sqrt(|A| |A+A|), for a
    zero-free set over a prime field."""
    d = _derived(a)
    exact = d.quad_count
    rel_error = abs(d.spectral_quad_count - exact) / max(exact, 1)
    cs_lhs = float(np.sum(np.abs(d.spectrum) * np.abs(d.of_sums.spectrum)))
    cs_cap = d.m * math.sqrt(d.size * d.sums.size)
    return [
        Check("spectral_identity", rel_error, 1e-9, rel_error <= 1e-9),
        replace(divisor_square_bound(d, 1), name="fourier_cap"),
        Check("cauchy_schwarz", cs_lhs, cs_cap, cs_lhs <= cs_cap * (1 + REL_SLACK)),
    ]


@dataclass(frozen=True)
class RingBoundReport:
    """Sizes, bound terms and reduction diagnostics for the ring bound."""

    m: int
    d0: int
    size_a: int
    size_unit_a: int
    size_sum: int
    size_prod: int
    divisor_halfpower_sum: float
    lhs: int
    term_ma: float
    term_ring: float
    bound: float
    ratio: float
    nonunit_count: int
    nonunit_cap: float
    branch: str


def ring_bound_report(a: "ResidueSet | Derivation") -> RingBoundReport:
    d = _derived(a)
    if d.size == 0:
        raise ValueError("empty set")
    m, k, d0 = d.m, d.size, d.d0
    halfpower = d.modulus.divisor_halfpower_sum
    lhs = d.sums.size * d.prods.size
    term_ma = float(m * k)
    term_ring = k**4 / (m * halfpower * halfpower)
    bound = min(term_ma, term_ring)
    # Strict inequality selects the unit-reduction branch; ties stay trivial.
    branch = "unit_reduced" if k * k * d0 > 4 * m * halfpower * halfpower else "trivial_d0"
    return RingBoundReport(
        m=m,
        d0=d0,
        size_a=k,
        size_unit_a=d.units.size,
        size_sum=d.sums.size,
        size_prod=d.prods.size,
        divisor_halfpower_sum=halfpower,
        lhs=lhs,
        term_ma=term_ma,
        term_ring=term_ring,
        bound=bound,
        ratio=lhs / bound,
        nonunit_count=k - d.units.size,
        nonunit_cap=math.sqrt(m / d0) * halfpower,
        branch=branch,
    )


def ring_checks(a: "ResidueSet | Derivation") -> list[Check]:
    """The ring constant and every intermediate inequality of the reduction,
    in reporting order. A report built from the same derivation afterwards
    builds nothing twice.

    The non-unit count (elements with gcd(a, m) >= max(d0, 2)) is capped by
    the sum of m/d over divisors d >= max(d0, 2), and that by sqrt(m/d0) D.
    The spectral checks run on the unit part A', where inverses exist; the
    unit-majority step is asserted only when the reduction takes that branch.
    """
    d = _derived(a)
    if d.size == 0:
        raise ValueError("empty set")
    m, units = d.m, d.units
    proper = d.modulus.divisors[:-1]

    def rest():  # all but the divisor rows, which read the unit part's spectrum
        rows = [parseval_bound(x, m // e) for e in proper for x in (units.a, units.sums)]
        return _all_of("parseval_bounds", rows), ring_bound_report(d)

    # The quotient counts, the step with the largest temporaries, come before the full set's A+A and AA
    # are held; their spectrum's transform runs beside rest, and only this thread touches derivations.
    known = units.__dict__.get("quotient_spectrum")
    spectrum, (parseval, rep) = (known, rest()) if known is not None else dft_counts_beside(units.quotients, rest)
    units.__dict__["quotient_spectrum"] = spectrum
    square = _all_of("divisor_square_bound", [divisor_square_bound(units, e) for e in proper])
    divisor_cap = sum(m // e for e in d.modulus.divisors if e >= max(rep.d0, 2))
    majority = 2 * units.size
    return [
        ring_constant(rep.lhs, rep.bound),
        Check("dilation_bound", rep.size_prod * rep.d0, rep.size_a, rep.size_prod * rep.d0 >= rep.size_a),
        _all_of(
            "nonunit_caps",
            [
                Check("nonunit_count", rep.nonunit_count, divisor_cap, rep.nonunit_count <= divisor_cap),
                Check(
                    "nonunit_sqrt_cap",
                    divisor_cap,
                    rep.nonunit_cap,
                    divisor_cap <= rep.nonunit_cap * (1 + REL_SLACK),
                ),
            ],
        ),
        square,
        parseval,
        Check("unit_majority", majority, rep.size_a, rep.branch != "unit_reduced" or majority > rep.size_a),
    ]


@dataclass(frozen=True)
class RingExtremalExample:
    """The multiples of p inside Z_{p^2}: sum set equal to the set itself,
    product set collapsed to {0}."""

    p: int
    m: int
    a: ResidueSet
    size_a: int
    size_sum: int
    size_prod: int
    ratio: float


def zm_extremal(p: int) -> RingExtremalExample:
    """Build {0, p, 2p, ...} in Z_{p^2} and verify the exact size triple (p, p, 1)."""
    if p * p > MODULUS_CAP:
        raise ValueError(f"p^2 = {p*p} exceeds the modulus cap")
    p_mod = make_modulus(p)
    if not p_mod.is_prime:
        raise ValueError(f"{p} is not prime")
    d = Derivation(residue_set(make_modulus(p * p), range(0, p * p, p)))
    sizes = (d.size, d.sums.size, d.prods.size)
    if sizes != (p, p, 1):
        raise AssertionError(f"size triple {sizes} != {(p, p, 1)}")
    return RingExtremalExample(
        p=p,
        m=p * p,
        a=d.a,
        size_a=d.size,
        size_sum=d.sums.size,
        size_prod=d.prods.size,
        ratio=ring_bound_report(d).ratio,
    )
