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

Every quantity a report or check needs comes from one Derivation: the view
of one row of a set family, a single set being a family of one row, whose
pieces are each built once for all rows. Every inequality is one
Check carrying its two sides. Integer inequalities (the prime constant, the
master inequality, the quadruple lower bound, the dilation bound, the
non-unit count, Parseval) are decided exactly; the ones involving D(m), a
square root or an FFT amplitude carry the one-sided relative slack
REL_SLACK so a genuine equality case never fails from double rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .residues import (
    MODULUS_CAP,
    Modulus,
    NonInvertibleError,
    ResidueSet,
    _units_mask,
    make_modulus,
    residue_set,
)
from .setops import _freeze, _inverses, _require_fits, _row_counts, productset
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


class _once:
    """A property built on first use and kept in the instance's __dict__, which
    Python reads before this descriptor. Unlike functools.cached_property on
    Python 3.11 it takes no lock shared by every instance, so sweep threads
    never wait on one another."""

    def __init__(self, build):
        self.build, self.__doc__ = build, build.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


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
    """Everything the reports and checks derive from one set A: the view of
    one row of a set family (_Family), which builds each piece once for all
    its rows; Derivation(a_set) is the view of a family of one row. The view
    keeps each piece it reads. A family and its views are used by one thread:
    a worker thread beside it (dft_counts_beside) receives only arrays."""

    def __init__(self, a_set: ResidueSet):
        self._bind(_Family(a_set.array[None], a_set.modulus), 0, a_set)

    def _bind(self, family: "_Family", row: int, a_set: ResidueSet) -> "Derivation":
        self.family, self.row, self.a = family, row, a_set
        self.modulus, self.m, self.size = a_set.modulus, a_set.modulus.m, a_set.size
        return self

    @_once
    def sums(self) -> ResidueSet:
        """A+A."""
        return self.family.row_set(self.family.sums, self.row)

    @_once
    def prods(self) -> ResidueSet:
        """AA."""
        return self.family.row_set(self.family.prods, self.row)

    # Each report that builds length-m counts reads it first: it refuses them over the budget before any enumeration.
    _fits = _once(lambda d: _require_fits(d.m))
    _unit_view = _once(lambda d: None if d.family.units is d.family else d.family.units.view(d.row))

    @property
    def units(self) -> "Derivation":
        """The derivation of the unit part A' (over a prime field the zero-free
        core A minus {0}): this one when no row of the family loses an element.
        Not stored on itself: a reference cycle would keep every array alive
        until the next garbage collection."""
        return self._unit_view or self

    @_once
    def d0(self) -> int:
        """min gcd(a, m) over A."""
        return int(self.family.d0[self.row])

    @_once
    def spectrum(self) -> np.ndarray:
        """Spectrum of the indicator of A over Z_m."""
        return spectrum_of_set(self.a)

    @_once
    def sums_spectrum(self) -> np.ndarray:
        """Spectrum of the indicator of A+A over Z_m."""
        return spectrum_of_set(self.sums)

    @_once
    def quotients(self) -> np.ndarray:
        """Counts of x a^{-1} over (x, a) in AA x A; A must consist of units."""
        if self.units.size < self.size:
            bad = int(np.setdiff1d(self.a.array, self.units.a.array)[0])
            raise NonInvertibleError(bad, self.m, math.gcd(bad, self.m))
        return self.family.units.quotients[self.row]

    @_once
    def quotient_spectrum(self) -> np.ndarray:
        """Spectrum of the quotient counts over Z_m: one 1-D transform per
        row, since its floats are printed."""
        return dft_counts(self.quotients)

    def _quotient_spectrum_beside(self, work):  # work(), the spectrum's transform beside it unless already built
        if "quotient_spectrum" in self.__dict__:
            return work()
        self.__dict__["quotient_spectrum"], done = dft_counts_beside(self.quotients, work)
        return done

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
        (AA) x A x A x (A+A). Prime modulus and 0 not in A."""
        _require_prime_zero_free(self.a)
        return self.family.units.quads[self.row]

    @_once
    def spectral_quad_count(self) -> float:
        """J by character orthogonality, (1/p) sum_n Q^(n) A^(n) conj(S^(n))
        with Q the quotient counts and S the sum-set indicator. Prime modulus
        and 0 not in A."""
        p = _require_prime_zero_free(self.a)
        total = np.sum(self.quotient_spectrum * self.spectrum * np.conj(self.sums_spectrum)) / p
        return float(total.real)


class _Family:
    """The rows of one set family over one modulus, each ascending and padded
    in front with -1 (one row: one set, unpadded). Each piece is built once
    for all rows (setops._row_counts). A set piece's rows are ascending and
    padded at the back, as setops._row_support leaves them; a row's padding
    may stand anywhere, so rows are read by their entries >= 0."""

    def __init__(self, rows: np.ndarray, mod: Modulus):
        self.rows, self.mod, self.m = rows, mod, mod.m

    def row_set(self, rows: np.ndarray, r: int) -> ResidueSet:
        if len(rows) == 1:  # one set, unpadded: the filter costs tiny ring reports ~1% a piece (five per report)
            return ResidueSet(self.mod, rows[r])
        return ResidueSet(self.mod, rows[r][rows[r] >= 0])

    def view(self, r: int) -> Derivation:
        return Derivation.__new__(Derivation)._bind(self, r, self.row_set(self.rows, r))

    sums = _once(lambda f: _row_counts(f.rows, f.rows, f.m, sets=True))
    d0 = _once(lambda f: np.gcd(np.maximum(f.rows, 0), f.m).min(axis=1))  # padding reads as 0, gcd m

    @_once
    def prods(self) -> np.ndarray:
        if len(self.rows) == 1:  # one set's product set stays productset, which keeps the prime bit mask
            one = ResidueSet(self.mod, self.rows[0])
            return productset(one, one).array[None]
        return _row_counts(self.rows, self.rows, self.m, np.multiply, self.units is self, sets=True)

    units = property(lambda f: f._unit_rows or f, doc="The rows' unit parts: this family when no row loses one.")

    @_once
    def _unit_rows(self) -> "_Family | None":
        keep = _units_mask(self.rows, self.mod)  # true on the padding too: -1 is no multiple of a prime
        if keep.all():
            return None  # not stored as itself: a reference cycle
        if len(self.rows) == 1:  # one set: a mask, 1 us, where the sort and trim take 7-10 us (tiny ring reports)
            rows = self.rows[keep][None]
        else:  # non-units to -1, in front, then as many columns as the longest unit part
            rows = np.sort(np.where(keep, self.rows, -1), axis=1)
            rows = rows[:, rows.shape[1] - (rows >= 0).sum(axis=1).max() :]
        units = _Family(rows, self.mod)
        units._unit_rows = None  # its rows hold units only
        return units

    @_once
    def quotients(self) -> np.ndarray:  # read-only, of a family of units
        inverses = np.where(self.rows >= 0, _inverses(self.rows, self.mod), -1)
        return _freeze(_row_counts(self.prods, inverses, self.m, np.multiply, True))

    @_once
    def quads(self) -> list[int]:
        """J per row of a family of units: its quotient counts dotted with the difference counts of (A+A, A),
        exactly (_mv_dot: J reaches m |A|^2, past 2^63 at m = 10^7)."""
        minus = np.where(self.rows >= 0, -self.rows % self.m, -1)
        return list(map(_mv_dot, self.quotients, _row_counts(self.sums, minus, self.m)))


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
    d._fits
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
        stripped_zero=core.size != d.size,
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
    d._fits
    exact = d.quad_count
    rel_error = abs(d.spectral_quad_count - exact) / max(exact, 1)
    cs_lhs = float(np.sum(np.abs(d.spectrum) * np.abs(d.sums_spectrum)))
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
    d._fits
    m, units = d.m, d.units
    proper = d.modulus.divisors[:-1]

    def rest():  # all but the divisor rows, which read the unit part's spectrum
        rows = [parseval_bound(x, m // e) for e in proper for x in (units.a, units.sums)]
        return _all_of("parseval_bounds", rows), ring_bound_report(d)

    # The quotient counts, the step with the largest temporaries, come before the full set's A+A and AA
    # are held; their spectrum's transform runs beside rest, and only this thread touches derivations.
    parseval, rep = units._quotient_spectrum_beside(rest)
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
