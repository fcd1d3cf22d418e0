import gc
import math
import weakref
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumprod import setops, spectra
from sumprod.estimates import (
    Derivation,
    _Family,
    _mv_dot,
    field_bound_report,
    field_checks,
    field_constant,
    master_inequality,
    ring_bound_report,
    ring_checks,
    ring_constant,
    spectral_checks,
    zm_extremal,
)
from sumprod.residues import make_modulus, residue_set

from oracles import (
    count_quadruples_bruteforce,
    naive_productset,
    naive_quadruples,
    naive_sumset,
    random_subset,
)


def _set(m, elems):
    return residue_set(make_modulus(m), elems)


def count_quadruples(a_set):
    return Derivation(a_set).quad_count


def _named(checks):
    return {c.name: c for c in checks}


def test_count_quadruples_examples():
    assert count_quadruples(_set(5, [1, 2])) == 9
    assert count_quadruples(_set(11, [4])) == 1
    assert count_quadruples(_set(3, [1])) == 1
    with pytest.raises(ValueError):
        count_quadruples(_set(5, [0, 1]))
    with pytest.raises(ValueError):
        count_quadruples(_set(9, [1]))


def test_bruteforce_examples():
    assert count_quadruples_bruteforce(_set(5, [1, 2])) == 9
    assert count_quadruples_bruteforce(_set(3, [1])) == 1
    huge = _set(499, range(1, 499))
    with pytest.raises(ValueError, match="cap"):
        count_quadruples_bruteforce(huge)


def test_counting_agreement_smoke():
    rng = np.random.default_rng(83)
    for _ in range(40):
        p = int(rng.choice([5, 7, 11, 13, 31]))
        a = random_subset(rng, p, int(rng.integers(1, min(p - 1, 6) + 1)), exclude_zero=True)
        s = _set(p, a)
        exact = count_quadruples(s)
        assert exact == count_quadruples_bruteforce(s)
        assert exact == naive_quadruples(a, p)
        assert exact >= len(a) ** 3


def test_quad_count_above_two_to_the_twenty_matches_bruteforce():
    # Above 2^20, where counts were once dicts, J is a dot of dense counts.
    rng = np.random.default_rng(97)
    p = (1 << 20) + 7
    a = _set(p, random_subset(rng, p, 30, exclude_zero=True))
    assert field_bound_report(a).quad_count == count_quadruples_bruteforce(a)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blocked_dot_is_exact_past_int64(seed):
    # Counts of at most 2^31 (the largest a count can be) whose dot passes
    # 2^63, where one int64 dot would wrap.
    rng = np.random.default_rng(seed)
    m = 720
    top = 1 << 31
    x = rng.integers(0, top, m, endpoint=True)
    y = rng.integers(0, top, m, endpoint=True)
    x[:8] = y[:8] = top
    want = sum(int(s) * int(t) for s, t in zip(x.tolist(), y.tolist()))
    assert want >= 1 << 63 and int(np.dot(x, y)) != want
    x.setflags(write=False)
    y.setflags(write=False)
    assert _mv_dot(x, y) == want


def test_field_report_full_field():
    rep = field_bound_report(_set(7, range(7)))
    assert (rep.size_a, rep.size_sum, rep.size_prod) == (7, 7, 7)
    assert rep.lhs == 49
    assert rep.bound == pytest.approx(49.0)
    assert rep.ratio == pytest.approx(1.0)
    assert rep.stripped_zero
    assert rep.quad_lower == 6**3
    assert rep.quad_count == naive_quadruples(list(range(1, 7)), 7)
    assert rep.quad_count >= rep.quad_lower


def test_field_report_small_example():
    rep = field_bound_report(_set(5, [1, 2]))
    assert (rep.size_sum, rep.size_prod) == (3, 3)
    assert rep.lhs == 9
    assert rep.bound == pytest.approx(3.2)
    assert rep.ratio == pytest.approx(2.8125)
    assert not rep.stripped_zero
    assert rep.quad_count == 9 and rep.quad_lower == 8
    assert rep.fourier_max <= rep.fourier_cap
    assert rep.fourier_cap == pytest.approx(math.sqrt(5 * 3 * 2))


def test_field_report_singleton_and_zero():
    rep = field_bound_report(_set(13, [4]))
    assert rep.lhs == 1
    assert rep.bound == pytest.approx(1 / 13)
    assert rep.ratio == pytest.approx(13.0)

    zero_only = field_bound_report(_set(13, [0]))
    assert zero_only.stripped_zero
    assert zero_only.lhs == 1
    assert zero_only.quad_count == 0 and zero_only.quad_lower == 0
    assert zero_only.fourier_max == 0.0 and zero_only.fourier_cap == 0.0

    with pytest.raises(ValueError):
        field_bound_report(_set(13, []))
    with pytest.raises(ValueError):
        field_bound_report(_set(12, [1]))


@pytest.mark.parametrize("checks", [field_checks, ring_checks, spectral_checks])
def test_every_check_list_refuses_an_empty_set(checks):
    with pytest.raises(ValueError, match="^empty set$"):
        checks(_set(13, []))


def test_field_constant_exhaustive_p5():
    p = 5
    worst = math.inf
    for k in range(1, p):
        for combo in combinations(range(1, p), k):
            rep = field_bound_report(_set(p, combo))
            assert field_constant(p, rep.size_a, rep.lhs).holds
            worst = min(worst, rep.ratio)
    assert worst >= 0.25


def test_master_inequality_random():
    rng = np.random.default_rng(89)
    for p in (11, 101, 499):
        for _ in range(25):
            a = _set(p, random_subset(rng, p, int(rng.integers(1, p)), exclude_zero=True))
            check = _named(field_checks(a))["master_inequality"]
            assert check.holds
            # lhs is |A|^3, rhs the main plus the off-diagonal term
            assert check.lhs == a.size**3
            assert check.lhs <= check.rhs * (1 + 1e-9)


def test_master_inequality_exact_form():
    assert master_inequality(5, 2, 3, 3).holds
    # fabricated sizes violating the inequality must be caught
    assert not master_inequality(101, 100, 1, 1).holds


def test_ring_report_multiples_of_three():
    rep = ring_bound_report(_set(9, [0, 3, 6]))
    assert rep.d0 == 3
    assert rep.size_unit_a == 0
    assert (rep.size_sum, rep.size_prod, rep.lhs) == (3, 1, 3)
    assert rep.divisor_halfpower_sum == pytest.approx(1 + math.sqrt(3))
    assert rep.term_ma == pytest.approx(27.0)
    assert rep.term_ring == pytest.approx(1.2057713659400522, rel=1e-12)
    assert rep.bound == pytest.approx(1.2057713659400522, rel=1e-12)
    assert rep.ratio == pytest.approx(2.488033871712585, rel=1e-12)
    assert rep.branch == "trivial_d0"
    assert rep.nonunit_count == 3


def test_d0_of_the_empty_set_is_the_modulus():
    # No element: the minimum gcd starts at m, as a padding entry reads.
    assert Derivation(residue_set(make_modulus(9), [])).d0 == 9


def test_ring_report_prime_degenerates_to_field_terms():
    rng = np.random.default_rng(97)
    for p in (7, 31, 101):
        a = _set(p, random_subset(rng, p, max(2, p // 4)))
        ring = ring_bound_report(a)
        field = field_bound_report(a)
        assert ring.divisor_halfpower_sum == 1.0
        assert ring.term_ring == pytest.approx(field.term_a4p)
        assert ring.term_ma == pytest.approx(field.term_pa)
        assert ring.lhs == field.lhs


def test_ring_report_full_ring():
    rep = ring_bound_report(_set(12, range(12)))
    assert rep.lhs == 144
    assert rep.ratio >= 1 / 64
    assert ring_constant(rep.lhs, rep.bound).holds


def test_ring_branch_unit_reduced():
    # |A|^2 = 2500 > 4 * 101 * 1 = 404 forces the unit-reduction branch
    rep = ring_bound_report(_set(101, range(1, 51)))
    assert rep.branch == "unit_reduced"
    assert 2 * rep.size_unit_a > rep.size_a
    checks = ring_checks(_set(101, range(1, 51)))
    assert _named(checks)["unit_majority"].holds
    assert all(c.holds for c in checks)


def test_nonunit_bound_examples():
    # the grouped check shows its tightest member: divisor cap <= sqrt cap
    rep = ring_bound_report(_set(9, [1, 3]))
    check = _named(ring_checks(_set(9, [1, 3])))["nonunit_caps"]
    assert (rep.d0, rep.nonunit_count, check.lhs) == (1, 1, 4)
    assert check.rhs == pytest.approx(3 * (1 + math.sqrt(3)))
    assert check.holds

    prime = ring_bound_report(_set(13, [1, 5, 7]))
    assert prime.nonunit_count == 0

    full = ring_bound_report(_set(12, range(12)))
    check = _named(ring_checks(_set(12, range(12))))["nonunit_caps"]
    assert full.nonunit_count == 12 - 4  # 12 - phi(12)
    assert check.lhs == 16
    assert check.holds


def test_ring_proof_checks_random():
    rng = np.random.default_rng(101)
    for m in (4, 6, 9, 12, 36, 100):
        mod = make_modulus(m)
        for _ in range(10):
            a = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
            assert all(c.holds for c in ring_checks(a))


def test_ring_constant_random():
    rng = np.random.default_rng(103)
    for m in (4, 6, 9, 12, 36, 100, 121):
        mod = make_modulus(m)
        for _ in range(30):
            a = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
            rep = ring_bound_report(a)
            assert ring_constant(rep.lhs, rep.bound).holds


def test_zm_extremal_small_primes():
    ex = zm_extremal(3)
    assert sorted(ex.a.elements) == [0, 3, 6]
    assert (ex.size_a, ex.size_sum, ex.size_prod) == (3, 3, 1)

    assert (zm_extremal(2).size_a, zm_extremal(2).size_sum, zm_extremal(2).size_prod) == (2, 2, 1)
    assert (zm_extremal(5).size_a, zm_extremal(5).size_sum, zm_extremal(5).size_prod) == (5, 5, 1)

    with pytest.raises(ValueError):
        zm_extremal(4)
    with pytest.raises(ValueError):
        zm_extremal(65537)  # 65537^2 > 2^31


def test_zm_extremal_matches_direct_computation():
    for p in (2, 3, 5, 7, 11):
        ex = zm_extremal(p)
        m = p * p
        elems = set(range(0, m, p))
        assert ex.a.elements == elems
        assert len(naive_sumset(elems, elems, m)) == p
        assert len(naive_productset(elems, elems, m)) == 1
        assert 1 / 64 <= ex.ratio <= 16


def test_derivation_is_freed_when_dropped(monkeypatch):
    # no reference cycle may keep a derivation's arrays alive until a
    # garbage collection runs; at m = 65536 the transform runs beside the report
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 2)
    gc.disable()
    try:
        family = _Family(np.array([[-1, 2, 4, 6], [1, 2, 5, 7], [0, 3, 9, 30]]), make_modulus(36))
        sets = (_set(101, range(1, 30)), _set(101, range(0, 30)), _set(36, range(0, 20)), _set(65536, range(0, 40)))
        for a in (*sets, 0, 1, 2):  # then the row views of one family, one row without units
            d = family.view(a) if isinstance(a, int) else Derivation(a)
            if d.modulus.is_prime:
                field_checks(d)
            ring_checks(d)
            ref = weakref.ref(d)
            del d
            assert ref() is None
        ref = weakref.ref(family)
        del family
        assert ref() is None
    finally:
        gc.enable()


def _padded(rows):
    """A family's rows: each ascending, padded in front with -1 to the longest (one row: unpadded)."""
    width = max(map(len, rows))
    return np.array([[-1] * (width - len(row)) + sorted(row) for row in rows], dtype=np.int64)


@st.composite
def _family_case(draw):
    """Rows of one family over a prime or a ring, of one size or several. Rows may hold 0, and at m = 36
    a row may hold only multiples of 2 or 3, so that its unit part is empty."""
    m = draw(st.sampled_from((7, 13, 101, 36, 60, 97)))
    size = draw(st.integers(1, min(m - 1, 14)))
    pool = [x for x in range(m) if x % 2 == 0 or x % 3 == 0] if m == 36 and draw(st.booleans()) else range(m)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        k = size if draw(st.booleans()) else draw(st.integers(1, size))
        rows.append(draw(st.lists(st.sampled_from(pool), min_size=min(k, len(pool)), max_size=k, unique=True)))
    return m, rows


def _all_checks(d):
    """Every report and check of a derivation: (name, result or the error it raised), ring_checks first."""
    out = []
    for name, run in (("ring_checks", ring_checks), ("ring_bound_report", ring_bound_report),
                      ("field_checks", field_checks), ("field_bound_report", field_bound_report),
                      ("spectral_checks", spectral_checks)):
        if name.startswith(("field", "spectral")) and not d.modulus.is_prime:
            continue
        if name == "spectral_checks" and 0 in d.a:
            continue
        try:
            out.append((name, run(d)))
        except ValueError as exc:
            out.append((name, repr(exc)))
    return out


@settings(max_examples=150, deadline=None)
@given(_family_case(), st.sampled_from((None, True, False)))
@example((36, [[2, 3, 4], [1, 5, 7], [0, 6, 30]]), None)  # a row without units beside rows of units
@example((36, [[2, 3, 4, 6, 9]]), False)  # one row, no units
@example((101, [[0, 1, 2], [3, 4, 5]]), None)  # a row with 0 beside a zero-free row
@example((101, [list(range(1, 60)), list(range(40, 99))]), True)  # both transformed
def test_family_row_views_match_single_set_derivations(case, force):
    # Each row's view of one family gives every report and check of the row's own Derivation, exactly,
    # on the real side of the FFT gate (None) or either forced side.
    m, rows = case
    mod = make_modulus(m)
    with mock.patch.object(setops, "_fft_pays", return_value=force) if force is not None else mock.MagicMock():
        family = _Family(_padded(rows), mod)
        for r, row in enumerate(rows):
            view, single = family.view(r), Derivation(residue_set(mod, row))
            assert view.a == single.a
            assert _all_checks(view) == _all_checks(single)
