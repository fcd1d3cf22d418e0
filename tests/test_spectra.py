import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumprod import spectra

from sumprod.estimates import (
    REL_SLACK,
    Derivation,
    divisor_square_bound,
    parseval_bound,
    ring_checks,
    spectral_checks,
)
from sumprod.residues import make_modulus, residue_set, unit_part
from sumprod.setops import MultiplicityVector, additive_rep, indicator, sumset, unit_quotient_rep
from sumprod.spectra import (
    DIRECT_Q_LIMIT,
    DIRECT_WORK_LIMIT,
    _coprime_frequencies,
    _direct_dft,
    _fft_dft,
    dft_counts,
    max_nontrivial,
    spectrum_of_set,
)

from oracles import naive_dft, naive_quadruples, naive_quotient_counts, random_subset


def _set(m, elems):
    return residue_set(make_modulus(m), elems)


def spectral_quadruple_count(a_set):
    return Derivation(a_set).spectral_quad_count


def parseval_bound_check(a_set, q):
    return parseval_bound(indicator(a_set), q)


def _named(checks):
    return {c.name: c for c in checks}


def test_dft_examples():
    delta = spectrum_of_set(_set(11, [0]))
    assert np.allclose(delta.amplitudes, np.ones(11))

    full = spectrum_of_set(_set(11, range(11)))
    assert full.amplitudes[0] == pytest.approx(11)
    assert np.allclose(full.amplitudes[1:], 0, atol=1e-9)

    nonzero = spectrum_of_set(_set(13, range(1, 13)))
    assert np.allclose(nonzero.amplitudes[1:], -1, atol=1e-9)


def test_dft_rejects_bad_period():
    mv = indicator(_set(12, [1, 5]))
    with pytest.raises(ValueError):
        dft_counts(mv, 5)
    for q in (1, 2, 3, 4, 6, 12):
        assert dft_counts(mv, q).period == q


def test_dft_matches_naive_complex_sum():
    rng = np.random.default_rng(43)
    for m in (6, 12, 36, 97):
        mod = make_modulus(m)
        a = residue_set(mod, random_subset(rng, m, max(1, m // 3)))
        mv = additive_rep(a, a, 1)
        counts = {int(t): int(c) for t, c in enumerate(mv.dense_mod(m))}
        for q in [d for d in mod.divisors]:
            got = dft_counts(mv, q).amplitudes
            want = naive_dft({t % q: 0 for t in range(q)} | _reduced(counts, q), q)
            assert np.allclose(got, np.array(want), rtol=1e-9, atol=1e-9)


def _reduced(counts, q):
    out = {}
    for t, c in counts.items():
        out[t % q] = out.get(t % q, 0) + c
    return out


def test_direct_and_fft_paths_agree():
    rng = np.random.default_rng(47)
    for q in (499, 4096, 8192, 9973):
        dense = np.zeros(q, dtype=np.int64)
        support = rng.choice(q, size=q // 7 + 1, replace=False)
        dense[support] = rng.integers(1, 50, size=support.size)
        direct = _direct_dft(dense)
        fast = _fft_dft(dense)
        scale = max(1.0, float(np.abs(direct).max()))
        assert np.max(np.abs(direct - fast)) <= 1e-9 * scale


@st.composite
def _dft_case(draw):
    """Counts over Z_m and a period q | m on a chosen side of the direct
    path's limits: q <= DIRECT_Q_LIMIT with q * nnz <= DIRECT_WORK_LIMIT
    (direct), q above DIRECT_Q_LIMIT, or q * nnz above DIRECT_WORK_LIMIT."""
    side = draw(st.sampled_from(("direct", "q_limit", "work_limit")))
    if side == "q_limit":
        q = draw(st.integers(DIRECT_Q_LIMIT + 1, DIRECT_Q_LIMIT + 64))
        nnz = draw(st.integers(0, 12))
    else:
        q = draw(st.integers(2, DIRECT_Q_LIMIT))
        edge = DIRECT_WORK_LIMIT // q  # the most nonzeros the direct path takes
        if side == "direct":
            nnz = draw(st.integers(0, min(q, edge, 40)))
        else:
            q = max(q, DIRECT_WORK_LIMIT // 40)
            nnz = draw(st.integers(DIRECT_WORK_LIMIT // q + 1, min(q, DIRECT_WORK_LIMIT // q + 12)))
    m = q * draw(st.sampled_from((1, 1, 2, 3)))
    return side, m, q, nnz, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_dft_case())
@example(("direct", 4096, 4096, 16, 1))  # q and q * nnz at their limits
@example(("direct", 6144, 2048, 32, 2))
@example(("work_limit", 8192, 4096, 17, 3))
@example(("q_limit", 4097, 4097, 3, 4))
def test_dft_counts_property_on_both_sides_of_the_direct_limits(case):
    side, m, q, nnz, seed = case
    rng = np.random.default_rng(seed)
    counts = np.zeros(m, dtype=np.int64)
    # nnz distinct residues mod q, each hit by one or two residues mod m.
    for r in rng.choice(q, nnz, replace=False).tolist():
        for k in rng.choice(m // q, min(m // q, 2), replace=False).tolist():
            counts[r + k * q] = rng.integers(1, 1000)
    mv = MultiplicityVector(make_modulus(m), counts, int(counts.sum()))
    with mock.patch.object(spectra, "_direct_dft", wraps=spectra._direct_dft) as direct, mock.patch.object(
        spectra, "_fft_dft", wraps=spectra._fft_dft
    ) as fft:
        got = dft_counts(mv, q).amplitudes
    assert (direct.call_count, fft.call_count) == ((1, 0) if side == "direct" else (0, 1))
    nz = np.flatnonzero(counts)
    want = naive_dft(_reduced(dict(zip(nz.tolist(), counts[nz].tolist())), q), q)
    assert np.allclose(got, np.array(want), rtol=1e-9, atol=1e-9 * max(1, mv.total_mass))


def test_amplitude_zero_equals_mass():
    rng = np.random.default_rng(53)
    for _ in range(40):
        m = int(rng.integers(2, 2000))
        a = _set(m, random_subset(rng, m, int(rng.integers(1, min(m, 60) + 1))))
        mv = additive_rep(a, a, 1)
        spec = dft_counts(mv, m)
        assert abs(spec.amplitudes[0].real - mv.total_mass) <= 1e-12 * max(mv.total_mass, 1)
        assert abs(spec.amplitudes[0].imag) <= 1e-12 * max(mv.total_mass, 1)


def test_parseval_identity_for_counts():
    rng = np.random.default_rng(59)
    for _ in range(30):
        m = int(rng.integers(2, 300))
        mod = make_modulus(m)
        a = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
        mv = additive_rep(a, a, 1)
        for q in mod.divisors:
            spec = dft_counts(mv, q)
            dense = mv.dense_mod(q)
            lhs = float(np.sum(np.abs(spec.amplitudes) ** 2))
            rhs = q * float(np.dot(dense, dense))
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_max_nontrivial_examples():
    spec = spectrum_of_set(_set(13, range(1, 13)))
    freq, mag = max_nontrivial(spec)
    assert freq == 1 and mag == pytest.approx(1.0)

    delta = spectrum_of_set(_set(11, [0]))
    assert max_nontrivial(delta) == (1, pytest.approx(1.0))

    mod5 = make_modulus(5)
    q = unit_quotient_rep(_set(5, [1, 2, 4]), _set(5, [1, 2]))
    _, mag = max_nontrivial(dft_counts(q, 5))
    assert mag <= math.sqrt(5 * 3 * 2) * (1 + REL_SLACK)


def test_max_nontrivial_skips_noncoprime_frequencies():
    # multiples of 3 mod 9 have amplitude 3 at frequencies 3 and 6; both
    # are skipped because gcd(n, 9) > 1
    spec = spectrum_of_set(_set(9, [0, 3, 6]))
    freq, mag = max_nontrivial(spec)
    assert math.gcd(freq, 9) == 1
    assert mag == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        max_nontrivial(dft_counts(indicator(_set(4, [1])), 1))


def test_coprime_frequencies_equal_the_gcd_definition():
    m = 720720
    for q in make_modulus(m).divisors[1:]:
        freqs = np.arange(1, q, dtype=np.int64)
        want = freqs[np.gcd(freqs, q) == 1]
        got = _coprime_frequencies(q)
        assert got.dtype == want.dtype and np.array_equal(got, want), q


def test_spectral_quadruple_count_examples():
    assert spectral_quadruple_count(_set(5, [1, 2])) == pytest.approx(9.0, rel=1e-9)
    assert spectral_quadruple_count(_set(11, [4])) == pytest.approx(1.0, rel=1e-9)
    full = _set(7, range(1, 7))
    assert spectral_quadruple_count(full) == pytest.approx(naive_quadruples(list(range(1, 7)), 7), rel=1e-9)
    with pytest.raises(ValueError):
        spectral_quadruple_count(_set(5, [0, 1]))
    with pytest.raises(ValueError):
        spectral_quadruple_count(_set(9, [1, 2]))


def test_parseval_bound_examples():
    # distinct residues at full period: exact equality m|A|
    for m in (5, 12, 60, 100):
        a = _set(m, range(0, m, 2) if m > 2 else [1])
        check = parseval_bound_check(a, m)
        assert check.lhs == m * a.size
        assert check.holds

    check = parseval_bound_check(_set(9, [0, 3, 6]), 3)
    assert (check.lhs, check.rhs, check.holds) == (27, 27, True)

    empty = parseval_bound_check(_set(9, []), 3)
    assert (empty.lhs, empty.rhs, empty.holds) == (0, 0, True)


def test_parseval_bound_holds_for_every_set():
    rng = np.random.default_rng(61)
    for _ in range(60):
        m = int(rng.integers(2, 250))
        mod = make_modulus(m)
        a = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
        for d in mod.divisors[:-1]:
            assert parseval_bound_check(a, m // d).holds


def test_parseval_bound_spectral_crosscheck():
    # the integer evaluation must equal the literal spectral power sum
    rng = np.random.default_rng(67)
    for _ in range(25):
        m = int(rng.integers(2, 150))
        mod = make_modulus(m)
        a = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
        for q in mod.divisors:
            spec = dft_counts(indicator(a), q)
            power = float(np.sum(np.abs(spec.amplitudes) ** 2))
            check = parseval_bound_check(a, q)
            assert power == pytest.approx(check.lhs, rel=1e-9)


def test_divisor_bound_checks_prime_is_complete_sum_bound():
    rng = np.random.default_rng(71)
    for p in (11, 31, 101):
        mod = make_modulus(p)
        for _ in range(10):
            a = residue_set(mod, random_subset(rng, p, int(rng.integers(1, p)), exclude_zero=True))
            d = Derivation(a)
            assert mod.divisors[:-1] == (1,)
            row = divisor_square_bound(d, 1)
            # the divisor-1 row is the complete-sum cap p |AA| |A|, squared
            assert row.rhs == p * d.prods.size * a.size
            assert row.holds


def test_divisor_bound_checks_composite():
    rng = np.random.default_rng(73)
    for m in (9, 12, 36, 100, 121):
        mod = make_modulus(m)
        for _ in range(10):
            a = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
            units = Derivation(unit_part(a))
            rows = [divisor_square_bound(units, e) for e in mod.divisors[:-1]]
            assert all(r.holds for r in rows)
            assert _named(ring_checks(a))["divisor_square_bound"].holds


def test_divisor_rows_sliced_from_the_full_spectrum_equal_fresh_transforms():
    rng = np.random.default_rng(89)
    for m in (720, 3600, 5040):
        mod = make_modulus(m)
        units = [x for x in range(m) if math.gcd(x, m) == 1]
        for size in (1, 7, len(units) // 3, len(units)):
            d = Derivation(residue_set(mod, rng.choice(units, size, replace=False).tolist()))
            rows = []
            for e in mod.divisors[:-1]:
                row = divisor_square_bound(d, e)
                fresh = max_nontrivial(dft_counts(d.quotients, m // e))[1]
                # a peak that is 0 in exact arithmetic reads as transform
                # rounding noise, which scales with the mass of the counts
                noise = 1e-12 * d.quotients.total_mass
                assert math.sqrt(row.lhs) == pytest.approx(fresh, rel=1e-12, abs=noise), (m, size, e)
                assert row.holds == (fresh * fresh <= row.rhs * (1 + REL_SLACK))
                rows.append(row.holds)
            assert _named(ring_checks(d))["divisor_square_bound"].holds == all(rows)


def test_cauchy_schwarz_check_random():
    rng = np.random.default_rng(79)
    for p in (11, 101, 499):
        mod = make_modulus(p)
        for _ in range(8):
            a = residue_set(mod, random_subset(rng, p, int(rng.integers(1, p)), exclude_zero=True))
            s = sumset(a, a)
            check = _named(spectral_checks(a))["cauchy_schwarz"]
            assert check.holds
            assert check.rhs == pytest.approx(p * math.sqrt(a.size * s.size))


def test_ring_fourier_diagnostics():
    # the divisor-1 row of the unit part, squared and unsquared
    a = Derivation(_set(9, [0, 3, 6])).units
    assert a.size == 0
    row = divisor_square_bound(a, 1)
    assert (row.lhs, row.rhs) == (0.0, 0.0)
    assert (a.peak, math.sqrt(a.cap_sq)) == (0.0, 0.0)
    b = Derivation(_set(9, [1, 2, 5])).units
    row = divisor_square_bound(b, 1)
    assert 0 < row.lhs <= row.rhs * (1 + REL_SLACK)
    assert 0 < b.peak <= math.sqrt(b.cap_sq) * (1 + REL_SLACK)
