import cmath
import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumprod import estimates, setops, spectra

from sumprod.estimates import (
    REL_SLACK,
    Derivation,
    divisor_square_bound,
    field_checks,
    parseval_bound,
    ring_bound_report,
    ring_checks,
    spectral_checks,
)
from sumprod.residues import make_modulus, residue_set
from sumprod.setops import indicator, sumset
from sumprod.sweeps import SweepConfig, run_sweep
from sumprod.spectra import (
    DIRECT_Q_LIMIT,
    DIRECT_WORK_LIMIT,
    _direct_dft,
    _fft_dft,
    dft_counts,
    dft_counts_beside,
    gcd_class_peaks,
    spectrum_of_set,
)

from oracles import (
    counts_mod,
    max_nontrivial,
    naive_dft,
    naive_parseval_sides,
    naive_quadruples,
    naive_quotient_counts,
    overlap_sets,
    random_subset,
)


def _set(m, elems):
    return residue_set(make_modulus(m), elems)


def _sum_counts(a):
    """counts[t] = #{(x, y) in A x A : x + y = t (mod m)}: a one-row family of setops._row_counts."""
    x = a.array[None]
    return setops._row_counts(x, x, a.modulus.m)[0]


def _quotient_counts(xs, a):
    """counts[t] = #{(x, y) in xs x a : x y^-1 = t (mod m)} for sets of units: quotients (np.divide), as the
    reports count them."""
    return setops._row_counts(xs.array[None], a.array[None], a.modulus.m, np.divide)[0]


def spectral_quadruple_count(a_set):
    return Derivation(a_set).spectral_quad_count


def _named(checks):
    return {c.name: c for c in checks}


def _vector(counts):
    """The counts as the stored form: a read-only int64 array."""
    counts = np.array(counts, dtype=np.int64)
    counts.setflags(write=False)
    return counts


def test_dft_examples():
    delta = spectrum_of_set(_set(11, [0]))
    assert np.allclose(delta, np.ones(11))
    assert delta.shape == (11,) and not delta.flags.writeable

    full = spectrum_of_set(_set(11, range(11)))
    assert full[0] == pytest.approx(11)
    assert np.allclose(full[1:], 0, atol=1e-9)

    nonzero = spectrum_of_set(_set(13, range(1, 13)))
    assert np.allclose(nonzero[1:], -1, atol=1e-9)


def test_dft_matches_naive_complex_sum():
    rng = np.random.default_rng(43)
    for m in (6, 12, 36, 97):
        mod = make_modulus(m)
        a = residue_set(mod, random_subset(rng, m, max(1, m // 3)))
        dense = _sum_counts(a)
        counts = {int(t): int(c) for t, c in enumerate(dense)}
        for q in mod.divisors[1:]:
            got = dft_counts(_vector(counts_mod(dense, q)))
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
    """Counts over Z_q with nnz nonzeros on a chosen side of the direct
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
    return side, q, nnz, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_dft_case())
@example(("direct", 4096, 16, 1))  # q and q * nnz at their limits
@example(("direct", 2048, 32, 2))
@example(("work_limit", 4096, 17, 3))
@example(("q_limit", 4097, 3, 4))
def test_dft_counts_property_on_both_sides_of_the_direct_limits(case):
    side, q, nnz, seed = case
    rng = np.random.default_rng(seed)
    counts = np.zeros(q, dtype=np.int64)
    counts[rng.choice(q, nnz, replace=False)] = rng.integers(1, 2000, nnz)
    counts = _vector(counts)
    with mock.patch.object(spectra, "_direct_dft", wraps=spectra._direct_dft) as direct, mock.patch.object(
        spectra, "_fft_dft", wraps=spectra._fft_dft
    ) as fft:
        got = dft_counts(counts)
    assert (direct.call_count, fft.call_count) == ((1, 0) if side == "direct" else (0, 1))
    nz = np.flatnonzero(counts)
    want = naive_dft(_reduced(dict(zip(nz.tolist(), counts[nz].tolist())), q), q)
    assert np.allclose(got, np.array(want), rtol=1e-9, atol=1e-9 * max(1, int(counts.sum())))


def test_amplitude_zero_equals_mass():
    rng = np.random.default_rng(53)
    for _ in range(40):
        m = int(rng.integers(2, 2000))
        a = _set(m, random_subset(rng, m, int(rng.integers(1, min(m, 60) + 1))))
        counts = _sum_counts(a)
        spec, mass = dft_counts(counts), int(counts.sum())
        assert abs(spec[0].real - mass) <= 1e-12 * max(mass, 1)
        assert abs(spec[0].imag) <= 1e-12 * max(mass, 1)


def test_parseval_identity_for_counts():
    rng = np.random.default_rng(59)
    for _ in range(30):
        m = int(rng.integers(2, 300))
        mod = make_modulus(m)
        a = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
        counts = _sum_counts(a)
        for q in mod.divisors[1:]:
            dense = counts_mod(counts, q)
            spec = dft_counts(_vector(dense))
            lhs = float(np.sum(np.abs(spec) ** 2))
            rhs = q * float(np.dot(dense, dense))
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_max_nontrivial_examples():
    # The per-period oracle and the divisor-1 entry of the grouped peaks.
    spec = spectrum_of_set(_set(13, range(1, 13)))
    freq, mag = max_nontrivial(spec)
    assert freq == 1 and mag == pytest.approx(1.0)
    assert gcd_class_peaks(spec).tolist() == [mag]

    delta = spectrum_of_set(_set(11, [0]))
    assert max_nontrivial(delta) == (1, pytest.approx(1.0))
    assert gcd_class_peaks(delta).tolist() == [max_nontrivial(delta)[1]]

    q = _quotient_counts(_set(5, [1, 2, 4]), _set(5, [1, 2]))
    _, mag = max_nontrivial(dft_counts(q))
    assert mag <= math.sqrt(5 * 3 * 2) * (1 + REL_SLACK)
    assert gcd_class_peaks(dft_counts(q)).tolist() == [mag]


def test_max_nontrivial_skips_noncoprime_frequencies():
    # multiples of 3 mod 9 have amplitude 3 at frequencies 3 and 6; both
    # are skipped because gcd(n, 9) > 1, and make up the class gcd = 3
    spec = spectrum_of_set(_set(9, [0, 3, 6]))
    freq, mag = max_nontrivial(spec)
    assert math.gcd(freq, 9) == 1
    assert mag == pytest.approx(0.0, abs=1e-9)
    coprime, threes = gcd_class_peaks(spec).tolist()
    assert coprime == mag and threes == pytest.approx(3.0)


def test_gcd_classes_equal_the_gcd_definition():
    for m in (2, 9, 36, 97, 720720):
        classes = setops._TABLES.read(m, setops._gcd_classes)
        freqs, starts, lengths = classes["freqs"], classes["starts"], classes["lengths"]
        k = np.arange(1, m, dtype=np.int64)
        g = np.gcd(k, m)
        # k sorted by gcd class, ascending within each class
        order = np.argsort(g, kind="stable")
        assert np.array_equal(np.arange(m)[freqs], k[order]), m
        divisors = make_modulus(m).divisors[:-1]
        assert np.array_equal(g[order][starts], divisors), m
        assert np.array_equal(starts, np.searchsorted(g[order], divisors)), m
        assert np.array_equal(lengths, np.diff(starts, append=m - 1)), m
        assert not starts.flags.writeable and not lengths.flags.writeable
        if not make_modulus(m).is_prime:
            assert freqs.dtype == np.int32 and not freqs.flags.writeable


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
        check = parseval_bound(a, m)
        assert check.lhs == m * a.size
        assert check.holds

    check = parseval_bound(_set(9, [0, 3, 6]), 3)
    assert (check.lhs, check.rhs, check.holds) == (27, 27, True)

    empty = parseval_bound(_set(9, []), 3)
    assert (empty.lhs, empty.rhs, empty.holds) == (0, 0, True)


def test_parseval_bound_holds_for_every_set():
    rng = np.random.default_rng(61)
    for _ in range(60):
        m = int(rng.integers(2, 250))
        mod = make_modulus(m)
        a = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
        for d in mod.divisors[:-1]:
            assert parseval_bound(a, m // d).holds


def test_parseval_bound_spectral_crosscheck():
    # the integer evaluation must equal the literal spectral power sum
    rng = np.random.default_rng(67)
    for _ in range(25):
        m = int(rng.integers(2, 150))
        mod = make_modulus(m)
        a = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
        full = spectrum_of_set(a)
        for q in mod.divisors:
            spec = full[:: m // q]  # S_q(n) = S_m(n m/q)
            power = float(np.sum(np.abs(spec) ** 2))
            check = parseval_bound(a, q)
            assert power == pytest.approx(check.lhs, rel=1e-9)


@st.composite
def _parseval_case(draw):
    """A subset of Z_m, m <= 5040: empty, sparse (at most 40 residues) or
    dense (all but at most 40), each with 0 put in or taken out."""
    m = draw(st.one_of(st.sampled_from((2, 12, 36, 720, 2520, 4096, 5039, 5040)), st.integers(2, 5040)))
    kind = draw(st.sampled_from(("empty", "sparse", "dense")))
    drawn = draw(st.sets(st.integers(0, m - 1), max_size=40))
    elems = set() if kind == "empty" else drawn if kind == "sparse" else set(range(m)) - drawn
    if kind != "empty":
        elems = elems | {0} if draw(st.booleans()) else elems - {0}
    return m, sorted(elems)


@settings(max_examples=100, deadline=None)
@given(_parseval_case())
@example((5040, list(range(5040))))  # equality on every period
@example((5040, []))
def test_parseval_bound_equals_the_class_size_oracle_on_every_period(case):
    m, a = case
    x = _set(m, a)
    for q in make_modulus(m).divisors:
        lhs, rhs = naive_parseval_sides(a, q, m)
        check = parseval_bound(x, q)
        assert (check.name, check.lhs, check.rhs, check.holds) == (f"parseval q={q}", lhs, rhs, True)
        assert type(check.lhs) is int and type(check.rhs) is int


def test_parseval_bound_rejects_a_period_that_does_not_divide_m():
    x = _set(12, [1, 5])
    for q in (0, -3, 5, 24):
        with pytest.raises(ValueError, match=f"period {q} does not divide the modulus 12"):
            parseval_bound(x, q)
    assert [parseval_bound(x, q).lhs for q in (1, 2, 3, 4, 6, 12)] == [4, 8, 6, 16, 12, 24]


def test_ring_chain_builds_no_indicator(monkeypatch):
    # Parseval reads the set itself; only a set's spectrum builds an indicator.
    built, original = [], setops.indicator

    def spy(a_set):
        built.append(a_set.modulus.m)
        return original(a_set)

    for module in (setops, spectra):
        monkeypatch.setattr(module, "indicator", spy)
    assert not hasattr(estimates, "indicator")
    rng = np.random.default_rng(97)
    for m, size in ((36, 20), (101, 50), (720, 300), (3600, 400)):
        a = _set(m, random_subset(rng, m, size))
        d = Derivation(a)
        assert len(ring_checks(d)) == 6
        ring_bound_report(d)
        ring_bound_report(a)
        ring_checks(a)
    assert built == []
    spectral_checks(_set(101, [1, 2, 5]))  # the spy sees A and A+A
    assert built == [101, 101]


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
            units = Derivation(a).units
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
                fresh = max_nontrivial(dft_counts(_vector(counts_mod(d.quotients, m // e))))[1]
                # a peak that is 0 in exact arithmetic reads as transform
                # rounding noise, which scales with the mass of the counts
                noise = 1e-12 * int(d.quotients.sum())
                assert math.sqrt(row.lhs) == pytest.approx(fresh, rel=1e-12, abs=noise), (m, size, e)
                assert row.holds == (fresh * fresh <= row.rhs * (1 + REL_SLACK))
                rows.append(row.holds)
            assert _named(ring_checks(d))["divisor_square_bound"].holds == all(rows)


def _spy_on_transforms(monkeypatch):
    """Record each transform as (path, whether it ran on the main thread)."""
    calls = []
    for path, name in (("direct", "_direct_dft"), ("fft", "_fft_dft")):
        def spy(*args, _real=getattr(spectra, name), _path=path):
            calls.append((_path, threading.current_thread() is threading.main_thread()))
            return _real(*args)

        monkeypatch.setattr(spectra, name, spy)
    return calls


@pytest.mark.parametrize("m", [4096, 4097, 5040, 65536, 720720])
def test_ring_checks_are_the_same_on_one_and_two_cpus(monkeypatch, m):
    calls, paths = _spy_on_transforms(monkeypatch), set()
    for elems in overlap_sets(m, m):
        seen = {}
        for cpus in (1, 2):
            monkeypatch.setattr(spectra, "_usable_cpus", lambda: cpus)
            calls.clear()
            d = Derivation(_set(m, elems.tolist()))
            checks = [(c.name, c.lhs, c.rhs, c.holds) for c in ring_checks(d)]
            seen[cpus] = checks, ring_bound_report(d)
            # one transform per report, off the main thread exactly when gated in
            ((path, on_main),) = calls
            assert on_main == (path == "direct" or cpus == 1), (m, path, cpus)
            paths.add(path)
        assert seen[1] == seen[2]
    assert paths == ({"direct", "fft"} if m == DIRECT_Q_LIMIT else {"fft"})


def test_ring_checks_reuse_a_quotient_spectrum_already_built(monkeypatch):
    calls = _spy_on_transforms(monkeypatch)
    d = Derivation(_set(5040, overlap_sets(5040, 3)[0].tolist()))
    spectrum = d.quotient_spectrum
    ring_checks(d)
    assert d.quotient_spectrum is spectrum and len(calls) == 1


def test_dft_counts_beside_joins_its_worker_on_either_failure(monkeypatch):
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 2)
    counts, before = _vector(np.arange(DIRECT_Q_LIMIT + 1) % 7), threading.active_count()
    spectrum, done = dft_counts_beside(counts, lambda: "done")
    assert done == "done" and not spectrum.flags.writeable
    assert spectrum.tobytes() == dft_counts(counts).tobytes()  # the same transform, bit for bit

    def fail():
        raise MemoryError("work")

    with pytest.raises(MemoryError, match="work"):
        dft_counts_beside(counts, fail)
    assert threading.active_count() == before

    def exhausted(*args):
        raise MemoryError("transform")

    monkeypatch.setattr(spectra, "_fft_dft", exhausted)
    with pytest.raises(MemoryError, match="transform"):
        dft_counts_beside(counts, lambda: None)
    assert threading.active_count() == before


def test_field_reports_and_sweeps_transform_on_the_calling_thread(monkeypatch):
    calls = _spy_on_transforms(monkeypatch)
    monkeypatch.setattr(spectra, "_usable_cpus", lambda: 2)
    field_checks(_set(10007, range(1, 400)))
    run_sweep(SweepConfig(16384, "ring", (64,), 2, 5), threads=1)
    assert calls and all(on_main for _, on_main in calls)


_PRIMES = (2, 3, 5, 7, 11, 13, 101, 499, 4093, 5039)
_PRIME_POWERS = (4, 8, 9, 16, 25, 27, 32, 49, 81, 121, 125, 128, 243, 343, 625, 729, 1024, 2187, 3125, 4096)
_TWICE_ODD = (6, 10, 14, 18, 22, 30, 42, 50, 90, 126, 198, 210, 462, 1170, 2310, 4998)
_HIGHLY_COMPOSITE = (12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840, 1260, 1680, 2520, 5040)


@st.composite
def _peak_case(draw):
    """Counts over Z_m: all zero, the indicator of a symmetric set (A = -A,
    so |S(k)| = |S(-k)| and classes hold exact or near ties), the
    indicator of any set, or the quotient counts of a set of units."""
    m = draw(st.sampled_from(_PRIMES + _PRIME_POWERS + _TWICE_ODD + _HIGHLY_COMPOSITE))
    kind = draw(st.sampled_from(("zero", "symmetric", "set", "quotients")))
    elems = sorted(draw(st.sets(st.integers(0, m - 1), max_size=60)))
    if kind == "zero":
        return m, kind, np.zeros(m, dtype=np.int64)
    if kind == "symmetric":
        elems = sorted(set(elems) | {-x % m for x in elems})
    if kind == "quotients":
        units = _set(m, [x for x in elems if math.gcd(x, m) == 1])
        return m, kind, _quotient_counts(units, units)
    return m, kind, indicator(_set(m, elems))


@settings(max_examples=300, deadline=None)
@given(_peak_case())
@example((36, "symmetric", indicator(_set(36, [1, 35, 5, 31, 6, 30]))))
@example((5040, "zero", np.zeros(5040, dtype=np.int64)))
def test_gcd_class_peaks_equal_the_per_period_oracle_bit_for_bit(case):
    m, kind, counts = case
    spectrum = dft_counts(_vector(counts))
    peaks = gcd_class_peaks(spectrum)
    divisors = make_modulus(m).divisors[:-1]
    assert peaks.shape == (len(divisors),)
    # The row at period m/d reads every d-th amplitude of the one spectrum.
    want = [max_nontrivial(spectrum[::d])[1] for d in divisors]
    assert peaks.tolist() == want, (m, kind)
    if kind == "zero":
        assert not peaks.any()


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
