import gc
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumprod import setops
from sumprod.estimates import Derivation, field_bound_report, ring_bound_report, ring_checks
from sumprod.extremal import build_extremal
from sumprod.residues import NonInvertibleError, find_generator, make_modulus, residue_set
from sumprod.setops import BITSET_LIMIT, indicator, productset, sumset

from oracles import (
    convolved_sumset,
    naive_additive_counts,
    naive_dilate,
    naive_dlog_table,
    naive_product_counts,
    naive_productset,
    naive_quotient_counts,
    naive_sumset,
    random_subset,
    smallest_primitive_root,
)


def _set(m, elems):
    return residue_set(make_modulus(m), elems)


def _assert_stored_form(s, m):
    """s.array is the stored form: strictly increasing int64 in [0, m), read-only."""
    arr = s.array
    assert arr.dtype == np.int64 and not arr.flags.writeable
    assert np.all(np.diff(arr) > 0)
    assert arr.size == 0 or (arr[0] >= 0 and arr[-1] < m)


def _whole(*shape):
    """The transform lengths of whole axes (no window) of Z_n1 x ... x Z_nr."""
    return list(setops._whole(shape)[1])


def _counts_dict(counts, m):
    """The nonzero counts; the stored form is a read-only int64 array of
    length m."""
    assert counts.dtype == np.int64 and counts.shape == (m,)
    assert not counts.flags.writeable
    nz = np.flatnonzero(counts)
    return dict(zip(nz.tolist(), counts[nz].tolist()))


def _support(counts):
    return set(np.flatnonzero(counts).tolist())


def _sums(a, b, sign):
    """counts[t] = #{(x, y) in a x b : x + sign*y = t (mod m)}, read-only: the one-row family of
    setops._row_counts, np.subtract for sign -1, and y the same row as x for a set with itself."""
    x = a.array[None]
    y = x if b is a else b.array[None]
    return setops._freeze(setops._row_counts(x, y, a.modulus.m, np.add if sign == 1 else np.subtract)[0])


def _quotients(xs, a):
    """counts[t] = #{(x, y) in xs x a : x y^-1 = t (mod m)}, read-only, for sets of units: the one-row
    family of quotients that the reports count (setops._row_counts with np.divide)."""
    return setops._freeze(setops._row_counts(xs.array[None], a.array[None], a.modulus.m, np.divide)[0])


def _unit_numerators(xs, m):
    """The units among xs: quotient counts are formed over unit numerators only (not a prime's 0 or a
    ring's non-units)."""
    return [x for x in xs if math.gcd(x, m) == 1]


def test_sumset_examples():
    a = _set(9, [0, 3, 6])
    assert sumset(a, a).elements == {0, 3, 6}
    b = _set(9, [1, 4, 7])
    assert sumset(_set(9, [0]), b).elements == b.elements
    c = _set(7, [1, 2, 3])
    assert sumset(c, c).elements == {2, 3, 4, 5, 6}


def test_productset_examples():
    a = _set(9, [0, 3, 6])
    assert productset(a, a).elements == {0}
    b = _set(9, [2, 5, 7])
    assert productset(_set(9, [1]), b).elements == b.elements
    c = _set(7, [1, 2, 3])
    assert productset(c, c).elements == {1, 2, 3, 4, 6}


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        sumset(_set(7, [1]), _set(11, [1]))
    with pytest.raises(ValueError, match="mismatch"):
        productset(_set(7, [1]), _set(11, [1]))


def test_dilate_examples():
    # The oracle behind the dilation lemma below.
    assert naive_dilate(3, [1, 2, 3], 9) == {3, 6, 0}
    assert naive_dilate(1, [1, 2, 3], 9) == {1, 2, 3}
    assert naive_dilate(0, [1, 2, 3], 9) == {0}


def test_against_naive_oracles_random():
    rng = np.random.default_rng(11)
    for _ in range(120):
        m = int(rng.integers(2, 120))
        mod = make_modulus(m)
        a = random_subset(rng, m, int(rng.integers(1, m + 1)))
        b = random_subset(rng, m, int(rng.integers(1, m + 1)))
        sa, sb = residue_set(mod, a), residue_set(mod, b)
        assert sumset(sa, sb).elements == naive_sumset(a, b, m)
        assert productset(sa, sb).elements == naive_productset(a, b, m)


def test_commutativity_random():
    rng = np.random.default_rng(13)
    for _ in range(60):
        m = int(rng.integers(2, 200))
        mod = make_modulus(m)
        a = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
        b = residue_set(mod, random_subset(rng, m, int(rng.integers(1, m + 1))))
        assert sumset(a, b).elements == sumset(b, a).elements
        assert productset(a, b).elements == productset(b, a).elements


def test_translation_covariance_exhaustive_small_m():
    rng = np.random.default_rng(17)
    for m in range(2, 101):
        mod = make_modulus(m)
        a = random_subset(rng, m, int(rng.integers(1, m + 1)))
        b = random_subset(rng, m, int(rng.integers(1, m + 1)))
        base = sumset(residue_set(mod, a), residue_set(mod, b)).elements
        for c in range(m):
            shifted_a = residue_set(mod, [(x + c) % m for x in a])
            shifted = sumset(shifted_a, residue_set(mod, b)).elements
            assert shifted == {(t + c) % m for t in base}


def test_unit_dilation_preserves_pair_sizes():
    rng = np.random.default_rng(19)
    for p in (11, 31, 101):
        mod = make_modulus(p)
        for _ in range(20):
            elems = random_subset(rng, p, int(rng.integers(1, p)))
            a = residue_set(mod, elems)
            c = int(rng.integers(1, p))
            ca = residue_set(mod, naive_dilate(c, elems, p))
            assert sumset(ca, ca).size == sumset(a, a).size
            assert productset(ca, ca).size == productset(a, a).size


def test_dilate_fiber_bound_all_small_m():
    rng = np.random.default_rng(23)
    for m in range(2, 501):
        a = random_subset(rng, m, int(rng.integers(1, m + 1)))
        for c in range(m):
            assert len(naive_dilate(c, a, m)) * math.gcd(c, m) >= len(a)


def test_additive_rep_examples():
    mod5 = make_modulus(5)
    a = residue_set(mod5, [1, 2])
    counts = _sums(a, a, 1)
    assert _counts_dict(counts, 5) == {2: 1, 3: 2, 4: 1}
    assert int(counts.sum()) == 4
    b = residue_set(mod5, [0, 2, 3])
    assert _counts_dict(_sums(residue_set(mod5, [0]), b, 1), 5) == {0: 1, 2: 1, 3: 1}


def test_additive_rep_matches_oracle_and_support():
    rng = np.random.default_rng(29)
    for _ in range(80):
        m = int(rng.integers(2, 150))
        mod = make_modulus(m)
        a = random_subset(rng, m, int(rng.integers(1, m + 1)))
        b = random_subset(rng, m, int(rng.integers(1, m + 1)))
        sa, sb = residue_set(mod, a), residue_set(mod, b)
        for sign in (1, -1):
            counts = _sums(sa, sb, sign)
            assert _counts_dict(counts, m) == naive_additive_counts(a, b, sign, m)
            assert int(counts.sum()) == len(a) * len(b)
        assert int(counts.sum()) == sa.size * sb.size
        assert _support(_sums(sa, sb, 1)) == sumset(sa, sb).elements


def test_quotient_rep_examples():
    mod5 = make_modulus(5)
    x = residue_set(mod5, [1, 2, 4])
    a = residue_set(mod5, [1, 2])
    counts = _quotients(x, a)
    assert _counts_dict(counts, 5) == {1: 2, 2: 2, 3: 1, 4: 1}
    assert int(counts.sum()) == 6
    assert _counts_dict(_quotients(x, residue_set(mod5, [1])), 5) == {1: 1, 2: 1, 4: 1}
    with pytest.raises(NonInvertibleError) as err:
        Derivation(residue_set(mod5, [0, 1])).quotients
    assert err.value.gcd == 5


def test_quotient_rep_matches_oracle():
    rng = np.random.default_rng(31)
    for p in (5, 11, 31, 101):
        mod = make_modulus(p)
        for _ in range(15):
            xs = _unit_numerators(random_subset(rng, p, int(rng.integers(1, p))), p)
            a = random_subset(rng, p, int(rng.integers(1, p)), exclude_zero=True)
            counts = _quotients(residue_set(mod, xs), residue_set(mod, a))
            assert _counts_dict(counts, p) == naive_quotient_counts(xs, a, p)


def test_unit_quotient_rep_ring():
    mod9 = make_modulus(9)
    xs = _unit_numerators([0, 1, 2, 4], 9)
    a = residue_set(mod9, [1, 2])  # both units mod 9; 2^{-1} = 5
    counts = _quotients(residue_set(mod9, xs), a)
    assert int(counts.sum()) == 6
    assert _counts_dict(counts, 9) == naive_quotient_counts(xs, [1, 2], 9)
    with pytest.raises(NonInvertibleError) as err:
        Derivation(residue_set(mod9, [3])).quotients
    assert err.value.gcd == 3


def test_sumset_matches_naive_sumset_grid():
    # density grid per modulus; counts scaled to keep the oracle cheap. The
    # largest modulus is checked against the direct convolution oracle.
    cases = {16: 40, 97: 40, 360: 30, 1024: 20, 9973: (12, 8, 3)}
    rng = np.random.default_rng(37)
    for m, reps in cases.items():
        mod = make_modulus(m)
        oracle = convolved_sumset if m > 1024 else naive_sumset
        for di, density in enumerate((0.01, 0.1, 0.5)):
            n_cases = reps if isinstance(reps, int) else reps[di]
            size = max(1, int(round(density * m)))
            for _ in range(n_cases):
                a = residue_set(mod, random_subset(rng, m, size))
                b = residue_set(mod, random_subset(rng, m, size))
                assert sumset(a, b).elements == oracle(a.elements, b.elements, m)
    empty = residue_set(make_modulus(16), [])
    assert sumset(empty, empty).elements == set()
    full = residue_set(make_modulus(16), range(16))
    assert sumset(full, full).elements == set(range(16))


def test_productset_dlog_path_matches_naive():
    # large dense zero-free prime input takes the discrete-log route
    rng = np.random.default_rng(41)
    for p in (101, 499):
        mod = make_modulus(p)
        a = random_subset(rng, p, p // 2, exclude_zero=True)
        b = random_subset(rng, p, p // 2, exclude_zero=True)
        got = productset(residue_set(mod, a), residue_set(mod, b)).elements
        assert got == naive_productset(a, b, p)
        with_zero = residue_set(mod, set(a) | {0})
        assert productset(with_zero, residue_set(mod, b)).elements == naive_productset(
            set(a) | {0}, b, p
        )


def test_productset_dlog_results_are_sorted_with_and_without_zero(monkeypatch):
    # The residues of the exponent sum set come out of pow_of unsorted.
    p = 101
    pow_of = setops._TABLES.read(p, setops._unit_residues)["residues"]
    (exp_of,) = setops._TABLES.read(p, setops._unit_group)["logs"]
    rng = np.random.default_rng(71)
    a = random_subset(rng, p, 30, exclude_zero=True)
    b = random_subset(rng, p, 25, exclude_zero=True)
    assert len(a) * len(b) > 4 * p
    exps = np.unique(exp_of[sorted(naive_productset(a, b, p))])
    assert not np.all(np.diff(pow_of[exps]) > 0)
    enumerated = []
    original = setops._enumerated

    def spy(*args, **kwargs):
        enumerated.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(setops, "_enumerated", spy)
    for x, y in ((a, b), ([0] + a, b), (a, [0] + b), ([0] + a, [0] + b)):
        got = productset(_set(p, x), _set(p, y))
        _assert_stored_form(got, p)
        assert got.elements == naive_productset(x, y, p)
    assert enumerated == []


def test_zero_absorption_edges():
    mod7 = make_modulus(7)
    zero = residue_set(mod7, [0])
    empty = residue_set(mod7, [])
    assert productset(zero, empty).elements == set()
    assert productset(zero, residue_set(mod7, [5])).elements == {0}
    assert sumset(empty, residue_set(mod7, [5])).elements == set()
    # 0 in A while the products of the non-zero parts already give 0.
    for m, a, b in ((36, [0, 2, 3], [6, 12]), (36, [0, 6, 12], [0, 6]), (49, [0, 7, 14], [0, 7, 14])):
        got = productset(_set(m, a), _set(m, b))
        _assert_stored_form(got, m)
        assert got.elements == naive_productset(a, b, m)
        assert 0 in naive_productset([x for x in a if x], [y for y in b if y], m)


def test_counts_above_two_to_the_twenty_are_dense():
    m = (1 << 20) + 2
    a, b = [1, 5, m - 1], [2, 7]
    for sign in (1, -1):
        counts = _sums(_set(m, a), _set(m, b), sign)
        assert _counts_dict(counts, m) == naive_additive_counts(a, b, sign, m)
    assert _support(indicator(_set(m, a))) == set(a)
    assert sumset(_set(m, a), _set(m, b)).elements == naive_sumset(a, b, m)
    units = [1, 5, m - 1]  # m = 2 * 3 * 174763
    xs = _unit_numerators([0] + a, m)
    counts = _quotients(_set(m, xs), _set(m, units))
    assert _counts_dict(counts, m) == naive_quotient_counts(xs, units, m)


def test_products_near_modulus_cap_are_exact():
    # m exceeds BITSET_LIMIT, so the product set takes _distinct over the
    # int64 blocks of the shared pair generator; its products reach 2^62.
    m = (1 << 31) - 1
    mod = make_modulus(m)
    a = [m - 1, m - 2]
    b = [m - 3, 123456789]
    got = productset(residue_set(mod, a), residue_set(mod, b)).elements
    assert got == naive_productset(a, b, m)
    # Length-m counts cannot fit: the budget refuses them before allocating.
    assert setops.BYTES_PER_RESIDUE * m > setops._physical_memory()
    with pytest.raises(ValueError, match="physical memory"):
        _quotients(residue_set(mod, a), residue_set(mod, b))


def _need(m):
    """The budget of counts over Z_m: length-m arrays and one int64 enumeration block."""
    return setops.BYTES_PER_RESIDUE * m + 8 * setops._CHUNK_ELEMS


def _pin_memory(monkeypatch, m, spare):
    """Physical memory reads as the budget of counts over Z_m plus spare bytes."""
    monkeypatch.setattr(setops, "_physical_memory", lambda: _need(m) + spare)


@pytest.mark.parametrize("m", [101, 720, 1024])
def test_memory_budget_on_both_sides_for_every_count(monkeypatch, m):
    mod = make_modulus(m)
    units = [x for x in range(m) if math.gcd(x, m) == 1]
    a, b = list(range(m)), units
    sa, sb = residue_set(mod, a), residue_set(mod, b)
    xs = _unit_numerators(a, m)
    assert setops._fft_pays(len(a) * len(b), *_whole(m))  # so sumset reaches its FFT branch
    builds = {
        "indicator": (lambda: indicator(sa), {x: 1 for x in a}),
        "additive_rep": (lambda: _sums(sa, sb, -1), naive_additive_counts(a, b, -1, m)),
        "unit_quotient_rep": (lambda: _quotients(residue_set(mod, xs), sb), naive_quotient_counts(xs, b, m)),
    }
    _pin_memory(monkeypatch, m, 0)
    for name, (build, want) in builds.items():
        assert _counts_dict(build(), m) == want, name
    assert sumset(sa, sb).elements == naive_sumset(a, b, m)
    _pin_memory(monkeypatch, m, -1)
    for name, (build, _) in builds.items():
        with pytest.raises(ValueError, match=f"counts over Z_{m} need"):
            build()
    with pytest.raises(ValueError, match="physical memory"):
        sumset(sa, sb)
    assert productset(sa, sb).elements == naive_productset(a, b, m)  # no count involved


def test_ring_report_peak_fits_the_budget(monkeypatch):
    # At m = 65536, |A| = 3000 the enumeration blocks, not length-m arrays,
    # lead the traced peak of a ring report with its checks (about 301 bytes
    # per residue): the budget refuses counts on a machine with less memory.
    m = 65536
    a = np.random.default_rng(7).choice(m, 3000, replace=False)
    tracemalloc.start()
    try:
        d = Derivation(residue_set(make_modulus(m), a))
        ring_checks(d)
        ring_bound_report(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.setattr(setops, "_physical_memory", lambda: peak)
    with pytest.raises(ValueError, match=f"counts over Z_{m} need"):
        setops._require_fits(m)


def test_indicator_mass_and_support():
    mod = make_modulus(17)
    a = residue_set(mod, [2, 3, 5])
    counts = indicator(a)
    assert int(counts.sum()) == 3
    assert _support(counts) == a.elements


# --- Exact FFT counts: both sides of the dispatch against the oracles ---

_PRIMES = (2, 3, 5, 7, 11, 13, 31, 101, 257, 499)
_MODULI = _PRIMES + (4, 6, 9, 12, 36, 64, 100, 210, 360)


@st.composite
def _subset(draw, m, low=0):
    """A subset of [low, m) of any size from empty to full."""
    size = draw(st.integers(0, m - low))
    return sorted(draw(st.permutations(range(low, m)))[:size])


@st.composite
def _additive_case(draw):
    m = draw(st.sampled_from(_MODULI))
    return m, draw(_subset(m)), draw(_subset(m)), draw(st.sampled_from((1, -1)))


@st.composite
def _quotient_case(draw):
    p = draw(st.sampled_from(_PRIMES))
    return p, draw(_subset(p)), draw(_subset(p, low=1))


@settings(max_examples=200, deadline=None)
@given(_additive_case())
def test_additive_rep_property(case):
    m, a, b, sign = case
    counts = _sums(_set(m, a), _set(m, b), sign)
    assert _counts_dict(counts, m) == naive_additive_counts(a, b, sign, m)
    assert int(counts.sum()) == len(a) * len(b)


@settings(max_examples=200, deadline=None)
@given(_quotient_case())
def test_unit_quotient_rep_prime_property(case):
    p, xs, a = case
    xs = _unit_numerators(xs, p)
    counts = _quotients(_set(p, xs), _set(p, a))
    assert _counts_dict(counts, p) == naive_quotient_counts(xs, a, p)
    assert int(counts.sum()) == len(xs) * len(a)


# --- Quotient counts over every modulus: the unit-group engine ---

_GROUP_MODULI = (
    (2, 4, 8, 16, 32, 64, 1024)  # 2, 4, 8 and 2^k
    + (9, 25, 27, 49, 121, 125, 243, 343)  # p^k
    + (6, 18, 50, 54, 98, 250, 686)  # 2 p^k
    + (12, 24, 36, 48, 60, 120, 180, 240, 360, 720, 840, 1260, 1680, 2520, 5040)  # highly composite
    + (5, 101, 499)
)


def _units(m):
    return [u for u in range(m) if math.gcd(u, m) == 1]


@pytest.mark.parametrize(
    "m, shape",
    [
        (2, (1,)),
        (3, (2,)),
        (4, (2,)),
        (8, (2, 2)),
        (16, (2, 4)),
        (9, (6,)),
        (18, (6,)),
        (36, (2, 6)),
        (1000, (2, 2, 100)),
        (4096, (2, 1024)),
        (510510, (2, 4, 6, 10, 12, 16)),  # 2^1 gives no axis
        (720720, (2, 4, 4, 6, 6, 10, 12)),
    ],
    ids=str,
)
def test_unit_group_axes_and_tables(m, shape):
    group = setops._TABLES.read(m, setops._unit_group)
    gens, logs = group["gens"], group["logs"]
    residues = setops._TABLES.read(m, setops._unit_residues)["residues"]  # built apart, from the generators
    assert setops._TABLES.read(m, setops._unit_shape)["shape"] == shape and math.prod(shape) == len(_units(m))
    lengths = _whole(*shape)
    assert lengths == sorted(lengths)  # the longest transform axis is last
    assert all(pow(g, n, m) == 1 % m for g, n in zip(gens, shape))
    units = np.array(_units(m), dtype=np.int64)
    assert np.array_equal(np.sort(residues), units)
    coords = tuple(log[units % log.size] for log in logs)  # each unit's coordinates
    assert len(coords) == len(shape)
    assert np.array_equal(residues[np.ravel_multi_index(coords, shape)], units)
    # One int32 log table per axis, indexed by the axis's prime power; none
    # of length m unless m is a prime power.
    powers = [p**k for p, k in make_modulus(m).factorization]
    for log, n, c in zip(logs, shape, coords):
        assert log.size in powers and (log.size < m or len(powers) == 1)
        assert log.dtype == np.int32 and log.ndim == 1 and not log.flags.writeable
        assert 0 <= c.min() and c.max() < n
    assert not residues.flags.writeable and residues.dtype == np.int64
    assert np.all(units * setops._inverses(units, make_modulus(m)) % m == 1 % m)


def test_unit_group_lifts_a_root_that_fails_mod_p_squared(monkeypatch):
    # 19 is a primitive root mod 7 with 19^6 = 1 mod 49, so (Z/49)^x needs 19 + 7.
    assert pow(19, 6, 49) == 1 and smallest_primitive_root(7) == 3
    original = setops.find_generator
    monkeypatch.setattr(setops, "find_generator", lambda mod: 19 if mod.m == 7 else original(mod))
    setops._TABLES.clear()
    try:
        shape = setops._TABLES.read(49, setops._unit_shape)["shape"]
        gens = setops._TABLES.read(49, setops._unit_group)["gens"]
        residues = setops._TABLES.read(49, setops._unit_residues)["residues"]
        assert shape == (42,) and gens == (26,) and int(residues[1]) == 26
        assert np.array_equal(np.sort(residues), _units(49))
    finally:
        setops._TABLES.clear()


def test_table_store_keeps_at_most_its_cap_after_reports_at_16_primes(monkeypatch):
    # Each field report at p near 2 * 10^5 builds a log table and a residue table (about 2.4 MB);
    # under an 8 MiB cap the store evicts whole moduli, least recently read first.
    cap = 8 << 20
    monkeypatch.setattr(setops._TABLES, "cap", cap)
    primes = [p for p in range(200_003, 201_000, 2) if make_modulus(p).is_prime][:16]
    rng = np.random.default_rng(24)
    sets = [_set(p, rng.choice(np.arange(1, p), 300, replace=False)) for p in primes]
    setops._TABLES.clear()
    gc.collect()
    tracemalloc.start()
    try:
        for a in sets:
            field_bound_report(a)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        setops._TABLES.clear()
    assert len(primes) == 16 and retained <= cap


def test_table_store_is_charged_to_the_memory_budget(monkeypatch):
    # A count over a second modulus evicts the first one's tables to fit; a count whose own need is
    # over the budget is refused with the same message as before any table existed, and evicts nothing.
    p, units = 10007, list(range(1, 10007))
    setops._TABLES.clear()
    counts = _quotients(_set(p, units), _set(p, units[:50]))  # a whole transform: logs and residues
    assert _counts_dict(counts, p) == naive_quotient_counts(units, units[:50], p)
    held = setops._TABLES.nbytes
    assert held > 11 * p and list(setops._TABLES._moduli) == [p]
    m, xs, a = 720, _unit_numerators(range(720), 720), _units(720)
    _pin_memory(monkeypatch, m, held // 2)
    counts = _quotients(_set(m, xs), _set(m, a))
    assert _counts_dict(counts, m) == naive_quotient_counts(xs, a, m)
    assert list(setops._TABLES._moduli) == [m] and setops._TABLES.nbytes < held
    setops._TABLES.read(p, setops._unit_residues)
    stored = list(setops._TABLES._moduli), setops._TABLES.nbytes
    _pin_memory(monkeypatch, m, -1)
    with pytest.raises(ValueError, match=f"counts over Z_{m} need about"):
        _quotients(_set(m, xs), _set(m, a))
    assert (list(setops._TABLES._moduli), setops._TABLES.nbytes) == stored  # a refused count evicts nothing
    # {0, ..., 999} + itself over Z_p is read off a box of 2,000 cells: charged as 2,000 cells, keeping p's tables.
    _pin_memory(monkeypatch, 2000, 0)
    window = _set(p, range(1000))
    assert np.array_equal(sumset(window, window).array, np.arange(1999))
    assert list(setops._TABLES._moduli) == [p]
    setops._TABLES.clear()


@st.composite
def _group_quotient_case(draw):
    m = draw(st.one_of(st.sampled_from(_GROUP_MODULI), st.integers(2, 5040)))
    a = sorted(draw(st.sets(st.sampled_from(_units(m)), max_size=40)))
    xs = sorted(draw(st.sets(st.integers(0, m - 1), max_size=60)))
    return m, xs, a, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_group_quotient_case())
@example((7, [0], [1, 2, 3], True))  # 0 over a prime: no unit numerator
@example((720, [0, 2, 5, 7, 360], [1, 7, 11, 719], True))  # non-unit numerators beside units
def test_unit_quotient_rep_property_over_every_modulus(case):
    # Both sides of _fft_pays on any modulus, over the unit numerators of any draw.
    m, xs, a, pays = case
    xs = _unit_numerators(xs, m)
    with mock.patch.object(setops, "_fft_pays", return_value=pays):
        counts = _quotients(_set(m, xs), _set(m, a))
    assert _counts_dict(counts, m) == naive_quotient_counts(xs, a, m)
    assert int(counts.sum()) == len(xs) * len(a)


# 2929 = 29 * 101 has the shape (28, 100): its first axis is padded to 60.
@pytest.mark.parametrize("m, size_a", [(243, 60), (720, 192), (2929, 40), (4096, 40), (5040, 48)])
def test_unit_quotient_rep_on_both_sides_of_the_gate(monkeypatch, m, size_a):
    units = _units(m)
    shape = setops._TABLES.read(m, setops._unit_shape)["shape"]
    lengths = _whole(*shape)
    size = math.prod(lengths)
    # S log2 S plus 2^13 per axis, exactly.
    bound = math.floor(size * math.log2(size) + 8192 * len(shape))
    assert not setops._fft_pays(bound, *lengths) and setops._fft_pays(bound + 1, *lengths)
    paths = []
    original = setops._cyclic_rows

    def spy(plan, x, y, rows):
        out = original(plan, x, y, rows)
        paths.append((tuple(n for n, *_ in plan), out is not None and bool(out[1].all())))
        return out

    monkeypatch.setattr(setops, "_cyclic_rows", spy)
    # Every residue as a numerator, then the first 20.
    for xs, fft in ((list(range(m)), True), (list(range(20)), False)):
        a, xs = units[:size_a], _unit_numerators(xs, m)
        assert setops._fft_pays(len(xs) * len(a), *lengths) == fft
        paths.clear()
        counts = _quotients(_set(m, xs), _set(m, a))
        assert paths == ([(shape, True)] if fft else [])  # the FFT certified its counts
        assert _counts_dict(counts, m) == naive_quotient_counts(xs, a, m)


def test_unit_quotient_rep_names_the_first_non_unit():
    for m, a, message in ((9, [1, 3], "3 is not invertible mod 9 (gcd 3)"),
                          (720, [1, 7, 10, 12], "10 is not invertible mod 720 (gcd 10)"),
                          (101, [0, 5], "0 is not invertible mod 101 (gcd 101)")):
        with pytest.raises(NonInvertibleError, match=re.escape(message)) as err:
            Derivation(_set(m, a)).quotients
        assert err.value.gcd == int(message.split("gcd ")[1][:-1])


def test_property_cases_reach_both_sides_of_the_dispatch(monkeypatch):
    # The full sets of the largest moduli above take the FFT; singletons
    # enumerate.
    assert setops._fft_pays(499 * 499, *_whole(499)) and setops._fft_pays(498 * 498, *_whole(498))
    assert setops._fft_pays(360 * 360, *_whole(360))
    assert not setops._fft_pays(499, 1) and not setops._fft_pays(498, 1)  # the least plan
    # The sum sets of test_sum_and_product_sets_property: the full Z_101 and
    # 160-element intervals mod 499 are the support of FFT counts; the full
    # Z_36, 41-element sets mod 4096 and singletons are scattered.
    paths = []
    for name in ("_cyclic_rows", "_enumerated"):

        def spy(x, y, m, *rest, original=getattr(setops, name), name=name, **kwargs):
            paths.append((name, x[0][0] if name == "_cyclic_rows" else m))  # plan's first n
            return original(x, y, m, *rest, **kwargs)

        monkeypatch.setattr(setops, name, spy)
    cases = [(101, range(101)), (499, range(160)), (36, range(36)), (4096, range(41)), (36, [5])]
    for m, a in cases:
        assert sumset(_set(m, a), _set(m, a)).elements == naive_sumset(a, a, m)
    assert paths == [
        ("_cyclic_rows", 101),
        ("_cyclic_rows", 499),
        ("_enumerated", 36),
        ("_enumerated", 4096),
        ("_enumerated", 36),
    ]


def _spy_enumeration(monkeypatch, sets=False):
    """Records (n, entries of x) of every _enumerated call that forms a pair: of counts, or with sets of set values."""
    calls = []
    original = setops._enumerated

    def spy(x, y, n, combine, sets_=False):
        if sets_ == sets and (x >= 0).any() and (y >= 0).any():
            calls.append((n, int((x >= 0).sum())))
        return original(x, y, n, combine, sets_)

    monkeypatch.setattr(setops, "_enumerated", spy)
    return calls


def _noisy_irfftn(monkeypatch, index, noise):
    original = np.fft.irfftn

    def noisy(spectrum, s, **kwargs):
        out = original(spectrum, s, **kwargs)
        out.reshape(-1)[index] += noise
        return out

    monkeypatch.setattr(np.fft, "irfftn", noisy)


@pytest.mark.parametrize(
    "guard", ["a_priori_bound", "residual", "mass"],
)
def test_fft_guard_failure_falls_back_to_exact_enumeration(monkeypatch, guard):
    rng = np.random.default_rng(43)
    p = 499
    a = random_subset(rng, p, 300)
    b = random_subset(rng, p, 250, exclude_zero=True)
    assert setops._fft_pays(len(a) * len(b), *_whole(p)) and setops._fft_pays((len(a) - 1) * len(b), *_whole(p - 1))
    calls = _spy_enumeration(monkeypatch)
    if guard == "a_priori_bound":
        monkeypatch.setattr(setops, "_FFT_ERROR_CONSTANT", 1e30)
    elif guard == "residual":
        _noisy_irfftn(monkeypatch, 7, 0.3)
    else:
        _noisy_irfftn(monkeypatch, 7, 1.0)  # rounds cleanly, one pair too many
    assert sumset(_set(p, a), _set(p, b)).elements == naive_sumset(a, b, p)
    for sign in (1, -1):
        counts = _sums(_set(p, a), _set(p, b), sign)
        assert _counts_dict(counts, p) == naive_additive_counts(a, b, sign, p)
    xs = _unit_numerators(a, p)
    counts = _quotients(_set(p, xs), _set(p, b))
    assert _counts_dict(counts, p) == naive_quotient_counts(xs, b, p)
    # Over a composite modulus too (four axes), on every unit numerator.
    m, units = 720, _units(720)
    assert setops._fft_pays(len(units) ** 2, *_whole(*setops._TABLES.read(m, setops._unit_shape)["shape"]))
    counts = _quotients(_set(m, units), _set(m, units))
    assert _counts_dict(counts, m) == naive_quotient_counts(units, units, m)
    # A failed a-priori bound transforms nothing, so the sum set enumerates its values, not counts; the
    # quotients fall back to enumerating the unit numerators against the inverses.
    sums = [(p, len(a))] * (2 if guard == "a_priori_bound" else 3)
    assert calls == sums + [(p, len(xs)), (m, len(units))]


def test_fft_path_is_taken_without_fallback(monkeypatch):
    calls = _spy_enumeration(monkeypatch)
    rng = np.random.default_rng(47)
    a = random_subset(rng, 499, 300)
    b = random_subset(rng, 499, 250, exclude_zero=True)
    xs = _unit_numerators(a, 499)
    counts = _quotients(_set(499, xs), _set(499, b))
    assert _counts_dict(counts, 499) == naive_quotient_counts(xs, b, 499)
    assert calls == []
    m, units = 720, _units(720)
    counts = _quotients(_set(m, units), _set(m, units))
    assert _counts_dict(counts, m) == naive_quotient_counts(units, units, m)
    assert calls == []


def _five_smooth_up_to(limit):
    out = set()
    p5 = 1
    while p5 <= limit:
        p35 = p5
        while p35 <= limit:
            p = p35
            while p <= limit:
                out.add(p)
                p *= 2
            p35 *= 3
        p5 *= 5
    return sorted(out)


def test_fft_length_is_the_smallest_five_smooth_length():
    smooth = _five_smooth_up_to(1 << 23)
    ns = list(range(1, 3000)) + [10006, 10007, 65536, 100002, 100003, 720720, 1000002, 1 << 20]
    for n in ns:
        assert setops._smooth(2 * n - 1) == next(s for s in smooth if s >= 2 * n - 1), n
        assert setops._smooth(n) == next(s for s in smooth if s >= n), n
        # A whole axis: n itself if 5-smooth, else padded to 2n - 1 or more.
        assert _whole(n) == [n if n in smooth else setops._smooth(2 * n - 1)], n
    assert setops._SMOOTH[-1] == 1 << 32 and setops._smooth((1 << 32) - 1) == 1 << 32


def _interval_counts(start_x, len_x, start_y, len_y, sign, m):
    """Counts of x + sign*y mod m over two intervals, by direct convolution."""
    linear = np.convolve(np.ones(len_x, dtype=np.int64), np.ones(len_y, dtype=np.int64))
    base = start_x + start_y if sign == 1 else start_x - start_y - (len_y - 1)
    out = {}
    for k, c in enumerate(linear.tolist()):
        t = (base + k) % m
        out[t] = out.get(t, 0) + c
    return out


def test_counts_on_both_sides_of_two_to_the_twenty(monkeypatch):
    # 2^20 was the old switch to dict counts, below which alone the FFT ran.
    # On both sides: FFT counts of intervals (additive) and of geometric
    # progressions (quotients, an interval in discrete-log coordinates),
    # and enumerated counts of small random sets.
    rng = np.random.default_rng(53)
    enumerated = _spy_enumeration(monkeypatch)
    len_x, len_y = 7000, 6600
    for m in (1 << 20, (1 << 20) + 1):
        assert setops._fft_pays(len_x * len_y, *_whole(m))
        start_x, start_y = m - 3000, 1234
        x = _set(m, [(start_x + i) % m for i in range(len_x)])
        y = _set(m, range(start_y, start_y + len_y))
        for sign in (1, -1):
            counts = _sums(x, y, sign)
            assert _counts_dict(counts, m) == _interval_counts(start_x, len_x, start_y, len_y, sign, m)
    for p in ((1 << 20) - 3, (1 << 20) + 7):
        assert setops._fft_pays(len_x * len_y, *_whole(p - 1))
        g = find_generator(make_modulus(p))
        start_x, start_a = p - 2000, 777
        xs = [0] + [pow(g, start_x + i, p) for i in range(len_x)]
        a = [pow(g, start_a + j, p) for j in range(len_y)]
        want = {}
        for e, c in _interval_counts(start_x, len_x, start_a, len_y, -1, p - 1).items():
            want[pow(g, e, p)] = c
        assert _counts_dict(_quotients(_set(p, _unit_numerators(xs, p)), _set(p, a)), p) == want
    assert enumerated == []
    for m in ((1 << 20) - 3, 1 << 20, (1 << 20) + 1, (1 << 20) + 7):
        a = random_subset(rng, m, 200)
        b = random_subset(rng, m, 150, exclude_zero=True)
        for sign in (1, -1):
            counts = _sums(_set(m, a), _set(m, b), sign)
            assert _counts_dict(counts, m) == naive_additive_counts(a, b, sign, m)
        if make_modulus(m).is_prime:
            xs = _unit_numerators(a, m)
            counts = _quotients(_set(m, xs), _set(m, b))
            assert _counts_dict(counts, m) == naive_quotient_counts(xs, b, m)
    # Two additive counts per modulus, and a quotient count per prime.
    sizes = [((1 << 20) - 3, 3), (1 << 20, 2), ((1 << 20) + 1, 2), ((1 << 20) + 7, 3)]
    assert enumerated == [(m, 200) for m, calls in sizes for _ in range(calls)]


def test_vectorized_dlog_tables_equal_the_loop():
    # A prime's unit group is one axis: the discrete log to the smallest
    # primitive root, and its powers.
    for p in (2, 3, 5, 7, 101, 499, 10007, 65537, 1000003):
        shape, group = setops._TABLES.read(p, setops._unit_shape)["shape"], setops._TABLES.read(p, setops._unit_group)
        (g_axis,), (exp_of,) = group["gens"], group["logs"]
        pow_of = setops._TABLES.read(p, setops._unit_residues)["residues"]
        assert shape == (p - 1,) and g_axis == int(pow_of[1 % (p - 1)])
        assert exp_of.dtype == np.int32 and exp_of.shape == (p,) and not exp_of.flags.writeable
        g = find_generator(make_modulus(p))
        loop_exp = np.zeros(p, dtype=np.int64)
        loop_pow = np.zeros(p - 1, dtype=np.int64)
        acc = 1
        for k in range(p - 1):
            loop_exp[acc] = k
            loop_pow[k] = acc
            acc = acc * g % p
        assert np.array_equal(exp_of, loop_exp) and np.array_equal(pow_of, loop_pow), p
        if p < 1000:
            assert dict(zip(pow_of.tolist(), range(p - 1))) == naive_dlog_table(p, g)


# --- Sum and product sets: both sides of the scatter dispatch ---

_SMALL_PRIMES = (2, 3, 5, 7, 101, 499, 4093)


@st.composite
def _operand(draw, m):
    """A subset of Z_m: any residues, only units, only non-units, or an
    interval of up to 160 residues, long enough on both sides for sumset's
    FFT when m is small; 0 may be added unless the set holds only units."""
    kind = draw(st.sampled_from(("any", "units", "nonunits", "interval")))
    elems = draw(st.sets(st.integers(0, m - 1), max_size=40))
    if kind == "interval":
        start, length = draw(st.integers(0, m - 1)), draw(st.integers(0, min(m, 160)))
        elems = {(start + i) % m for i in range(length)}
    if kind == "units":
        return sorted(x for x in elems if math.gcd(x, m) == 1)
    if kind == "nonunits":
        elems = {x for x in elems if math.gcd(x, m) != 1}
    if draw(st.booleans()):
        elems.add(0)
    return sorted(elems)


@st.composite
def _pair_set_case(draw):
    m = draw(st.one_of(st.sampled_from(_SMALL_PRIMES), st.integers(2, 4096)))
    return m, draw(_operand(m)), draw(_operand(m))


@settings(max_examples=300, deadline=None)
@given(_pair_set_case(), st.sampled_from((None, True, False)))
@example((101, list(range(101)), list(range(101))), None)  # the FFT side of sumset
@example((499, list(range(160)), list(range(1, 161))), None)
@example((499, list(range(160)), list(range(1, 161))), False)
@example((4093, list(range(4000, 4093)), list(range(17, 167))), True)  # a window that wraps across 0
def test_sum_and_product_sets_property(case, force):
    # Two distinct operands (b is not a), as one-row families on the real side of the gate (None) or either
    # forced side; the product set's enumeration has no transform, so only the sum set's side moves.
    m, a, b = case
    sa, sb = _set(m, a), _set(m, b)
    with mock.patch.object(setops, "_fft_pays", return_value=force) if force is not None else mock.MagicMock():
        got_sum, got_prod = sumset(sa, sb), productset(sa, sb)
    assert got_sum.elements == naive_sumset(a, b, m)
    assert got_prod.elements == naive_productset(a, b, m)


@pytest.mark.parametrize("chunk", [None, 1000])
@pytest.mark.parametrize("m, scatter", [(BITSET_LIMIT, True), (BITSET_LIMIT + 1, False)])
def test_pair_enumeration_on_both_sides_of_the_scatter_limit(monkeypatch, m, scatter, chunk):
    rng = np.random.default_rng(67)
    # 0, units, non-units and the largest residue, whose pair values wrap.
    a = sorted(set(random_subset(rng, m, 150)) | {0, 1, 2, m - 1})
    b = sorted(set(random_subset(rng, m, 120)) | {3, m - 1})
    if chunk is not None:
        monkeypatch.setattr(setops, "_CHUNK_ELEMS", chunk)  # several chunks
    # The operands are built first: residue_set itself deduplicates with _distinct.
    sa, sb, empty = _set(m, a), _set(m, b), _set(m, [])
    hashed = []
    original = setops._distinct

    def spy(*args, **kwargs):
        hashed.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(setops, "_distinct", spy)
    for op, oracle in ((sumset, naive_sumset), (productset, naive_productset)):
        assert op(sa, sb).elements == oracle(a, b, m), op.__name__
        assert op(sa, empty).elements == set()
    assert bool(hashed) != scatter


# --- The stored form: a sorted, distinct, read-only int64 array ---


@st.composite
def _stored_form_case(draw):
    m = draw(st.one_of(st.sampled_from(_SMALL_PRIMES + (36, 720, 4096)), st.integers(2, 4096)))
    kind = draw(st.sampled_from(("empty", "full", "any")))
    if kind == "empty":
        a = []
    elif kind == "full":
        a = list(range(m))
    else:
        a = sorted(draw(st.sets(st.integers(0, m - 1), max_size=80)))
    b = sorted(draw(st.sets(st.integers(0, m - 1), max_size=80)))
    return m, a, b


@settings(max_examples=150, deadline=None)
@given(_stored_form_case())
def test_residue_set_stored_form_property(case):
    m, a, b = case
    mod = make_modulus(m)
    sa, sb = residue_set(mod, a[::-1] + a[:3]), residue_set(mod, b)
    a_nonzero = residue_set(mod, np.array([x for x in a if x], dtype=np.int64))
    built = {
        "list": sa,
        "ndarray": residue_set(mod, np.array(a + a[-2:], dtype=np.int64)),
        "productset": productset(a_nonzero, sb),
        "productset with 0": productset(residue_set(mod, [0] + a), sb),
        "unit_part": Derivation(sa).units.a,
    }
    for pays in (True, False):
        with mock.patch.object(setops, "_fft_pays", return_value=pays):
            built[f"sumset fft={pays}"] = sumset(sa, sb)
    assert built["list"] == built["ndarray"] and built["sumset fft=True"] == built["sumset fft=False"]
    for name, s in built.items():
        _assert_stored_form(s, m)
        members, others = s.array[-3:].tolist(), np.setdiff1d(np.arange(m), s.array)[:3].tolist()
        for x in [-1, 0, m - 1, m] + members + others:
            assert (x in s) == (x in s.elements), (name, x)
        same = residue_set(mod, s.array.tolist()[::-1])
        assert same == s and hash(same) == hash(s), name
        assert len(s) == s.size == len(s.elements)


@st.composite
def _pair_block_case(draw):
    """Operands a, b (one row each) and a block size _CHUNK_ELEMS with a on a
    chosen side of one block: a block holds step = max(1, chunk // |b|)
    entries of a, so |a| <= step gives one block and |a| > step several.
    Pair values go through the length-m scatter or, past BITSET_LIMIT,
    _distinct."""
    m = draw(st.one_of(st.sampled_from(_SMALL_PRIMES + (36, 720)), st.integers(2, 4096)))
    b = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=min(m, 24))))
    chunk = draw(st.integers(1, 96))
    step = max(1, chunk // len(b))
    if draw(st.booleans()) or step >= m:
        size = draw(st.integers(1, min(step, m)))
    else:
        size = draw(st.integers(step + 1, min(m, 4 * step + 1)))
    a = sorted(draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size, unique=True)))
    return m, a, b, chunk, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_pair_block_case())
@example((720, [0, 1, 2, 719], [5, 6, 7], 12, True))  # |a| = step = 4: one block
@example((720, [0, 1, 2, 3, 719], [5, 6, 7], 12, False))  # |a| = step + 1: two
def test_pair_enumeration_property_on_both_sides_of_one_block(case):
    m, a, b, chunk, scatter = case
    x, y = np.array([a], dtype=np.int64), np.array([b], dtype=np.int64)
    blocks = -(-len(a) // max(1, chunk // len(b)))
    with mock.patch.object(setops, "_CHUNK_ELEMS", chunk), mock.patch.object(
        setops, "BITSET_LIMIT", setops.BITSET_LIMIT if scatter else 1
    ):
        for combine, counts, values in (
            (np.add, naive_additive_counts(a, b, 1, m), naive_sumset(a, b, m)),
            (np.multiply, naive_product_counts(a, b, m), naive_productset(a, b, m)),
        ):
            assert sum(1 for _ in setops._pair_blocks(x, y, m, combine)) == blocks
            got = setops._enumerated(x, y, m, combine)
            assert got.dtype == np.int64 and got.shape == (1, m)
            nz = np.flatnonzero(got[0])
            assert dict(zip(nz.tolist(), got[0, nz].tolist())) == counts, combine.__name__
            assert setops._enumerated(x, y, m, combine, sets=True).tolist() == [sorted(values)], combine.__name__


# --- A set with itself: each unordered pair is formed once ---


@st.composite
def _self_pair_case(draw):
    m = draw(st.one_of(st.sampled_from(_SMALL_PRIMES + (36, 720)), st.integers(2, 4096)))
    a = draw(st.sets(st.integers(1, m - 1), max_size=min(m - 1, 120))) if m > 1 else set()
    if draw(st.booleans()):
        a.add(0)
    return m, sorted(a), draw(st.integers(1, 400)), draw(st.integers(1, 8))


@settings(max_examples=300, deadline=None)
@given(_self_pair_case())
@example((720, [0] + list(range(1, 700, 7)), 100, 8))  # several blocks, with 0
def test_self_pair_sets_property_across_blocks(case):
    # Blocks of as few as one row and as few as one pair value; the FFT is
    # off so that the sum set is enumerated too.
    m, a, chunk, rows = case
    sa = _set(m, a)
    with mock.patch.object(setops, "_CHUNK_ELEMS", chunk), mock.patch.object(
        setops, "_SELF_ROWS", rows
    ), mock.patch.object(setops, "_fft_pays", return_value=False):
        got_sum, got_prod = sumset(sa, sa), productset(sa, sa)
    assert got_sum.elements == naive_sumset(a, a, m)
    assert got_prod.elements == naive_productset(a, a, m)
    _assert_stored_form(got_sum, m)
    _assert_stored_form(got_prod, m)


def test_self_pairs_form_nine_sixteenths_and_counts_all(monkeypatch):
    m, n = 3600, 400
    a = _set(m, range(1, 2 * n, 2))
    formed = []
    original = setops._pair_blocks

    def spy(*args):
        for vals in original(*args):
            formed.append(vals.size)
            yield vals

    monkeypatch.setattr(setops, "_pair_blocks", spy)
    assert productset(a, a).elements == naive_productset(a.elements, a.elements, m)
    assert sum(formed) == 9 * n * n // 16  # 8 blocks of 50 rows
    formed.clear()
    b = _set(m, a.array)  # equal, but not the same set: all pairs
    assert productset(a, b).elements == naive_productset(a.elements, a.elements, m)
    assert sum(formed) == n * n
    formed.clear()
    x = a.array[None]
    counts = setops._enumerated(x, x, m, np.multiply)
    assert int(counts.sum()) == sum(formed) == n * n  # counts need ordered pairs, with y the same row as x


# --- Windowed counts: each axis only as long as the operands' arcs need ---

_BOX_MODULI = (720, 3600, 5040, 486, 1024)


def _spy_plans(monkeypatch):
    """Records (plan, certified) of every _cyclic_rows call: certified when every row passed its guard."""
    plans = []
    original = setops._cyclic_rows

    def spy(plan, x, y, rows):
        out = original(plan, x, y, rows)
        plans.append((plan, out is not None and bool(out[1].all())))
        return out

    monkeypatch.setattr(setops, "_cyclic_rows", spy)
    return plans


def _arc_points(start, width, n, cap=120):
    """start, ..., start + width - 1 mod n, thinned to about cap points with
    both ends kept, so that the arc stays start and width."""
    step = -(-width // cap)
    return sorted({(start + i) % n for i in range(0, width, step)} | {(start + width - 1) % n})


@st.composite
def _widths(draw, n, cap):
    """Two arc widths, at times on either side of wx + wy - 1 = n."""
    wx = draw(st.integers(1, min(n, cap)))
    edge = n + 1 - wx  # wy at which the arcs just fill Z_n
    wy = draw(st.one_of(st.integers(1, min(n, cap)), st.integers(max(1, edge - 2), min(n, edge + 2))))
    return wx, wy


@st.composite
def _additive_window_case(draw):
    """Two additive windows of Z_m, either of which may wrap across 0, and a
    side of the gate: the real one (None) or forced."""
    m = draw(st.sampled_from((101, 257, 499, 720, 1024, 4093, 4096)))
    wa, wb = draw(_widths(m, 400))
    a = _arc_points(draw(st.integers(0, m - 1)), wa, m)
    b = _arc_points(draw(st.integers(0, m - 1)), wb, m)
    return m, a, b, draw(st.sampled_from((1, -1))), draw(st.sampled_from((None, True, False)))


@settings(max_examples=200, deadline=None)
@given(_additive_window_case())
@example((4093, list(range(4000, 4093)) + list(range(60)), list(range(17, 167)), -1, None))  # wraps; FFT
@example((101, list(range(60)), list(range(42)), 1, True))  # 60 + 42 - 1 = 101: no room, whole
@example((101, list(range(60)), list(range(41)), 1, True))  # 100 < 101: a window of 100, L = 100
def test_windowed_additive_counts_and_sumset_property(case):
    m, a, b, sign, force = case
    with mock.patch.object(setops, "_fft_pays", return_value=force) if force is not None else mock.MagicMock():
        counts = _sums(_set(m, a), _set(m, b), sign)
        got_sum = sumset(_set(m, a), _set(m, b))
    assert _counts_dict(counts, m) == naive_additive_counts(a, b, sign, m)
    assert int(counts.sum()) == len(a) * len(b)
    assert got_sum.elements == naive_sumset(a, b, m)
    _assert_stored_form(got_sum, m)


@st.composite
def _geometric_window_case(draw):
    """Numerators g^s ... g^(s+w) mod a prime, 0 at times, and denominators
    the same shape: an arc in discrete-log coordinates."""
    p = draw(st.sampled_from((101, 499, 1009, 4093)))
    g, n = find_generator(make_modulus(p)), p - 1
    wx, wa = draw(_widths(n, 300))
    xs = [pow(g, e, p) for e in _arc_points(draw(st.integers(0, n - 1)), wx, n)]
    a = [pow(g, e, p) for e in _arc_points(draw(st.integers(0, n - 1)), wa, n)]
    return p, sorted(set(xs) | ({0} if draw(st.booleans()) else set())), sorted(a), draw(
        st.sampled_from((None, True, False))
    )


@settings(max_examples=150, deadline=None)
@given(_geometric_window_case())
@example((4093, [pow(2, e, 4093) for e in range(100, 300)], [pow(2, e, 4093) for e in range(7, 150)], None))
def test_windowed_quotient_counts_over_geometric_windows(case):
    p, xs, a, force = case
    xs = _unit_numerators(xs, p)
    with mock.patch.object(setops, "_fft_pays", return_value=force) if force is not None else mock.MagicMock():
        counts = _quotients(_set(p, xs), _set(p, a))
    assert _counts_dict(counts, p) == naive_quotient_counts(xs, a, p)
    assert int(counts.sum()) == len(xs) * len(a)


@st.composite
def _box_case(draw):
    """Units in a box of per-axis arcs of the unit group of Z_m, each arc possibly
    wrapping, with non-unit numerators at times; the FFT side forced, since
    the pairs of such small sets never pay."""
    m = draw(st.sampled_from(_BOX_MODULI))
    shape = setops._TABLES.read(m, setops._unit_shape)["shape"]
    grid = setops._TABLES.read(m, setops._unit_residues)["residues"].reshape(shape)

    def box():
        # Thin boxes (one arc of up to 3, the others of 1) leave room even on
        # axes of length 6: |X| + |Y| - 1 < n.
        thin = draw(st.sampled_from((None,) + tuple(range(len(shape)))))
        widths = [min(n, 40) if thin is None else 3 if i == thin else 1 for i, n in enumerate(shape)]
        arcs = [(np.arange(draw(st.integers(1, w))) + draw(st.integers(0, n - 1))) % n for w, n in zip(widths, shape)]
        cells = grid[np.ix_(*arcs)].ravel()
        return sorted(set(cells[:: -(-cells.size // 60)].tolist()))

    xs, a = box(), box()
    if draw(st.booleans()):
        xs = sorted(set(xs) | {x for x in range(0, m, 7) if math.gcd(x, m) > 1})
    return m, xs, a, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(_box_case())
@example((1024, [1, 3, 5, 7, 9, 1021, 1023], [3, 9, 27, 81], True))  # ±3^k: short arcs on the long axis
def test_windowed_quotient_counts_over_unit_group_boxes(case):
    m, xs, a, pays = case
    xs = _unit_numerators(xs, m)
    with mock.patch.object(setops, "_fft_pays", return_value=pays):
        counts = _quotients(_set(m, xs), _set(m, a))
    assert _counts_dict(counts, m) == naive_quotient_counts(xs, a, m)


def test_box_residues_are_the_group_residues_on_the_box():
    # A windowed box reads g^(s + j) per axis; the whole group's cached
    # residues, gathered at the same coordinates, must agree.
    rng = np.random.default_rng(5)
    for m in _BOX_MODULI + (101, 4093):
        shape = setops._TABLES.read(m, setops._unit_shape)["shape"]
        grid = setops._TABLES.read(m, setops._unit_residues)["residues"].reshape(shape)
        assert np.array_equal(setops._box_residues(m, setops._whole(shape)[0]), grid.ravel())
        for _ in range(20):
            plan = []
            for n in shape:
                w, s, t = int(rng.integers(1, n + 1)), int(rng.integers(0, n)), int(rng.integers(0, n))
                plan.append((n, s, t, w, setops._smooth(w)))
            want = grid[np.ix_(*[(s + t + np.arange(w)) % n for n, s, t, w, _ in plan])].ravel()
            assert np.array_equal(setops._box_residues(m, tuple(plan)), want), (m, plan)


def test_extremal_counts_transform_below_the_modulus(monkeypatch):
    # J of a constructed set: AA fills an arc of the discrete logs and A+A
    # one of Z_p, so both counts transform at far less than p - 1.
    p = 100003
    built = build_extremal(p, 2000)
    a = built.chosen
    d = Derivation(a)
    sums = d.family.sums  # the pieces behind J, with AA built before the spy
    d.prods
    plans = _spy_plans(monkeypatch)
    quotients, differences = d.quotients, setops._row_counts(sums, a.array[None], p, np.subtract)[0]
    assert [(len(plan), ok) for plan, ok in plans] == [(1, True), (1, True)]
    (((n_q, _, _, box_q, length_q),), _), (((n_d, _, _, box_d, length_d),), _) = plans
    assert (n_q, n_d) == (p - 1, p)
    assert box_q < p - 1 and box_d < p and max(length_q, length_d) < p - 1
    assert length_q <= 4 * built.window_len and length_d <= 4 * built.window_len
    # The same counts enumerated.
    with mock.patch.object(setops, "_fft_pays", return_value=False):
        assert np.array_equal(quotients, Derivation(a).quotients)
        assert np.array_equal(differences, setops._row_counts(sums, a.array[None], p, np.subtract)[0])
    assert d.quad_count == int(np.dot(quotients, differences))


@pytest.mark.parametrize("guard", ["a_priori_bound", "residual", "mass"])
def test_windowed_guard_failure_falls_back_to_exact_enumeration(monkeypatch, guard):
    p = 4093
    g = find_generator(make_modulus(p))
    a = [(4000 + i) % p for i in range(300)]  # wraps across 0
    b = list(range(17, 267))
    xs = [pow(g, e, p) for e in range(4000, 4300)]  # wraps across the order p - 1
    den = [pow(g, e, p) for e in range(5, 255)]
    plans, calls, values = _spy_plans(monkeypatch), _spy_enumeration(monkeypatch), _spy_enumeration(monkeypatch, True)
    if guard == "a_priori_bound":
        monkeypatch.setattr(setops, "_FFT_ERROR_CONSTANT", 1e30)
    elif guard == "residual":
        _noisy_irfftn(monkeypatch, 7, 0.3)
    else:
        _noisy_irfftn(monkeypatch, 7, 1.0)  # rounds cleanly, one pair too many
    assert sumset(_set(p, a), _set(p, b)).elements == naive_sumset(a, b, p)
    for sign in (1, -1):
        assert _counts_dict(_sums(_set(p, a), _set(p, b), sign), p) == naive_additive_counts(a, b, sign, p)
    assert _counts_dict(_quotients(_set(p, xs), _set(p, den)), p) == naive_quotient_counts(xs, den, p)
    # Every count planned a window (box and length below n), and none certified.
    assert len(plans) == 4 and all(not ok for _, ok in plans)
    assert all(box < n and length < n for ((n, _, _, box, length),), _ in plans)
    # The sum set is read off its box, so with the box uncertified it enumerates its values, not counts.
    assert calls == [(p, len(a))] * 2 + [(p, len(xs))]
    assert values == [(p, len(a))]


@pytest.mark.parametrize("guard", [None, "a_priori_bound", "residual"])
def test_windowed_sumset_needs_no_length_m_counts(monkeypatch, guard):
    # At m = 2^31 - 1, over any memory budget, {0, ..., 999} + itself is read off its 2,000-cell box; a box
    # that fails its guard enumerates the values. Neither allocates anything of length m.
    m = 2**31 - 1
    a = _set(m, range(1000))
    if guard == "a_priori_bound":
        monkeypatch.setattr(setops, "_FFT_ERROR_CONSTANT", 1e30)
    elif guard == "residual":
        _noisy_irfftn(monkeypatch, 7, 0.3)
    plans = _spy_plans(monkeypatch)
    tracemalloc.start()
    try:
        got = sumset(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got.array, np.arange(1999))
    assert [(plan[0][3:], ok) for plan, ok in plans] == [((1999, 2000), guard is None)]
    assert peak < 64 << 20
