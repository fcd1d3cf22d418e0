import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumprod import estimates, setops, sweeps
from sumprod.estimates import Check, Derivation, field_bound_report, ring_bound_report
from sumprod.residues import find_generator, make_modulus, residue_set
from sumprod.sweeps import (
    CSV_HEADER,
    DuplicateResidueWarning,
    SweepConfig,
    SweepRow,
    _family_rows,
    _report_row,
    derive_seed,
    format_row,
    parse_set_file,
    run_exhaustive,
    run_sweep,
    splitmix64,
    write_csv,
)

from oracles import naive_additive_counts, naive_product_counts, naive_productset, naive_sumset


def _reference_set(mod, size, derived, zero_free):
    """A trial's set, drawn as a sweep draws it."""
    return residue_set(mod, sweeps._draw(mod.m, size, derived, zero_free))


def _reference_rows(cfg, size, trials):
    """Each trial's row from the single-set API: its own Derivation and report."""
    mod, rows = make_modulus(cfg.modulus), []
    for trial in trials:
        derived = derive_seed(cfg.seed, size, trial)
        a_set = _reference_set(mod, size, derived, cfg.kind == "prime")
        rows.append(_report_row(cfg, trial, derived, Derivation(a_set)))
    return rows


def test_parse_set_file_examples(tmp_path):
    mod7 = make_modulus(7)
    path = tmp_path / "a.txt"
    path.write_text("1 2 3 # tail\n")
    assert parse_set_file(str(path), mod7).elements == {1, 2, 3}

    dup = tmp_path / "dup.txt"
    dup.write_text("3 3\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = parse_set_file(str(dup), mod7)
    assert got.elements == {3}
    assert sum(1 for w in caught if issubclass(w.category, DuplicateResidueWarning)) == 1

    bad = tmp_path / "bad.txt"
    bad.write_text("9\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_set_file(str(bad), make_modulus(9))

    neg = tmp_path / "neg.txt"
    neg.write_text("-1\n")
    with pytest.raises(ValueError, match="out of range"):
        parse_set_file(str(neg), mod7)

    alpha = tmp_path / "alpha.txt"
    alpha.write_text("1 x\n")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_set_file(str(alpha), mod7)

    # int() would accept these: an underscore, a non-ASCII digit, a plus sign
    for token in ("1_0", "\u0663", "+5"):
        odd = tmp_path / "odd.txt"
        odd.write_text(f"1\n2 {token} # note\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"odd.txt:2: non-numeric token '{token}'")):
            parse_set_file(str(odd), make_modulus(101))

    with pytest.raises(OSError):
        parse_set_file(str(tmp_path / "missing.txt"), mod7)


def test_splitmix64_known_vector():
    # first output of the reference splitmix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(splitmix64(0)) != splitmix64(0)


def test_derive_seed_is_documented_mix():
    seed, size, trial = 42, 10, 3
    expect = splitmix64(splitmix64(splitmix64(42) ^ 10) ^ 3)
    assert derive_seed(seed, size, trial) == expect
    seen = {derive_seed(1, s, t) for s in range(20) for t in range(20)}
    assert len(seen) == 400


def test_sweep_config_validation(tmp_path):
    with pytest.raises(ValueError, match="kind"):
        run_sweep(SweepConfig(7, "weird", (2,), 1, 0))
    with pytest.raises(ValueError, match="prime"):
        run_sweep(SweepConfig(8, "prime", (2,), 1, 0))
    with pytest.raises(ValueError, match="available"):
        run_sweep(SweepConfig(7, "prime", (7,), 1, 0))  # prime sweeps are zero-free
    assert len(run_sweep(SweepConfig(7, "ring", (7,), 1, 0))) == 1  # ring sweeps may draw 0
    with pytest.raises(ValueError, match="trials"):
        run_sweep(SweepConfig(7, "prime", (2,), 0, 0))
    with pytest.raises(ValueError, match="sizes"):
        run_sweep(SweepConfig(7, "prime", (), 1, 0))


def test_sweep_deterministic_across_threads(tmp_path):
    cfg = lambda out: SweepConfig(  # noqa: E731
        modulus=101,
        kind="prime",
        sizes=(5, 17),
        trials=12,
        seed=42,
        out_path=str(tmp_path / out),
    )
    rows_a = run_sweep(cfg("a.csv"), threads=1)
    rows_b = run_sweep(cfg("b.csv"), threads=1)
    rows_c = run_sweep(cfg("c.csv"), threads=8)
    assert rows_a == rows_b == rows_c
    data = [(tmp_path / n).read_bytes() for n in ("a.csv", "b.csv", "c.csv")]
    assert data[0] == data[1] == data[2]
    text = data[0].decode()
    assert text.splitlines()[0] == CSV_HEADER
    assert "\r" not in text
    assert len(text.splitlines()) == 1 + 2 * 12


def test_pool_gate_is_decided_from_sizes_alone():
    gate = lambda m, sizes, kind="ring": sweeps._pool_pays(SweepConfig(m, kind, sizes, 1, 0))  # noqa: E731
    assert not gate(8191, (8,)) and gate(8192, (8,))
    assert not gate(6007, (8,)) and gate(6007, (8,), "prime")
    assert not gate(5987, (8, 32, 128), "prime") and gate(6007, (8, 32, 128), "prime")
    assert not gate(3600, (8, 724)) and gate(3600, (725, 8))  # 724^2 < 2^19 <= 725^2
    assert not gate(499, (8, 724), "prime") and gate(499, (725,), "prime")
    # Families of many rows keep the same gate: from 725 their rows run a
    # few to a task on the pool.
    assert not gate(4096, (724,)) and gate(4096, (725,)) and gate(4093, (1000, 3000), "prime")
    # Every determinism test and golden sweep, and both sweeps of the
    # benchmark, run below the gate on one thread.
    for m, sizes in (
        (101, (5, 17)), (101, (3, 9, 27)), (36, (4, 12)), (36, (5, 12)),
        (499, (8, 32, 128, 400)), (499, (498,)), (3600, (8, 64, 512)),
    ):
        assert not gate(m, sizes) and not gate(m, sizes, "prime"), (m, sizes)


def _spy_on_pools(monkeypatch, cpus):
    """Pin the CPU count and record each pool's max_workers."""
    pools = []

    class Spy(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(sweeps, "ThreadPoolExecutor", Spy)
    monkeypatch.setattr(sweeps, "_usable_cpus", lambda: cpus)
    return pools


@pytest.mark.parametrize(
    "modulus, kind, sizes, pooled",
    [
        (101, "prime", (5, 17), False),
        (36, "ring", (4, 12), False),
        (8209, "prime", (5, 17), True),
        (16384, "ring", (8, 64), True),
        (5987, "prime", (5, 17), False),
        (6007, "prime", (5, 17), True),
        (3600, "ring", (725, 8), True),
        (4093, "prime", (8, 725), True),
    ],
)
def test_pool_runs_only_above_the_gate(monkeypatch, tmp_path, modulus, kind, sizes, pooled):
    pools = _spy_on_pools(monkeypatch, 8)
    blobs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"t{threads}.csv"
        run_sweep(SweepConfig(modulus, kind, sizes, 4, 99, str(out)), threads=threads)
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    assert len(blobs[0].splitlines()) == 1 + len(sizes) * 4
    assert pools == ([2, 8] if pooled else [])


def test_pool_never_outnumbers_the_cpus(monkeypatch):
    pools = _spy_on_pools(monkeypatch, 2)
    cfg = SweepConfig(8209, "prime", (5, 17), 4, 99)
    rows = run_sweep(cfg, threads=10**6)
    assert pools == [2]
    assert rows == run_sweep(cfg, threads=1)
    assert run_sweep(cfg) == rows and pools == [2, 2]



def test_evicting_every_table_leaves_sweep_rows_as_they_are(monkeypatch):
    # Under a 1-byte cap each table the store builds evicts every other modulus's tables, so the
    # second sweep and each thread count rebuild them; the rows cannot move.
    configs = [SweepConfig(3600, "ring", (8, 64, 512), 4, 5), SweepConfig(7001, "prime", (8, 32), 4, 5)]
    assert sweeps._pool_pays(configs[1]) and not sweeps._pool_pays(configs[0])
    uncapped = [run_sweep(cfg, threads=1) for cfg in configs]
    setops._TABLES.clear()
    monkeypatch.setattr(setops._TABLES, "cap", 1)
    for threads in (1, 2):
        assert [run_sweep(cfg, threads=threads) for cfg in configs] == uncapped
        assert list(setops._TABLES._moduli) == [7001]


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    # As under taskset -c 0 on two CPUs: os.cpu_count() still reads 2.
    monkeypatch.setattr(setops.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(setops.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert setops._usable_cpus() == 1
    pools = []
    monkeypatch.setattr(sweeps, "ThreadPoolExecutor", lambda max_workers: pools.append(max_workers))
    rows = run_sweep(SweepConfig(8209, "prime", (5, 17), 4, 99), threads=2)  # above the pool gate
    assert pools == [] and len(rows) == 8
    monkeypatch.delattr(setops.os, "sched_getaffinity")
    assert setops._usable_cpus() == 2


def test_sweep_rows_revalidate_against_fresh_reports():
    cfg = SweepConfig(101, "prime", (4, 9), 6, 7)
    rows = run_sweep(cfg, threads=2)
    mod = make_modulus(101)
    for row in rows[:: max(1, len(rows) // 8)]:
        subset = _reference_set(mod, row.size, row.derived_seed, True)
        rep = field_bound_report(subset)
        assert (rep.lhs, rep.size_sum, rep.size_prod) == (row.lhs, row.sum_size, row.prod_size)
        assert rep.ratio == row.ratio
        assert rep.quad_count == row.quad_count
        assert row.ratio == pytest.approx(row.lhs / row.bound, rel=1e-12)
        assert row.elapsed_micros == 0


def test_ring_sweep_rows():
    cfg = SweepConfig(36, "ring", (5, 12), 8, 99)
    rows = run_sweep(cfg, threads=2)
    assert all(row.quad_count is None for row in rows)
    assert all(row.ratio >= 1 / 64 for row in rows)
    line = format_row(rows[0])
    assert line.split(",")[10] == ""  # empty J column

    mod = make_modulus(36)
    subset = _reference_set(mod, rows[0].size, rows[0].derived_seed, False)
    rep = ring_bound_report(subset)
    assert rep.lhs == rows[0].lhs


def test_csv_float_formatting_roundtrips(tmp_path):
    cfg = SweepConfig(13, "prime", (3,), 4, 5, out_path=str(tmp_path / "r.csv"))
    rows = run_sweep(cfg, threads=1)
    lines = (tmp_path / "r.csv").read_text().splitlines()[1:]
    for line, row in zip(lines, rows):
        parts = line.split(",")
        assert float(parts[9]) == row.ratio
        assert float(parts[8]) == row.bound
        assert int(parts[4]) == row.derived_seed


def test_run_exhaustive_small():
    summary = run_exhaustive(5, 2)
    assert summary.subsets == 6
    assert summary.violations == 0
    assert summary.min_ratio == pytest.approx(1.875)
    assert summary.witness == (1, 4)

    single = run_exhaustive(7, 6)
    assert single.subsets == 1
    assert single.min_ratio == pytest.approx(1.0)
    assert single.violations == 0


def _naive_lhs(p, k):
    """(subset, |A+A||AA|) for every k-subset of the nonzero residues mod p."""
    return [
        (combo, len(naive_sumset(combo, combo, p)) * len(naive_productset(combo, combo, p)))
        for combo in combinations(range(1, p), k)
    ]


def test_run_exhaustive_matches_naive_sizes():
    cases = [(p, k) for p in (7, 11) for k in range(1, p)]
    for p, k in cases:
        scanned = _naive_lhs(p, k)
        ratios = [lhs / min(p * k, k**4 / p) for _, lhs in scanned]
        first = ratios.index(min(ratios))  # the first subset at the minimum
        summary = run_exhaustive(p, k)
        assert summary.subsets == len(scanned) == math.comb(p - 1, k)
        assert summary.min_ratio == ratios[first], (p, k)
        assert summary.witness == scanned[first][0], (p, k)
        assert summary.violations == 0


def test_run_exhaustive_largest_case():
    summary = run_exhaustive(19, 9)
    assert summary.subsets == 48620
    assert summary.min_ratio == 0.9473684210526315
    assert summary.witness == (1, 4, 5, 6, 7, 9, 11, 16, 17)
    assert summary.violations == 0


def test_run_exhaustive_counts_violations_of_the_rule(monkeypatch):
    # A rule stricter than the paper's, so that some subsets violate it.
    p, k = 11, 4
    lhs = sorted(value for _, value in _naive_lhs(p, k))
    median = lhs[len(lhs) // 2]
    strict = lambda p_, size, value: Check("median", value, median, value >= median)  # noqa: E731
    monkeypatch.setattr(sweeps, "field_constant", strict)
    expected = sum(value < median for value in lhs)
    assert 0 < expected < len(lhs)
    assert run_exhaustive(p, k).violations == expected


def test_run_exhaustive_input_errors():
    with pytest.raises(ValueError):
        run_exhaustive(23, 3)  # beyond the p <= 19 cap
    with pytest.raises(ValueError):
        run_exhaustive(8, 2)
    with pytest.raises(ValueError):
        run_exhaustive(7, 0)
    with pytest.raises(ValueError):
        run_exhaustive(7, 7)


def test_write_csv_header_exact(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], str(path))
    assert path.read_text() == (
        "modulus,kind,size,trial,derived_seed,sum_size,prod_size,"
        "lhs,bound,ratio,J,fourier_max,fourier_cap,elapsed_micros\n"
    )
    # format_row writes SweepRow's fields in declared order: the header's.
    names = ["J" if f.name == "quad_count" else f.name for f in fields(SweepRow)]
    assert ",".join(names) == CSV_HEADER


# --- Set families: every trial of one size in one batched pass ---

_FAMILY_MODULI = {
    "prime": (2, 3, 5, 101, 499, 4093, 4099, 7001),
    "ring": (2, 4, 8, 64, 1024, 243, 3125, 720, 3600, 4096, 8192, 65536),  # 65536: int64 scatter
}


@st.composite
def _family_case(draw):
    """A kind, a modulus, a size from 1 to m - 1 (few, some or
    nearly all residues), a trial count and the batch gate: real or forced."""
    kind = draw(st.sampled_from(sorted(_FAMILY_MODULI)))
    m = draw(st.sampled_from(_FAMILY_MODULI[kind]))
    top = max(1, m - 1) if kind == "prime" or m <= 1024 else 1500  # a ring cell enumerates its |A|^2 products
    size = draw(st.one_of(st.integers(1, min(top, 40)), st.integers(1, top), st.integers(max(1, top - 3), top)))
    trials, seed = draw(st.integers(1, 4)), draw(st.integers(0, 2**64 - 1))
    return kind, m, size, trials, seed, draw(st.sampled_from((None, True, False)))


@settings(max_examples=40, deadline=None)
@given(_family_case())
@example(("prime", 2, 1, 3, 0, None))
@example(("ring", 2, 1, 3, 0, None))
@example(("ring", 4, 3, 4, 5, True))
@example(("ring", 8, 7, 4, 5, False))
@example(("prime", 499, 400, 3, 9, None))  # every count transforms
@example(("ring", 3600, 512, 2, 9, None))  # sums and quotients transform, products enumerate
@example(("ring", 4096, 40, 3, 1, True))
@example(("prime", 4093, 4092, 1, 1, None))
@example(("ring", 4096, 4095, 1, 2, None))
@example(("prime", 7001, 700, 3, 4, False))
@example(("ring", 65536, 1500, 2, 6, False))  # products scattered in int64
@example(("ring", 65536, 300, 3, 7, None))
@example(("ring", 60000, 400, 2, 8, False))  # int32 products would wrap, and 2^32 is not 0 mod m
def test_family_rows_match_the_per_cell_rows(case):
    # Family rows equal the single-set reference rows, floats bit for bit.
    kind, m, size, trials, seed, force = case
    cfg, mod = SweepConfig(m, kind, (size,), trials, seed), make_modulus(m)
    with mock.patch.object(setops, "_fft_pays", return_value=force) if force is not None else mock.MagicMock():
        family = _family_rows(cfg, mod, size, range(trials))
    cells = _reference_rows(cfg, size, range(trials))
    assert family == cells
    assert [format_row(row) for row in family] == [format_row(row) for row in cells]


def _spy(monkeypatch, module, name):
    calls, original = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize(
    "modulus, kind, size, transforms",
    [(499, "prime", 8, 0), (499, "prime", 32, 2), (499, "prime", 400, 4),
     (3600, "ring", 8, 0), (3600, "ring", 512, 3)],
)
def test_family_counts_on_both_sides_of_the_batch_gate(monkeypatch, modulus, kind, size, transforms):
    # The benchmark's cells: tiny families enumerate every count; at 32 the
    # quotients and differences of 25 rows transform; at 400 all four; at
    # 512 a ring's A+A, A'A' and quotients, never its products (non-units).
    calls = _spy(monkeypatch, setops, "_cyclic_rows")
    mod = make_modulus(modulus)
    cfg = SweepConfig(modulus, kind, (size,), 25, 99)
    rows = _family_rows(cfg, mod, size, range(25))
    assert len(calls) == transforms and all(rows_ == 25 for *_, rows_ in calls)
    assert rows == _reference_rows(cfg, size, range(25))


def _noisy_irfftn(monkeypatch, index, noise):
    original = np.fft.irfftn

    def noisy(spectrum, s, **kwargs):
        out = original(spectrum, s, **kwargs)
        out.reshape(-1)[index] += noise
        return out

    monkeypatch.setattr(np.fft, "irfftn", noisy)


@pytest.mark.parametrize("guard", ["residual", "mass", "a_priori_bound"])
def test_family_guard_failure_falls_back_for_that_row_only(monkeypatch, guard):
    cfg, mod, size = SweepConfig(499, "prime", (400,), 4, 3), make_modulus(499), 400
    cells = _reference_rows(cfg, size, range(4))
    enumerated = _spy(monkeypatch, setops, "_enumerated")
    if guard == "a_priori_bound":
        monkeypatch.setattr(setops, "_FFT_ERROR_CONSTANT", 1e30)
    else:  # a flat index below one row's length lands in row 0
        _noisy_irfftn(monkeypatch, 7, 0.3 if guard == "residual" else 1.0)
    assert _family_rows(cfg, mod, size, range(4)) == cells
    row0 = _reference_set(mod, size, derive_seed(3, size, 0), True).array
    fallbacks = [call for call in enumerated if len(call[0]) == 1]
    if guard == "a_priori_bound":  # no transform at all: the whole batch enumerates in rows
        assert fallbacks == [] and enumerated and all(len(x) == 4 for x, *_ in enumerated)
    else:  # A+A, AA, Q and D each count row 0 alone, unpadded; A+A and AA from row 0's A
        assert enumerated == fallbacks and [n for _, _, n, *_ in fallbacks] == [499] * 4
        assert np.array_equal(fallbacks[0][0], row0[None]) and np.array_equal(fallbacks[1][0], row0[None])


def test_family_blocks_of_one_row_match(monkeypatch):
    # The row budget forced down to one element: every family is one row and
    # every enumeration block one entry, with the same rows and CSV bytes.
    for modulus, kind, sizes in ((101, "prime", (1, 5, 60, 100)), (720, "ring", (1, 7, 90, 719))):
        cfg = SweepConfig(modulus, kind, sizes, 3, 17)
        expected = run_sweep(cfg, threads=1)
        monkeypatch.setattr(setops, "_ROW_BUDGET", 1)
        calls = _spy(monkeypatch, sweeps, "_family_rows")
        assert run_sweep(cfg, threads=1) == expected
        assert [len(trials) for *_, trials in calls] == [1] * (3 * len(sizes))
        monkeypatch.undo()


@pytest.mark.parametrize("modulus", [4096, 4097])
def test_family_path_runs_at_every_modulus(monkeypatch, modulus):
    # Both sides of 4096: a 5-smooth length, and 4097 = 17 * 241, padded to 8640.
    families = _spy(monkeypatch, sweeps, "_family_rows")
    cfg = SweepConfig(modulus, "ring", (8, 64), 3, 5)
    rows = run_sweep(cfg, threads=1)
    assert [len(trials) for *_, trials in families] == [3, 3]
    assert rows == _reference_rows(cfg, 8, range(3)) + _reference_rows(cfg, 64, range(3))


def test_one_row_family_counts_as_one_set(monkeypatch):
    # At m = 720720 one transform fills the row budget: a family is one row,
    # and its enumerated quotient counts are one set's (one row of _enumerated).
    assert setops._family_step(720720, 64) == 1
    families, enumerated = _spy(monkeypatch, sweeps, "_family_rows"), _spy(monkeypatch, setops, "_enumerated")
    cfg = SweepConfig(720720, "ring", (64,), 2, 5)
    rows = run_sweep(cfg, threads=1)
    assert [len(trials) for *_, trials in families] == [1, 1]
    counted = [(len(x), n, combine) for x, _, n, combine, sets in enumerated if not sets]
    assert counted == [(1, 720720, np.multiply)] * 2
    assert rows == _reference_rows(cfg, 64, range(2))


@pytest.mark.parametrize("force", [True, False])
def test_family_quad_count_is_exact_above_the_int32_products(monkeypatch, force):
    # p > 46340: products of residues pass 2^31, for most pairs of large
    # residues at p = 65537. Each row's J goes through the exact dot of the
    # family's J (estimates._mv_dot).
    p, size = 65537, 200
    dots = _spy(monkeypatch, estimates, "_mv_dot")
    cfg = SweepConfig(p, "prime", (size,), 3, 11)
    with mock.patch.object(setops, "_fft_pays", return_value=force):
        rows = _family_rows(cfg, make_modulus(p), size, range(3))
    assert len(dots) == 3
    for row in rows:
        d = Derivation(_reference_set(make_modulus(p), size, row.derived_seed, True))
        assert row.quad_count == d.quad_count


def test_row_counts_match_the_oracles_with_padding_anywhere():
    # Rows padded with -1 at any position; sums over Z_m and products of
    # units, transformed (gate forced) or enumerated, sets or counts.
    rng = np.random.default_rng(59)
    for m in (2, 9, 101, 720, 1024):
        units = [u for u in range(m) if math.gcd(u, m) == 1]
        rows = [sorted(rng.choice(units, size=rng.integers(0, min(len(units), 30) + 1), replace=False).tolist())
                for _ in range(5)]
        pad = max(map(len, rows)) + 2
        x = np.full((5, pad), -1, dtype=np.int64)
        for r, row in enumerate(rows):
            x[r, rng.choice(pad, size=len(row), replace=False)] = row
        y = np.roll(x, 1, axis=0)
        for force in (True, False):
            with mock.patch.object(setops, "_fft_pays", return_value=force):
                sums, prods = setops._row_counts(x, y, m), setops._row_counts(x, y, m, np.multiply, True)
                sum_sets = setops._row_counts(x, x, m, sets=True)
                prod_sets = setops._row_counts(x, x, m, np.multiply, True, sets=True)
            for r in range(5):
                xs, ys = rows[r], rows[r - 1]
                assert _nonzero(sums[r]) == naive_additive_counts(xs, ys, 1, m)
                assert _nonzero(prods[r]) == naive_product_counts(xs, ys, m)
                assert _padded_set(sum_sets[r]) == sorted(naive_additive_counts(xs, xs, 1, m))
                assert _padded_set(prod_sets[r]) == sorted(naive_product_counts(xs, xs, m))



@st.composite
def _enumerated_case(draw):
    """A family of 2-5 rows over Z_m, each padded with -1 in front or at the back (an empty row allowed), paired
    with itself or with a second family, and block sizes that split a row's pairs or leave them whole: _ROW_BUDGET
    for the family, _CHUNK_ELEMS and _SELF_ROWS for each row alone, BITSET_LIMIT on either side of m."""
    m = draw(st.one_of(st.sampled_from((2, 9, 36, 101, 720, 46337, 46349)), st.integers(2, 600)))  # int32 or not
    count = draw(st.integers(2, 5))

    def family():
        rows = [sorted(draw(st.sets(st.integers(0, m - 1), max_size=min(m, 16)))) for _ in range(count)]
        x = np.full((count, max(map(len, rows)) + draw(st.integers(0, 2))), -1, dtype=np.int64)
        for r, row in enumerate(rows):
            start = x.shape[1] - len(row) if draw(st.booleans()) else 0  # padding in front or at the back
            x[r, start : start + len(row)] = row
        return rows, x

    xs, x = family()
    ys, y = (xs, x) if draw(st.booleans()) else family()
    blocks = {name: draw(st.integers(1, 400)) for name in ("_ROW_BUDGET", "_CHUNK_ELEMS")}
    blocks["_SELF_ROWS"], blocks["BITSET_LIMIT"] = draw(st.integers(1, 8)), draw(st.sampled_from((1, 1 << 24)))
    return m, xs, x, ys, y, blocks


@settings(max_examples=60, deadline=None)
@given(_enumerated_case())
@example((101, [[], [3, 50], [7]], np.array([[-1, -1], [3, 50], [-1, 7]]), [[], [3, 50], [7]],
          np.array([[-1, -1], [3, 50], [-1, 7]]), {"_ROW_BUDGET": 1 << 18, "_CHUNK_ELEMS": 1 << 22,
                                                   "_SELF_ROWS": 32, "BITSET_LIMIT": 1 << 24}))  # one block each
@example((720, [[1, 5, 719], [0, 2], [6]], np.array([[1, 5, 719], [0, 2, -1], [-1, -1, 6]]), [[], [7, 9], [1, 2, 3]],
          np.array([[-1, -1, -1], [7, 9, -1], [1, 2, 3]]), {"_ROW_BUDGET": 1, "_CHUNK_ELEMS": 1,
                                                            "_SELF_ROWS": 1, "BITSET_LIMIT": 1}))  # one entry each
@example((46349, [[46347, 46348], [46000]], np.array([[46347, 46348], [46000, -1]]), [[46348], [3, 46001]],
          np.array([[-1, 46348], [3, 46001]]), {"_ROW_BUDGET": 3, "_CHUNK_ELEMS": 3,
                                                  "_SELF_ROWS": 1, "BITSET_LIMIT": 1 << 24}))  # products past 2^31
def test_enumerated_family_matches_each_row_alone_and_the_oracles(case):
    # Every pair enumerated for all rows at once (each row in its own stretch of m + 1 cells, its pairs with
    # padding in the last) equals each row enumerated alone, unpadded, and the oracles' counts and sets.
    m, xs, x, ys, y, blocks = case
    with mock.patch.multiple(setops, **blocks):
        for combine in (np.add, np.multiply):
            for sets in (False, True):
                got = setops._enumerated(x, y, m, combine, sets)
                assert got.dtype == np.int64 and (sets or got.shape == (len(x), m))
                for r, (xr, yr) in enumerate(zip(xs, ys)):
                    row = np.array([xr], dtype=np.int64)
                    other = row if y is x else np.array([yr], dtype=np.int64)
                    alone = setops._enumerated(row, other, m, combine, sets)[0]
                    want = naive_additive_counts(xr, yr, 1, m) if combine is np.add else naive_product_counts(xr, yr, m)
                    if sets:
                        assert _padded_set(got[r]) == alone.tolist() == sorted(want), (r, combine.__name__)
                    else:
                        assert _nonzero(got[r]) == _nonzero(alone) == want, (r, combine.__name__)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((101, 499, 720, 3600)), st.booleans(), st.booleans(), st.integers(2, 6),
    st.sampled_from((0.75, 0.9, 1.1, 1.25)), st.integers(0, 2**32 - 1),
)
@example(499, True, False, 2, 0.9, 1)  # sums, enumerated just below the batch gate
@example(499, True, False, 2, 1.1, 1)  # and transformed just above it
@example(3600, False, False, 3, 0.9, 2)  # products of units on 4 axes
@example(3600, False, False, 3, 1.1, 2)
@example(720, False, True, 2, 0.75, 3)  # product sets
@example(720, False, True, 2, 1.25, 3)
def test_batch_gate_boundary_matches_the_oracles(m, add, sets, rows, factor, seed):
    # A family of rows whose pairs total a factor of the batch gate: the side
    # taken follows S log2 S / 4 per row plus 2 _AXIS_STEPS per axis, and the
    # counts equal the oracles' on both sides.
    pool = list(range(m)) if add else [u for u in range(m) if math.gcd(u, m) == 1]
    lengths = setops._whole((m,) if add else setops._TABLES.read(m, setops._unit_shape)["shape"])[1]
    size = math.prod(lengths)
    gate = rows * size * math.log2(size) / 4 + 2 * setops._AXIS_STEPS * len(lengths)
    rng = np.random.default_rng(seed)
    nx = min(len(pool), round(math.sqrt(gate * factor / rows)))
    ny = nx if sets else min(len(pool), round(gate * factor / rows / nx))
    xs = [sorted(rng.choice(pool, nx, replace=False).tolist()) for _ in range(rows)]
    ys = xs if sets else [sorted(rng.choice(pool, ny, replace=False).tolist()) for _ in range(rows)]
    x = np.array(xs, dtype=np.int64)
    y = x if sets else np.array(ys, dtype=np.int64)
    combine = np.add if add else np.multiply
    with mock.patch.object(setops, "_cyclic_rows", wraps=setops._cyclic_rows) as transform:
        got = setops._row_counts(x, y, m, combine, not add, sets=sets)
    assert transform.called == (rows * nx * ny > gate)
    for r in range(rows):
        want = naive_additive_counts(xs[r], ys[r], 1, m) if add else naive_product_counts(xs[r], ys[r], m)
        assert (_padded_set(got[r]) == sorted(want)) if sets else (_nonzero(got[r]) == want)


@st.composite
def _arc_family(draw):
    """2-6 rows inside one short arc: of Z_p for sums, of the discrete logs mod p (g^s ... g^(s+w-1)) for
    products of units; counts pair them with as many rows inside a second arc. The arcs are short enough
    that every axis of the plan is a window."""
    add, p, sets = draw(st.booleans()), draw(st.sampled_from((101, 499, 1009, 4093))), draw(st.booleans())
    n, g = (p, None) if add else (p - 1, find_generator(make_modulus(p)))
    width, count = draw(st.integers(1, n // 8)), draw(st.integers(2, 6))

    def family():
        start = draw(st.integers(0, n - 1))
        rows = [draw(st.sets(st.integers(0, width - 1), min_size=1, max_size=width)) for _ in range(count)]
        return [sorted((start + e) % n if add else pow(g, (start + e) % n, p) for e in row) for row in rows]

    xs = family()
    return p, add, xs, xs if sets else family(), sets


def _padded(rows):
    x = np.full((len(rows), max(map(len, rows))), -1, dtype=np.int64)
    for r, row in enumerate(rows):
        x[r, : len(row)] = row
    return x


@settings(max_examples=40, deadline=None)
@given(_arc_family())
@example((4093, True, [[0, 1, 4090, 4091, 4092], [3, 4092]], [[100, 104], [101]], False))  # x's arc wraps across 0
@example((101, False, [sorted(pow(2, e, 101) for e in (98, 99, 0, 1)), [32]], None, True))  # logs wrap the order
def test_windowed_families_match_the_oracles(case):
    # A family inside short arcs, forced to transform: each axis of its plan is a window (w < n), placed from
    # the arcs of all rows together, and every row's counts or set equals the oracle's.
    p, add, xs, ys, sets = case
    x = _padded(xs)
    y = x if sets else _padded(ys)
    ys = xs if sets else ys
    combine = np.add if add else np.multiply
    with mock.patch.object(setops, "_fft_pays", return_value=True), mock.patch.object(
        setops, "_cyclic_rows", wraps=setops._cyclic_rows
    ) as transform:
        got = setops._row_counts(x, y, p, combine, not add, sets=sets)
    ((n, _, _, w, _),) = transform.call_args.args[0]
    assert w < n == (p if add else p - 1)
    for r in range(len(xs)):
        want = naive_additive_counts(xs[r], ys[r], 1, p) if add else naive_product_counts(xs[r], ys[r], p)
        assert (_padded_set(got[r]) == sorted(want)) if sets else (_nonzero(got[r]) == want)


def _padded_set(row):
    """A set row of _row_counts: its values ascending, then only -1 padding."""
    k = int((row >= 0).sum())
    assert (row[k:] == -1).all()
    return row[:k].tolist()


def _nonzero(counts):
    nz = np.flatnonzero(counts)
    return dict(zip(nz.tolist(), counts[nz].tolist()))
