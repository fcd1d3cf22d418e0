import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from itertools import combinations

import pytest

from sumprod import sweeps
from sumprod.estimates import Check, field_bound_report, ring_bound_report
from sumprod.residues import make_modulus, residue_set
from sumprod.sweeps import (
    CSV_HEADER,
    DuplicateResidueWarning,
    SweepConfig,
    SweepRow,
    derive_seed,
    format_row,
    parse_set_file,
    run_exhaustive,
    run_sweep,
    splitmix64,
    write_csv,
)

from oracles import naive_productset, naive_sumset


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
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
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


def test_sweep_rows_revalidate_against_fresh_reports():
    cfg = SweepConfig(101, "prime", (4, 9), 6, 7)
    rows = run_sweep(cfg, threads=2)
    mod = make_modulus(101)
    from sumprod.sweeps import _draw_subset

    for row in rows[:: max(1, len(rows) // 8)]:
        subset = _draw_subset(mod, row.size, row.derived_seed, True)
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
    from sumprod.sweeps import _draw_subset

    subset = _draw_subset(mod, rows[0].size, rows[0].derived_seed, False)
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
