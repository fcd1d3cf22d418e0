"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one "criterion N: PASS/FAIL" line (run pytest with -s to
see them) including the measured extremes, then asserts. Heavy case
generation is shared through module-scoped fixtures.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from sumprod.cli import main as cli_main
from sumprod.estimates import (
    Derivation,
    field_bound_report,
    field_checks,
    field_constant,
    master_inequality,
    ring_bound_report,
    ring_checks,
    spectral_checks,
    zm_extremal,
)
from sumprod.extremal import build_extremal
from sumprod.residues import make_modulus, residue_set

from oracles import count_quadruples_bruteforce

EXHAUSTIVE_FIELD_PRIMES = (5, 7, 11)
RANDOM_FIELD_PRIMES = (101, 499)
SPECTRAL_PRIMES = (11, 31, 101, 499)
EXHAUSTIVE_RING_MODULI = (4, 6, 8, 9)
RANDOM_RING_MODULI = (36, 100, 121)
CONSTRUCTION_PRIMES = (101, 1009, 10007)


def _report_line(n: int, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {n}: {status} ({time.perf_counter() - started:.1f}s) {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def _log_grid(top: int) -> list[int]:
    sizes = []
    s = 1
    while s < top:
        sizes.append(s)
        s *= 2
    sizes.append(top)
    return sizes


@pytest.fixture(scope="module")
def exhaustive_field_cases():
    """(p -> list of (size, lhs, ratio, quad_count, quad_lower)) over every
    nonempty zero-free subset."""
    out = {}
    for p in EXHAUSTIVE_FIELD_PRIMES:
        mod = make_modulus(p)
        rows = []
        for k in range(1, p):
            for combo in combinations(range(1, p), k):
                rep = field_bound_report(residue_set(mod, combo))
                rows.append((k, rep.lhs, rep.ratio, rep.quad_count, rep.quad_lower))
        out[p] = rows
    return out


@pytest.fixture(scope="module")
def random_field_cases():
    """1000 random zero-free subsets per size in a log grid, p in {101, 499}."""
    rng = np.random.default_rng(20260810)
    rows = []
    for p in RANDOM_FIELD_PRIMES:
        mod = make_modulus(p)
        for size in _log_grid(p - 1):
            for _ in range(1000):
                picks = rng.choice(p - 1, size=size, replace=False) + 1
                rep = field_bound_report(residue_set(mod, picks.tolist()))
                rows.append(
                    (p, size, rep.lhs, rep.size_sum, rep.size_prod, rep.quad_count, rep.quad_lower)
                )
    return rows


def test_criterion_1_exhaustive_field_bound(exhaustive_field_cases):
    started = time.perf_counter()
    ok = True
    minima = {}
    for p, rows in exhaustive_field_cases.items():
        for size, lhs, ratio, _, _ in rows:
            ok &= field_constant(p, size, lhs).holds
        minima[p] = min(ratio for _, _, ratio, _, _ in rows)
    detail = "min ratios " + ", ".join(f"p={p}: {r:.6f}" for p, r in sorted(minima.items()))
    _report_line(1, ok and all(r >= 0.25 for r in minima.values()), detail, started)


def test_criterion_2_randomized_field_bound(random_field_cases):
    started = time.perf_counter()
    constant_violations = 0
    master_violations = 0
    for p, size, lhs, size_sum, size_prod, _, _ in random_field_cases:
        if not field_constant(p, size, lhs).holds:
            constant_violations += 1
        if not master_inequality(p, size, size_sum, size_prod).holds:
            master_violations += 1
    detail = (
        f"{len(random_field_cases)} cases, constant violations {constant_violations}, "
        f"master violations {master_violations}"
    )
    _report_line(2, constant_violations == 0 and master_violations == 0, detail, started)


def test_criterion_3_quadruple_counts(exhaustive_field_cases, random_field_cases):
    started = time.perf_counter()
    lower_violations = 0
    for rows in exhaustive_field_cases.values():
        for _, _, _, quad, lower in rows:
            if quad < lower:
                lower_violations += 1
    for _, _, _, _, _, quad, lower in random_field_cases:
        if quad < lower:
            lower_violations += 1

    mismatches = 0
    mod11 = make_modulus(11)
    checked = 0
    for k in range(1, 5):
        for combo in combinations(range(1, 11), k):
            a = residue_set(mod11, combo)
            checked += 1
            if Derivation(a).quad_count != count_quadruples_bruteforce(a):
                mismatches += 1

    rng = np.random.default_rng(31337)
    primes = [p for p in range(3, 102) if make_modulus(p).is_prime]
    for _ in range(500):
        p = int(rng.choice(primes))
        size = int(rng.integers(1, min(12, p - 1) + 1))
        picks = rng.choice(p - 1, size=size, replace=False) + 1
        a = residue_set(make_modulus(p), picks.tolist())
        checked += 1
        if Derivation(a).quad_count != count_quadruples_bruteforce(a):
            mismatches += 1

    detail = f"lower-bound violations {lower_violations}, oracle mismatches {mismatches}/{checked}"
    _report_line(3, lower_violations == 0 and mismatches == 0, detail, started)


@pytest.fixture(scope="module")
def spectral_cases():
    """200 random zero-free cases across the four spectral primes."""
    rng = np.random.default_rng(4242)
    cases = []
    for i in range(200):
        p = SPECTRAL_PRIMES[i % len(SPECTRAL_PRIMES)]
        size = int(rng.integers(2, min(40, p - 1) + 1))
        picks = rng.choice(p - 1, size=size, replace=False) + 1
        a = residue_set(make_modulus(p), picks.tolist())
        d = Derivation(a)
        _, row, cs = spectral_checks(d)
        field_row = next(c for c in field_checks(d) if c.name == "fourier_cap")
        cases.append((p, d.quad_count, d.spectral_quad_count, row, cs, field_row))
    return cases


def test_criterion_4_spectral_identity(spectral_cases):
    started = time.perf_counter()
    worst = 0.0
    for _, exact, approx, *_ in spectral_cases:
        rel = abs(approx - exact) / max(exact, 1)
        worst = max(worst, rel)
    detail = f"{len(spectral_cases)} cases, worst relative error {worst:.3e}"
    _report_line(4, worst <= 1e-9, detail, started)


def test_criterion_5_character_sum_bounds(spectral_cases):
    started = time.perf_counter()
    kloosterman_failures = sum(1 for *_, row, _, _ in spectral_cases if not row.holds)
    cs_failures = sum(1 for *_, cs, _ in spectral_cases if not cs.holds)
    # field_checks and spectral_checks decide the one fourier_cap check alike.
    cap_mismatches = sum(1 for *_, row, _, field_row in spectral_cases if field_row != row)
    detail = (
        f"{len(spectral_cases)} cases, complete-sum cap failures {kloosterman_failures}, "
        f"cauchy-schwarz failures {cs_failures}, fourier_cap mismatches {cap_mismatches}"
    )
    _report_line(5, kloosterman_failures == 0 and cs_failures == 0 and cap_mismatches == 0, detail, started)


def test_criterion_6_construction_guarantees():
    started = time.perf_counter()
    ok = True
    built_count = 0
    for p in CONSTRUCTION_PRIMES:
        n_max = (p - 1) ** 2 // p
        for n in _log_grid(n_max):
            built = build_extremal(p, n)
            built_count += 1
            needed = -(-built.window_len**2 // p)
            ok &= built.chosen.size == n
            ok &= built.window_count >= needed
            ok &= max(built.sum_size, built.prod_size) <= 2 * built.window_len - 1
    detail = f"{built_count} constructions across p in {CONSTRUCTION_PRIMES}"
    _report_line(6, ok, detail, started)


def test_criterion_7_ring_bound():
    started = time.perf_counter()
    constant_violations = 0
    chain_violations = 0
    minima = {}
    cases = 0

    for m in EXHAUSTIVE_RING_MODULI:
        mod = make_modulus(m)
        worst = math.inf
        for k in range(1, m + 1):
            for combo in combinations(range(m), k):
                d = Derivation(residue_set(mod, combo))
                cases += 1
                worst = min(worst, ring_bound_report(d).ratio)
                constant, *chain = ring_checks(d)
                if not constant.holds:
                    constant_violations += 1
                if not all(c.holds for c in chain):
                    chain_violations += 1
        minima[m] = worst

    rng = np.random.default_rng(77)
    for m in RANDOM_RING_MODULI:
        mod = make_modulus(m)
        worst = math.inf
        for size in _log_grid(m):
            for _ in range(1000):
                picks = rng.choice(m, size=size, replace=False)
                d = Derivation(residue_set(mod, picks.tolist()))
                cases += 1
                worst = min(worst, ring_bound_report(d).ratio)
                constant, *chain = ring_checks(d)
                if not constant.holds:
                    constant_violations += 1
                if not all(c.holds for c in chain):
                    chain_violations += 1
        minima[m] = worst

    detail = (
        f"{cases} cases, constant violations {constant_violations}, "
        f"chain violations {chain_violations}, min ratios "
        + ", ".join(f"m={m}: {r:.4f}" for m, r in sorted(minima.items()))
    )
    _report_line(7, constant_violations == 0 and chain_violations == 0, detail, started)


def test_criterion_8_ring_extremal_example():
    started = time.perf_counter()
    primes = [p for p in range(2, 32) if make_modulus(p).is_prime]
    ok = True
    ratios = {}
    for p in primes:
        example = zm_extremal(p)
        ok &= (example.size_a, example.size_sum, example.size_prod) == (p, p, 1)
        ok &= 1 / 64 <= example.ratio <= 16
        ratios[p] = example.ratio
    detail = "ratios " + ", ".join(f"p={p}: {r:.4f}" for p, r in ratios.items())
    _report_line(8, ok, detail, started)


def test_criterion_9_sweep_determinism(tmp_path):
    started = time.perf_counter()
    base = [
        "sweep",
        "--modulus",
        "101",
        "--kind",
        "prime",
        "--sizes",
        "3,9,27",
        "--trials",
        "25",
        "--seed",
        "12345",
    ]
    codes = [
        cli_main(base + ["--out", str(tmp_path / "run1.csv"), "--threads", "1"]),
        cli_main(base + ["--out", str(tmp_path / "run2.csv"), "--threads", "1"]),
        cli_main(base + ["--out", str(tmp_path / "run8.csv"), "--threads", "8"]),
    ]
    blobs = [(tmp_path / name).read_bytes() for name in ("run1.csv", "run2.csv", "run8.csv")]

    ring = [
        "sweep",
        "--modulus",
        "36",
        "--kind",
        "ring",
        "--sizes",
        "4,12",
        "--trials",
        "20",
        "--seed",
        "777",
    ]
    codes += [
        cli_main(ring + ["--out", str(tmp_path / "ring1.csv"), "--threads", "1"]),
        cli_main(ring + ["--out", str(tmp_path / "ring8.csv"), "--threads", "8"]),
    ]
    ring_blobs = [(tmp_path / name).read_bytes() for name in ("ring1.csv", "ring8.csv")]

    ok = (
        all(code == 0 for code in codes)
        and blobs[0] == blobs[1] == blobs[2]
        and ring_blobs[0] == ring_blobs[1]
    )
    detail = f"prime csv {len(blobs[0])} bytes, ring csv {len(ring_blobs[0])} bytes, byte-identical across runs and thread counts"
    _report_line(9, ok, detail, started)
