import math

import numpy as np
import pytest

from sumprod.estimates import field_checks, field_constant
from sumprod.extremal import best_window, build_extremal, power_prefix
from sumprod.residues import find_generator, make_modulus, residue_set

from oracles import naive_best_window, prefix_sum_best_window


def test_power_prefix_examples():
    mod7 = make_modulus(7)
    assert power_prefix(mod7, 3, 3).elements == {3, 2, 6}
    assert power_prefix(mod7, 3, 1).elements == {3}
    assert power_prefix(mod7, 3, 6).elements == set(range(1, 7))
    with pytest.raises(ValueError):
        power_prefix(mod7, 3, 7)
    with pytest.raises(ValueError, match="primitive"):
        power_prefix(mod7, 2, 5)  # order(2) = 3 < 5
    with pytest.raises(ValueError):
        power_prefix(make_modulus(8), 3, 2)


def test_best_window_examples():
    mod7 = make_modulus(7)
    prefix = power_prefix(mod7, 3, 3)
    # max count 2 is reached at offsets 0 and 1; smallest offset wins
    assert best_window(prefix, 3) == (0, 2)
    assert best_window(prefix, 3) == naive_best_window(prefix.elements, 3, 7)

    empty = residue_set(mod7, [])
    assert best_window(empty, 3) == (0, 0)

    full = residue_set(mod7, range(1, 7))
    offset, count = best_window(full, 6)
    assert count >= 7 - 2
    assert count == 6 and offset == 0  # window {1..6} catches everything


def test_best_window_matches_naive_scan():
    rng = np.random.default_rng(107)
    for p in (101, 1009):
        mod = make_modulus(p)
        for length in (3, 17, p // 3, p - 1):
            pick = rng.choice(p, size=max(1, p // 5), replace=False)
            points = residue_set(mod, pick.tolist())
            assert best_window(points, length) == naive_best_window(points.elements, length, p)
            assert best_window(points, length) == prefix_sum_best_window(points.array, length, p)

    # per-offset agreement with literal intersection counting
    mod = make_modulus(101)
    pick = rng.choice(101, size=23, replace=False)
    points = residue_set(mod, pick.tolist())
    length = 17
    ind = np.zeros(2 * 101, dtype=np.int64)
    ind[points.array] = 1
    ind[points.array + 101] = 1
    prefix = np.concatenate(([0], np.cumsum(ind)))
    for offset in range(101):
        window = {(offset + 1 + i) % 101 for i in range(length)}
        naive_count = len(points.elements & window)
        assert int(prefix[offset + 1 + length] - prefix[offset + 1]) == naive_count


def test_best_window_matches_every_offset_with_wraps_and_ties():
    # Every length at small primes, against the scan of all p offsets: point
    # sets whose best window wraps across 0, evenly spaced sets where many
    # offsets tie (the smallest wins), the empty set and random sets.
    rng = np.random.default_rng(113)
    for p in (2, 3, 5, 7, 11, 13, 31, 37):
        mod = make_modulus(p)
        shapes = [
            [],
            [p - 2, p - 1, 0, 1][: p],  # across 0
            list(range(0, p, 2)),  # evenly spaced: ties
            list(range(1, p, 3)),
        ] + [rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False).tolist() for _ in range(6)]
        for pick in shapes:
            points = residue_set(mod, sorted({x % p for x in pick}))
            for length in range(1, p):
                got = best_window(points, length)
                assert got == naive_best_window(points.elements, length, p), (p, pick, length)
                assert got == prefix_sum_best_window(points.array, length, p), (p, pick, length)


@pytest.mark.parametrize("p", [10007, 1000003])
def test_best_window_matches_the_prefix_sum_scan_at_large_primes(p):
    # Random points (empty, one, sparse, denser) at every length, and power
    # prefixes at the construction's lengths ceil(sqrt(p n)), n <= 300,
    # against the scan of all p offsets over a length-2p indicator, which
    # best_window no longer allocates.
    rng, mod = np.random.default_rng(p), make_modulus(p)
    g = find_generator(mod)
    for length in (1, 3, math.isqrt(p), math.isqrt(300 * p) + 1, p // 2, p - 1):
        cases = [rng.choice(p, size=size, replace=False) for size in (0, 1, 50, 3000)]
        if length <= math.isqrt(300 * p) + 1:
            cases.append(power_prefix(mod, g, length).array)
        for pick in cases:
            points = residue_set(mod, pick)
            assert best_window(points, length) == prefix_sum_best_window(points.array, length, p), (length, pick.size)


def test_window_average_identity_exact():
    # each point lies in exactly `length` windows, so the counts over all
    # p offsets sum to length * |points| exactly
    rng = np.random.default_rng(109)
    for p in (101, 1009, 10007):
        mod = make_modulus(p)
        g = find_generator(mod)
        for length in sorted({3, int(math.isqrt(p)), p // 2, p - 1}):
            prefix = power_prefix(mod, g, length)
            ind = np.zeros(2 * p, dtype=np.int64)
            ind[prefix.array] = 1
            ind[prefix.array + p] = 1
            cumulative = np.concatenate(([0], np.cumsum(ind)))
            offsets = np.arange(p)
            counts = cumulative[offsets + 1 + length] - cumulative[offsets + 1]
            assert int(counts.sum()) == length * prefix.size
            best = int(counts.max())
            assert best >= -(-(length * prefix.size) // p)
            assert best_window(prefix, length)[1] == best


def test_build_extremal_small_trace():
    built = build_extremal(7, 1)
    assert built.window_len == 3
    assert built.chosen.size == 1
    assert built.chosen.elements <= built.prefix.elements
    assert built.sum_size <= 5 and built.prod_size <= 5


def test_build_extremal_p101():
    built = build_extremal(101, 10)
    assert built.window_len == 32
    assert built.chosen.size == 10
    assert built.max_size <= 63
    window = {(built.offset + 1 + i) % 101 for i in range(built.window_len)}
    assert built.chosen.elements <= built.prefix.elements & window


def test_build_extremal_errors():
    with pytest.raises(ValueError, match="infeasible"):
        build_extremal(7, 6)  # ceil(sqrt(42)) = 7 > 6
    with pytest.raises(ValueError):
        build_extremal(7, 0)
    with pytest.raises(ValueError):
        build_extremal(10, 2)


def _cube_root_squared_ceil(p):
    """The least N with N^3 >= p^2, that is ceil(p^(2/3)), exactly."""
    n = round(p ** (2 / 3))
    while n**3 < p * p:
        n += 1
    while (n - 1) ** 3 >= p * p:
        n -= 1
    return n


def test_structural_bounds_and_field_sandwich():
    small = [(101, 5), (101, 50), (1009, 30), (1009, 200)]
    # From the paper's threshold N = ceil(p^(2/3)) to (p - 1)/2, where the
    # field bound reads |A+A||AA| >= pN/4 and the construction gives at most
    # (2M - 1)^2 with M = ceil(sqrt(pN)): the ratio is pinned within 16x.
    threshold = []
    for p in (499, 10007, 100003):
        low, high = _cube_root_squared_ceil(p), (p - 1) // 2
        threshold += [(p, low), (p, (low + high) // 2), (p, high)]
    for p, n in small + threshold:
        built = build_extremal(p, n)
        cap = 2 * built.window_len - 1
        assert built.sum_size <= cap and built.prod_size <= cap
        needed = -(-built.window_len**2 // p)
        assert built.window_count >= needed >= n
        # lower bound from the field estimate sandwiches the product
        lhs = built.sum_size * built.prod_size
        assert field_constant(p, n, lhs).holds
        assert lhs <= cap * cap
        if (p, n) in threshold:
            assert n**3 >= p * p and 4 * lhs >= p * n
            failed = [c.name for c in field_checks(built.chosen) if not c.holds]
            assert failed == [], (p, n, failed)
