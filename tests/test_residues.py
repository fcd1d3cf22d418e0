import math

import numpy as np
import pytest

from sumprod.residues import (
    NonInvertibleError,
    find_generator,
    make_modulus,
    min_gcd,
    residue_set,
    unit_part,
)
from sumprod.setops import _unit_group

from oracles import mod_inverse, multiplicative_order, naive_divisors, naive_dlog_table, smallest_primitive_root


def test_modulus_examples():
    nine = make_modulus(9)
    assert nine.divisors == (1, 3, 9)
    assert nine.divisor_halfpower_sum == pytest.approx(1 + math.sqrt(3), rel=1e-12)
    assert not nine.is_prime

    seven = make_modulus(7)
    assert seven.is_prime
    assert seven.divisor_halfpower_sum == 1.0

    twelve = make_modulus(12)
    assert twelve.divisors == (1, 2, 3, 4, 6, 12)
    expected = sum(math.sqrt(d) for d in naive_divisors(12)[:-1])
    assert twelve.divisor_halfpower_sum == pytest.approx(expected, rel=1e-12)


def test_modulus_rejects_out_of_range():
    for bad in (1, 0, -3, (1 << 31) + 1):
        with pytest.raises(ValueError):
            make_modulus(bad)


def test_divisors_match_trial_division_up_to_10k():
    for m in range(2, 10_001):
        mod = make_modulus(m)
        assert list(mod.divisors) == naive_divisors(m)
        direct = sum(math.sqrt(d) for d in mod.divisors[:-1])
        assert abs(mod.divisor_halfpower_sum - direct) <= 1e-12 * max(direct, 1.0)
        assert mod.is_prime == (len(mod.divisors) == 2)
        total = 1
        for prime, exp in mod.factorization:
            total *= prime**exp
        assert total == m


def test_generator_examples():
    assert find_generator(make_modulus(7)) == 3
    assert find_generator(make_modulus(5)) == 2
    assert find_generator(make_modulus(2)) == 1
    with pytest.raises(ValueError):
        find_generator(make_modulus(8))


def test_generator_is_smallest_primitive_root_up_to_10k():
    primes = [m for m in range(2, 10_001) if make_modulus(m).is_prime]
    for p in primes:
        g = find_generator(make_modulus(p))
        if p <= 500:
            assert g == smallest_primitive_root(p)
            acc, seen = 1, set()
            for _ in range(p - 1):
                seen.add(acc)
                acc = acc * g % p
            assert seen == set(range(1, p))
        else:
            cofactors = {q for q, _ in make_modulus(p - 1).factorization}
            assert all(pow(g, (p - 1) // q, p) != 1 for q in cofactors)


def test_mod_inverse_examples():
    assert mod_inverse(2, make_modulus(5)) == 3
    assert mod_inverse(1, make_modulus(97)) == 1
    with pytest.raises(NonInvertibleError) as err:
        mod_inverse(3, make_modulus(9))
    assert err.value.gcd == 3


def test_mod_inverse_round_trip_up_to_2000():
    for m in range(2, 2001):
        mod = make_modulus(m)
        for a in range(1, m):
            if math.gcd(a, m) == 1:
                assert a * mod_inverse(a, mod) % m == 1


def _dlog_dict(p):
    """(g, {g^k: k}) from the one axis of the unit group of a prime p > 2."""
    shape, pow_of, ((q, exp_of),) = _unit_group(p)
    assert q == p and shape == (p - 1,) and exp_of.dtype == np.int32
    assert exp_of[pow_of].tolist() == list(range(p - 1))
    return int(pow_of[1]), dict(zip(pow_of.tolist(), range(p - 1)))


def test_dlog_table_examples():
    assert naive_dlog_table(5, 2) == {1: 0, 2: 1, 4: 2, 3: 3}
    assert _dlog_dict(5) == (2, naive_dlog_table(5, 2))
    for p, g in ((7, 3), (13, 2), (101, 2)):
        got_g, table = _dlog_dict(p)
        assert got_g == g and table == naive_dlog_table(p, g)
        assert table[g] == 1 and table[1] == 0
        assert sorted(table.keys()) == list(range(1, p))
        assert sorted(table.values()) == list(range(p - 1))
        for a, k in table.items():
            assert pow(g, k, p) == a


def test_min_gcd_examples():
    mod9 = make_modulus(9)
    assert min_gcd(residue_set(mod9, [3, 5])) == 1
    assert min_gcd(residue_set(mod9, [0, 3, 6])) == 3
    assert min_gcd(residue_set(mod9, [0])) == 9
    with pytest.raises(ValueError):
        min_gcd(residue_set(mod9, []))


def test_unit_part_examples():
    mod6 = make_modulus(6)
    assert unit_part(residue_set(mod6, [1, 2, 3, 4])).elements == {1}
    mod7 = make_modulus(7)
    a = residue_set(mod7, [1, 2, 3, 4])
    assert unit_part(a).elements == a.elements
    assert unit_part(residue_set(make_modulus(9), [0])).elements == set()


def test_min_gcd_agrees_with_unit_part():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(2, 200))
        size = int(rng.integers(1, m + 1))
        mod = make_modulus(m)
        a = residue_set(mod, rng.choice(m, size=size, replace=False).tolist())
        assert (min_gcd(a) == 1) == (unit_part(a).size > 0)
        assert unit_part(a).elements == {x for x in a.array.tolist() if math.gcd(x, m) == 1}


def test_residue_set_membership_and_views():
    mod = make_modulus(11)
    a = residue_set(mod, [3, 7, 1])
    assert len(a) == a.size == 3
    assert 7 in a and 2 not in a
    # Hashing and comparing read the array; the frozenset view is built only on request.
    assert hash(a) == hash(residue_set(mod, [1, 3, 7])) and a == residue_set(mod, [7, 3, 1])
    assert "elements" not in a.__dict__
    assert a.array.tolist() == [1, 3, 7]
    assert residue_set(mod, np.array([7, 1, 3])).elements == a.elements
    with pytest.raises(ValueError):
        residue_set(mod, [11])
    with pytest.raises(ValueError):
        residue_set(mod, [-1])
    # Non-integers are rejected, not truncated by int().
    seven = make_modulus(7)
    for bad in (2.9, True, np.float64(3.5), "4", np.bool_(True)):
        with pytest.raises(ValueError, match="must be an integer"):
            residue_set(seven, [1, bad])
    with pytest.raises(ValueError, match="must be an integer"):
        residue_set(seven, [2.9, True, np.float64(3.5), "4"])
