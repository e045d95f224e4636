"""Unit arithmetic: inverses, root lifting, group structure."""

import pytest

import unitpoly
from unitpoly import BudgetExceeded, check_unit_group_structure, hensel_roots, unit_inverse
from unitpoly.oracle import oracle_function_of


def test_unit_inverse_has_one_definition():
    assert unitpoly.unit_inverse is unitpoly.residue.unit_inverse
    assert unitpoly.residue.unit_inverse is unitpoly.context.unit_inverse


def test_unit_inverse_small_values():
    assert unit_inverse(1, 4) == 1
    assert unit_inverse(3, 4) == 11
    assert unit_inverse(7, 4) == 7
    assert unit_inverse(5, 8) == 205


@pytest.mark.parametrize("n", range(1, 11))
def test_unit_inverse_exhaustive(n):
    mod = 1 << n
    for a in range(1, mod, 2):
        inv = unit_inverse(a, n)
        assert 0 <= inv < mod and inv & 1
        assert (a * inv) % mod == 1


@pytest.mark.parametrize("n", [1, 3, 1000, 4096])
def test_unit_inverse_large_n(n, rng):
    mod = 1 << n
    for a in (1, mod - 1, *(rng.randrange(1, mod, 2) for _ in range(20))):
        assert (a * unit_inverse(a, n)) % mod == 1


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 1023, 1024, 2048, 4096])
def test_unit_inverse_matches_pow_at_full_width(n, rng):
    top = 1 << (n - 1)
    for a in (top | 1, *(rng.getrandbits(n) | top | 1 for _ in range(20))):
        assert unit_inverse(a, n) == pow(a, -1, 1 << n)


def test_unit_inverse_reduces_argument_first():
    assert unit_inverse(17, 4) == 1
    assert unit_inverse(-1, 4) == 15


def test_unit_inverse_rejects_even():
    with pytest.raises(ValueError):
        unit_inverse(2, 4)
    with pytest.raises(ValueError):
        unit_inverse(0, 4)


def test_hensel_roots_known_sets():
    assert hensel_roots((-1, 0, 1), 4) == [1, 7, 9, 15]
    # every odd square is 1 mod 8
    assert hensel_roots((-1, 0, 1), 3) == [1, 3, 5, 7]
    assert hensel_roots((1, 0, 1), 3) == []
    assert hensel_roots((-5, 1), 4) == [5]
    assert hensel_roots((1,), 4) == []
    assert hensel_roots((0,), 3) == list(range(8))


@pytest.mark.parametrize("n", range(2, 9))
def test_hensel_roots_match_exhaustive_search(n, rng):
    for _ in range(20):
        deg = rng.randrange(1, 5)
        coeffs = tuple(rng.randrange(1 << n) for _ in range(deg + 1))
        table = oracle_function_of(coeffs, n, domain="ring")
        expected = [x for x, v in zip(table.points(), table.values) if v == 0]
        assert hensel_roots(coeffs, n) == expected


def test_hensel_roots_budget():
    # the zero polynomial doubles the frontier at every bit
    with pytest.raises(BudgetExceeded):
        hensel_roots((0,), 8, branch_limit=4)


def test_unit_group_structure_known_point():
    report = check_unit_group_structure(5)
    assert report.order_exponent == 3
    assert report.halfway_power == 17
    assert report.halfway_expected == 17
    assert report.passed


@pytest.mark.parametrize("n", range(3, 13))
def test_unit_group_structure_range(n):
    report = check_unit_group_structure(n)
    assert report.passed
    assert report.order_exponent == n - 2
    assert report.halfway_expected == (1 << (n - 1)) + 1


@pytest.mark.parametrize("n", [1, 3, 64, 1000])
def test_unit_inverses_match_one_at_a_time(n, rng):
    mod = 1 << n
    values = [1, mod - 1, -1, mod + 3, *(rng.randrange(1, mod, 2) for _ in range(20))]
    assert unitpoly.context.unit_inverses(values, n) == [unit_inverse(a, n) for a in values]
    assert unitpoly.context.unit_inverses([], n) == []
    with pytest.raises(ValueError):
        unitpoly.context.unit_inverses([3, 2, 5], n)
