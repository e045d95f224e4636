"""Unit arithmetic: inverses, root lifting, group structure."""

import random

import pytest

import unitpoly
from unitpoly import (
    BudgetExceeded,
    Context,
    check_unit_group_structure,
    evaluate,
    hensel_roots,
    invert_permutation,
    unit_inverse,
)
from unitpoly import residue
from unitpoly.oracle import oracle_function_of, oracle_roots


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


def test_unit_inverse_refuses_a_zero_exponent():
    with pytest.raises(ValueError, match="^modulus exponent must be positive$"):
        unit_inverse(3, 0)


def test_hensel_roots_refuses_a_zero_exponent():
    with pytest.raises(ValueError, match="^modulus exponent must be positive$"):
        hensel_roots((1,), 0)


def test_hensel_roots_budget_holds_at_bit_zero():
    # x**2 + x has both 0 and 1 as roots modulo 2, past a branch limit of 1
    with pytest.raises(BudgetExceeded, match="^root search frontier grew past 1 at bit 0$"):
        hensel_roots((0, 1, 1), 4, branch_limit=1)


def test_unit_group_structure_check_needs_n_of_three():
    with pytest.raises(ValueError, match="^the structure check needs n >= 3$"):
        check_unit_group_structure(2)


@pytest.mark.parametrize("n", [1, 3, 1000, 4096])
def test_unit_inverse_large_n(n, rng):
    mod = 1 << n
    for a in (1, mod - 1, *(rng.randrange(1, mod, 2) for _ in range(20))):
        assert (a * unit_inverse(a, n)) % mod == 1


@pytest.mark.parametrize("n", [*range(1, 301), 1023, 1024, 2048, 4096])
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


def _product(factors, scale=1):
    """Coefficients of scale * prod (x - a)**k over the (a, k) in factors."""
    coeffs = [scale]
    for a, k in factors:
        for _ in range(k):
            shifted = [0, *coeffs]
            coeffs = [hi - a * lo for hi, lo in zip(shifted, coeffs + [0])]
    return coeffs


def _scanned_roots(coeffs, n):
    table = oracle_function_of(coeffs, n, domain="ring")
    return [x for x, v in zip(table.points(), table.values) if v == 0]


def _unit_permutation(rng, bits, degree):
    """Exact degree, coefficients of bits bits, both parities of a unit permutation."""
    while True:
        coeffs = [rng.getrandbits(bits) for _ in range(degree + 1)]
        if coeffs[-1] and sum(coeffs) & 1 and sum(coeffs[1::2]) & 1:
            return coeffs


def _shapes(rng, n):
    """Simple, repeated, scaled, constant, zero and rootless inputs modulo 2**n."""
    mod = 1 << n
    a, b, c = (rng.randrange(mod) for _ in range(3))
    s = rng.randrange(mod) | 1
    j = rng.randrange(1, n + 1)
    return {
        "linear, odd slope": [-a, 2 * rng.randrange(mod) + 1],
        "x**2 - s**2": [-s * s, 0, 1],
        "three simple factors": _product([(a, 1), (b, 1), (c, 1)]),
        "odd and even root": _product([(a | 1, 1), (b & -2, 1)]),
        "(x - a)**2 (x - b)**3": _product([(a, 2), (b, 3)]),
        "2**j (x - a)(x - b)": _product([(a, 1), (b, 1)], 1 << j),
        "2**j (x - a)**2 (x - b)**3": _product([(a, 2), (b, 3)], 1 << j),
        "odd constant": [2 * a + 1],
        "constant 2**j": [1 << j],
        "constant 2**n": [mod],
        "zero": [0],
        "no coefficients": [],
        "x**2 + x + 1, always odd": [1, 1, 1],
        "2x + 1": [1, 2],
        "x**2 + 1": [1, 0, 1],
        "x**2 - 3": [-3, 0, 1],
    }


@pytest.mark.parametrize("n", range(1, 13))
def test_hensel_roots_match_a_brute_force_scan_on_every_shape(n, rng):
    for _ in range(3):
        for shape, coeffs in _shapes(rng, n).items():
            assert hensel_roots(coeffs, n) == _scanned_roots(coeffs, n), shape


@pytest.mark.parametrize("n", [64, random.Random(0x5EED).randrange(100, 301)])
def test_hensel_roots_match_the_bit_by_bit_oracle(n, rng):
    mod = 1 << n
    for _ in range(3):
        a, b, c = (rng.randrange(mod) for _ in range(3))
        s = rng.randrange(mod) | 1
        p = _unit_permutation(rng, n, 9)
        inputs = [
            [-s * s, 0, 1],
            _product([(a, 1), (b, 1), (c, 1)]),
            _product([(a | 1, 1), (b & -2, 1)]),
            _product([(a, 1), (b, 1)], 1 << rng.randrange(1, 7)),
            [rng.randrange(mod) for _ in range(5)],
            [p[0] - (c | 1), *p[1:]],
        ]
        for coeffs in inputs:
            assert hensel_roots(coeffs, n) == oracle_roots(coeffs, n), coeffs


def test_repeated_roots_past_the_scan_match_the_oracle(rng):
    # 2**13 roots near b and 2**10 near a: both lift by a 2**e branching
    n = 20
    for _ in range(2):
        a, b = rng.randrange(1 << n), rng.randrange(1 << n)
        coeffs = _product([(a, 2), (b, 3)])
        assert hensel_roots(coeffs, n) == oracle_roots(coeffs, n, branch_limit=1 << 14)


def test_full_width_permutation_minus_c_has_one_odd_root_its_inverse_at_c(rng):
    n = rng.randrange(256, 513)
    ctx = Context(n)
    p = _unit_permutation(rng, n, len(ctx.coeff_bits) - 1)
    inverse = invert_permutation(p, ctx)
    for _ in range(3):
        c = rng.getrandbits(n) | 1
        coeffs = [p[0] - c, *p[1:]]
        roots = hensel_roots(coeffs, n)
        assert all(evaluate(coeffs, r, ctx) == 0 for r in roots)
        assert [r for r in roots if r & 1] == [evaluate(inverse, c, ctx)]


@pytest.mark.parametrize(
    "coeffs, bit",
    [((0,), 31), ((1, -2, 1), 63)],
    ids=["zero", "(x - 1)**2"],
)
def test_a_huge_frontier_is_refused_before_it_is_built(coeffs, bit, monkeypatch):
    # the roots modulo 2**32 (zero) or 2**64 ((x - 1)**2) number 2**32: counted root by
    # root, not built, they pass the default limit
    # p and p' once per root below the refusing level (at most 2 + 4 + 16 + 256 roots)
    # and once per root counted there; bit by bit took millions
    calls = []
    real = residue._eval_masked

    def counting(*args):
        calls.append(None)
        if len(calls) >= 1 << 10:
            raise AssertionError("the search evaluated p 2**10 times")
        return real(*args)

    monkeypatch.setattr(residue, "_eval_masked", counting)
    with pytest.raises(BudgetExceeded) as caught:
        hensel_roots(coeffs, 4096)
    assert str(caught.value) == f"root search frontier grew past {1 << 20} at bit {bit}"


@pytest.mark.parametrize(
    "coeffs, n, count",
    [
        ((-1, 0, 1), 4, 4),
        ((0,), 8, 256),
        ((1, -2, 1), 20, 1 << 10),
        (_product([(5, 1), (7, 1)], 1 << 5), 32, 128),
        (_product([(3, 2), (10, 3)]), 12, 320),
    ],
)
def test_a_branch_limit_of_the_root_count_returns_them_and_one_less_raises(coeffs, n, count):
    expected = _scanned_roots(coeffs, n) if n <= 12 else oracle_roots(coeffs, n)
    assert len(expected) == count
    assert hensel_roots(coeffs, n, branch_limit=count) == expected
    with pytest.raises(BudgetExceeded):
        hensel_roots(coeffs, n, branch_limit=count - 1)


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
