"""Counting formulas, all reported as base-2 exponents."""

import itertools
import sys
import tracemalloc

import pytest

from unitpoly import (
    CensusReport,
    Context,
    census_report,
    count_permutational,
    count_reduced,
    count_ring_permutational,
    glue_polynomial,
    keller_beta,
    keller_exponent,
    keller_identity_check,
    max_reduced_degree,
    random_permutational_poly,
    two_adic_factorial_valuation,
)
from unitpoly import context
from unitpoly.census import identity_sweep
from unitpoly.context import coeff_widths
from unitpoly.oracle import (
    oracle_count_reduced,
    oracle_enumerate_reduced,
    oracle_factorial_valuation,
    oracle_function_of,
    oracle_is_permutation,
    oracle_keller_exponent,
    oracle_max_reduced_degree,
)


def test_valuation_matches_oracle():
    for i in range(301):
        assert two_adic_factorial_valuation(i) == oracle_factorial_valuation(i)


@pytest.mark.parametrize(
    "i, expected", [(1000, 994), (4096, 4095), (65535, 65519), (10**6, 999993)]
)
def test_valuation_landmarks(i, expected):
    assert two_adic_factorial_valuation(i) == expected


def test_valuation_rejects_negative():
    with pytest.raises(ValueError):
        two_adic_factorial_valuation(-1)


def test_degree_bound_matches_oracle():
    for n in range(1, 65):
        assert max_reduced_degree(n) == oracle_max_reduced_degree(n)


@pytest.mark.parametrize(
    "n, expected", [(1, 0), (4, 2), (64, 32), (128, 64), (512, 256), (4096, 2048)]
)
def test_degree_bound_landmarks(n, expected):
    assert max_reduced_degree(n) == expected


def test_degree_bound_refuses_a_zero_exponent():
    with pytest.raises(ValueError, match="^modulus exponent must be positive$"):
        max_reduced_degree(0)


def test_width_cache_is_bounded():
    # one Context per n must not keep one width table per n alive
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(2, 1025):
            Context(n)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 3 << 20


def test_degree_bound_stays_below_half():
    import math

    for n in range(1, 2050):
        assert max_reduced_degree(n) < (n + 1 + math.floor(math.log2(n))) / 2


@pytest.mark.parametrize("n, expected", [(2, 2), (3, 4), (4, 7), (5, 11), (6, 15)])
def test_count_reduced(n, expected):
    assert count_reduced(n) == expected


@pytest.mark.parametrize("n, expected", [(2, 1), (3, 3), (4, 6), (5, 10), (6, 14)])
def test_count_permutational(n, expected):
    assert count_permutational(n) == expected


@pytest.mark.parametrize("n, expected", [(2, 3), (3, 7), (4, 13), (5, 21)])
def test_count_ring_permutational(n, expected):
    assert count_ring_permutational(n) == expected


@pytest.mark.parametrize("n", (2, 3))
def test_ring_count_brute_force(n):
    # degree 2d+2 is past the whole-ring function degree bound, so this
    # enumeration hits every polynomial function of the ring
    mod = 1 << n
    width = 2 * max_reduced_degree(n) + 3
    perms = set()
    for coeffs in itertools.product(range(mod), repeat=width):
        table = oracle_function_of(coeffs, n, domain="ring")
        if oracle_is_permutation(table):
            perms.add(table.values)
    assert len(perms) == 1 << count_ring_permutational(n)


def test_ring_count_glue_decomposition_n4():
    # every class-preserving ring permutation is a splice of two unit
    # permutations, and adding one swaps the classes; counting both kinds
    # over all pairs reproduces the formula exactly
    n, mod = 4, 16
    unit_perms = []
    for rp in oracle_enumerate_reduced(n):
        table = oracle_function_of(rp, n)
        if oracle_is_permutation(table):
            unit_perms.append(dict(zip(table.points(), table.values)))
    assert len(unit_perms) == 1 << count_permutational(n)

    ring_tables = set()
    for p in unit_perms:
        for h in unit_perms:
            glued = tuple(
                p[x] if x & 1 else (h[x + 1] - 1) % mod for x in range(mod)
            )
            ring_tables.add(glued)
            ring_tables.add(tuple((v + 1) % mod for v in glued))
    assert all(sorted(t) == list(range(mod)) for t in ring_tables)
    assert len(ring_tables) == 1 << count_ring_permutational(n)


def test_ring_count_decomposition_n5(rng):
    assert count_ring_permutational(5) == 2 * count_permutational(5) + 1

    perm_count = sum(
        1
        for rp in oracle_enumerate_reduced(5)
        if oracle_is_permutation(oracle_function_of(rp, 5))
    )
    assert perm_count == 1 << count_permutational(5)

    # the polynomial splice realizes the pairing and stays injective
    ctx = Context(5)
    mod = 32
    for _ in range(30):
        p = random_permutational_poly(ctx, rng)
        h = random_permutational_poly(ctx, rng)
        g = glue_polynomial(p, h, ctx)
        table = oracle_function_of(g, 5, domain="ring").values
        assert sorted(table) == list(range(mod))
        assert table[1::2] == oracle_function_of(p, 5).values
        assert table[0::2] == tuple((v - 1) % mod for v in oracle_function_of(h, 5).values)
        swapped = oracle_function_of(g + 1, 5, domain="ring").values
        assert sorted(swapped) == list(range(mod))
        assert all(v % 2 == 0 for v in swapped[1::2])


@pytest.mark.parametrize("j, expected", [(1, 2), (2, 4), (3, 4), (4, 6), (5, 8), (6, 8)])
def test_keller_beta(j, expected):
    assert keller_beta(j) == expected


def test_keller_beta_refuses_zero():
    with pytest.raises(ValueError, match="^keller_beta needs j >= 1$"):
        keller_beta(0)


def test_keller_beta_definition():
    for j in range(1, 40):
        s = keller_beta(j)
        assert two_adic_factorial_valuation(s) >= j
        assert two_adic_factorial_valuation(s - 1) < j


def test_keller_exponent_small():
    assert keller_exponent(2) == 3
    assert keller_exponent(3) == 7
    assert keller_exponent(4) == 13
    assert keller_exponent(5) == 21


def test_identity_over_a_wide_range():
    assert all(keller_identity_check(n) for n in range(2, 129))


def test_identity_sweep_columns_match_the_per_n_counts():
    rows = list(identity_sweep(1024))
    assert rows == [(n, count_ring_permutational(n), keller_exponent(n)) for n in range(2, 1025)]
    with pytest.raises(ValueError):
        next(identity_sweep(1))


def test_report_shape():
    report = census_report(5)
    assert isinstance(report, CensusReport)
    assert report.to_dict() == {
        "n": 5,
        "log2_reduced": 11,
        "log2_permutational": 10,
        "log2_ring_permutational": 21,
        "keller_exponent": 21,
        "identity_ok": True,
    }


@pytest.mark.parametrize(
    "n, reduced, ring",
    [(64, 1136, 2271), (512, 66816, 133631), (1024, 264960, 529919), (4096, 4207616, 8415231)],
)
def test_report_at_large_n(n, reduced, ring):
    assert census_report(n).to_dict() == {
        "n": n,
        "log2_reduced": reduced,
        "log2_permutational": reduced - 1,
        "log2_ring_permutational": ring,
        "keller_exponent": ring,
        "identity_ok": True,
    }


def test_closed_forms_match_the_width_scan():
    for n in range(2, 4097):
        widths = coeff_widths.__wrapped__(n)  # uncached: 4095 tables would churn the cache
        assert max_reduced_degree(n) == len(widths) - 1, n
        assert count_reduced(n) == sum(widths) - 1, n


def test_width_table_equals_the_plain_upward_scan():
    # i + t_i with t_i by Legendre's sum of floor(i / 2**k), not by popcount
    steps = [i + sum(i >> k for k in range(1, 13)) for i in range(2100)]
    for n in range(-3, 4097):
        scan = []
        for step in steps:
            if n - step <= 0:
                break
            scan.append(n - step)
        widths = coeff_widths.__wrapped__(n)  # uncached, as above
        assert widths == tuple(scan), n
        if n >= 1:
            assert len(widths) - 1 == max_reduced_degree(n), n
    assert coeff_widths(4) == (4, 3, 1) and coeff_widths(0) == ()


def test_count_reduced_matches_oracle():
    for n in range(2, 129):
        assert count_reduced(n) == oracle_count_reduced(n), n


def test_keller_closed_forms_match_the_threshold_scan():
    valuations = [oracle_factorial_valuation(s) for s in range(270)]
    for j in range(1, 257):
        assert keller_beta(j) == next(s for s, t in enumerate(valuations) if t >= j), j
    for n in range(2, 257):
        assert keller_exponent(n) == oracle_keller_exponent(n), n


def test_census_at_a_million_and_a_billion():
    # the 10**6 values were computed by the width and threshold scans
    assert census_report(10**6).to_dict() == {
        "n": 10**6,
        "log2_reduced": 250005192515,
        "log2_permutational": 250005192514,
        "log2_ring_permutational": 500010385029,
        "keller_exponent": 500010385029,
        "identity_ok": True,
    }
    assert census_report(10**9).identity_ok is True


def test_census_builds_no_width_table(monkeypatch):
    def no_scan(n):
        raise AssertionError(f"coeff_widths({n}) called")

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.split(".")[0] == "unitpoly":
            if getattr(module, "coeff_widths", None) is coeff_widths:
                monkeypatch.setattr(module, "coeff_widths", no_scan)
    assert context.coeff_widths is no_scan
    assert census_report(4096).identity_ok is True
    assert keller_identity_check(4096) is True
    assert max_reduced_degree(4096) == 2048


@pytest.mark.parametrize("func", [count_reduced, count_permutational, keller_exponent])
def test_counts_reject_tiny_n(func):
    with pytest.raises(ValueError):
        func(1)
