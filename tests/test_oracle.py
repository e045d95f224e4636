"""The brute-force oracle itself, pinned against hand-computed tables.

Everything here is checked against literals or definitions, never against
the library, so the oracle stays a trustworthy referee for the other
test files.
"""

import itertools
import math

import pytest

from unitpoly.errors import BudgetExceeded
from unitpoly.oracle import (
    FunctionTable,
    oracle_bivariate_table,
    oracle_count_reduced,
    oracle_enumerate_reduced,
    oracle_factorial_valuation,
    oracle_function_of,
    oracle_is_latin_square,
    oracle_is_permutation,
    oracle_is_unit_valued,
    oracle_keller_exponent,
    oracle_max_reduced_degree,
    oracle_newton_of_power,
    oracle_reduce,
    oracle_roots,
    oracle_solve,
)


@pytest.mark.parametrize(
    "i, expected",
    [(0, 0), (1, 0), (2, 1), (3, 1), (4, 3), (5, 3), (6, 4), (7, 4), (8, 7), (10, 8)],
)
def test_factorial_valuation_table(i, expected):
    assert oracle_factorial_valuation(i) == expected


def test_factorial_valuation_definition():
    for i in range(1, 80):
        f = math.factorial(i)
        assert f % (1 << oracle_factorial_valuation(i)) == 0
        assert f % (1 << (oracle_factorial_valuation(i) + 1)) != 0


@pytest.mark.parametrize(
    "n, expected",
    [(1, 0), (2, 1), (3, 1), (4, 2), (5, 3), (6, 3), (7, 3), (8, 4), (9, 5), (10, 5)],
)
def test_max_reduced_degree_table(n, expected):
    assert oracle_max_reduced_degree(n) == expected


@pytest.mark.parametrize("n, expected", [(2, 2), (3, 4), (4, 7), (5, 11), (6, 15)])
def test_count_reduced_table(n, expected):
    # widths n - i - t_i at n = 4 are 4, 3, 1: eight bits, less the parity bit
    assert oracle_count_reduced(n) == expected


@pytest.mark.parametrize("n, expected", [(2, 3), (3, 7), (4, 13), (5, 21)])
def test_keller_exponent_table(n, expected):
    # the thresholds for j = 3, 4, 5 are 4, 6 and 8 (4! = 2**3 * 3, 6! = 2**4 * 45)
    assert oracle_keller_exponent(n) == expected


def test_reduce_worked_examples():
    # 1 + 3x^5 is 31 + 3x + 2x^2 on the odd residues mod 32
    assert oracle_reduce((1, 0, 0, 0, 0, 3), 5).coeffs == (31, 3, 2, 0)
    # (x+1)(x+3)(x+5) vanishes on the odd residues mod 8; so does 8
    assert oracle_reduce((15, 23, 9, 1), 3).coeffs == (0, 0)
    assert oracle_reduce((-8,), 3).coeffs == (0, 0)
    assert oracle_reduce((), 2).coeffs == (0, 0)


def test_newton_of_power_worked_examples():
    # x**2 = (x-1)(x-3) + 4(x-1) + 1, x**3 = N_3 + 9 N_2 + 13 N_1 + 1
    assert [oracle_newton_of_power(2, k) for k in range(4)] == [1, 4, 1, 0]
    assert [oracle_newton_of_power(3, k) for k in range(4)] == [1, 13, 9, 1]


def test_newton_of_power_sums_every_monomial():
    # h_m(1, 3, ..., 2k+1) is the sum of all degree-m monomials in those nodes
    for i in range(9):
        for k in range(i + 1):
            nodes = range(1, 2 * k + 2, 2)
            monomials = itertools.combinations_with_replacement(nodes, i - k)
            assert oracle_newton_of_power(i, k) == sum(map(math.prod, monomials))


def test_solve_worked_example():
    # 1 + 3x^5 is 31 + 3x + 2x^2 on the odd residues mod 32, as above
    newton = [(k == 0) + 3 * oracle_newton_of_power(5, k) for k in range(4)]
    assert oracle_solve(newton, 5) == [31, 3, 2, 0]


def test_function_table_points():
    assert list(FunctionTable(3, "units", (1, 1, 1, 1)).points()) == [1, 3, 5, 7]
    assert list(FunctionTable(2, "ring", (0, 1, 2, 3)).points()) == [0, 1, 2, 3]


def test_function_of_squares_plus_one():
    # x^2 + 1 is constant 2 on the odd residues mod 8
    table = oracle_function_of((1, 0, 1), 3)
    assert table.values == (2, 2, 2, 2)
    ring = oracle_function_of((1, 0, 1), 3, domain="ring")
    assert ring.values == (1, 2, 5, 2, 1, 2, 5, 2)


def test_function_of_budget():
    with pytest.raises(BudgetExceeded):
        oracle_function_of((1,), 13)


def test_enumerate_reduced_counts():
    assert sum(1 for _ in oracle_enumerate_reduced(2)) == 8
    assert sum(1 for _ in oracle_enumerate_reduced(3)) == 32
    vecs = {p.coeffs for p in oracle_enumerate_reduced(2)}
    assert len(vecs) == 8
    assert all(len(v) == 2 for v in vecs)


def test_enumerate_reduced_budget():
    with pytest.raises(BudgetExceeded):
        next(oracle_enumerate_reduced(7))


def test_permutation_and_unit_predicates():
    identity = FunctionTable(3, "units", (1, 3, 5, 7))
    assert oracle_is_permutation(identity)
    assert oracle_is_unit_valued(identity)
    squashed = FunctionTable(3, "units", (1, 1, 5, 7))
    assert not oracle_is_permutation(squashed)
    mixed = FunctionTable(3, "units", (1, 2, 5, 7))
    assert not oracle_is_unit_valued(mixed)
    # injective but escaping the domain is not a permutation of it
    assert not oracle_is_permutation(mixed)


def test_bivariate_table_addition():
    # coefficient matrix for x + y
    table = oracle_bivariate_table(((0, 1), (1, 0)), 2)
    assert table == [[(a + b) % 4 for b in range(4)] for a in range(4)]
    assert oracle_is_latin_square(table)


def test_latin_square_rejects_repeats():
    assert not oracle_is_latin_square([[0, 1], [0, 1]])
    assert oracle_is_latin_square([[0, 1], [1, 0]])


def test_oracle_roots_known_sets():
    assert oracle_roots((-1, 0, 1), 4) == [1, 7, 9, 15]
    assert oracle_roots((-1, 0, 1), 3) == [1, 3, 5, 7]
    assert oracle_roots((1, 0, 1), 3) == []
    assert oracle_roots((-5, 1), 4) == [5]
    assert oracle_roots((0,), 3) == list(range(8))
    # (x - 1)**2 vanishes modulo 64 exactly where 8 divides x - 1
    assert oracle_roots((1, -2, 1), 6) == [1, 9, 17, 25, 33, 41, 49, 57]
    with pytest.raises(BudgetExceeded):
        oracle_roots((0,), 8, branch_limit=4)


@pytest.mark.parametrize("n", range(1, 7))
def test_oracle_roots_match_the_definition(n):
    modulus = 2**n
    for coeffs in itertools.product(range(-2, 3), repeat=3):
        roots = [
            x for x in range(modulus) if sum(c * x**i for i, c in enumerate(coeffs)) % modulus == 0
        ]
        assert oracle_roots(coeffs, n) == roots
