"""Interpolation, inversion, and the canonical-form product."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitpoly import (
    Context,
    IntPoly,
    ReducedPoly,
    evaluate,
    interpolate,
    interpolate_at_nodes,
    invert_permutation,
    multiplicative_inverse,
    multiply_reduced,
    reduce,
    unit_inverse,
)
from unitpoly import poly, solve
from unitpoly.errors import (
    BudgetExceeded,
    InconsistentTable,
    NotAPermutation,
    NotAUnitFunction,
)
from unitpoly.oracle import (
    oracle_enumerate_reduced,
    oracle_function_of,
    oracle_preimages,
    oracle_reduce,
)
from unitpoly.quasigroup import random_permutational_poly


def _oracle_values_at(poly, n, points):
    table = oracle_function_of(poly, n)
    values = dict(zip(table.points(), table.values))
    return [values[x] for x in points]


# -- interpolation at the standard nodes --------------------------------------


def test_interpolate_worked_example():
    assert interpolate((9, 5, 9), Context(4)).coeffs == (6, 2, 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_interpolate_round_trip(n, rng):
    ctx = Context(n)
    for _ in range(15):
        rp = ReducedPoly(
            tuple(rng.randrange(1 << bits) for bits in ctx.coeff_bits), n
        )
        values = _oracle_values_at(rp, n, ctx.interpolation_nodes)
        if any(v % 2 == 0 for v in values):
            continue
        assert interpolate(values, ctx) == rp


def test_interpolate_rejects_bad_tables():
    ctx = Context(4)
    with pytest.raises(ValueError):
        interpolate((9, 5), ctx)
    with pytest.raises(ValueError):
        interpolate((9, 5, 9, 5), ctx)
    with pytest.raises(ValueError):
        interpolate((9, 4, 9), ctx)


def test_interpolate_detects_impossible_table():
    # second difference 2 is not divisible by 8, so no polynomial fits
    with pytest.raises(InconsistentTable):
        interpolate((1, 1, 3), Context(4))


def _assert_agrees_with_general_solver(values, ctx):
    # the standard nodes are a special case of arbitrary nodes
    fits = interpolate_at_nodes(ctx.interpolation_nodes, values, ctx)
    assert len(fits) <= 1
    if fits:
        assert interpolate(values, ctx) == fits[0]
    else:
        with pytest.raises(InconsistentTable):
            interpolate(values, ctx)


@pytest.mark.parametrize("n", range(2, 5))
def test_interpolate_agrees_with_general_solver_on_every_table(n):
    ctx = Context(n)
    for values in itertools.product(ctx.units(), repeat=ctx.d + 1):
        _assert_agrees_with_general_solver(values, ctx)


@pytest.mark.parametrize("n", range(5, 17))
def test_interpolate_agrees_with_general_solver_on_random_tables(n, rng):
    ctx = Context(n)
    for _ in range(20):
        coeffs = [rng.randrange(1 << n) for _ in range(ctx.d + 1)]
        coeffs[0] ^= ~sum(coeffs) & 1  # odd coefficient sum: odd values
        values = [evaluate(coeffs, x, ctx) for x in ctx.interpolation_nodes]
        _assert_agrees_with_general_solver(values, ctx)
        corrupted = list(values)
        corrupted[rng.randrange(len(values))] ^= 1 << rng.randrange(1, n)
        _assert_agrees_with_general_solver(corrupted, ctx)
        random_table = [rng.randrange(1, 1 << n, 2) for _ in values]
        _assert_agrees_with_general_solver(random_table, ctx)


@st.composite
def _standard_node_tables(draw):
    """(n, table): n in 2..12 and d+1 odd values at the standard nodes,
    taken from a random polynomial, from it with one bit above the lowest
    flipped, or drawn at random."""
    n = draw(st.integers(2, 12))
    ctx = Context(n)
    kind = draw(st.sampled_from(("real", "flipped", "random")))
    if kind == "random":
        odd = st.integers(0, (1 << (n - 1)) - 1).map(lambda k: 2 * k + 1)
        return n, draw(st.lists(odd, min_size=ctx.d + 1, max_size=ctx.d + 1))
    coeffs = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=ctx.d + 3))
    coeffs[0] ^= ~sum(coeffs) & 1  # odd coefficient sum: odd values
    table = _oracle_values_at(coeffs, n, ctx.interpolation_nodes)
    if kind == "flipped":
        table[draw(st.integers(0, ctx.d))] ^= 1 << draw(st.integers(1, n - 1))
    return n, table


@settings(max_examples=300)
@given(_standard_node_tables())
def test_interpolate_fails_exactly_when_the_echelon_finds_no_fit(case):
    n, table = case
    ctx = Context(n)
    fits = interpolate_at_nodes(ctx.interpolation_nodes, table, ctx)
    try:
        fit = interpolate(table, ctx)
    except InconsistentTable:
        assert fits == []
    else:
        assert fits == [fit]


# -- interpolation at arbitrary nodes -----------------------------------------


def test_interp_nodes_worked_example():
    fits = interpolate_at_nodes((1, 5, 9), (9, 9, 9), Context(4))
    assert [rp.coeffs for rp in fits] == [(2, 6, 1), (5, 4, 0), (6, 2, 1), (9, 0, 0)]


def test_interp_nodes_solutions_actually_fit():
    ctx = Context(4)
    for rp in interpolate_at_nodes((1, 5, 9), (9, 9, 9), ctx):
        assert _oracle_values_at(rp, 4, (1, 5, 9)) == [9, 9, 9]


@pytest.mark.parametrize(
    "nodes, values",
    [((1, 5), (3, 7)), ((3, 7), (1, 1)), ((1, 3, 5), (1, 1, 3)), ((1, 15), (5, 11))],
)
def test_interp_nodes_complete_against_enumeration(nodes, values):
    # brute force: every canonical vector whose table matches the nodes
    ctx = Context(4)
    expected = []
    for rp in oracle_enumerate_reduced(4):
        if _oracle_values_at(rp, 4, nodes) == list(values):
            expected.append(rp.coeffs)
    got = [rp.coeffs for rp in interpolate_at_nodes(nodes, values, ctx)]
    assert got == sorted(expected)


def test_interp_nodes_empty_when_inconsistent():
    assert interpolate_at_nodes((1, 3, 5), (1, 1, 3), Context(4)) == []


def test_interp_nodes_input_validation():
    ctx = Context(4)
    with pytest.raises(ValueError):
        interpolate_at_nodes((1, 1), (3, 3), ctx)
    with pytest.raises(ValueError):
        interpolate_at_nodes((1, 3), (3,), ctx)
    with pytest.raises(ValueError):
        interpolate_at_nodes((1, 2), (3, 5), ctx)


def test_interp_nodes_solution_cap():
    ctx = Context(4)
    with pytest.raises(BudgetExceeded):
        interpolate_at_nodes((1, 5, 9), (9, 9, 9), ctx, max_solutions=2)
    fits = interpolate_at_nodes((1, 5, 9), (9, 9, 9), ctx, max_solutions=4)
    assert len(fits) == 4


@pytest.mark.parametrize("nodes, values", [((1,), (5,)), ((1, 3), (5, 7)), ((3, 7), (9, 1))])
def test_interp_nodes_cap_at_the_count_returns_the_uncapped_list(nodes, values):
    ctx = Context(6)
    fits = interpolate_at_nodes(nodes, values, ctx)
    assert len(fits) > 1
    assert [rp.coeffs for rp in fits] == sorted(rp.coeffs for rp in fits)
    assert interpolate_at_nodes(nodes, values, ctx, max_solutions=len(fits)) == fits
    with pytest.raises(BudgetExceeded):
        interpolate_at_nodes(nodes, values, ctx, max_solutions=len(fits) - 1)


# -- functional inverse -------------------------------------------------------


def test_invert_worked_example():
    ctx = Context(4)
    p = (5, 1, 1)
    assert _oracle_values_at(p, 4, (1, 3, 5)) == [7, 1, 3]
    assert invert_permutation(p, ctx).coeffs == (13, 5, 1)


@pytest.mark.parametrize("n", range(3, 7))
def test_invert_composes_to_identity(n, rng):
    ctx = Context(n)
    for _ in range(10):
        p = random_permutational_poly(ctx, rng)
        r = invert_permutation(p, ctx)
        forward = dict(zip(ctx.units(), oracle_function_of(p, n).values))
        backward = dict(zip(ctx.units(), oracle_function_of(r, n).values))
        assert all(backward[forward[x]] == x for x in ctx.units())


@pytest.mark.parametrize("n", range(2, 9))
def test_invert_matches_oracle_inverse(n, rng):
    # inputs above the degree cap, with coefficients outside [0, 2**n)
    ctx = Context(n)
    for _ in range(10):
        while True:
            p = [rng.randrange(-(1 << (n + 2)), 1 << (n + 2)) for _ in range(ctx.d + 4)]
            if sum(p) & 1 and sum(p[1::2]) & 1:
                break
        forward = oracle_function_of(p, n).values
        expected = [0] * len(forward)
        for x, y in zip(ctx.units(), forward):
            expected[y >> 1] = x
        assert oracle_function_of(invert_permutation(p, ctx), n).values == tuple(expected)


def test_invert_rejects_non_permutations():
    with pytest.raises(NotAPermutation):
        invert_permutation((4, 4, 1), Context(4))


# n where the ladder of precisions ceil(n/2), ceil(n/4), ... changes shape
_LADDER_EDGES = (2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64)


@st.composite
def _permutations_in_any_form(draw, n):
    """A permutation of the odd residues modulo 2**n as a plain tuple, an
    IntPoly (both of degree up to d+4, with negative and oversized
    coefficients) or the ReducedPoly of such a tuple."""
    d = Context(n).d
    entries = st.integers(-(1 << (n + 2)), 1 << (n + 2))
    coeffs = draw(st.lists(entries, min_size=2, max_size=d + 5))
    coeffs[1] += ~sum(coeffs[1::2]) & 1
    coeffs[0] += ~sum(coeffs) & 1
    form = draw(st.sampled_from((tuple, IntPoly, lambda c: oracle_reduce(c, n))))
    return form(tuple(coeffs))


@pytest.mark.parametrize("fixed_n", _LADDER_EDGES + (None,))
@settings(max_examples=40)
@given(data=st.data())
def test_invert_ladder_matches_the_newton_oracle(fixed_n, data):
    n = fixed_n or data.draw(st.integers(2, 64))
    ctx = Context(n)
    p = data.draw(_permutations_in_any_form(n))
    inverse = invert_permutation(p, ctx)
    assert isinstance(inverse, ReducedPoly) and inverse.n == n
    assert poly._node_values(inverse, ctx) == oracle_preimages(p, n)


@pytest.mark.parametrize("n", [64, 65])
def test_invert_builds_generators_only_for_its_own_n(n, monkeypatch, rng):
    requested = []
    build = poly.ideal_generators

    def recording(ctx):
        requested.append(ctx.n)
        return build(ctx)

    monkeypatch.setattr(poly, "ideal_generators", recording)
    invert_permutation(random_permutational_poly(Context(n), rng), Context(n))
    assert requested and set(requested) == {n}


# -- pointwise multiplicative inverse ------------------------------------------


@pytest.mark.parametrize(
    "coeffs, n, expected",
    [
        ((2, 1), 3, (2, 1)),
        ((4, 3), 4, (3, 3, 1)),
        ((31, 2, 2, 1, 1), 5, (4, 7, 2, 0)),
    ],
)
def test_multiplicative_inverse_worked_examples(coeffs, n, expected):
    assert multiplicative_inverse(coeffs, Context(n)).coeffs == expected


@pytest.mark.parametrize("n", range(3, 7))
def test_multiplicative_inverse_pointwise(n, rng):
    ctx = Context(n)
    mod = 1 << n
    for _ in range(10):
        bits = ctx.coeff_bits
        coeffs = [rng.randrange(1 << b) for b in bits]
        if sum(coeffs) % 2 == 0:
            coeffs[0] ^= 1
        p = ReducedPoly(tuple(coeffs), n)
        q = multiplicative_inverse(p, ctx)
        pv = oracle_function_of(p, n).values
        qv = oracle_function_of(q, n).values
        assert all(a * b % mod == 1 for a, b in zip(pv, qv))


def test_multiplicative_inverse_rejects_even_valued():
    with pytest.raises(NotAUnitFunction):
        multiplicative_inverse((1, 1), Context(4))


# -- products of canonical forms ----------------------------------------------


def test_multiply_worked_examples():
    ctx4, ctx3 = Context(4), Context(3)
    two_plus_x4 = reduce((2, 1), ctx4)
    assert multiply_reduced(two_plus_x4, two_plus_x4, ctx4).coeffs == (4, 4, 1)
    two_plus_x3 = reduce((2, 1), ctx3)
    assert multiply_reduced(two_plus_x3, two_plus_x3, ctx3).coeffs == (1, 0)


def test_multiply_matches_pointwise_product():
    ctx = Context(5)
    mod = 1 << 5
    a = reduce((3, 2, 1), ctx)
    b = reduce((7, 0, 0, 1), ctx)
    prod = multiply_reduced(a, b, ctx)
    av = oracle_function_of(a, 5).values
    bv = oracle_function_of(b, 5).values
    assert oracle_function_of(prod, 5).values == tuple(x * y % mod for x, y in zip(av, bv))


def test_multiply_type_checks():
    ctx = Context(4)
    rp = reduce((2, 1), ctx)
    with pytest.raises(ValueError):
        multiply_reduced((2, 1), rp, ctx)
    with pytest.raises(ValueError):
        multiply_reduced(rp, reduce((2, 1), Context(5)), ctx)


def test_fourth_power_is_constant_one():
    # every unit-valued function has order dividing 2**(n-2) pointwise
    ctx = Context(4)
    p = reduce((2, 1), ctx)
    square = multiply_reduced(p, p, ctx)
    fourth = multiply_reduced(square, square, ctx)
    assert fourth == reduce((1,), ctx)
    assert unit_inverse(3, 4) == pow(3, (1 << 2) - 1, 16)


# -- every solver against the oracle, and the same-n rule ----------------------


@st.composite
def _permutation_forms(draw):
    """(n, p, s): two random canonical forms for one n in 2..12, p a
    permutation of the odd residues and s any unit-valued function."""
    n = draw(st.integers(2, 12))
    widths = Context(n).coeff_bits
    forms = []
    for _ in range(2):
        coeffs = [draw(st.integers(0, (1 << bits) - 1)) for bits in widths]
        if sum(coeffs) % 2 == 0:
            coeffs[0] ^= 1
        forms.append(coeffs)
    p, s = forms
    if sum(p[1::2]) % 2 == 0:
        p[1] ^= 1
        p[0] ^= 1  # keeps the coefficient sum odd
    return n, ReducedPoly(tuple(p), n), ReducedPoly(tuple(s), n)


@settings(max_examples=150)
@given(_permutation_forms())
def test_solvers_match_the_oracle(case):
    n, p, s = case
    ctx, mod = Context(n), 1 << n
    assert interpolate(_oracle_values_at(p, n, ctx.interpolation_nodes), ctx) == p
    pv, sv = oracle_function_of(p, n).values, oracle_function_of(s, n).values
    inverse = oracle_function_of(multiplicative_inverse(s, ctx), n).values
    assert all(a * b % mod == 1 for a, b in zip(sv, inverse))
    backward = dict(zip(ctx.units(), oracle_function_of(invert_permutation(p, ctx), n).values))
    assert all(backward[y] == x for x, y in zip(ctx.units(), pv))
    assert multiply_reduced(p, s, ctx) == oracle_reduce(p.as_int_poly() * s.as_int_poly(), n)


def test_solvers_refuse_a_form_canonical_for_another_n(monkeypatch):
    ctx = Context(16)
    other = reduce((2, 1), Context(8))

    def no_newton_step(*args):
        raise AssertionError("the n mismatch must be refused before any inversion")

    monkeypatch.setattr(solve, "unit_inverse", no_newton_step)
    calls = (
        lambda: invert_permutation(other, ctx),
        lambda: multiplicative_inverse(other, ctx),
        lambda: multiply_reduced(other, reduce((2, 1), ctx), ctx),
        lambda: multiply_reduced(reduce((2, 1), ctx), other, ctx),
    )
    for call in calls:
        with pytest.raises(ValueError, match="canonical for n=8, context has n=16"):
            call()
