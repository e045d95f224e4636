"""Interpolation, inversion, and the canonical-form product."""

import itertools
import operator
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import horner
from unitpoly import (
    Context,
    IntPoly,
    Mode,
    QuasigroupSpec,
    ReducedPoly,
    equivalent,
    evaluate,
    glue_polynomial,
    hensel_roots,
    interpolate,
    interpolate_at_nodes,
    invert_permutation,
    multiplicative_inverse,
    multiply_reduced,
    reduce,
    unit_inverse,
)
from unitpoly import poly, solve
from unitpoly.census import keller_beta
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


def test_interpolate_at_2048_gives_back_the_form_of_its_values(rng):
    # canonical forms are unique: the node values of a full-width form of degree 8, taken
    # by plain Horner, fit that form and no other
    n = 2048
    ctx = Context(n)
    form = [rng.getrandbits(bits - 1) | 1 << (bits - 1) for bits in ctx.coeff_bits[:9]]
    if sum(form) % 2 == 0:
        form[0] ^= 1
    values = [horner(form, x, n) for x in ctx.interpolation_nodes]
    expected = (*form, *[0] * (ctx.d - 8))
    coeffs = interpolate(values, ctx).coeffs
    assert coeffs == expected
    assert (*coeffs[:8], coeffs[8] ^ 1, *coeffs[9:]) != expected


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
    # None lifts the cap; it is the one non-integer the type check lets through
    assert interpolate_at_nodes((1, 5, 9), (9, 9, 9), ctx, max_solutions=None) == fits


def test_interp_nodes_has_a_default_budget():
    # one node at n = 16 leaves 2**69 fits; without a cap the sweep would never end
    assert solve.DEFAULT_SOLUTION_BUDGET == 1 << 12
    with pytest.raises(BudgetExceeded, match="more than 4096 polynomials fit the table"):
        interpolate_at_nodes([1], [1], Context(16))


@pytest.mark.parametrize("name, call", [
    # (1,) has no roots: its frontier is empty from bit 0 on
    ("branch_limit", lambda budget: hensel_roots((1,), 4, branch_limit=budget)),
    ("max_solutions",
     lambda budget: interpolate_at_nodes([1], [1], Context(8), max_solutions=budget)),
    ("budget", lambda budget: QuasigroupSpec.random(
        Context(4), 2, Mode.UNIT_PRODUCT, random.Random(0)).latin_check(budget=budget)),
])
def test_a_negative_budget_is_refused_by_name(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be non-negative, got -1$"):
        call(-1)
    try:
        call(0)  # zero is a budget: the call runs, and may outgrow it
    except BudgetExceeded:
        pass


@pytest.mark.parametrize("nodes, values", [((1,), (5,)), ((1, 3), (5, 7)), ((3, 7), (9, 1))])
def test_interp_nodes_cap_at_the_count_returns_the_uncapped_list(nodes, values):
    ctx = Context(6)
    fits = interpolate_at_nodes(nodes, values, ctx)
    assert len(fits) > 1
    assert [rp.coeffs for rp in fits] == sorted(rp.coeffs for rp in fits)
    assert interpolate_at_nodes(nodes, values, ctx, max_solutions=len(fits)) == fits
    with pytest.raises(BudgetExceeded):
        interpolate_at_nodes(nodes, values, ctx, max_solutions=len(fits) - 1)


@pytest.mark.parametrize("n, nodes, values", [
    # a consistent prefix of the higher coefficients whose lower pivot rows then
    # fail used to be searched branch by branch: over 10 s at n = 16, 1.5-2 s at 12
    (16, (8375, 15491, 42275), (27729, 32407, 1253)),
    (12, (485, 1985, 1273), (2081, 2347, 3465)),
])
def test_interp_nodes_inconsistent_tables_return_at_once(n, nodes, values):
    start = time.perf_counter()
    assert interpolate_at_nodes(nodes, values, Context(n), max_solutions=4) == []
    assert time.perf_counter() - start < 0.5


def _every_function(n):
    """(coefficients, values at 1, 3, ..., 2**n - 1) of every canonical
    vector, by brute force over oracle_enumerate_reduced; the values are
    bytes, so n <= 8."""
    modulus = 1 << n
    points = range(1, modulus, 2)
    # terms[i][c]: c * x**i at every point
    terms = [
        [[c * pow(x, i, modulus) for x in points] for c in range(1 << width)]
        for i, width in enumerate(Context(n).coeff_bits)
    ]
    return [
        (rp.coeffs, bytes(sum(at) % modulus for at in zip(*map(operator.getitem, terms, rp.coeffs))))
        for rp in oracle_enumerate_reduced(n)
    ]


@pytest.mark.parametrize("n", range(2, 7))
def test_interp_nodes_against_brute_force_and_its_budget(n):
    # consistent and random tables on 1 ... d + 3 nodes; the cap is exceeded
    # exactly when the brute-force count is above it
    rng = random.Random(n)
    ctx = Context(n)
    every = _every_function(n)
    unit_valued = [table for _, table in every if all(v & 1 for v in table)]
    for m in range(1, min(ctx.d + 3, 1 << (n - 1)) + 1):
        for kind in ("consistent", "random") * 2:
            nodes = rng.sample(range(1, 1 << n, 2), m)
            if kind == "consistent":
                table = rng.choice(unit_valued)
                values = [table[x >> 1] for x in nodes]
            else:
                values = [rng.randrange(1, 1 << n, 2) for _ in nodes]
            pick = operator.itemgetter(*(x >> 1 for x in nodes))
            target = [0] * (1 << (n - 1))
            for x, v in zip(nodes, values):
                target[x >> 1] = v
            want = pick(target)
            expected = [coeffs for coeffs, table in every if pick(table) == want]
            for budget in {0, 1, 3, 64, len(expected), max(len(expected) - 1, 0)}:
                if len(expected) > budget:
                    with pytest.raises(BudgetExceeded, match=f"more than {budget} polynomials"):
                        interpolate_at_nodes(nodes, values, ctx, max_solutions=budget)
                else:
                    fits = interpolate_at_nodes(nodes, values, ctx, max_solutions=budget)
                    assert [rp.coeffs for rp in fits] == expected


def test_interp_nodes_elimination_is_refused_before_it_starts():
    # d + 1 nodes at n = 4096, refused by price; a full echelon took 58 s already at n = 1024
    ctx = Context(4096)
    rng = random.Random(4096)
    nodes = rng.sample(range(1, 1 << 40, 2), ctx.d + 1)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=r"more than the elimination budget 1073741824 "
                       r"\(solve\.DEFAULT_ELIMINATION_BUDGET unless raised\)$"):
        interpolate_at_nodes(nodes, nodes, ctx)
    assert time.perf_counter() - start < 1.0
    assert solve.DEFAULT_ELIMINATION_BUDGET == 1 << 30


def test_interp_nodes_elimination_at_its_price_runs_and_one_less_refuses(monkeypatch):
    # the constant is read at each call, so patching it is how a dearer call is admitted
    ctx = Context(8)
    nodes, values = (1, 5, 9, 13, 17), (9, 9, 9, 9, 9)  # 128 fits
    price = solve._elimination_price(len(nodes), ctx.d + 1, ctx.n)
    fits = interpolate_at_nodes(nodes, values, ctx)
    monkeypatch.setattr(solve, "DEFAULT_ELIMINATION_BUDGET", price)
    assert interpolate_at_nodes(nodes, values, ctx) == fits
    monkeypatch.setattr(solve, "DEFAULT_ELIMINATION_BUDGET", price - 1)
    with pytest.raises(BudgetExceeded, match=f"takes {price} one-word steps, "
                       f"more than the elimination budget {price - 1} "):
        interpolate_at_nodes(nodes, values, ctx)


def test_interp_nodes_elimination_prices():
    # one node is never eliminated against: at n = 4096 its row's build is all it costs
    width = Context(4096).d + 1
    assert solve._elimination_price(0, width, 4096) == 0
    assert solve._elimination_price(1, width, 4096) * 16 < solve.DEFAULT_ELIMINATION_BUDGET
    # the benchmark's calls, 33 nodes at n = 32, cost a ten-thousandth of the budget
    assert solve._elimination_price(33, Context(32).d + 1, 32) * 10_000 < (
        solve.DEFAULT_ELIMINATION_BUDGET
    )
    # d + 1 nodes are admitted up to n = 512 and refused from 1024
    for n, admitted in ((512, True), (1024, False)):
        width = Context(n).d + 1
        assert (solve._elimination_price(width, width, n)
                <= solve.DEFAULT_ELIMINATION_BUDGET) is admitted


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


def test_invert_permutation_at_2048(rng):
    # the inversion's tree reaches its cap here: p(q(x)) = x at four odd full-width points,
    # by plain Horner, and every slot of q lies below 2**w_k; one flipped bit of q breaks it
    n = 2048
    ctx = Context(n)
    assert solve._tree_depth(ctx.d + 1, n) == solve.TREE_DEPTH_LIMIT
    coeffs = [rng.getrandbits(n) for _ in range(ctx.d + 1)]
    coeffs[1] ^= ~sum(coeffs[1::2]) & 1
    coeffs[0] ^= ~sum(coeffs) & 1
    points = [rng.getrandbits(n) | 1 << (n - 1) | 1 for _ in range(4)]

    def is_inverse(q):
        return (
            len(q) == ctx.d + 1
            and all(0 <= c < 1 << bits for c, bits in zip(q, ctx.coeff_bits))
            and all(horner(coeffs, horner(q, x, n), n) == x for x in points)
        )

    q = invert_permutation(tuple(coeffs), ctx).coeffs
    assert is_inverse(q)
    assert not is_inverse((*q[:-1], q[-1] ^ 1))


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


# 400 climbs to rung m = 200, past every other fixed n here
@pytest.mark.parametrize("fixed_n", _LADDER_EDGES + (400, None))
def test_every_ladder_level_reads_a_prefix_of_one_newton_vector(fixed_n, rng):
    # at odd x, N_k(x) is divisible by 2**(k + t_k) = 2**(m - w_k(m)), so modulo 2**m
    # the first d_m + 1 slots of the vector kept modulo 2**w_k(ceil(n/2)) suffice,
    # for every rung m < n and every slope precision ceil(m/2)
    n = fixed_n or rng.randrange(65, 301)
    ctx = Context(n)
    ladder = solve._ladder(n)
    precisions = {m for m in ladder if m < n} | {(m + 1) // 2 for m in ladder if m > 2}
    for _ in range(3):
        bound = 1 << (n + 2)
        p = [rng.randrange(-bound, bound) for _ in range(ctx.d + 5)]
        newton = poly._to_newton(p, (n + 1) // 2)
        for m in precisions:
            prefix = newton[: len(Context(m).coeff_bits)]
            level = poly._expand(prefix, ctx.interpolation_nodes, (1 << m) - 1)
            assert oracle_reduce(level, m) == oracle_reduce(p, m)


# 400 climbs to rung m = 200, past every other fixed n here; None is one seeded n in 65..300
@pytest.mark.parametrize("fixed_n", (*range(2, 70), 400, None))
def test_every_ladder_level_reads_p_and_its_slope_off_one_cut_tree(fixed_n, rng):
    # one tree of p modulo 2**n, read to ceil(m/s) terms, is p modulo 2**m at every rung m,
    # and its slope tree, built once at ceil(n/2), is p' modulo 2**ceil(m/2), at every
    # depth 0..min(8, floor(n/2))
    n = fixed_n or rng.randrange(65, 301)
    ladder = solve._ladder(n)
    # one odd point in each class modulo 2**8, so in each class of every tree
    points = [a + (rng.randrange(1 << n) << 8) for a in range(1, 256, 2)]
    for _ in range(2):
        p = _permutation_with_wide_coefficients(n, rng)
        slope = tuple(i * c for i, c in enumerate(p.coeffs))[1:]
        exact = [(horner(p.coeffs, x, n), horner(slope, x, n)) for x in points]
        for depth in range(min(8, n // 2) + 1):
            tree = poly._head_tree(p.coeffs, n, depth)
            slope_tree = poly._slope_tree(tree, (n + 1) // 2)
            for m in ladder:
                half = (m + 1) // 2
                level = poly._head_values(poly._level_tree(tree, m), points)
                slopes = poly._head_values(poly._level_tree(slope_tree, half), points)
                assert level == [y % (1 << m) for y, _ in exact]
                assert slopes == [dy % (1 << half) for _, dy in exact]


@pytest.mark.parametrize("n", [64, 65])
def test_inversion_evaluates_p_at_full_width_only_twice(n, monkeypatch, rng):
    ctx = Context(n)
    p = random_permutational_poly(ctx, rng)
    masks, fits = [], []

    def recording_head_values(tree, points):
        masks.append(tree[2][0])  # term 0's mask: the precision of the pass
        return real_head_values(tree, points)

    def recording_fits(vals, ctx):
        fits.append(len(vals))
        return real_fit(vals, ctx)

    def no_basis_change(*args):
        raise AssertionError("the inversion changed basis")

    real_head_values, real_fit = solve._head_values, solve._fit_nodes
    # the ladder reads p through poly's lift (poly._lifted), the composition check through solve
    monkeypatch.setattr(poly, "_head_values", recording_head_values)
    monkeypatch.setattr(solve, "_head_values", recording_head_values)
    monkeypatch.setattr(solve, "_fit_nodes", recording_fits)
    monkeypatch.setattr(poly, "_to_newton", no_basis_change)
    monkeypatch.setattr(poly, "_expand", no_basis_change)
    invert_permutation(p, ctx)
    # the top Newton level and the composition check; no node values before the ladder
    assert masks.count(ctx.mask) == 2
    # every rung and its slope read the one tree
    assert sorted(masks) == sorted(
        (1 << m) - 1 for m in (*solve._ladder(n), *((m + 1) // 2 for m in solve._ladder(n)), n)
    )
    # one difference table, of the preimages
    assert fits == [ctx.d + 1]


def _permutation_with_wide_coefficients(n, rng):
    """A permutation of the odd residues of degree d+4, with negative and
    oversized coefficients."""
    bound = 1 << (n + 2)
    coeffs = [rng.randrange(-bound, bound) for _ in range(Context(n).d + 5)]
    coeffs[1] += ~sum(coeffs[1::2]) & 1
    coeffs[0] += ~sum(coeffs) & 1
    return IntPoly(tuple(coeffs))


def _invert_at_depth(p, ctx, depth, monkeypatch):
    monkeypatch.setattr(solve, "_tree_depth", lambda *args: depth)
    return invert_permutation(p, ctx)


def test_inversion_through_a_forced_tree_depth_matches_horner_and_the_oracle(monkeypatch, rng):
    # every depth the tree may have: from 0, Horner's rule over the coefficients, and 1, where
    # each head is Horner's rule in x - a over the Taylor coefficients at a, up to floor(n/2),
    # where the top slope still reads it
    for n in (rng.randrange(65, 301), *range(2, 65)):
        ctx = Context(n)
        for p in (random_permutational_poly(ctx, rng), _permutation_with_wide_coefficients(n, rng)):
            expected = interpolate(oracle_preimages(p, n), ctx)
            for depth in range(min(8, n // 2) + 1):
                assert _invert_at_depth(p, ctx, depth, monkeypatch) == expected


def test_inversion_reads_one_tree_where_the_rule_builds_one(monkeypatch, rng):
    trees = []

    def recording_tree(coeffs, n, depth):
        trees.append(depth)
        return real_tree(coeffs, n, depth)

    real_tree, rule = solve._head_tree, solve._tree_depth
    monkeypatch.setattr(solve, "_head_tree", recording_tree)
    for n in (2, 3, 16, 64, 512):
        ctx = Context(n)
        p = random_permutational_poly(ctx, rng)
        trees.clear()
        monkeypatch.setattr(solve, "_tree_depth", rule)  # the rule, not a forced depth
        inverse = invert_permutation(p, ctx)
        assert trees == [rule(len(p.coeffs), n)]
        # a second readable depth: at n = 2 and 3 the rule picks 0, and 1 is the other
        other = trees[0] + 1 if trees[0] < n // 2 else trees[0] - 1
        assert _invert_at_depth(p, ctx, other, monkeypatch) == inverse
        assert trees == [trees[0], other]


@pytest.mark.parametrize("n", [64, 65])
def test_no_solver_or_product_builds_generators(n, monkeypatch, rng):
    ctx = Context(n)
    p = random_permutational_poly(ctx, rng)

    def no_generators(*args):
        raise AssertionError("the ideal generators were built")

    monkeypatch.setattr(poly, "ideal_generators", no_generators)
    inverse = invert_permutation(p, ctx)
    assert interpolate(poly._node_values(inverse, ctx), ctx) == inverse
    assert multiply_reduced(p, multiplicative_inverse(p, ctx), ctx) == reduce((1,), ctx)


@pytest.mark.parametrize("n", [64, 65])
def test_solvers_build_no_context(n, monkeypatch, rng):
    ctx = Context(n)
    p = random_permutational_poly(ctx, rng)

    def no_context(*args, **kwargs):
        raise AssertionError("a solver built a Context")

    monkeypatch.setattr(solve, "Context", no_context)
    inverse = invert_permutation(p, ctx)
    assert interpolate(poly._node_values(inverse, ctx), ctx) == inverse
    assert multiply_reduced(p, multiplicative_inverse(p, ctx), ctx) == reduce((1,), ctx)


# -- one row store per precision ------------------------------------------------


@pytest.fixture
def packs(monkeypatch):
    """The precision of each whole table poly packs (poly._packed_rows), in order."""
    calls = []
    real = poly._packed_rows

    def counting(n, rows):
        calls.append(n)
        return real(n, rows)

    monkeypatch.setattr(poly, "_packed_rows", counting)
    return calls


def test_one_inversion_store_serves_every_ladder_level(store_builds, monkeypatch, rng):
    ctx = Context(600)
    p = random_permutational_poly(ctx, rng)
    precisions = []

    def recording(newton, ctx):
        precisions.append(ctx.n)
        return real_solve(newton, ctx)

    real_solve = poly._solve
    monkeypatch.setattr(poly, "_solve", recording)
    assert not hasattr(solve, "_solve")
    first = invert_permutation(p, ctx)
    # the ladder's ten precisions (2, 3, 5, ..., 300, 600) solve nothing; the final fit
    # solves once, at n, and reads checkpoints it does not keep
    assert precisions == [600]
    assert store_builds == [(600, False)]
    # the second solve at n builds the whole table and keeps it before it reads
    assert invert_permutation(p, ctx) == first
    assert precisions == [600, 600]
    assert store_builds == [(600, False), (600, True)]
    # and a third, on another Context, reads it
    assert invert_permutation(p, Context(600)) == first
    assert precisions == [600, 600, 600]
    assert store_builds == [(600, False), (600, True)]


def test_solvers_on_one_context_share_one_store(store_builds, packs, rng):
    ctx = Context(256)
    p = random_permutational_poly(ctx, rng)
    long = [rng.randrange(1 << 256) for _ in range(2 * ctx.d + 1)]
    # reduce solves first and keeps nothing; interpolate's solve packs the rows and keeps them
    assert reduce(long, ctx) == oracle_reduce(long, 256)
    assert interpolate(poly._node_values(p, ctx), ctx) == p
    assert multiply_reduced(p, multiplicative_inverse(p, ctx), ctx) == reduce((1,), ctx)
    assert store_builds == [(256, True), (256, True)] and packs == [256]
    assert reduce(long, Context(256)) == reduce(long, ctx)
    assert store_builds == [(256, True), (256, True)] and packs == [256]


def test_fresh_contexts_at_one_precision_keep_one_store(store_builds, packs, rng):
    # as each command of the command line solves on a fresh Context: the first solve at n
    # builds tuple rows and keeps none, the second packs them and keeps them, and every
    # later solve at n, on any Context, reads them
    n = 64
    long = [rng.randrange(1 << n) for _ in range(2 * Context(n).d + 1)]
    expected = oracle_reduce(long, n)
    builds, kept = [], []
    for _ in range(4):
        assert reduce(long, Context(n)) == expected
        builds.append(len(store_builds))
        kept.append(n in poly._row_stores)
    assert builds == [1, 2, 2, 2] and set(store_builds) == {(n, True)}
    assert kept == [False, True, True, True] and packs == [n]


def _racing_fits(tables, contexts):
    # each thread fits every table on its own Context; a thread that raises appends nothing,
    # so the caller's count catches it too
    results = []

    def fit(ctx):
        results.append([interpolate(values, ctx) for values in tables])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fit, args=(ctx,)) for ctx in contexts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_threads_sharing_a_fresh_context_interpolate_consistently(cold_row_stores, rng):
    other = Context(128)
    tables = [poly._node_values(random_permutational_poly(other, rng), other) for _ in range(6)]
    expected = [interpolate(values, other) for values in tables]
    cold_row_stores()  # no solve at n = 128 has run, so the threads race on its first solves
    ctx = Context(128)
    assert _racing_fits(tables, [ctx] * 4) == [expected] * 4


def _second_solve_race(rng, cold, shared):
    # one solve at n = 128 keeps nothing, so the threads race to pack the rows and keep them,
    # on one Context or each on its own
    other = Context(128)
    tables = [poly._node_values(random_permutational_poly(other, rng), other) for _ in range(6)]
    expected = [interpolate(values, other) for values in tables]
    cold()
    ctx = Context(128)
    assert interpolate(tables[0], ctx) == expected[0]
    assert 128 not in poly._row_stores
    contexts = [ctx] * 4 if shared else [Context(128) for _ in range(4)]
    assert _racing_fits(tables, contexts) == [expected] * 4
    assert len(poly._row_stores[128][1]) > 2


def test_threads_racing_on_a_contexts_second_solve_interpolate_consistently(cold_row_stores, rng):
    _second_solve_race(rng, cold_row_stores, shared=True)


def test_threads_on_distinct_contexts_racing_on_a_second_solve_agree(cold_row_stores, rng):
    _second_solve_race(rng, cold_row_stores, shared=False)


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


def test_multiplicative_inverse_at_2048(rng):
    # p q = 1 at four odd full-width points, by plain Horner; one flipped bit of q breaks it
    n = 2048
    ctx = Context(n)
    coeffs = [rng.getrandbits(n) for _ in range(ctx.d + 1)]
    if sum(coeffs) % 2 == 0:
        coeffs[0] ^= 1
    points = [rng.getrandbits(n) | 1 << (n - 1) | 1 for _ in range(4)]

    def is_inverse(q):
        return all(horner(coeffs, x, n) * horner(q, x, n) % (1 << n) == 1
                   for x in points)

    q = multiplicative_inverse(tuple(coeffs), ctx).coeffs
    assert is_inverse(q)
    assert not is_inverse((*q[:-1], q[-1] ^ 1))


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
        lambda: reduce(other, ctx),
        lambda: equivalent(other, (2, 1), ctx),
        lambda: equivalent((2, 1), other, ctx),
    )
    for call in calls:
        with pytest.raises(ValueError, match="canonical for n=8, context has n=16"):
            call()


def test_glue_polynomial_refuses_a_form_canonical_for_another_n():
    ctx = Context(16)
    other, same = reduce((2, 1), Context(8)), reduce((2, 1), ctx)
    for p, h in ((other, same), (same, other), (other, other)):
        with pytest.raises(ValueError, match="canonical for n=8, context has n=16"):
            glue_polynomial(p, h, ctx)
    # plain tuples and IntPoly carry no n, so they are read as they stand
    assert glue_polynomial((2, 1), IntPoly((2, 1)), ctx) == glue_polynomial(same, same, ctx)


# -- node values by packed coefficient chunks (poly._values_at) -----------------


def _kernel_vectors(n, rng):
    """Coefficient vectors of every length the chunking cuts differently (none,
    fewer than SMALL_CHUNKS, a multiple of it, one past, d + 1 and 2d + 1),
    with negative slots and slots above 2**n."""
    d = Context(n).d
    return [
        [rng.randrange(-(1 << (n + 9)), 1 << (n + 9)) for _ in range(length)]
        for length in (0, 1, 7, 8, 9, d + 1, 2 * d + 1)
    ]


def _kernel_points(n):
    """1, ..., 2d + 1 and the odd points below keller_beta(n) that glue_polynomial reads."""
    return [*range(1, 2 * Context(n).d + 2), *range(1, keller_beta(n), 2)]


@pytest.mark.parametrize("packed_length", [poly.PACKED_LENGTH, 1])  # 1 packs every vector
@pytest.mark.parametrize("n", range(2, 65))
def test_values_at_matches_horner_and_the_oracle(n, packed_length, monkeypatch, rng):
    monkeypatch.setattr(poly, "PACKED_LENGTH", packed_length)
    ctx = Context(n)
    points = _kernel_points(n)
    vectors = _kernel_vectors(n, rng)
    by_horner = [[poly._eval_masked(coeffs, x, ctx.mask) for x in points] for coeffs in vectors]
    assert [poly._values_at([coeffs], points, n)[0] for coeffs in vectors] == by_horner
    # two vectors of unequal length share one packed pass
    for (a, at_a), (b, at_b) in zip(zip(vectors, by_horner), zip(vectors[::-1], by_horner[::-1])):
        assert poly._values_at([a, b], points, n) == [at_a, at_b]
    if n <= 10:  # the oracle tabulates every odd residue
        odd = [x for x in points if x & 1]
        for coeffs, values in zip(vectors, by_horner):
            at_odd = [v for x, v in zip(points, values) if x & 1]
            assert at_odd == _oracle_values_at(coeffs, n, [x % ctx.modulus for x in odd])


def test_values_at_matches_horner_at_one_seeded_large_n(rng):
    n = rng.choice((255, 256, 257, 1024))
    ctx = Context(n)
    points = [*ctx.interpolation_nodes, *range(1, keller_beta(n), 2)]
    wide, longer = _kernel_vectors(n, rng)[-2:]
    by_horner = [[poly._eval_masked(c, x, ctx.mask) for x in points] for c in (wide, longer)]
    assert poly._values_at([wide, longer, ()], points, n) == [*by_horner, [0] * len(points)]


def test_product_and_glue_match_the_oracle_at_one_seeded_n_above_256(rng):
    n = rng.randrange(257, 321)
    ctx = Context(n)
    p, s = (random_permutational_poly(ctx, rng) for _ in range(2))
    assert multiply_reduced(p, s, ctx) == oracle_reduce(p.as_int_poly() * s.as_int_poly(), n)
    # the glued polynomial is p on odd x and h(x + 1) - 1 on even x, by exact evaluation
    glued, p_exact, h_exact = glue_polynomial(p, s, ctx), p.as_int_poly(), s.as_int_poly()
    for x in [*range(keller_beta(n) + 2), *(rng.randrange(ctx.modulus) for _ in range(20))]:
        expected = p_exact(x) if x & 1 else h_exact(x + 1) - 1
        assert glued(x) % ctx.modulus == expected % ctx.modulus


# -- forms the package builds in range skip the public constructor's checks ------


@pytest.mark.parametrize("n", [5, 9, 16, 24, 32, 48, 64])
def test_every_fit_equals_its_checked_construction(n, rng):
    ctx = Context(n)
    for drop in (1, 2) if n < 64 else (1,):
        for _ in range(3):
            coeffs = [rng.randrange(1 << n) for _ in range(ctx.d + 1)]
            coeffs[0] ^= ~sum(coeffs) & 1  # odd coefficient sum: odd values
            nodes = rng.sample(ctx.interpolation_nodes, ctx.d + 1 - drop)
            fits = interpolate_at_nodes(nodes, [evaluate(coeffs, x, ctx) for x in nodes], ctx)
            assert len(fits) > 1
            for fit in fits + [interpolate(poly._node_values(coeffs, ctx), ctx)]:
                checked = ReducedPoly(fit.coeffs, n)
                assert fit == checked and hash(fit) == hash(checked)
                assert fit.coeffs == checked.coeffs and len(fit.coeffs) == ctx.d + 1


def test_the_public_constructor_still_refuses_an_out_of_range_slot():
    widths = Context(16).coeff_bits
    for slot in (0, 1, len(widths) - 1):
        coeffs = [0] * len(widths)
        coeffs[slot] = 1 << widths[slot]
        with pytest.raises(ValueError, match=f"at degree {slot} is outside"):
            ReducedPoly(tuple(coeffs), 16)
        coeffs[slot] = -1
        with pytest.raises(ValueError):
            ReducedPoly(tuple(coeffs), 16)
