"""Polynomial types, canonical reduction, and the parity predicates."""

import math
import sys
import threading
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import horner
from unitpoly import (
    Context,
    IntPoly,
    ReducedPoly,
    bivariate_quasigroup_check,
    check_unit_group_structure,
    conjugate_to_nonunits,
    equivalent,
    evaluate,
    format_poly,
    glue_polynomial,
    hensel_roots,
    ideal_generators,
    indicator_polys,
    induces_function_on_units,
    induces_permutation_on_units,
    interpolate,
    interpolate_at_nodes,
    invert_permutation,
    keller_beta,
    keller_identity_check,
    max_reduced_degree,
    multiply_reduced,
    parse_poly,
    reduce,
    rivest_permutes_ring,
    two_adic_factorial_valuation,
    unit_inverse,
)
from unitpoly import poly, solve
from unitpoly.errors import NotAPermutation
from unitpoly.quasigroup import random_permutational_poly
from unitpoly.oracle import (
    oracle_bivariate_table,
    oracle_function_of,
    oracle_is_latin_square,
    oracle_is_permutation,
    oracle_is_unit_valued,
    oracle_newton_of_power,
    oracle_reduce,
    oracle_solve,
)


# -- plain integer polynomials ------------------------------------------------


def test_intpoly_strips_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0)).coeffs == ()
    assert IntPoly(()).degree is None
    assert IntPoly((0, 1)).degree == 1


def test_intpoly_arithmetic():
    p = IntPoly((1, 1))
    q = IntPoly((2, 3))
    assert (p + q).coeffs == (3, 4)
    assert (p - q).coeffs == (-1, -2)
    assert (p * q).coeffs == (2, 5, 3)
    assert (2 * p).coeffs == (2, 2)
    assert (p + 1).coeffs == (2, 1)
    assert p(10) == 11
    assert IntPoly((1, 0, 2)).shifted(2).coeffs == (0, 0, 1, 0, 2)


def test_parse_and_format_round_trip():
    assert parse_poly("31,3,2").coeffs == (31, 3, 2)
    assert parse_poly(" 1 , -4 , 0 , 2 ").coeffs == (1, -4, 0, 2)
    assert parse_poly("0").coeffs == ()
    assert format_poly((31, 3, 2, 0)) == "31,3,2"
    assert format_poly(()) == "0"
    assert format_poly((0, 0)) == "0"
    # a float is refused, as IntPoly refuses it, not truncated to 2
    with pytest.raises(ValueError, match=r"^2\.7 is not an integer$"):
        format_poly((2.7, 1))


@pytest.mark.parametrize("bad", ["", "1,,2", "x", "1;2", ","])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_poly(bad)


def test_pretty_rendering():
    assert IntPoly((31, 3, 2)).pretty() == "31 + 3x + 2x^2"
    assert IntPoly(()).pretty() == "0"


# -- canonical coefficient vectors --------------------------------------------


def test_reduced_poly_pads_to_full_width():
    rp = ReducedPoly((6, 2, 1), 4)
    assert rp.coeffs == (6, 2, 1)
    assert ReducedPoly((1,), 4).coeffs == (1, 0, 0)
    assert ReducedPoly((1, 0, 0, 0), 4).coeffs == (1, 0, 0)


# each refusal word for word; at n=4 slot i holds n - i - t_i bits, that is 16, 8, 2
_SLOT_REFUSALS = {
    (16, 8, 2): "coefficient 16 at degree 0 is outside [0, 16) for n=4",  # the first of three
    (16, 0, 0): "coefficient 16 at degree 0 is outside [0, 16) for n=4",
    (0, -1, 0): "coefficient -1 at degree 1 is outside [0, 8) for n=4",
    (0, 8, 0): "coefficient 8 at degree 1 is outside [0, 8) for n=4",
    (0, 0, 2): "coefficient 2 at degree 2 is outside [0, 2) for n=4",
    (0, 0, 0, 1): "degree 3 exceeds the cap 2 for n=4",
    (0, 5.5): "5.5 is not an integer",
    (0, "3"): "'3' is not an integer",
}


def test_reduced_poly_slot_bounds():
    assert ReducedPoly((15, 7, 1), 4).coeffs == (15, 7, 1)
    assert ReducedPoly((1, 0, 0, 0, 0), 4).coeffs == (1, 0, 0)
    made = ReducedPoly((True, False, True), 4).coeffs
    assert made == (1, 0, 1) and all(type(c) is int for c in made)
    for coeffs, message in _SLOT_REFUSALS.items():
        with pytest.raises(ValueError) as caught:
            ReducedPoly(coeffs, 4)
        assert str(caught.value) == message, coeffs


def test_reduced_poly_degree_and_text():
    assert ReducedPoly((31, 3, 2, 0), 5).degree == 2
    assert ReducedPoly((0,), 5).degree is None
    assert ReducedPoly((31, 3, 2, 0), 5).text() == "31,3,2"


# -- evaluation ---------------------------------------------------------------


@pytest.mark.parametrize("n", range(2, 9))
def test_evaluate_matches_oracle(n, rng):
    ctx = Context(n)
    for _ in range(25):
        deg = rng.randrange(7)
        coeffs = tuple(rng.randrange(1 << n) for _ in range(deg + 1))
        table = oracle_function_of(coeffs, n)
        assert [evaluate(coeffs, x, ctx) for x in table.points()] == list(table.values)


def test_evaluate_checks_domain():
    ctx = Context(4)
    assert evaluate((1, 1), 3, ctx) == 4
    with pytest.raises(ValueError):
        evaluate((1, 1), 16, ctx)
    with pytest.raises(ValueError):
        evaluate((1, 1), -1, ctx)
    with pytest.raises(ValueError):
        evaluate(ReducedPoly((1,), 5), 3, ctx)
    # a float or a string is refused, not truncated or parsed
    for bad in (5.7, 3.0, "3"):
        with pytest.raises(ValueError, match=repr(bad)):
            evaluate((0, 1), bad, Context(8))
        with pytest.raises(ValueError, match=repr(bad)):
            Context(8).check_unit(bad)


# -- class heads: one polynomial at many odd points ------------------------------


def _head_inputs(n, rng):
    """A canonical polynomial, then one with negative and oversized coefficients."""
    yield [rng.randrange(1 << width) for width in Context(n).coeff_bits]
    yield [rng.randrange(-(1 << (n + 8)), 1 << (n + 8)) for _ in range(max_reduced_degree(n) + 4)]


def _head_points(n, depth, rng):
    """Random odd points, odd points below 2**ceil(n/2) as the top Newton level
    of an inversion reads, and per class a one with x - a exactly divisible by
    2**depth, where a wrong bit of any head term changes the value."""
    mask = (1 << n) - 1
    points = [rng.randrange(1 << n) | 1 for _ in range(8)]
    points += [rng.randrange(1 << ((n + 1) // 2)) | 1 for _ in range(8)]
    for a in range(1, 1 << depth, 2):
        points += [a, (a + ((2 * rng.randrange(1 << n) + 1) << depth)) & mask]
    return points


def _heads_agree(coeffs, n, depth, heads, rng):
    exact, mask = IntPoly(coeffs), (1 << n) - 1
    masks = poly._head_tree(coeffs, n, depth)[2]
    return all(poly._eval_heads(heads, depth, x, masks) == exact(x) & mask
               for x in _head_points(n, depth, rng))


def _with_junk_above_each_width(heads, n, depth, rng):
    """The heads with random bits set above term i's width n - depth*i, which
    no value may read."""
    return tuple(
        tuple(term | (rng.getrandbits(16) << (n - depth * i)) for i, term in enumerate(head))
        for head in heads
    )


def _slopes_agree(coeffs, n, depth, rng):
    """p' modulo 2**k from p's tree, for k = n - depth and ceil(n/2) when it
    is no more, agrees with exact evaluation of the derivative."""
    tree = poly._head_tree(coeffs, n, depth)
    slope = IntPoly([i * c for i, c in enumerate(coeffs)][1:])
    for k in {n - depth, min((n + 1) // 2, n - depth)}:
        points = _head_points(n, depth, rng)
        values = poly._head_values(poly._slope_tree(tree, k), points)
        assert values == [slope(x) % (1 << k) for x in points]


def _check_heads_at(n, rng):
    for coeffs in _head_inputs(n, rng):
        for depth in range(min(6, n - 1) + 1):
            heads = poly._head_tree(coeffs, n, depth)[1]
            assert len(heads) == max(1, (1 << depth) // 2)
            assert _heads_agree(coeffs, n, depth, heads, rng)
            junk = _with_junk_above_each_width(heads, n, depth, rng)
            assert _heads_agree(coeffs, n, depth, junk, rng)
            _slopes_agree(coeffs, n, depth, rng)


@pytest.mark.parametrize("n", range(2, 65))
def test_class_heads_match_exact_evaluation(n, rng):
    _check_heads_at(n, rng)


def test_class_heads_match_exact_evaluation_at_a_random_n(rng):
    _check_heads_at(rng.randrange(65, 301), rng)


def test_depth_zero_is_horner_over_the_coefficients():
    # one class, the coefficients, and one mask per term
    coeffs = (5, -3, 1 << 40, 7)
    assert poly._head_tree(coeffs, 8, 0) == (0, (coeffs,), (255,) * 4)
    assert all(poly._eval_heads((coeffs,), 0, x, (255,) * 4) == poly._eval_masked(coeffs, x, 255)
               for x in range(256))
    assert poly._head_values(poly._level_tree(poly._head_tree(coeffs, 8, 0), 5), range(256)) == [
        poly._eval_masked(coeffs, x, 31) for x in range(256)
    ]


@pytest.mark.parametrize("n, depth", [(12, 3), (24, 4), (40, 6)])
def test_a_flipped_bit_in_any_class_head_is_caught(n, depth, rng):
    coeffs = next(_head_inputs(n, rng))
    heads = poly._head_tree(coeffs, n, depth)[1]
    assert _heads_agree(coeffs, n, depth, heads, rng)
    for index, head in enumerate(heads):
        for i, term in enumerate(head):
            bit = rng.randrange(n - depth * i)  # inside term i's width
            planted = list(heads)
            planted[index] = head[:i] + (term ^ (1 << bit),) + head[i + 1:]
            assert not _heads_agree(coeffs, n, depth, planted, rng)


def test_trees_at_one_depth_share_one_mask_tuple(rng):
    n = 40
    first, second = (poly._head_tree(next(_head_inputs(n, rng)), n, 5) for _ in range(2))
    assert first[2] is second[2] == tuple((1 << (n - 5 * i)) - 1 for i in range(8))


def test_the_tree_depth_rule_picks_a_depth_every_ladder_level_can_read():
    # _slope_tree reads the top level's slope, p' modulo 2**ceil(n/2), only up to floor(n/2)
    for n in (*range(2, 301), *range(512, 4097, 89), 4096):
        d = max_reduced_degree(n)
        for length in (2, d + 1, d + 5):
            assert 0 <= solve._tree_depth(length, n) <= min(solve.TREE_DEPTH_LIMIT, n // 2)
    # a degree-d p: each pick was within a few percent of the fastest depth in interleaved
    # timings of the whole inversion
    picks = {
        n: solve._tree_depth(max_reduced_degree(n) + 1, n) for n in (16, 64, 256, 1024, 2048, 4096)
    }
    assert picks == {16: 2, 64: 3, 256: 4, 1024: 6, 2048: 7, 4096: 7}


def test_evaluator_builds_its_heads_once_they_pay(head_builds, rng):
    n = 16
    ctx = Context(n)
    coeffs = next(_head_inputs(n, rng))
    evaluator = poly._OddEvaluator(coeffs, n)
    # the prices the evaluator weighs: reads at full width, down to its deepest tree
    prices = poly._tree_prices(len(coeffs), n, (n,), poly.KEPT_TREE_DEPTH)
    assert poly._stages(len(coeffs), n) == {91: 4, 625: 6}
    depths = [0]
    for query in range(1, 2 * 625):
        x = rng.randrange(1 << n) | 1
        assert evaluator(x) == evaluate(coeffs, x, ctx)
        # after each query the tree is the one of least cost for that many reads
        depth = poly._cheapest_depth(prices, query)
        assert evaluator._state[0] == depth
        if depth != depths[-1]:
            # the first query by which the steps the deeper tree saves pay for its missing levels
            (built, read), (more, less) = prices[depths[-1]], prices[depth]
            assert (query - 1) * (read - less) <= more - built < query * (read - less)
            depths.append(depth)
    # each stage grew the tree before it, once
    assert head_builds == [(0, 4), (4, 6)] == list(zip(depths, depths[1:]))


def test_heads_are_due_at_one_priced_break_even_at_every_scale():
    # one price for every tree: measured break-evens of a depth-4 tree (its build over the
    # time a query saves) were about 149, 80, 116 and 67 queries at n = 16, 64, 256 and 1024
    stages = {n: poly._stages(len(Context(n).coeff_bits), n) for n in (16, 64, 256, 1024, 4096)}
    assert stages == {
        16: {91: 4, 625: 6},
        64: {228: 4, 521: 5, 1145: 6},
        256: {87: 2, 141: 3, 257: 4, 541: 5, 986: 6},
        1024: {69: 2, 162: 3, 300: 4, 587: 5, 1123: 6},
        4096: {65: 2, 169: 3, 315: 4, 608: 5, 1177: 6},
    }


def _kept_bits(n, depth, rng):
    """The bits of the heads of a degree-d p's tree at depth s = depth >= 1,
    term i of each n - s i wide: summed over the built heads up to n = 300,
    above that by the width formula, 2**(s-1) heads of ceil(n/s) terms."""
    if n <= 300:
        heads = poly._head_tree(next(_head_inputs(n, rng)), n, depth)[1]
        return sum(n - depth * i for head in heads for i in range(len(head)))
    terms = -(-n // depth)
    return (1 << (depth - 1)) * (terms * n - depth * terms * (terms - 1) // 2)


def test_evaluators_keep_trees_of_at_most_twelve_canonical_forms(rng):
    # a tree at depth s keeps about 2**s/s times p's bits: depth 6 (10.7) is kept, 7 (18.3) is not
    for n in (*range(2, 80), 256, 1024, 4096):
        length = len(Context(n).coeff_bits)
        deepest = max(poly._stages(length, n).values(), default=0)
        assert deepest <= min(poly.KEPT_TREE_DEPTH, n // 2) == min(6, n // 2)
        if deepest:
            assert _kept_bits(n, deepest, rng) <= 12 * sum(Context(n).coeff_bits)


def _check_kept_slopes_at(n, rng):
    # the top Newton level of an inversion or a lift reads p' modulo 2**ceil(n/2) off p's
    # tree: here off an evaluator's tree at depth 0 and at each of its stages
    half = (n + 1) // 2
    for _ in range(4):
        for coeffs in _head_inputs(n, rng):
            slope = IntPoly([i * c for i, c in enumerate(coeffs)][1:])
            evaluator = poly._OddEvaluator(coeffs, n)
            for depth in (0, *poly._stages(len(coeffs), n).values()):
                evaluator._deepen(depth)
                assert evaluator._state[0] == depth
                slopes = poly._slope_tree(evaluator._state, half)
                points = _head_points(n, depth, rng)
                assert poly._head_values(slopes, points) == [slope(x) % (1 << half) for x in points]


@pytest.mark.parametrize("n", range(2, 65))
def test_every_kept_tree_gives_its_slope(n, rng):
    _check_kept_slopes_at(n, rng)


def test_every_kept_tree_gives_its_slope_at_a_random_n(rng):
    _check_kept_slopes_at(rng.randrange(65, 301), rng)


def _permutations(n, rng):
    """_head_inputs with their two parity conditions set, so each permutes the
    odd residues."""
    for coeffs in _head_inputs(n, rng):
        coeffs[1] += ~sum(coeffs[1::2]) & 1
        coeffs[0] += ~sum(coeffs) & 1
        yield coeffs


@pytest.mark.parametrize("n", range(2, 13))
def test_lifted_preimages_match_brute_force_at_every_depth(n, rng):
    # depth 0, the coefficients, and every depth an evaluator may keep
    odd = range(1, 1 << n, 2)
    for coeffs in _permutations(n, rng):
        exact = IntPoly(coeffs)
        preimage = {exact(x) % (1 << n): x for x in odd}
        assert sorted(preimage) == list(odd)
        for depth in range(min(poly.KEPT_TREE_DEPTH, n // 2) + 1):
            tree = poly._head_tree(coeffs, n, depth)
            lifted = poly._lifted(tree, odd, n)
            assert lifted == [preimage[c] for c in odd]


def test_lifted_preimages_equal_the_inverses_values_at_a_random_n(rng):
    n = rng.randrange(65, 301)
    ctx = Context(n)
    for coeffs in _permutations(n, rng):
        inverse = invert_permutation(coeffs, ctx)
        evaluator = poly._OddEvaluator(coeffs, n)
        for depth in (0, *poly._stages(len(coeffs), n).values()):
            evaluator._deepen(depth)
            for _ in range(8):
                c = rng.randrange(1 << n) | 1
                assert evaluator.preimage(c) == evaluate(inverse, c, ctx)


def test_a_wrong_slope_fails_the_lifts_full_width_check(monkeypatch, rng):
    n = 64
    coeffs = next(_permutations(n, rng))
    evaluator = poly._OddEvaluator(coeffs, n)
    c = rng.randrange(1 << n) | 1
    assert IntPoly(coeffs)(evaluator.preimage(c)) % (1 << n) == c
    real = poly._slope_tree

    def off_by_two(tree, m):
        # p' + 2 is odd too, so every Newton step runs, but each gains one bit, not twice its bits
        depth, slopes, masks = real(tree, m)
        return depth, tuple((head[0] + 2, *head[1:]) for head in slopes), masks

    monkeypatch.setattr(poly, "_slope_tree", off_by_two)
    with pytest.raises(RuntimeError, match="lifted preimage failed its check"):
        evaluator.preimage(c)


@pytest.mark.parametrize("n", [2, 3])
def test_evaluator_builds_no_heads_that_save_nothing(n, head_builds):
    # one class head would be as long as p itself
    assert poly._stages(len(Context(n).coeff_bits), n) == {}
    evaluator = poly._OddEvaluator((1, 1), n)
    for _ in range(200):
        assert [evaluator(x) for x in range(1, 1 << n, 2)] == [
            (x + 1) % (1 << n) for x in range(1, 1 << n, 2)
        ]
    assert head_builds == []


def _check_grown_heads_at(n, rng):
    for coeffs in _head_inputs(n, rng):
        deepest = min(poly.KEPT_TREE_DEPTH, n // 2)
        trees = [poly._head_tree(coeffs, n, depth) for depth in range(deepest + 1)]
        for start, tree in enumerate(trees):
            for depth in range(start + 1, deepest + 1):
                grown = poly._deepened(tree, n, depth)
                assert grown == trees[depth]
                assert grown[2] is trees[depth][2]


@pytest.mark.parametrize("n", range(2, 41))
def test_heads_grown_from_a_shallower_tree_equal_a_fresh_build(n, rng):
    _check_grown_heads_at(n, rng)


def test_heads_grown_from_a_shallower_tree_equal_a_fresh_build_at_a_random_n(rng):
    _check_grown_heads_at(rng.randrange(65, 301), rng)


def test_only_the_depths_trees_are_read_at_keep_their_masks(rng):
    # the levels a tree grows through would hold 2.6 MiB of masks at n = 4096
    n = 64
    coeffs = next(_head_inputs(n, rng))
    poly._head_masks.cache_clear()
    fresh = poly._head_tree(coeffs, n, 6)
    assert poly._head_masks.cache_info().currsize == 1
    poly._head_masks.cache_clear()
    grown = poly._deepened(poly._head_tree(coeffs, n, 4), n, 6)
    assert poly._head_masks.cache_info().currsize == 2
    assert grown == fresh


def test_threads_racing_every_stage_switch_agree(head_builds, rng):
    n = 16
    ctx = Context(n)
    coeffs = next(_head_inputs(n, rng))
    evaluator = poly._OddEvaluator(coeffs, n)
    points = [rng.randrange(1 << n) | 1 for _ in range(400)]
    expected = [evaluate(coeffs, x, ctx) for x in points]
    results = []

    def query():
        results.append([evaluator(x) for x in points])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=query) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(threads)
    # 1600 queries, past both stages; each query count went to one thread, so each stage
    # was grown at most once, and the last one is what the evaluator keeps
    assert sorted(depth for _, depth in head_builds) in ([4, 6], [6])
    assert evaluator._state == poly._head_tree(coeffs, n, 6)


def test_a_shallower_tree_never_replaces_a_deeper_one(monkeypatch, rng):
    n = 16
    ctx = Context(n)
    coeffs = next(_head_inputs(n, rng))
    evaluator = poly._OddEvaluator(coeffs, n)
    real = poly._deepened
    growing, release = threading.Event(), threading.Event()

    def held_at_depth_4(tree, n, depth):
        if depth == 4:
            growing.set()
            assert release.wait(60)
        return real(tree, n, depth)

    monkeypatch.setattr(poly, "_deepened", held_at_depth_4)
    shallow = threading.Thread(target=evaluator._deepen, args=(4,))
    shallow.start()
    try:
        assert growing.wait(60)
        evaluator._deepen(6)  # swapped in while the depth-4 tree is still growing
    finally:
        release.set()
        shallow.join(timeout=60)
    assert not shallow.is_alive()
    assert evaluator._state == poly._head_tree(coeffs, n, 6)
    evaluator._deepen(5)
    assert evaluator._state[0] == 6
    assert all(evaluator(x) == evaluate(coeffs, x, ctx) for x in range(1, 1 << 10, 2))


@pytest.mark.parametrize(
    "call, bad",
    [
        (lambda: IntPoly((2.5, 1)), 2.5),
        (lambda: ReducedPoly((2.5, 1), 4), 2.5),
        (lambda: ReducedPoly((1,), 4.9), 4.9),
        (lambda: reduce((2.7, 1.2), Context(4)), 2.7),
        (lambda: evaluate((2.5, 1), 3, Context(4)), 2.5),
        (lambda: unit_inverse(3.7, 5), 3.7),
        (lambda: hensel_roots((-1.5, 0, 1.0), 3), -1.5),
        (lambda: induces_permutation_on_units((2.5, 1.0)), 2.5),
        (lambda: bivariate_quasigroup_check([[0, 1.5], [1, 0]], 4), 1.5),
        (lambda: bivariate_quasigroup_check([[0, 1], [1, 0]], 4.0), 4.0),
        pytest.param(lambda: Context(4.0), 4.0, id="Context-4.0"),
        pytest.param(lambda: Context("5"), "5", id="Context-str"),
        pytest.param(lambda: Context(5, max_n=9.5), 9.5, id="Context-max_n"),
        pytest.param(lambda: unit_inverse(3, 4.5), 4.5, id="unit_inverse-n"),
        pytest.param(lambda: hensel_roots((1, 1), 3.0), 3.0, id="hensel_roots-n"),
        pytest.param(
            lambda: hensel_roots((1, 1), 3, branch_limit=2.5), 2.5, id="hensel_roots-branch_limit"
        ),
        pytest.param(
            lambda: interpolate_at_nodes([1], [1], Context(5), max_solutions=2.5), 2.5,
            id="interpolate_at_nodes-max_solutions",
        ),
        pytest.param(lambda: check_unit_group_structure(3.5), 3.5, id="unit_group-n"),
        pytest.param(lambda: max_reduced_degree(4.5), 4.5, id="max_reduced_degree-n"),
        pytest.param(lambda: two_adic_factorial_valuation(4.5), 4.5, id="factorial_valuation-i"),
        pytest.param(lambda: keller_beta(4.5), 4.5, id="keller_beta-j"),
        pytest.param(lambda: keller_identity_check(4.5), 4.5, id="keller_identity_check-n"),
    ],
)
def test_float_coefficients_and_precisions_are_refused(call, bad):
    # each of these once truncated the float and answered as if for int(bad), or
    # raised a bare TypeError or AttributeError
    with pytest.raises(ValueError, match=f"^{bad!r} is not an integer$"):
        call()


# -- membership and permutation parity tests ----------------------------------


@pytest.mark.parametrize("n", range(2, 7))
def test_unit_predicates_match_oracle(n, rng):
    for _ in range(60):
        deg = rng.randrange(6)
        coeffs = tuple(rng.randrange(1 << n) for _ in range(deg + 1))
        table = oracle_function_of(coeffs, n)
        assert induces_function_on_units(coeffs) == oracle_is_unit_valued(table)
        assert induces_permutation_on_units(coeffs) == oracle_is_permutation(table)


def _permutes_units_by_two_sums(coeffs):
    # the definition: the whole sum odd and the odd-indexed sum odd
    return sum(coeffs) & 1 == 1 and sum(coeffs[1::2]) & 1 == 1


def test_permutation_test_matches_the_two_sum_definition(rng):
    vectors = [(), (0,), (1,), (0, 1), (2, 1), (4, 4, 1), (-1, -2), (-3, 0, 0, -5)]
    for _ in range(300):
        length = rng.randrange(12)
        vectors.append(tuple(rng.randrange(-(1 << 70), 1 << 70) if rng.random() < 0.8 else 0
                             for _ in range(length)))
    for coeffs in vectors:
        expected = _permutes_units_by_two_sums(coeffs)
        assert induces_permutation_on_units(coeffs) == expected, coeffs
        assert induces_permutation_on_units(list(coeffs)) == expected, coeffs
        assert induces_permutation_on_units(IntPoly(coeffs)) == expected, coeffs
    for n in (2, 3, 8, 64, 256):
        widths = Context(n).coeff_bits
        for _ in range(50):
            form = ReducedPoly(tuple(rng.getrandbits(w) for w in widths), n)
            assert induces_permutation_on_units(form) == _permutes_units_by_two_sums(form.coeffs)


def test_unit_predicates_known_cases():
    assert induces_function_on_units((2, 1))
    assert induces_permutation_on_units((2, 1))
    assert induces_function_on_units((4, 4, 1))
    assert not induces_permutation_on_units((4, 4, 1))
    assert not induces_function_on_units((1, 1))


@pytest.mark.parametrize("n", range(2, 7))
def test_ring_permutation_predicate_matches_oracle(n, rng):
    for _ in range(60):
        deg = rng.randrange(1, 6)
        coeffs = [rng.randrange(1 << n) for _ in range(deg)] + [rng.randrange(1, 1 << n)]
        table = oracle_function_of(tuple(coeffs), n, domain="ring")
        assert rivest_permutes_ring(tuple(coeffs)) == oracle_is_permutation(table)


def test_ring_permutation_known_cases():
    assert rivest_permutes_ring((2, 1))
    assert not rivest_permutes_ring((0, 0, 1))
    assert not rivest_permutes_ring((1, 1, 1, 1))
    with pytest.raises(ValueError):
        rivest_permutes_ring((5,))
    with pytest.raises(ValueError):
        rivest_permutes_ring((0,))


# -- the vanishing ideal and reduction ----------------------------------------


def test_generators_n5():
    gens = ideal_generators(Context(5))
    assert [g.coeffs for g in gens] == [
        (32,),
        (16, 16),
        (12, 16, 4),
        (30, 14, 18, 2),
        (9, 16, 22, 16, 1),
    ]


def test_generators_n4():
    gens = ideal_generators(Context(4))
    assert [g.coeffs for g in gens] == [(16,), (8, 8), (6, 8, 2), (15, 7, 9, 1)]


@pytest.mark.parametrize("n", range(2, 11))
def test_generators_vanish_on_units(n):
    ctx = Context(n)
    for gen in ideal_generators(ctx):
        table = oracle_function_of(gen, n)
        assert set(table.values) == {0}, f"n={n} gen={gen.coeffs}"


def test_generators_are_rebuilt_and_the_context_stays_as_built(rng):
    ctx = Context(6)
    built = dict(vars(ctx))
    assert ideal_generators(ctx) == ideal_generators(ctx)
    reduce([ctx.mask] * (2 * ctx.d + 1), ctx)
    interpolate(poly._node_values(random_permutational_poly(ctx, rng), ctx), ctx)
    assert vars(ctx) == built


def test_reduce_builds_no_generators(monkeypatch, rng):
    def no_generators(*args):
        raise AssertionError("the ideal generators were built")

    monkeypatch.setattr(poly, "ideal_generators", no_generators)
    for n in (64, 65):
        ctx = Context(n)
        full = [ctx.mask] * (2 * ctx.d + 1)  # every slot above 0 out of range
        for degree in (0, ctx.d, ctx.d + 1, 2 * ctx.d):
            assert reduce(full[: degree + 1], ctx) == oracle_reduce(full[: degree + 1], n)
        p = random_permutational_poly(ctx, rng)
        assert reduce(p, ctx) == p
    assert reduce((1, 0, 0, 0, 0, 3), Context(2048)) == ReducedPoly((1, 0, 0, 0, 0, 3), 2048)


def test_reduce_above_the_cap_evaluates_nothing(monkeypatch, rng):
    ctx = Context(64)
    inputs = [
        [rng.randrange(1 << 64) for _ in range(degree)] + [1]
        for degree in (ctx.d + 1, 2 * ctx.d, 3 * ctx.d + 2)
    ]
    expected = [oracle_reduce(coeffs, 64) for coeffs in inputs]

    def no_values(*args):
        raise AssertionError("reduce evaluated the polynomial")

    monkeypatch.setattr(poly, "_values_at", no_values)
    assert [reduce(coeffs, ctx) for coeffs in inputs] == expected


def test_reduce_returns_a_canonical_vector_without_a_solve(monkeypatch, rng):
    ctx = Context(2048)
    canonical = ReducedPoly(tuple(rng.randrange(1 << bits) for bits in ctx.coeff_bits), 2048)

    def no_solve(*args):
        raise AssertionError("reduce solved for an already canonical vector")

    monkeypatch.setattr(poly, "_solve", no_solve)
    assert reduce(canonical, ctx) == canonical
    assert reduce(list(canonical.coeffs), ctx) == canonical


def test_reduce_of_a_full_width_degree_2d_input_at_2048(rng):
    # the lowering and the folding at full width: the form agrees with the source at four odd
    # full-width points, by plain Horner, and keeps every slot below 2**w_k; one flipped bit
    # of the form breaks the agreement
    n = 2048
    ctx = Context(n)
    source = [rng.getrandbits(n - 1) | 1 << (n - 1) for _ in range(2 * ctx.d + 1)]
    points = [rng.getrandbits(n) | 1 << (n - 1) | 1 for _ in range(4)]

    def is_form_of_source(coeffs):
        return (
            len(coeffs) == ctx.d + 1
            and all(0 <= c < 1 << bits for c, bits in zip(coeffs, ctx.coeff_bits))
            and all(horner(coeffs, x, n) == horner(source, x, n) for x in points)
        )

    form = reduce(source, ctx).coeffs
    assert is_form_of_source(form)
    assert not is_form_of_source((*form[:-1], form[-1] ^ 1))


@pytest.mark.parametrize("n", [64, 65])
def test_reduce_checks_no_slot_again(n, monkeypatch, rng):
    ctx = Context(n)
    inputs = [
        # in range, with trailing zeros, so the form is padded to d + 1 slots
        [rng.randrange(1 << bits) for bits in ctx.coeff_bits[: ctx.d // 2]] + [0, 0],
        # degree d, its top slot out of range
        [rng.randrange(1 << n) for _ in range(ctx.d)] + [ctx.mask],
        [rng.randrange(1 << n) for _ in range(2 * ctx.d + 1)],
    ]
    expected = [oracle_reduce(coeffs, n) for coeffs in inputs]

    def checked(self):
        raise AssertionError("reduce checked its form slot by slot")

    monkeypatch.setattr(ReducedPoly, "__post_init__", checked)
    assert [reduce(coeffs, ctx) for coeffs in inputs] == expected


def test_reduce_at_full_width_stays_small(rng):
    # a generator table, d**2 / 2 coefficients of n bits, would peak at about 3.3 MiB
    coeffs = [rng.randrange(1 << 512) for _ in range(max_reduced_degree(512) + 1)]
    tracemalloc.start()
    try:
        reduce(coeffs, Context(512))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_checkpoint_cache_is_bounded(rng):
    # one solve per n must not keep checkpoints for every n alive (about 37 KiB each here)
    inputs = [
        [rng.randrange(1 << n) for _ in range(max_reduced_degree(n) + 2)] for n in range(200, 264)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n, coeffs in enumerate(inputs, start=200):
            reduce(coeffs, Context(n))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 19


def _newton_vector(n, rng):
    # negative entries and entries far past their slot width: _solve reads slot k modulo 2**w_k
    return [rng.randrange(-(1 << (n + 8)), 1 << (n + 8)) for _ in range(max_reduced_degree(n) + 1)]


@pytest.mark.parametrize("n", range(2, 65))
def test_solve_matches_the_oracle(n, rng):
    for _ in range(3):
        newton = _newton_vector(n, rng)
        assert poly._solve(newton, Context(n)) == oracle_solve(newton, n)


def test_solve_matches_the_oracle_at_a_random_n(rng):
    n = rng.randrange(65, 301)
    newton = _newton_vector(n, rng)
    assert poly._solve(newton, Context(n)) == oracle_solve(newton, n)


def _stride(ctx):
    return poly._row_stores[ctx][0]


def _last_whole_table_n():
    # the largest n whose whole table T, (d+1)(d+2)/2 slots, fits in one row store
    n = 2
    while True:
        d = max_reduced_degree(n + 1)
        if (d + 1) * (d + 2) // 2 > poly.WHOLE_TABLE_ENTRIES:
            return n
        n += 1


_LAST_WHOLE = _last_whole_table_n()


@pytest.mark.parametrize("n, whole", [(_LAST_WHOLE, True), (_LAST_WHOLE + 1, False)])
def test_solve_matches_the_oracle_on_both_sides_of_the_whole_table(n, whole, rng):
    newton = _newton_vector(n, rng)
    ctx = Context(n)
    assert poly._solve(newton, ctx) == oracle_solve(newton, n)
    assert (_stride(ctx) == 1) == whole


def _oracle_solve_by_reduce(newton, n):
    # oracle_solve takes about 14 s at n = 600; oracle_reduce of the same function,
    # sum newton[k] N_k written out in monomials, takes about 2.5 s
    ctx = Context(n)
    return list(oracle_reduce(poly._expand(newton, ctx.interpolation_nodes, ctx.mask), n).coeffs)


def test_a_reused_context_keeps_its_whole_table(rng):
    # the first solve keeps checkpoints; the second replaces them with the whole table,
    # within the byte budget, before it reads; the third reads it
    n = 600
    inputs = [_newton_vector(n, rng) for _ in range(3)]
    expected = [poly._solve(newton, Context(n)) for newton in inputs]
    ctx = Context(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        first = poly._solve(inputs[0], ctx)
        checkpoints = _stride(ctx)
        second = poly._solve(inputs[1], ctx)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert checkpoints > 1
    assert _stride(ctx) == 1
    # about 3.5 MiB: the estimate bounds what the store keeps, and the budget bounds both
    assert retained <= poly._table_bytes(n) <= poly.ROW_STORE_BYTES
    third = poly._solve(inputs[2], ctx)
    assert [first, second, third] == expected
    for newton, out in zip(inputs, expected):
        assert out == _oracle_solve_by_reduce(newton, n)


@pytest.mark.parametrize("n, solves", [(256, 1), (600, 2)])
def test_a_whole_table_rebuilds_nothing(n, solves, monkeypatch, rng):
    ctx = Context(n)
    for _ in range(solves):
        poly._solve(_newton_vector(n, rng), ctx)
    assert _stride(ctx) == 1
    newton = _newton_vector(n, rng)
    expected = poly._solve(newton, Context(n))

    def no_rows(*args):
        raise AssertionError("a solve on the whole table built rows")

    monkeypatch.setattr(poly, "_times_x", no_rows)
    monkeypatch.setattr(poly, "_build_rows", no_rows)
    assert poly._solve(newton, ctx) == expected


def test_the_byte_budget_admits_n_1024_and_not_2048():
    # perfbench canon solves at n = 1024 on one Context and counts on this admission; the
    # exact edge (1027 and 1028 on CPython 3.11) rests on sys.getsizeof, which may differ
    # between versions, so it is not pinned
    assert poly._table_bytes(1024) <= poly.ROW_STORE_BYTES < poly._table_bytes(2048)


@pytest.mark.parametrize("slack, whole", [(-1, False), (0, True)])
def test_the_byte_budget_decides_whether_a_reused_context_keeps_its_table(
    slack, whole, monkeypatch, rng
):
    n = 600
    monkeypatch.setattr(poly, "ROW_STORE_BYTES", poly._table_bytes(n) + slack)
    ctx = Context(n)
    inputs = [_newton_vector(n, rng) for _ in range(10)]
    outputs, stores = [], []
    for newton in inputs:
        outputs.append(poly._solve(newton, ctx))
        stores.append(poly._row_stores[ctx])
    assert stores[0][0] > 1
    if whole:
        assert all(store[0] == 1 for store in stores[1:])
    else:
        assert all(store is stores[0] for store in stores)
    assert [outputs[0], outputs[-1]] == [poly._solve(inputs[i], Context(n)) for i in (0, -1)]


def test_threads_racing_to_grow_one_store_agree(rng):
    n = 600
    ctx = Context(n)
    poly._solve(_newton_vector(n, rng), ctx)  # checkpoints: each solve below grows them
    inputs = [_newton_vector(n, rng) for _ in range(4)]
    expected = [poly._solve(newton, Context(n)) for newton in inputs]
    results = [None] * len(inputs)
    start = threading.Barrier(len(inputs), timeout=60)

    def solve_one(i):
        start.wait()
        results[i] = poly._solve(inputs[i], ctx)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve_one, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected
    assert _stride(ctx) == 1
    assert [poly._solve(newton, ctx) for newton in inputs] == expected


def _packed(ctx):
    # a packed store carries its layout after (step, rows); a store of tuples is (step, rows)
    return len(poly._row_stores[ctx]) > 2


def _one_shot_solve(newton, n):
    # the tuple path: a Context that solves once reads the tuple rows its one solve builds
    ctx = Context(n)
    out = poly._solve(newton, ctx)
    assert not _packed(ctx)
    return out


def _solve_inputs(n, rng):
    # full-width slots left unmasked, as _newton_fit returns them; the same with its top
    # half zero, so the top rows' r is 0 and their products are skipped; and wide, negative
    # entries
    d = max_reduced_degree(n)
    full = [rng.randrange(1 << n) for _ in range(d + 1)]
    return [full, full[: d // 2 + 1] + [0] * (d - d // 2), _newton_vector(n, rng)]


@pytest.mark.parametrize("n", [*range(2, 65), _LAST_WHOLE - 1, _LAST_WHOLE])
def test_a_second_solve_packs_the_rows_and_matches_the_tuple_path(n, rng):
    # the first solve keeps tuple rows; the second packs them and reads the packed rows,
    # as does every later one
    inputs = _solve_inputs(n, rng)
    expected = [_one_shot_solve(newton, n) for newton in inputs]
    oracle = oracle_solve if n <= 64 else _oracle_solve_by_reduce
    assert expected == [oracle(newton, n) for newton in inputs]
    ctx = Context(n)
    assert poly._solve(inputs[0], ctx) == expected[0]
    assert _stride(ctx) == 1 and not _packed(ctx)
    assert [poly._solve(newton, ctx) for newton in inputs] == expected
    assert _stride(ctx) == 1 and _packed(ctx)


def test_a_reused_context_past_the_whole_table_never_packs(rng):
    n = _LAST_WHOLE + 1
    inputs = _solve_inputs(n, rng)
    expected = [_one_shot_solve(newton, n) for newton in inputs]
    ctx = Context(n)
    strides = []
    for newton, out in zip(inputs, expected):
        assert poly._solve(newton, ctx) == out
        assert not _packed(ctx)
        strides.append(_stride(ctx))
    # checkpoints, then the whole table of tuples, kept
    assert strides[0] > 1 and strides[1:] == [1, 1]


def test_packed_rows_take_about_the_tuple_tables_memory(rng):
    n = 256
    ctx = Context(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        poly._solve(_newton_vector(n, rng), ctx)
        tuples = tracemalloc.get_traced_memory()[0] - before
        poly._solve(_newton_vector(n, rng), ctx)
        packed = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _packed(ctx)
    # 393 against 428 KiB on CPython 3.11: the packed rows replace the tuples, not join them
    assert packed <= 1.1 * tuples


def _linear(node):
    return IntPoly((-node, 1))


@pytest.mark.parametrize("n", (5, 64))
def test_times_linear_and_expand_match_exact_products(n, rng):
    wide = 1 << (n + 8)
    for mask in (-1, (1 << n) - 1):  # -1 keeps every coefficient exact
        for length in (0, 1, 2, 17):
            coeffs = [rng.randrange(-wide, wide) for _ in range(length)]
            nodes = [rng.randrange(-wide, wide) for _ in range(length)]
            node, low = rng.randrange(-wide, wide), rng.randrange(-wide, wide)
            got = poly._times_linear(coeffs, node, low, mask)
            exact = IntPoly(coeffs) * _linear(node) + low
            assert len(got) == length + 1
            assert IntPoly(got) == IntPoly([c & mask for c in exact.coeffs])
            # sum_k coeffs[k] (x - nodes[0])...(x - nodes[k-1]), term by term
            exact, basis = IntPoly(), IntPoly((1,))
            for c, node in zip(coeffs, nodes):
                exact, basis = exact + c * basis, basis * _linear(node)
            got = poly._expand(coeffs, nodes, mask)
            assert len(got) == length
            assert IntPoly(got) == IntPoly([c & mask for c in exact.coeffs])


@pytest.mark.parametrize("n", (5, 16, 64))
def test_to_newton_keeps_each_slot_to_its_width(n, rng):
    widths = Context(n).coeff_bits
    coeffs = [rng.randrange(-(1 << n), 1 << n) for _ in range(2 * len(widths))]
    newton = poly._to_newton(coeffs, n)
    for k, width in enumerate(widths):
        exact = sum(c * oracle_newton_of_power(i, k) for i, c in enumerate(coeffs))
        assert newton[k] == exact % (1 << width)


def test_reduce_worked_example():
    assert reduce(parse_poly("1,0,0,0,0,3"), Context(5)).coeffs == (31, 3, 2, 0)


@pytest.mark.parametrize("n", range(2, 9))
def test_reduce_preserves_function(n, rng):
    ctx = Context(n)
    for _ in range(30):
        deg = rng.randrange(12)
        coeffs = tuple(rng.randrange(-(1 << n), 1 << n) for _ in range(deg + 1))
        rp = reduce(coeffs, ctx)
        assert oracle_function_of(rp, n).values == oracle_function_of(coeffs, n).values


@pytest.mark.parametrize("n", range(2, 9))
def test_reduce_is_idempotent(n, rng):
    ctx = Context(n)
    for _ in range(20):
        coeffs = tuple(rng.randrange(1 << n) for _ in range(rng.randrange(10) + 1))
        rp = reduce(coeffs, ctx)
        assert reduce(rp, ctx) == rp


@pytest.mark.parametrize("n", range(2, 9))
def test_reduce_kills_generators(n):
    ctx = Context(n)
    zero = ReducedPoly((0,), n)
    for gen in ideal_generators(ctx):
        assert reduce(gen, ctx) == zero


@st.composite
def _reduce_cases(draw):
    """(n, coefficients, second operand): n in 2..64, a trimmed degree of
    0..3d+2 with d and d+1 drawn often, or the zero polynomial; entries
    may be negative or at least 2**n."""
    n = draw(st.integers(2, 64))
    d = max_reduced_degree(n)
    entries = st.integers(-(1 << (n + 2)), 1 << (n + 2))
    other = tuple(draw(st.lists(entries, max_size=d + 1)))
    degree = draw(st.sampled_from((None, d, d + 1)) | st.integers(0, 3 * d + 2))
    if degree is None:
        return n, (), other
    top = draw(entries.filter(lambda c: c % (1 << n)))  # keeps the degree after masking
    return n, tuple(draw(st.lists(entries, min_size=degree, max_size=degree))) + (top,), other


_D64 = max_reduced_degree(64)


@settings(max_examples=200)
@given(_reduce_cases())
@example((2, (), ()))
@example((64, (-1,) * (_D64 + 1), ((1 << 64) + 3,) * (_D64 + 1)))
@example((64, (-(1 << 70) - 1,) * (_D64 + 2), (-5,)))
@example((37, (3,) * (3 * max_reduced_degree(37) + 3), ()))
def test_reduce_and_product_match_remainder_oracle(case):
    n, coeffs, other = case
    ctx = Context(n)
    assert reduce(coeffs, ctx) == oracle_reduce(coeffs, n)
    p, s = oracle_reduce(coeffs, n), oracle_reduce(other, n)
    assert multiply_reduced(p, s, ctx) == oracle_reduce(p.as_int_poly() * s.as_int_poly(), n)


def test_equivalent():
    ctx = Context(5)
    p = parse_poly("1,0,0,0,0,3")
    assert equivalent(p, (31, 3, 2), ctx)
    assert not equivalent(p, (31, 3, 2, 1), ctx)
    for gen in ideal_generators(ctx):
        assert equivalent(p, p + gen, ctx)


# -- the odd/even splice ------------------------------------------------------


def test_conjugate_shifts_argument():
    h = IntPoly((5, 1, 1))
    hp = conjugate_to_nonunits(h)
    for x in range(-5, 6):
        assert hp(x) == h(x + 1) - 1


def test_conjugate_matches_the_binomial_taylor_shift(rng):
    # h(x+1) - 1 has sum_k h_k C(k, j) at x**j, less 1 at j = 0: exact, whatever the widths
    for length in (30, 41):
        h = [rng.randrange(-(1 << 90), 1 << 90) >> rng.randrange(90) for _ in range(length)]
        h[-1] |= 1
        shifted = [sum(c * math.comb(k, j) for k, c in enumerate(h)) for j in range(length)]
        shifted[0] -= 1
        assert conjugate_to_nonunits(h) == conjugate_to_nonunits(IntPoly(h)) == IntPoly(shifted)
    assert conjugate_to_nonunits(()) == IntPoly((-1,))


@pytest.mark.parametrize("n", range(2, 9))
def test_indicator_values(n):
    ctx = Context(n)
    v_units, v_rest = indicator_polys(ctx)
    for a in ctx.ring():
        want = a & 1
        assert evaluate(v_units, a, ctx) == want
        assert evaluate(v_rest, a, ctx) == 1 - want


@pytest.mark.parametrize("n", range(3, 8))
def test_glue_agrees_with_both_halves(n, rng):
    ctx = Context(n)
    mod = 1 << n
    for _ in range(8):
        p = random_permutational_poly(ctx, rng)
        h = random_permutational_poly(ctx, rng)
        g = glue_polynomial(p, h, ctx)
        hw = h.as_int_poly()
        for a in ctx.ring():
            if a & 1:
                assert evaluate(g, a, ctx) == evaluate(p, a, ctx)
            else:
                assert evaluate(g, a, ctx) == (hw(a + 1) - 1) % mod
        assert rivest_permutes_ring(g)


def test_glue_requires_permutations():
    ctx = Context(4)
    with pytest.raises(NotAPermutation):
        glue_polynomial((4, 4, 1), (2, 1), ctx)
    with pytest.raises(NotAPermutation):
        glue_polynomial((2, 1), (4, 4, 1), ctx)


@pytest.mark.parametrize("n", [23, 64, 1024])
def test_glue_budget(n, rng):
    # these n once passed the degree budget of the literal unit indicator x**(2**(n-2));
    # the fit has degree below keller_beta(n), for these draws exactly keller_beta(n) - 1
    ctx = Context(n)
    p = random_permutational_poly(ctx, rng)
    h = random_permutational_poly(ctx, rng)
    g = glue_polynomial(p, h, ctx)
    for _ in range(40):
        a = rng.randrange(ctx.modulus)
        want = evaluate(p, a, ctx) if a & 1 else (evaluate(h, a + 1, ctx) - 1) % ctx.modulus
        assert evaluate(g, a, ctx) == want
    assert rivest_permutes_ring(g)
    assert g.degree == keller_beta(n) - 1


@pytest.mark.parametrize("n", [23, 64])
def test_indicator_fits_beyond_the_old_budget(n, rng):
    ctx = Context(n)
    v_units, v_rest = indicator_polys(ctx)
    for a in [0, 1, ctx.mask - 1, ctx.mask] + [rng.randrange(ctx.modulus) for _ in range(40)]:
        assert evaluate(v_units, a, ctx) == a & 1
        assert evaluate(v_rest, a, ctx) == 1 - (a & 1)
    assert v_units + v_rest == IntPoly((1,))
    assert v_units.degree == keller_beta(n) - 1


@pytest.mark.parametrize("n", range(2, 11))
def test_glue_matches_the_ring_oracle(n, rng):
    ctx = Context(n)
    for _ in range(4):
        p = random_permutational_poly(ctx, rng)
        h = random_permutational_poly(ctx, rng)
        table = oracle_function_of(glue_polynomial(p, h, ctx), n, domain="ring").values
        assert table[1::2] == oracle_function_of(p, n).values
        assert table[0::2] == tuple((v - 1) % ctx.modulus for v in oracle_function_of(h, n).values)


# -- bivariate quasigroup test ------------------------------------------------


def test_bivariate_known_cases():
    x_plus_y = ((0, 1), (1, 0))
    assert bivariate_quasigroup_check(x_plus_y, 4)
    # twisted sum keeps every section an odd-slope line
    assert bivariate_quasigroup_check(((0, 1), (1, 2)), 4)
    assert not bivariate_quasigroup_check(((0, 0), (0, 1)), 4)
    assert not bivariate_quasigroup_check(((5,),), 4)
    # empty rows are the zero polynomial, whose every specialization is constant
    assert not bivariate_quasigroup_check([], 4)
    assert not bivariate_quasigroup_check([[]], 4)
    assert not bivariate_quasigroup_check([[], []], 4)
    with pytest.raises(ValueError):
        bivariate_quasigroup_check(x_plus_y, 1)


@pytest.mark.parametrize("n", (2, 3))
def test_bivariate_matches_exhaustive_tables(n, rng):
    for _ in range(40):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        matrix = [[rng.randrange(1 << n) for _ in range(cols)] for _ in range(rows)]
        got = bivariate_quasigroup_check(matrix, n)
        want = oracle_is_latin_square(oracle_bivariate_table(matrix, n))
        assert got == want, f"matrix={matrix}"
