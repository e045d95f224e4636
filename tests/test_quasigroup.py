"""k-ary quasigroups built from permutation polynomials."""

import collections
import functools
import json
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitpoly import (
    BudgetExceeded,
    CarrierError,
    Context,
    Mode,
    NotAPermutation,
    QuasigroupSpec,
    ReducedPoly,
    UnitPolyError,
    evaluate,
    invert_permutation,
    random_permutational_poly,
    reduce,
)
from unitpoly import poly
from unitpoly import induces_permutation_on_units
from unitpoly.oracle import EVAL_BUDGET_N, oracle_function_of, oracle_is_latin_square
from unitpoly.quasigroup import RANDOM_ARITY_BUDGET, _integer


def _spec(n, mode, coeff_rows, h_rows=None):
    ctx = Context(n)
    p = [reduce(row, ctx) for row in coeff_rows]
    h = [reduce(row, ctx) for row in h_rows] if h_rows is not None else None
    return QuasigroupSpec(ctx, mode, p, h)


def test_random_poly_is_canonical_and_permutes(rng):
    ctx = Context(6)
    for _ in range(40):
        rp = random_permutational_poly(ctx, rng)
        assert isinstance(rp, ReducedPoly)
        assert induces_permutation_on_units(rp.coeffs)


def test_random_poly_is_seeded():
    ctx = Context(8)
    a = [random_permutational_poly(ctx, random.Random(3)) for _ in range(5)]
    b = [random_permutational_poly(ctx, random.Random(3)) for _ in range(5)]
    assert a == b


# -- the three composition modes ----------------------------------------------


def test_unit_product_hand_example():
    # f(a, b) = a * (b + 2) on the odd residues mod 16
    spec = _spec(4, Mode.UNIT_PRODUCT, [(0, 1), (2, 1)])
    assert spec.apply((3, 5)) == 3 * 7 % 16
    assert spec.adjoint(1, (5, 5)) == 3
    assert spec.adjoint(2, (3, 7)) == 11
    assert list(spec.carrier()) == list(range(1, 16, 2))


def test_ring_additive_hand_example():
    # both pieces are the identity, so the operation is plain addition
    spec = _spec(4, Mode.RING_ADDITIVE, [(0, 1), (0, 1)])
    assert spec.apply((2, 3)) == 5
    assert spec.apply((14, 15)) == 13
    assert spec.adjoint(2, (4, 9)) == 5
    assert list(spec.carrier()) == list(range(16))


def test_ring_glued_hand_example():
    # odd inputs go through x, even ones through the shifted copy of 2+x
    spec = _spec(4, Mode.RING_GLUED, [(0, 1)], [(2, 1)])
    assert spec.apply((3,)) == 3
    assert spec.apply((2,)) == 4
    assert spec.adjoint(1, (4,)) == 2
    assert spec.adjoint(1, (3,)) == 3


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_adjoint_round_trip(mode, k, rng):
    ctx = Context(6)
    spec = QuasigroupSpec.random(ctx, k, mode, rng)
    carrier = list(spec.carrier())
    for _ in range(50):
        args = [rng.choice(carrier) for _ in range(k)]
        value = spec.apply(args)
        for i in range(1, k + 1):
            probe = list(args)
            probe[i - 1] = value
            assert spec.adjoint(i, probe) == args[i - 1]


@pytest.mark.parametrize("mode", list(Mode))
def test_latin_check_passes(mode, rng):
    ctx = Context(4)
    spec = QuasigroupSpec.random(ctx, 2, mode, rng)
    assert spec.latin_check()


@pytest.mark.parametrize("mode", list(Mode))
def test_latin_check_catches_an_adjoint_that_lies_once(mode, monkeypatch, rng):
    spec = QuasigroupSpec.random(Context(3), 2, mode, rng)
    honest = spec.adjoint

    def lying(i, args):
        b = honest(i, args)
        return b ^ 2 if (i, list(args)) == (2, [7, 7]) else b  # same parity, wrong value

    monkeypatch.setattr(spec, "adjoint", lying)
    assert spec.latin_check() is False


@pytest.mark.parametrize("mode", list(Mode))
def test_latin_check_catches_an_operation_that_ignores_an_argument(mode, monkeypatch, rng):
    spec = QuasigroupSpec.random(Context(3), 2, mode, rng)
    honest = spec.apply
    monkeypatch.setattr(spec, "apply", lambda args: honest([args[0], 1]))
    assert spec.latin_check() is False


def test_latin_check_budget():
    ctx = Context(4)
    spec = QuasigroupSpec.random(ctx, 3, Mode.RING_ADDITIVE, random.Random(0))
    with pytest.raises(BudgetExceeded):
        spec.latin_check(budget=100)
    with pytest.raises(ValueError, match=r"^10\.5 is not an integer$"):
        spec.latin_check(budget=10.5)


def test_latin_check_budget_message_names_the_size_by_its_exponent():
    # 2**14499 has more decimal digits than int-to-str conversion allows
    spec = QuasigroupSpec.from_dict(
        {"n": 14500, "k": 1, "mode": "UNIT_PRODUCT", "p": [["0", "1"]]}, max_n=14500
    )
    with pytest.raises(BudgetExceeded) as caught:
        spec.latin_check(budget=3)
    assert str(caught.value) == "carrier size (2**14499)**1 exceeds the exhaustion budget 3"


def test_binary_case_really_is_a_latin_square(rng):
    ctx = Context(3)
    spec = QuasigroupSpec.random(ctx, 2, Mode.RING_ADDITIVE, rng)
    carrier = list(spec.carrier())
    table = [[spec.apply((a, b)) for b in carrier] for a in carrier]
    assert oracle_is_latin_square(table)


def test_huge_modulus_round_trip(rng):
    ctx = Context(256)
    spec = QuasigroupSpec.random(ctx, 3, Mode.UNIT_PRODUCT, rng)
    args = [rng.randrange(1 << 256) | 1 for _ in range(3)]
    value = spec.apply(args)
    probe = [args[0], value, args[2]]
    assert spec.adjoint(2, probe) == args[1]


# -- validation ----------------------------------------------------------------


def test_polys_must_permute():
    ctx = Context(4)
    with pytest.raises(NotAPermutation):
        QuasigroupSpec(ctx, Mode.UNIT_PRODUCT, [ReducedPoly((4, 4, 1), 4)])


def test_poly_modulus_must_match_context():
    ctx = Context(4)
    with pytest.raises(ValueError):
        QuasigroupSpec(ctx, Mode.UNIT_PRODUCT, [ReducedPoly((2, 1), 5)])


def test_h_polys_only_in_glued_mode():
    ctx = Context(4)
    ident = reduce((0, 1), ctx)
    with pytest.raises(ValueError):
        QuasigroupSpec(ctx, Mode.UNIT_PRODUCT, [ident], [ident])
    with pytest.raises(ValueError):
        QuasigroupSpec(ctx, Mode.RING_GLUED, [ident])
    with pytest.raises(ValueError):
        QuasigroupSpec(ctx, Mode.RING_GLUED, [ident, ident], [ident])


def test_argument_validation():
    spec = _spec(4, Mode.UNIT_PRODUCT, [(0, 1), (2, 1)])
    with pytest.raises(ValueError):
        spec.apply((3,))
    with pytest.raises(CarrierError):
        spec.apply((2, 3))
    with pytest.raises(CarrierError):
        spec.apply((3, 17))
    with pytest.raises(ValueError):
        spec.adjoint(0, (3, 5))
    with pytest.raises(ValueError):
        spec.adjoint(3, (3, 5))
    # a float argument is refused, not answered as for its integer part
    unit = QuasigroupSpec.random(Context(8), 1, "UNIT_PRODUCT", random.Random(1))
    for call in (lambda: unit.apply([3.9]), lambda: unit.adjoint(1, [3.9])):
        with pytest.raises(ValueError, match="3.9"):
            call()
    with pytest.raises(ValueError, match=r"^1\.0 is not an integer$"):
        unit.adjoint(1.0, [3])


def test_ring_modes_accept_even_arguments():
    spec = _spec(4, Mode.RING_ADDITIVE, [(0, 1), (0, 1)])
    assert spec.apply((0, 0)) == 0
    with pytest.raises(CarrierError):
        spec.apply((0, 16))


# -- serialization -------------------------------------------------------------


def test_json_round_trip(rng):
    ctx = Context(6)
    for mode in Mode:
        spec = QuasigroupSpec.random(ctx, 2, mode, rng)
        clone = QuasigroupSpec.from_json(spec.to_json())
        assert clone.to_json() == spec.to_json()
        args = (3, 5)
        assert clone.apply(args) == spec.apply(args)


def test_document_shape():
    spec = _spec(4, Mode.RING_GLUED, [(0, 1)], [(2, 1)])
    data = spec.to_dict()
    assert data == {
        "n": 4,
        "k": 1,
        "mode": "RING_GLUED",
        "p": [["0", "1", "0"]],
        "h": [["2", "1", "0"]],
    }
    assert json.loads(spec.to_json()) == data


def test_mode_names_parse_case_insensitively():
    spec = _spec(4, Mode.UNIT_PRODUCT, [(0, 1)])
    data = spec.to_dict()
    data["mode"] = "unit_product"
    clone = QuasigroupSpec.from_dict(data)
    assert clone.mode is Mode.UNIT_PRODUCT


# values of the wrong type: each is named malformed, never coerced into some spec
_WRONG_TYPES = (
    lambda d: d.update(p=["21"]),  # a string row, not its digits 2 + x
    lambda d: d.update(p="2121"),
    lambda d: d.update(p=[{"2": 1}]),
    lambda d: d.update(p=[[2.5, 1]]),
    lambda d: d.update(p=[["2.0", "1"]]),
    lambda d: d.update(p=[[True, 1]]),
    lambda d: d.update(n=4.7),
    lambda d: d.update(n=" 4"),
    lambda d: d.update(k=True),
    lambda d: d.update(mode="RING_GLUED", h=["01"]),
)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("n"),
        lambda d: d.pop("mode"),
        lambda d: d.update(mode="DIAGONAL"),
        lambda d: d.update(k=3),
        lambda d: d.update(p=[["4", "4", "1"]]),
        *_WRONG_TYPES,
    ],
)
def test_malformed_documents_rejected(mutate):
    spec = _spec(4, Mode.UNIT_PRODUCT, [(0, 1)])
    data = spec.to_dict()
    mutate(data)
    with pytest.raises((ValueError, NotAPermutation)) as caught:
        QuasigroupSpec.from_dict(data)
    if mutate in _WRONG_TYPES:
        assert str(caught.value).startswith("malformed quasigroup document: ")


# the integer language of a spec document: a JSON integer, or an optional minus
# sign then ASCII digits, and nothing else
_INTEGERS = {"7": 7, "-7": -7, "007": 7, "-0": 0, 7: 7}
_NOT_DECIMAL = ("+7", " 7", "7 ", "7\n", "7_0", "\u0667", "\u00b2", "\uff17", "0x7", "7.0", "",
                "-", "--7")


def test_document_integers_word_for_word():
    for value, expected in _INTEGERS.items():
        assert _integer(value) == expected and type(_integer(value)) is int, value
    refusals = [(text, "str") for text in _NOT_DECIMAL] + [(True, "bool"), (7.0, "float")]
    for value, name in refusals:
        with pytest.raises(TypeError) as caught:
            _integer(value)
        assert str(caught.value) == f"expected an integer or a decimal string, got {name}", value
    data = _spec(4, Mode.UNIT_PRODUCT, [(0, 1)]).to_dict()
    data["p"] = [["0", "+1"]]
    with pytest.raises(ValueError) as caught:
        QuasigroupSpec.from_dict(data)
    assert str(caught.value) == (
        "malformed quasigroup document: expected an integer or a decimal string, got str"
    )


def test_from_json_rejects_bad_text():
    with pytest.raises(ValueError):
        QuasigroupSpec.from_json("not json at all")


# Documents arrive from outside (a file or stdin): whatever the text, from_json
# returns a spec or raises a domain error, never TypeError or OverflowError.

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# anything int() accepts here is at most 8, so a well-formed document stays cheap to build
_SMALL_N = (
    st.integers(max_value=8)
    | st.floats(max_value=8)
    | st.sampled_from([float("inf"), float("nan"), None, True, [6], {"n": 6}])
    | st.text(st.characters(blacklist_categories=("Nd",)), max_size=4)
)
_ROWS = st.lists(
    st.lists(st.integers(-300, 300) | st.from_regex(r"-?[0-9]{1,3}", fullmatch=True) | _JSON,
             max_size=5),
    max_size=3,
)


@st.composite
def _documents(draw):
    """A valid spec's document with up to three of its keys replaced by junk."""
    n, k, mode = draw(st.integers(2, 8)), draw(st.integers(1, 3)), draw(st.sampled_from(Mode))
    spec = QuasigroupSpec.random(Context(n), k, mode, random.Random(draw(st.integers(0, 99))))
    data = spec.to_dict()
    keys = st.sampled_from(["n", "k", "mode", "p", "h", "extra"])
    for key in draw(st.lists(keys, max_size=3, unique=True)):
        data[key] = draw(_SMALL_N if key == "n" else _JSON | _ROWS)
    return data


@settings(max_examples=300)
@given(st.text() | _JSON.map(json.dumps) | _documents().map(json.dumps))
def test_any_json_text_is_a_spec_or_a_domain_error(text):
    try:
        spec = QuasigroupSpec.from_json(text)
    except (ValueError, UnitPolyError):
        return
    assert QuasigroupSpec.from_json(spec.to_json()).to_dict() == spec.to_dict()


def test_random_arity_budget_is_checked_before_drawing():
    # no generator at all: any draw would fail with AttributeError instead
    with pytest.raises(BudgetExceeded):
        QuasigroupSpec.random(Context(8), RANDOM_ARITY_BUDGET + 1, Mode.UNIT_PRODUCT, None)
    with pytest.raises(ValueError, match=r"^2\.5 is not an integer$"):
        QuasigroupSpec.random(Context(8), 2.5, Mode.UNIT_PRODUCT, None)


def test_random_spec_is_deterministic():
    ctx = Context(32)
    a = QuasigroupSpec.random(ctx, 2, Mode.RING_GLUED, random.Random(9))
    b = QuasigroupSpec.random(ctx, 2, Mode.RING_GLUED, random.Random(9))
    assert a.to_json() == b.to_json()


# -- inverses once they are due -----------------------------------------------


def test_building_applying_and_serializing_invert_nothing(inversions):
    for mode in Mode:
        ctx = Context(64)
        spec = QuasigroupSpec.random(ctx, 3, mode, random.Random(1))
        direct = QuasigroupSpec(ctx, mode, spec.p_polys, spec.h_polys)
        clone = QuasigroupSpec.from_json(spec.to_json())
        assert inversions == []
        args = (3, 9, 21)
        assert clone.apply(args) == direct.apply(args) == spec.apply(args)
        assert clone.to_dict() == direct.to_dict() == spec.to_dict()
        assert inversions == []
    # the arity budget: 2048 inversions at n = 256 if built eagerly
    spec = QuasigroupSpec.random(Context(256), RANDOM_ARITY_BUDGET, Mode.RING_GLUED,
                                 random.Random(2))
    assert spec.k == RANDOM_ARITY_BUDGET
    assert inversions == []


def _probe(spec, i, args):
    probe = list(args)
    probe[i - 1] = spec.apply(args)
    return probe


def _due(spec):
    """The adjoint count at which a spec inverts a polynomial it reads: its length, d + 1."""
    return spec.ctx.d + 1


def test_glued_adjoint_inverts_only_the_half_it_reads(inversions):
    # the adjoint's accumulated value has the parity of the argument it solves for
    spec = QuasigroupSpec.random(Context(16), 3, Mode.RING_GLUED, random.Random(3))
    due = _due(spec)
    for _ in range(due - 1):
        assert spec.adjoint(2, _probe(spec, 2, (4, 7, 10))) == 7
    assert inversions == []
    assert spec.adjoint(2, _probe(spec, 2, (1, 9, 2))) == 9
    assert inversions == [spec.p_polys[1]]
    for _ in range(due - 1):
        assert spec.adjoint(2, _probe(spec, 2, (5, 12, 3))) == 12
    assert inversions == [spec.p_polys[1]]
    assert spec.adjoint(2, _probe(spec, 2, (6, 14, 1))) == 14
    assert inversions == [spec.p_polys[1], spec.h_polys[1]]


def test_additive_adjoint_shares_one_inverse_per_coordinate(inversions):
    # odd and even arguments count toward the one inverse of p[0]
    spec = QuasigroupSpec.random(Context(16), 2, Mode.RING_ADDITIVE, random.Random(4))
    due = _due(spec)
    for query in range(1, due + 2):
        b = 7 + query
        assert spec.adjoint(1, _probe(spec, 1, (b, 6))) == b
        assert inversions == ([spec.p_polys[0]] if query >= due else [])


def test_unit_adjoint_inverts_its_own_coordinate_once(inversions):
    spec = QuasigroupSpec.random(Context(16), 3, Mode.UNIT_PRODUCT, random.Random(5))
    due = _due(spec)
    for query in range(1, due + 2):
        args = (3, 5, 2 * query + 7)
        assert spec.adjoint(3, _probe(spec, 3, args)) == args[2]
        assert inversions == ([spec.p_polys[2]] if query >= due else [])


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("fixed_n", (16, None))
def test_adjoints_below_at_and_above_the_due_count_agree(mode, fixed_n, inversions):
    # None is one seeded n in 65..300; one probe read again and again, so one half counts up
    n = fixed_n or random.Random(17).randrange(65, 301)
    spec = QuasigroupSpec.random(Context(n), 2, mode, random.Random(n))
    rng = random.Random(18)
    args = [rng.getrandbits(n) | 1 for _ in range(2)]
    probe = _probe(spec, 2, args)
    answers = []
    for query in range(1, _due(spec) + 3):
        answers.append(spec.adjoint(2, probe))
        assert len(inversions) == (query >= _due(spec))
    assert answers == [args[1]] * len(answers)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("n", range(2, 13))
def test_lifted_adjoints_match_the_oracle_at_every_depth(mode, n, inversions):
    # below the due count every adjoint lifts, here through trees forced to depth 0, the
    # coefficients, and to every depth an evaluator may keep
    for depth in range(min(poly.KEPT_TREE_DEPTH, n // 2) + 1):
        spec = QuasigroupSpec.random(Context(n), 2, mode, random.Random(n))
        for odd, inverse in spec._evaluators:
            for idx in range(spec.k):
                if not inverse:
                    spec._evaluator(idx, odd)._deepen(depth)
        maps = _oracle_maps(spec)
        rng = random.Random(depth)
        carrier = list(spec.carrier())
        for _ in range(_due(spec) - 1):
            for i in (1, 2):
                probe = [rng.choice(carrier) for _ in range(2)]
                assert spec.adjoint(i, probe) == _oracle_adjoint(spec, maps, i, probe)
        assert {e._state[0] for e in _evaluators(spec) if e} == {depth}
    assert inversions == []


def test_threads_sharing_a_spec_fill_its_slots_consistently(inversions):
    spec = QuasigroupSpec.random(Context(16), 3, Mode.RING_GLUED, random.Random(6))
    rng = random.Random(7)
    cases = []
    for _ in range(48):
        args = [rng.randrange(1 << 16) for _ in range(3)]
        i = rng.randint(1, 3)
        cases.append((i, _probe(spec, i, args), args[i - 1]))
    expected = [b for _, _, b in cases]
    # each adjoint reads the half of p[i-1] or h[i-1] that its answer's parity picks
    reads = collections.Counter(id((spec.p_polys if b & 1 else spec.h_polys)[i - 1])
                                for i, _, b in cases)
    results = []

    def solve():
        # a thread that raises appends nothing, so the count below catches it too
        results.append([spec.adjoint(i, probe) for i, probe, _ in cases])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(threads)

    def due_by(rounds):
        return sorted(half for half, count in reads.items() if rounds * count >= _due(spec))

    # racing threads invert each half once its count reaches the due count, and no half twice
    assert sorted(map(id, inversions)) == due_by(4) != []
    assert [spec.adjoint(i, probe) for i, probe, _ in cases] == expected
    assert sorted(map(id, inversions)) == due_by(5)


# -- class heads on queries ----------------------------------------------------


def _oracle_maps(spec):
    """Each coordinate's odd and even halves as functions on the odd residues,
    looked up in oracle tables, with their inverses."""
    halves = []
    for idx in range(spec.k):
        pair = []
        for half in (spec.p_polys[idx], (spec.h_polys or spec.p_polys)[idx]):
            table = oracle_function_of(half, spec.n)
            forward = dict(zip(table.points(), table.values))
            pair.append((forward.__getitem__, {v: x for x, v in forward.items()}.__getitem__))
        halves.append(pair)
    return halves


def _horner_maps(spec):
    """The halves of _oracle_maps by depth-0 Horner (evaluate) over each
    polynomial and over its inverse (invert_permutation), each checked whole
    against the oracle tables where those reach (n <= EVAL_BUDGET_N)."""
    ctx = spec.ctx
    halves = [
        [
            (functools.partial(evaluate, half, ctx=ctx),
             functools.partial(evaluate, invert_permutation(half, ctx), ctx=ctx))
            for half in (spec.p_polys[idx], (spec.h_polys or spec.p_polys)[idx])
        ]
        for idx in range(spec.k)
    ]
    if spec.n <= EVAL_BUDGET_N:
        units = list(ctx.units())
        for pair, oracle_pair in zip(halves, _oracle_maps(spec)):
            for half, oracle_half in zip(pair, oracle_pair):
                for f, g in zip(half, oracle_half):
                    assert list(map(f, units)) == list(map(g, units))
    return halves


def _oracle_glued(half_maps, a, mask, inverse=False):
    (p, p_inv), (h, h_inv) = half_maps
    if a & 1:
        return (p_inv if inverse else p)(a)
    return ((h_inv if inverse else h)(a + 1) - 1) & mask


def _oracle_apply(spec, maps, args):
    mask = spec.ctx.mask
    if spec.mode is Mode.UNIT_PRODUCT:
        value = 1
        for j, a in enumerate(args):
            value = value * maps[j][0][0](a) & mask
        return value
    return sum(_oracle_glued(maps[j], a, mask) for j, a in enumerate(args)) & mask


def _oracle_adjoint(spec, maps, i, probe):
    mask, idx = spec.ctx.mask, i - 1
    others = [j for j in range(spec.k) if j != idx]
    if spec.mode is Mode.UNIT_PRODUCT:
        product = 1
        for j in others:
            product = product * maps[j][0][0](probe[j]) & mask
        return maps[idx][0][1](probe[idx] * pow(product, -1, mask + 1) & mask)
    acc = probe[idx] - sum(_oracle_glued(maps[j], probe[j], mask) for j in others)
    return _oracle_glued(maps[idx], acc & mask, mask, inverse=True)


def _evaluators(spec):
    return [e for slots in spec._evaluators.values() for e in slots]


@pytest.mark.parametrize("mode", list(Mode))
def test_queries_past_break_even_agree_with_the_oracle(mode, head_builds, inversions):
    # n = 10: every evaluator grows its tree at its 83rd, 97th and 121st queries
    spec = QuasigroupSpec.random(Context(10), 2, mode, random.Random(8))
    maps = _oracle_maps(spec)
    rng = random.Random(9)
    carrier = list(spec.carrier())
    for _ in range(300):
        args = [rng.choice(carrier) for _ in range(spec.k)]
        assert spec.apply(args) == _oracle_apply(spec, maps, args)
        for i in range(1, spec.k + 1):
            probe = list(args)
            probe[i - 1] = rng.choice(carrier)
            assert spec.adjoint(i, probe) == _oracle_adjoint(spec, maps, i, probe)
    polys = spec.p_polys + (spec.h_polys or ())
    assert sorted(inversions, key=lambda p: p.coeffs) == sorted(polys, key=lambda p: p.coeffs)
    # each polynomial and each inverse grew its tree once at each stage
    assert poly._stages(len(spec.ctx.coeff_bits), 10) == {83: 3, 97: 4, 121: 5}
    assert all(e._state[0] == 5 for e in _evaluators(spec))
    assert sorted(head_builds) == sorted([(0, 3), (3, 4), (4, 5)] * 2 * len(polys))


@pytest.mark.parametrize("mode", list(Mode))
def test_one_query_per_polynomial_builds_no_heads(mode, head_builds, inversions):
    # a command line call: a fresh spec, one apply or one adjoint on each coordinate
    text = QuasigroupSpec.random(Context(64), 3, mode, random.Random(10)).to_json()
    args = (3, 9, 21)
    value = QuasigroupSpec.from_json(text).apply(args)
    for i in range(1, 4):
        probe = list(args)
        probe[i - 1] = value
        assert QuasigroupSpec.from_json(text).adjoint(i, probe) == args[i - 1]
    assert head_builds == []
    assert inversions == []


@pytest.mark.parametrize("mode", list(Mode))
def test_threads_sharing_a_fresh_spec_past_break_even_agree(mode, head_builds):
    text = QuasigroupSpec.random(Context(16), 3, mode, random.Random(11)).to_json()
    reference, shared = QuasigroupSpec.from_json(text), QuasigroupSpec.from_json(text)
    rng = random.Random(12)
    carrier = shared.carrier()
    cases = []
    for _ in range(120):
        args = [carrier[rng.randrange(len(carrier))] for _ in range(3)]
        i = rng.randint(1, 3)
        cases.append((args, i, _probe(reference, i, args)))
    expected = [(reference.apply(args), reference.adjoint(i, probe)) for args, i, probe in cases]
    built = len(head_builds)
    assert built > 0
    results = []

    def query():
        results.append([(shared.apply(args), shared.adjoint(i, probe)) for args, i, probe in cases])

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
    # the shared spec read each polynomial four times as often, so no tree of it is shallower
    for key, slots in reference._evaluators.items():
        for mine, theirs in zip(slots, shared._evaluators[key]):
            assert (theirs._state[0] if theirs else 0) >= (mine._state[0] if mine else 0)


def _glued_queries(n, k, seed):
    """A RING_GLUED spec and a function that applies it count times to odd
    arguments and count times to even ones, so each p and h reads as many."""
    spec = QuasigroupSpec.random(Context(n), k, Mode.RING_GLUED, random.Random(seed))
    rng = random.Random(seed + 1)

    def queries(count):
        for parity in (1, 0):
            for _ in range(count):
                spec.apply([rng.getrandbits(n) & -2 | parity for _ in range(k)])

    return spec, queries


def _retained(queries, count):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        queries(count)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_retained_heads_of_a_glued_spec_are_bounded():
    spec, queries = _glued_queries(256, 3, 13)
    queries(80)
    assert not any(e._state[0] for e in _evaluators(spec) if e)  # the first stage: 87 queries
    retained = _retained(queries, 120)  # 200 queries: past the stages at 87 and 141
    assert [e._state[0] for e in _evaluators(spec) if e] == [3] * 6
    # six polynomials, each 4 heads of 86 falling-width terms: about 20 KiB
    assert retained < 6 * (32 << 10)


def test_retained_heads_at_the_deepest_stage_are_bounded():
    spec, queries = _glued_queries(256, 3, 13)
    queries(80)
    assert not any(e._state[0] for e in _evaluators(spec) if e)
    retained = _retained(queries, 920)  # 1000 queries: past the last stage, 986
    assert [e._state[0] for e in _evaluators(spec) if e] == [6] * 6
    # six polynomials, each 32 heads of 43 falling-width terms: about 74 KiB
    assert retained < 6 * (80 << 10)


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("fixed_n", (*range(10, 17), None))
def test_answers_across_every_stage_switch_equal_horner_and_the_oracle(mode, fixed_n):
    # None is one seeded n in 65..300
    n = fixed_n or random.Random(15).randrange(65, 301)
    spec = QuasigroupSpec.random(Context(n), 2, mode, random.Random(n))
    maps = _horner_maps(spec)
    stages = poly._stages(len(spec.ctx.coeff_bits), n)
    deepest = max(stages.values())
    rng = random.Random(16)
    for round_ in range(4 * max(stages)):
        # RING modes: odd and even rounds in turn; an even target leaves each adjoint's
        # accumulated value with the round's parity, so each half and its inverse read alike
        parity = 1 if mode is Mode.UNIT_PRODUCT else round_ & 1
        args = [rng.getrandbits(n) & -2 | parity for _ in range(2)]
        assert spec.apply(args) == _oracle_apply(spec, maps, args)
        for i in (1, 2):
            probe = list(args)
            probe[i - 1] = rng.getrandbits(n) | 1 if mode is Mode.UNIT_PRODUCT else rng.getrandbits(n) & -2
            assert spec.adjoint(i, probe) == _oracle_adjoint(spec, maps, i, probe)
        if all(e and e._state[0] == deepest for e in _evaluators(spec)):
            break
    else:
        raise AssertionError("an evaluator did not reach its last stage")


