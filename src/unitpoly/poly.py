"""Integer polynomials and their canonical forms modulo 2**n.

A polynomial with integer coefficients induces a function on the odd
residues by evaluation modulo 2**n. Among all polynomials inducing the
same function there is exactly one with degree at most d_n whose i-th
coefficient lies below 2**(n-i-t_i); that representative is ReducedPoly.
This module holds the two polynomial types, the rewriting ideal,
multipoint evaluation (_values_at at small points, _head_values through
class heads), parity tests on the odd residues and the whole ring, and
the gluing of two functions on the odd residues into one on Z_{2**n}.
Every fit to values goes through one difference table, _newton_fit: in
the basis N_k = (x-1)(x-3)...(x-2k+1) from values at the odd nodes
(_fit_nodes), in the basis x(x-1)...(x-k+1) from values at 0, 1, 2, ...
(_fit_ring).

Every canonical form modulo 2**n is Newton coefficients in the basis N_k,
then the unit-triangular solve _solve at n = ctx.n; two forms of degree at
most d_n induce one function exactly when their k-th coefficients agree
modulo 2**w_k, w_k = n-k-t_k. reduce reaches them from coefficients by
Horner's rule (_to_newton). As w falls with k, multiplying by x
(_times_x) is exact slot by slot modulo 2**w_k, so Newton vectors and the
rows T(i, .) of the solve's table (the Newton coefficients of x**i) are
kept to the slot widths. The rows are kept per precision, not per
Context, and one rule, _row_store, picks them, by the admission of Johnson
and Shasha's 2Q (VLDB 1994). The first solve at n in the process builds a
store, reads it and keeps only n, a ghost entry, so a sweep of one-shot
solves keeps nothing: every row, as tuples, while the table has at most
WHOLE_TABLE_ENTRIES slots (n <= 356), otherwise every (isqrt(d_n)+1)-th
row, the solve rebuilding each block from its checkpoint as it reads down
(_rows_down). A later solve at n, from any Context, builds a store it
reads faster and keeps it, so later solves at n rebuild nothing. Up to
n = 356 that store is the same rows packed, each into one int, with a
field per slot (_packed_rows; Kronecker substitution, as in _values_at): a
row is then one product and one mask (_packed_solve), where the tuple rows
cost d_n small products each, and the packed rows take about the tuples'
memory. A field is about twice its slot's width, so a packed row costs
about twice the word products of its tuple: packing ties at n = 512 and
loses at 1024. So past n = 356 the kept store is the whole table of
tuples while it fits ROW_STORE_BYTES (n <= 1027), otherwise checkpoints.
All kept stores take at most 2 * ROW_STORE_BYTES, each priced by
_store_bytes, and the least recently solved n is dropped first, down to
the one just kept. _build_rows builds every store of tuples.

Every way back from a basis (x-c_0)(x-c_1)...(x-c_{k-1}) to monomials is
one Horner fold, _expand, over one step, _times_linear (multiply by x - c,
add a constant): _fit_ring's basis (c_j = j) and the shift in
conjugate_to_nonunits (every c_j = -1, exact). The products
(x+1)(x+3)... of ideal_generators are the same step.

A polynomial evaluated at many odd points may go through the Taylor
coefficients of its odd classes modulo 2**s, its class heads, from a
2-adic tree of Taylor shifts by additions only (_grown_heads; von zur
Gathen and Gerhard, "Fast algorithms for Taylor shifts and certain
difference equations", ISSAC 1997). As 2**s divides x - a for x in class
a, term i of a head counts only modulo 2**(n - s i): ceil(n/s) terms, and
_eval_heads runs Horner's rule over them with each step masked to its
term's falling width, one mask tuple per (n, s, terms) read (_head_masks).
Depth 0 is one class, the coefficients themselves, with the mask 2**n - 1
for every term: Horner's rule, as _eval_masked runs it for evaluate at
one point. Every tree is grown from a shallower one's heads, a fresh one
from depth 0 (_head_tree), a deeper one from the tree it replaces
(_deepened), and both pair their heads with masks in one place,
_level_tree, which also reads a tree modulo 2**m for m <= n to
ceil(m/s) terms; p''s tree comes off p's (_slope_tree). Every tree has
one price, in one-word steps: _tree_cost to build it and _read_cost per
point read, and one depth rule, _cheapest_depth: the depth of least build
plus reads. Depths past floor(n/2) are never priced (_tree_prices), so
every tree gives p' modulo 2**ceil(n/2). invert_permutation applies the
rule once, to the reads of its ladder, up to solve's TREE_DEPTH_LIMIT. A
quasigroup's polynomials go through _OddEvaluator, which applies it at
every query count (_stages): it starts at depth 0 and deepens in stages,
up to the deepest tree it may keep, KEPT_TREE_DEPTH.

Every preimage under a permutation p of the odd residues goes through one
lift, _lifted: two-adic Newton iteration up the precisions m = 2, ...,
ceil(n/2), n (context's _ladder), reading p modulo 2**m and p' modulo
2**ceil(m/2) off one tree (_level_tree, _slope_tree, _head_values), so
depth 0 reads as class heads do. invert_permutation lifts its d+1 nodes
through it, and _OddEvaluator.preimage one target through the
evaluator's tree, checked by reading p at the answer at full width.

Every value at small points, the standard nodes 1, 3, ..., 2d+1
(_node_values) and the odd points below keller_beta(n) that glue_polynomial
reads, comes from one kernel, _values_at, for one or more polynomials at
once. A step of Horner's rule at a point below 2**13 multiplies n bits by
at most 13, so its cost is the object made per step, not the arithmetic.
So the kernel cuts each coefficient vector into SMALL_CHUNKS chunks and
packs coefficient i of every chunk into the fields of one int, each field
n + bit_length(max point) bits wide (Kronecker substitution; von zur
Gathen and Gerhard, "Modern Computer Algebra", ch. 8): one masked step
over the packed ints advances every chunk, and the chunks' values at x
join as sum_j v_j (x**h mod 2**n)**j for chunks of h coefficients.
Vectors shorter than PACKED_LENGTH (d + 1 at n = 48) are not packed, as
there the fields and the joins cost more than the steps they save:
Horner's rule runs point by point.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from .census import keller_beta
from .context import Context, _ladder, checked_index, checked_indices, coeff_widths, unit_inverse
from .context import decimal_list, max_reduced_degree, two_adic_factorial_valuation, unit_inverses
from .errors import InconsistentTable, NotAPermutation

WHOLE_TABLE_ENTRIES = 1 << 14  # most slots of T a row store keeps whole (0.42 MiB at n = 256)
ROW_STORE_BYTES = 1 << 24  # most bytes a kept whole table may take; all kept stores, twice that
KEPT_TREE_DEPTH = 6  # deepest evaluator tree: 32 heads, about 11 times a canonical form's bits
SHIFT_STEPS = 6  # one-word Horner steps a shifted term costs past its additions: 6.7 measured
# chunks per vector in _values_at. One full-width degree-d polynomial at its d + 1 standard nodes
# with 4, 8 and 16 chunks (medians): 0.95, 0.84 and 0.98 ms at n = 256, 215, 192 and 192 ms at
# 2048; two (multiply_reduced) at n = 1024: 55, 49 and 56 ms. An earlier prototype: 1.63, 1.51
# and 2.18 ms at n = 256, 36.6, 29.3 and 39.6 ms at 1024
SMALL_CHUNKS = 8
# shortest vectors _values_at packs: d + 1 at n = 48, where packed and point by point tie for
# one vector at its d + 1 nodes (medians 70 and 69 us) and packed wins for two (117 and 136 us);
# at n = 32 (17 coefficients) the fields and joins cost more than the steps they save: 43
# against 31 us for one, 71 against 64 us for two
PACKED_LENGTH = 26


def _trimmed(coeffs: Sequence[int]) -> Sequence[int]:
    """The coefficients without their trailing zeros: one scan, one slice."""
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


@dataclass(frozen=True)
class IntPoly:
    """Univariate polynomial over the integers, lowest degree first.

    Trailing zero coefficients are stripped on construction, so the zero
    polynomial is the empty tuple and equality is structural.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trimmed(checked_indices(self.coeffs)))

    @property
    def degree(self) -> int | None:
        """Highest exponent carrying a nonzero coefficient, None for zero."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __call__(self, x: int) -> int:
        """Exact integer evaluation."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def _coerce(self, other):
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def shifted(self, k: int) -> IntPoly:
        """Multiply by x**k."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def text(self) -> str:
        return format_poly(self.coeffs)

    def pretty(self) -> str:
        return _pretty(self.coeffs)


@dataclass(frozen=True)
class ReducedPoly:
    """Canonical representative of a function on the odd residues mod 2**n.

    Exactly d_n + 1 coefficient slots are stored (zero padded), slot i
    holding a value in [0, 2**(n-i-t_i)). Two canonical representatives
    are structurally equal exactly when they induce the same function,
    so tuple equality doubles as functional equality.
    """

    coeffs: tuple[int, ...]
    n: int

    def __post_init__(self):
        n = checked_index(self.n)
        if n < 2:
            raise ValueError(f"modulus exponent must be at least 2, got {n}")
        widths = coeff_widths(n)
        coeffs = _trimmed(checked_indices(self.coeffs))
        if len(coeffs) > len(widths):
            raise ValueError(
                f"degree {len(coeffs) - 1} exceeds the cap {len(widths) - 1} for n={n}"
            )
        # c >> w is 0 exactly for c in [0, 2**w): one scan, stopped at the first slot out of range
        high = map(operator.rshift, coeffs, widths)
        bad = next(itertools.compress(itertools.count(), high), None)
        if bad is not None:
            raise ValueError(f"coefficient {coeffs[bad]} at degree {bad} is outside "
                             f"[0, {1 << widths[bad]}) for n={n}")
        coeffs += (0,) * (len(widths) - len(coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "n", n)

    @classmethod
    def _made(cls, coeffs: tuple[int, ...], n: int) -> ReducedPoly:
        """The form with these d_n + 1 slots, which the package built in
        range (slot i an int in [0, 2**w_i)), without __post_init__'s checks
        of each slot. ReducedPoly(...) keeps every check."""
        made = object.__new__(cls)
        object.__setattr__(made, "coeffs", coeffs)
        object.__setattr__(made, "n", n)
        return made

    @property
    def degree(self) -> int | None:
        trimmed = _trimmed(self.coeffs)
        return len(trimmed) - 1 if trimmed else None

    def as_int_poly(self) -> IntPoly:
        return IntPoly(self.coeffs)

    def text(self) -> str:
        return format_poly(self.coeffs)

    def pretty(self) -> str:
        return _pretty(self.coeffs)


def _as_coeffs(poly) -> tuple[int, ...]:
    """Coefficient tuple of an IntPoly, ReducedPoly, or plain sequence."""
    if isinstance(poly, (IntPoly, ReducedPoly)):
        return poly.coeffs
    return checked_indices(poly)


def parse_poly(text: str) -> IntPoly:
    """Parse comma-separated coefficients (context.decimal_list), lowest degree first.

    Negative coefficients are accepted; they are normalized when the
    polynomial enters a modular operation.
    """
    return IntPoly(decimal_list(text))


def format_poly(coeffs: Iterable[int]) -> str:
    """Comma-separated decimal coefficients, trailing zeros trimmed. A
    coefficient that is not an integer is a ValueError naming it
    (checked_indices), as in IntPoly."""
    out = _trimmed(checked_indices(coeffs))
    if not out:
        return "0"
    return ",".join(str(c) for c in out)


def _pretty(coeffs) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}x" if c != 1 else "x")
        else:
            terms.append(f"{c}x^{i}" if c != 1 else f"x^{i}")
    return " + ".join(terms) if terms else "0"


def _coeffs_for(poly, ctx: Context) -> tuple[int, ...]:
    """Coefficients of poly; a ReducedPoly canonical for another n is a ValueError."""
    if isinstance(poly, ReducedPoly) and poly.n != ctx.n:
        raise ValueError(f"polynomial is canonical for n={poly.n}, context has n={ctx.n}")
    return _as_coeffs(poly)


def evaluate(poly, a: int, ctx: Context) -> int:
    """Value of the induced function at a, by Horner's rule modulo 2**n."""
    a = ctx.check_residue(a)
    return _eval_masked(_coeffs_for(poly, ctx), a, ctx.mask)


def _eval_masked(coeffs: Sequence[int], x: int, mask: int) -> int:
    """Horner's rule with every partial value reduced by mask."""
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) & mask
    return value


def induces_function_on_units(poly) -> bool:
    """True when every odd argument is sent to an odd value.

    Powers of odd numbers are odd, so the value parity at any odd
    argument is the parity of the coefficient sum.
    """
    return sum(_as_coeffs(poly)) & 1 == 1


def induces_permutation_on_units(poly) -> bool:
    """True when the induced map permutes the odd residues.

    Requires the coefficient sum odd (so it is a function on the odd
    residues at all) and the odd-indexed coefficient sum odd: that is, the
    odd-indexed sum odd and the even-indexed sum even, each coefficient
    added once.
    """
    coeffs = _as_coeffs(poly)
    return sum(coeffs[1::2]) & 1 == 1 and sum(coeffs[::2]) & 1 == 0


def rivest_permutes_ring(poly) -> bool:
    """Parity criterion for permuting all of Z_{2**n} (any n >= 2).

    The linear coefficient must be odd and the two tail sums, over even
    indices >= 2 and over odd indices >= 3, must both be even. Constant
    and zero polynomials are rejected as arguments.
    """
    coeffs = _as_coeffs(poly)
    if len(_trimmed(coeffs)) < 2:
        raise ValueError("the ring permutation test needs degree at least 1")
    return (
        coeffs[1] & 1 == 1
        and sum(coeffs[2::2]) & 1 == 0
        and sum(coeffs[3::2]) & 1 == 0
    )


def _times_linear(coeffs: Sequence[int], node: int, low: int, mask: int) -> list[int]:
    """The monomial coefficients of coeffs * (x - node) + low, each & mask
    (a mask of -1 keeps them exact): the one multiplication by a linear
    factor outside the oracle."""
    return [(below - node * a) & mask for below, a in zip([low, *coeffs], [*coeffs, 0])]


def _expand(newton: Sequence[int], nodes: Sequence[int], mask: int) -> list[int]:
    """The len(newton) monomial coefficients, each & mask, of
    sum_k newton[k] (x - nodes[0])(x - nodes[1])...(x - nodes[k-1]), by
    Horner's rule in that basis (_times_linear)."""
    coeffs: list[int] = []
    for k in range(len(newton) - 1, -1, -1):
        coeffs = _times_linear(coeffs, nodes[k], newton[k], mask)
    return coeffs


def ideal_generators(ctx: Context) -> tuple[IntPoly, ...]:
    """The d+2 generators of the rewriting ideal, built afresh on each call.

    Index 0 holds the literal constant 2**n. Index i, for 1 <= i <= d,
    holds 2**(n-i-t_i) * (x+1)(x+3)...(x+2i-1) with coefficients reduced
    modulo 2**n. The last entry is the monic degree-(d+1) product, which
    vanishes on every odd residue. Canonical forms never need the table;
    it is the ideal's description, for display and checks.
    """
    gens = [IntPoly((ctx.modulus,))]
    prod = [1]
    # width 0 leaves the last, monic product unscaled
    for i, width in enumerate((*ctx.coeff_bits[1:], 0), start=1):
        prod = _times_linear(prod, 1 - 2 * i, 0, ctx.mask)
        gens.append(IntPoly(tuple((c << width) & ctx.mask for c in prod)))
    return tuple(gens)


def _values_at(polys: Sequence[Sequence[int]], points: Sequence[int], n: int) -> list[list[int]]:
    """Values modulo 2**n of each coefficient vector in polys at each small
    non-negative point, one list per vector, by Horner's rule over packed
    coefficient chunks (Kronecker substitution; von zur Gathen and Gerhard,
    "Modern Computer Algebra", ch. 8).

    Each vector is cut into at most SMALL_CHUNKS chunks of h coefficients,
    h = ceil(longest / SMALL_CHUNKS). Coefficient i of every chunk, taken
    & 2**n - 1, goes into one field of packed[i], n + b bits wide for
    b = bit_length(max point): v x + c <= (2**n - 1)(2**b - 1) + 2**n - 1,
    below 2**(n + b), for v and c below 2**n. So one masked step over the
    packed ints, v <- (v x + c) & keep with 2**n - 1 in every field of keep,
    is a step of every chunk at once, and no carry crosses a field. A
    vector's value at x joins its chunks' values v_j as
    sum_j v_j (x**h mod 2**n)**j. When every vector is shorter than
    PACKED_LENGTH, the values are Horner's rule point by point."""
    mask = (1 << n) - 1
    longest = max(map(len, polys), default=0)
    if longest < PACKED_LENGTH:
        return [[_eval_masked(c, x, mask) for x in points] for c in polys]
    h = -(-longest // SMALL_CHUNKS)
    field = n + max(points, default=0).bit_length()
    chunks = [[c[j : j + h] for j in range(0, len(c), h)] for c in polys]
    shifts = range(0, field * sum(map(len, chunks)), field)
    packed = [
        sum((c & mask) << shift for c, shift in zip(column, shifts))
        for column in itertools.zip_longest(*itertools.chain(*chunks), fillvalue=0)
    ][::-1]
    keep = sum(mask << shift for shift in shifts)
    # each vector's fields, top chunk first: the order its join reads them
    counts = list(map(len, chunks))
    starts = itertools.accumulate([0, *counts])
    joins = [shifts[start : start + count][::-1] for start, count in zip(starts, counts)]
    values: list[list[int]] = [[] for _ in polys]
    for x in points:
        v = 0
        for c in packed:
            v = (v * x + c) & keep
        stride = pow(x, h, 1 << n)
        for out, tops in zip(values, joins):
            value = 0
            for shift in tops:
                value = (value * stride + (v >> shift & mask)) & mask
            out.append(value)
    return values


def _head_count(length: int, n: int, depth: int) -> int:
    """The terms of a class head at depth s = depth, of length coefficients,
    that count modulo 2**n: at most ceil(n/s), and at depth 0 every one."""
    return min(length, -(-n // depth)) if depth else length


def _shifted_class(heads: Sequence[int], level: int, masks: Sequence[int]) -> tuple[int, ...]:
    """The Taylor coefficients at a + 2**level, term j & masks[j], from
    heads, those at a. Term j is sum_{i >= j} C(i, j) heads[i] 2**(level (i-j)),
    so the vector heads[i] 2**(level i) is shifted by 1 with additions only:
    one synthetic division by z - 1, an accumulate from the highest term,
    leaves the next term last. Each term is then shifted back right."""
    rest = [c << (level * i) for i, c in enumerate(heads)][::-1]
    out = []
    for j, mask in enumerate(masks):
        rest = list(itertools.accumulate(rest))
        out.append((rest.pop() >> (level * j)) & mask)
    return tuple(out)


def _grown_heads(classes: Sequence[Sequence[int]], n: int, start: int, depth: int):
    """The class heads of sum c_i x**i at depth s = depth from classes, its
    heads at depth start: for each odd a < 2**s, at index a >> 1, its first
    ceil(n/s) Taylor coefficients at a, term i modulo 2**(n - s i). As
    p(x) = sum_i heads[i] (x - a)**i and 2**s divides x - a, no later term
    counts modulo 2**n. Depth 0 is the one class a = 0: the coefficients.

    Levels start, ..., depth - 1 of a 2-adic tree of Taylor shifts: at
    level s the class a stays, masked to the next level's widths, and
    a + 2**s is its shift (_shifted_class); level 0 keeps only a = 1. Level
    s reads term i of a class only modulo 2**(n - s i), the width a head at
    depth s keeps, so growing a tree is exact. The levels' masks skip
    _head_masks' cache, which keeps only those of depths trees are read at."""
    for level in range(start, depth):
        masks = _head_masks.__wrapped__(n, level + 1, _head_count(len(classes[0]), n, level + 1))
        kept = [tuple(map(operator.and_, t, masks)) for t in classes] if level else []
        classes = kept + [_shifted_class(t, level, masks) for t in classes]
    return tuple(classes)


def _tree_cost(length: int, n: int, depth: int) -> int:
    """The cost of a fresh tree (_head_tree) of length coefficients modulo
    2**n at depth s = depth, in one-word steps: a shift to m terms from a
    class of w makes sum_{j<m} (w - j - 1) additions of ceil(n/64) words
    each, and each of its m terms costs SHIFT_STEPS more. Growing a tree
    from depth s to s' costs the difference of the two."""
    total, width, words = 0, length, -(-n // 64)
    for level in range(depth):
        m = _head_count(length, n, level + 1)
        total += (1 << max(level - 1, 0)) * (m * (2 * width - m - 1) // 2 * words + SHIFT_STEPS * m)
        width = m
    return total


def _read_cost(length: int, m: int, depth: int) -> int:
    """The cost of one point modulo 2**m from a tree of length coefficients
    at depth s = depth, in one-word steps: a step multiplies term i's
    m - s i bits by a point weighed at m bits. At depth 0 every term is
    read at width m, Horner's rule over the coefficients."""
    terms = _head_count(length, m, depth)
    return sum(-(-(m - depth * i) // 64) for i in range(terms)) * -(-m // 64)


def _tree_prices(length: int, n: int, precisions: Sequence[int], deepest: int):
    """[(build, read)] for a tree of length coefficients modulo 2**n at each
    depth 0, ..., min(deepest, floor(n/2)): its _tree_cost, and the
    _read_cost of one point at every precision in precisions together. Past
    floor(n/2) a tree could not give p' modulo 2**ceil(n/2) (_slope_tree),
    so no tree is priced, or built, there."""
    return [
        (_tree_cost(length, n, depth), sum(_read_cost(length, m, depth) for m in precisions))
        for depth in range(min(deepest, n // 2) + 1)
    ]


def _cheapest_depth(prices: Sequence[tuple[int, int]], points: int) -> int:
    """The one depth rule of every tree of class heads: the depth of least
    build + points * read over prices (_tree_prices), the shallowest of a tie."""
    return min(range(len(prices)), key=lambda depth: prices[depth][0] + points * prices[depth][1])


@functools.lru_cache(maxsize=128)
def _head_masks(n: int, depth: int, terms: int) -> tuple[int, ...]:
    """2**(n - s i) - 1 for each term i < terms of a class head at depth
    s = depth, lowest term first; at depth 0 one shared 2**n - 1 for each.
    One tuple per (n, s, terms), shared by every tree that reads it."""
    if not depth:
        return ((1 << n) - 1,) * terms
    return tuple((1 << (n - depth * i)) - 1 for i in range(terms))


def _head_tree(coeffs: Sequence[int], n: int, depth: int):
    """(depth, heads, masks): what _eval_heads reads to evaluate sum c_i x**i
    modulo 2**n at depth s = depth. The heads are grown from depth 0, the
    coefficients, which builds nothing (_grown_heads), and masks the masks
    of their terms' widths (_level_tree)."""
    return _level_tree((depth, _grown_heads((tuple(coeffs),), n, 0, depth)), n)


def _deepened(tree, n: int, depth: int):
    """The same polynomial's tree modulo 2**n at depth `depth` from its tree
    at a shallower depth: the missing levels grown from its heads
    (_grown_heads), not rebuilt from the coefficients."""
    start, heads = tree[:2]
    return _level_tree((depth, _grown_heads(heads, n, start, depth)), n)


def _slope_tree(tree, n: int):
    """The tree of p' modulo 2**n from p's tree at depth s, which must hold
    p modulo 2**N for some N >= n + s. As p(a + y) = sum_i c_i y**i,
    p'(a + y) = sum_i i c_i y**(i-1): its term i - 1 counts modulo
    2**(n - s(i-1)), no more than the 2**(N - s i) that c_i is kept to."""
    depth, heads, _ = tree
    masks = _head_masks(n, depth, _head_count(len(heads[0]) - 1, n, depth))
    slopes = tuple(
        tuple(map(operator.and_, map(operator.mul, range(1, len(head)), head[1:]), masks))
        for head in heads
    )
    return depth, slopes, masks


def _level_tree(tree, m: int):
    """p's tree modulo 2**m from (depth, heads, ...) of p modulo 2**N, N >= m:
    the same heads, read to ceil(m/s) terms at depth s, term i modulo
    2**(m - s i) (_head_masks), at depth 0 every term modulo 2**m. A tree
    of p gets its masks here: _head_tree and _deepened end in it."""
    depth, heads = tree[:2]
    return depth, heads, _head_masks(m, depth, _head_count(len(heads[0]), m, depth))


def _eval_heads(heads: Sequence[Sequence[int]], depth: int, x: int, masks: Sequence[int]) -> int:
    """The value at x, odd unless depth is 0, from (depth, heads, masks) of
    _head_tree: Horner's rule in y = x - a over the head of x's class a,
    each step masked to its term's width; at depth 0, a = 0 and the head is
    the coefficients."""
    a = x & ((1 << depth) - 1)
    y = x - a
    head = heads[a >> 1]
    value = 0
    for i in range(len(head) - 1, -1, -1):
        value = (value * y + head[i]) & masks[i]
    return value


def _head_values(tree, points: Iterable[int]) -> list[int]:
    """Values of one polynomial at many odd points from its tree (_head_tree,
    _level_tree), read to its masks' terms: _eval_heads, its loop inlined,
    as a call per point costs as much as the few steps of a low ladder level."""
    depth, heads, masks = tree
    low = (1 << depth) - 1
    terms = range(len(masks) - 1, -1, -1)
    values = []
    for x in points:
        a = x & low
        y = x - a
        head = heads[a >> 1]
        value = 0
        for i in terms:
            value = (value * y + head[i]) & masks[i]
        values.append(value)
    return values


def _lifted(tree, targets: Sequence[int], n: int) -> list[int]:
    """The preimages modulo 2**n of the odd targets under p, a permutation of
    the odd residues, by two-adic Newton iteration for a simple root,
    x <- x - (p(x) - c) / p'(x) from x = c (von zur Gathen and Gerhard,
    "Modern Computer Algebra", ch. 9). p' is odd at every odd x, so a root
    right to ceil(m/2) bits is one step from a root right to m bits, and the
    steps climb the _ladder. Level m reads p modulo 2**m off tree, p's tree
    modulo 2**N for some N >= n at a depth of at most floor(n/2), and p'
    modulo 2**ceil(m/2) off p''s tree, taken off it once (_slope_tree), each
    to its first terms (_level_tree); at m = 2 the slope is read modulo 2,
    where it is 1. Depth 0, the coefficients, reads the same way. Nothing
    here checks the result."""
    slopes = _slope_tree(tree, (n + 1) // 2)
    preimages = list(targets)
    for m in _ladder(n):
        level_mask = (1 << m) - 1
        half = (m + 1) // 2
        inverses = unit_inverses(_head_values(_level_tree(slopes, half), preimages), half)
        values = _head_values(_level_tree(tree, m), preimages)
        preimages = [
            (x - (y - c) * inverse) & level_mask
            for x, y, c, inverse in zip(preimages, values, targets, inverses)
        ]
    return preimages


@functools.lru_cache(maxsize=64)
def _stages(length: int, n: int) -> dict[int, int]:
    """{q: s}: at its q-th query _OddEvaluator deepens its tree of length
    coefficients modulo 2**n to depth s, the _cheapest_depth for q reads at
    full width. So a stage comes due once the steps the deeper tree would
    have saved over the queries so far pay for its missing levels, as in
    ski rental. Depths stop at KEPT_TREE_DEPTH and floor(n/2) (_tree_prices),
    so every kept tree can give its slope."""
    prices = _tree_prices(length, n, (n,), KEPT_TREE_DEPTH)
    stages, depth = {}, 0
    while True:
        build, read = prices[depth]
        # the first query count at which a depth of cheaper reads costs less in all
        due = [(more - build) // (read - less) + 1 for more, less in prices[depth + 1:] if less < read]
        if not due:
            return stages
        queries = min(due)
        depth = stages[queries] = _cheapest_depth(prices, queries)


_DEEPENING = threading.Lock()  # makes an evaluator's depth check and tree swap one step


class _OddEvaluator:
    """One polynomial's values modulo 2**n at odd points, through its tree of
    class heads: depth 0, Horner's rule over the coefficients, at first, and
    deeper at each of its _stages, grown from the heads it has (_deepened).
    (depth, heads, masks) is swapped in as one tuple, only over a shallower
    one, and each query count goes to one thread, so racing threads grow no
    stage twice and a shared evaluator stays safe."""

    __slots__ = ("_n", "_state", "_queries", "_stages")

    def __init__(self, coeffs: Sequence[int], n: int):
        self._n = n
        self._state = _head_tree(coeffs, n, 0)
        self._queries = itertools.count(1)
        self._stages = _stages(len(coeffs), n)

    def __call__(self, x: int) -> int:
        depth, heads, masks = self._queried()
        return _eval_heads(heads, depth, x, masks)

    def preimage(self, c: int) -> int:
        """The odd x with p(x) = c modulo 2**n, for odd c, lifted through the
        evaluator's tree (_lifted). No kept tree is deeper than floor(n/2)
        (_stages), so each gives p' modulo 2**ceil(n/2). A lift counts as one
        query, so a polynomial read only by lifts deepens too. x is checked
        by reading p at it at full width; a mismatch is a RuntimeError."""
        tree = self._queried()
        (x,) = _lifted(tree, (c,), self._n)
        depth, heads, masks = tree
        if _eval_heads(heads, depth, x, masks) != c:
            raise RuntimeError("lifted preimage failed its check")
        return x

    def _queried(self):
        """The tree one more query reads, deepened first if the query is due
        at a stage."""
        # next() on a count is one step under the GIL: no two calls see one count
        depth = self._stages.get(next(self._queries))
        if depth:
            self._deepen(depth)
        return self._state

    def _deepen(self, depth: int) -> None:
        tree = self._state
        if tree[0] < depth:
            tree = _deepened(tree, self._n, depth)
            with _DEEPENING:
                if self._state[0] < depth:
                    self._state = tree


def _node_values(poly, ctx: Context) -> list[int]:
    """Values of the induced function at the standard nodes 1, 3, ..., 2d+1."""
    (values,) = _values_at([_coeffs_for(poly, ctx)], ctx.interpolation_nodes, ctx.n)
    return values


def _newton_fit(vals: Sequence[int], exponents: Sequence[int], n: int) -> list[int]:
    """The Newton coefficients of the function taking vals (modulo 2**n) at
    equally spaced nodes, given that its k-th difference at the first node
    is 2**exponents[k] * odd(k!) times the k-th coefficient; InconsistentTable
    when 2**exponents[k] does not divide it. The differences are not reduced:
    the & that tests one and the >> that divides it see only its low n bits,
    so coefficient k, returned in [0, 2**n), is right modulo
    2**(n - exponents[k]), all that a caller reads of it."""
    mask = (1 << n) - 1
    newton = []  # the k-th difference over 2**exponents[k], then over odd(k!) too
    for k, exponent in enumerate(exponents):
        diff = vals[0]
        if diff & ((1 << exponent) - 1):
            raise InconsistentTable(
                f"no polynomial function fits: 2**{exponent} does not divide "
                f"{diff & mask} at degree {k}"
            )
        newton.append(diff >> exponent)
        vals = list(map(operator.sub, vals[1:], vals))
    # one inverse, of odd(top!); odd((k-1)!)**-1 = odd(k!)**-1 * odd(k) sweeps it down
    top = len(newton) - 1
    inverse = unit_inverse(math.factorial(top) >> two_adic_factorial_valuation(top), n)
    for k in range(top, -1, -1):
        newton[k] = (newton[k] * inverse) & mask
        if k:
            inverse = (inverse * (k >> ((k & -k).bit_length() - 1))) & mask
    return newton


def _fit_nodes(vals: list[int], ctx: Context) -> ReducedPoly:
    """The canonical polynomial taking the d+1 values vals (modulo 2**n) at
    1, 3, ..., 2d+1: there the k-th step-2 difference is 2**(k + t_k) =
    2**(n - w_k) times odd(k!) times the k-th coefficient in the basis N_k,
    and _solve takes those coefficients to the canonical form, each slot
    masked to its width, so ReducedPoly._made checks none again."""
    newton = _newton_fit(vals, [ctx.n - width for width in ctx.coeff_bits], ctx.n)
    return ReducedPoly._made(tuple(_solve(newton, ctx)), ctx.n)


def _fit_ring(vals: Sequence[int], n: int) -> IntPoly:
    """The polynomial of degree below mu = len(vals) = keller_beta(n) taking
    vals (modulo 2**n) at 0, 1, ..., mu-1, coefficients in [0, 2**n). A
    polynomial function on Z_{2**n} is sum_{k<mu} a_k x(x-1)...(x-k+1), as
    2**n divides k! from k = mu on; its k-th step-1 difference at 0 is
    2**t_k * odd(k!) * a_k, and _expand takes it to monomials."""
    # t_k inline: two_adic_factorial_valuation would check each k's type
    newton = _newton_fit(vals, [k - k.bit_count() for k in range(len(vals))], n)
    return IntPoly(_expand(newton, range(len(newton)), (1 << n) - 1))


def _slot_masks(n: int) -> list[int]:
    """2**w_k - 1 for each slot k <= d_n, w = coeff_widths(n)."""
    return [(1 << width) - 1 for width in coeff_widths(n)]


def _times_x(acc: Sequence[int], low: int, masks: Sequence[int]) -> list[int]:
    """Newton coefficients of x * sum_k acc[k] N_k + low, slot k modulo
    2**w_k, by x N_k = N_{k+1} + (2k+1) N_k. New slot k is
    acc[k-1] + (2k+1) acc[k], and w falls as k rises, so the slot widths
    of acc make it exact modulo 2**w_k. Slots past d_n are cut: those
    N_k vanish on the odd residues, and none feeds a lower one."""
    return [
        (below + odd * a) & m
        for below, odd, a, m in zip([low, *acc], range(1, 2 * len(masks), 2), [*acc, 0], masks)
    ]


def _to_newton(coeffs: Sequence[int], n: int) -> list[int]:
    """The d_n+1 Newton coefficients of sum c_i x**i in the basis
    N_k = (x-1)(x-3)...(x-2k+1), slot k modulo 2**w_k, by Horner's rule
    (_times_x). Slot k is all that _solve reads of it."""
    masks = _slot_masks(n)
    acc: list[int] = []
    for c in reversed(coeffs):
        acc = _times_x(acc, c, masks)
    return acc + [0] * (len(masks) - len(acc))


def _build_rows(n: int, whole: bool) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """A row store for precision n: the stride B and every B-th row of T,
    T(jB, k) for k <= jB, slot k modulo 2**w_k. T(i, .) holds the Newton
    coefficients of x**i, so the rows climb from T(0, .) = (1,) by
    _times_x. B is 1, every row, for the whole table, and isqrt(d_n) + 1
    for checkpoints (16 MiB of them at n = 4096)."""
    masks = _slot_masks(n)
    d = len(masks) - 1
    step = 1 if whole else math.isqrt(d) + 1
    rows = [(1,)]
    for _ in range(d // step):
        row = rows[-1]
        for _ in range(step):
            row = _times_x(row, 0, masks)
        rows.append(tuple(row))
    return step, tuple(rows)


def _packed_rows(n: int, rows: Sequence[Sequence[int]]):
    """The whole table, rows T(i, .) modulo 2**w_k, as a packed row store
    (1, packed, sizes, shifts, keep) (Kronecker substitution; von zur
    Gathen and Gerhard, "Modern Computer Algebra", ch. 8). Slot k of a
    packed int is a field of sizes[k] bytes, w_k + w_{k+1} + 1 bits
    rounded up, from bit shifts[k], slot 0 lowest; keep holds 2**w_k - 1
    in every field k. Row i is stored as P_i - T_i, where P_i holds 2**w_k
    in each field k < i and T_i is T(i, .) packed, its 1 at slot i
    included: field k < i holds 2**w_k - T(i,k) > 0, so no field borrows
    from the next, and the -2**shifts[i] left takes T(i,i) = 1 off slot i
    (_packed_solve). Each row is packed by one join of C-level to_bytes
    and one from_bytes."""
    widths = coeff_widths(n)
    sizes = [(w + below + 8) // 8 for w, below in zip(widths, [*widths[1:], 0])]
    offsets = [0, *itertools.accumulate(sizes)]
    little = itertools.repeat("little")
    tops = b"".join(map(int.to_bytes, [1 << w for w in widths], sizes, little))
    packed = tuple(
        int.from_bytes(tops[:offset], "little")
        - int.from_bytes(b"".join(map(int.to_bytes, row, sizes, little)), "little")
        for row, offset in zip(rows, offsets)
    )
    keep = int.from_bytes(b"".join(map(int.to_bytes, _slot_masks(n), sizes, little)), "little")
    return 1, packed, sizes, [8 * offset for offset in offsets], keep


def _table_bytes(n: int, step: int = 1) -> int:
    """The bytes a row store of tuples at precision n takes, at most: rows
    0, step, 2 step, ... of T (the whole table at step 1), row i a tuple of
    i + 1 ints, slot k below 2**w_k, and sys.getsizeof gives each object's
    size."""
    masks = _slot_masks(n)
    pointer = sys.getsizeof((0,)) - sys.getsizeof(())
    slots = [0, *itertools.accumulate(sys.getsizeof(mask) + pointer for mask in masks)]
    return sum(sys.getsizeof(()) + slots[i + 1] for i in range(0, len(masks), step))


def _store_bytes(n: int, store) -> int:
    """The bytes the row store at precision n keeps: tuple rows as
    _table_bytes prices them, packed rows (_packed_rows) by sys.getsizeof
    of each int they keep."""
    step, rows, *layout = store
    if not layout:
        return _table_bytes(n, step)
    _, shifts, keep = layout
    return sum(map(sys.getsizeof, (*rows, *shifts, keep)))


# the kept row stores, n: (bytes, store), least recently solved first, and 2Q's ghost entries:
# every precision solved in this process, so a second solve at n knows it is one
_row_stores: dict[int, tuple[int, tuple]] = {}
_solved: set[int] = set()
_ROW_STORES = threading.Lock()  # guards both for their bookkeeping, never over a build


def _row_store(n: int):
    """The row store a solve at precision n reads, picked by one rule and
    kept per precision, whatever Context solves (2Q admission; Johnson and
    Shasha, VLDB 1994). The first solve at n in the process builds the
    whole table of tuples while it has at most WHOLE_TABLE_ENTRIES slots
    (n <= 356), otherwise checkpoints, reads it and keeps only n. A later
    solve builds the store it keeps: the whole table packed (_packed_rows)
    up to n = 356, above that the whole table of tuples while it fits
    ROW_STORE_BYTES (_table_bytes), otherwise checkpoints, and every solve
    at n after it reads that. All kept stores take at most
    2 * ROW_STORE_BYTES (_store_bytes): the least recently solved n is
    dropped first, down to the one just kept, and a solve reads the store
    it got even if it is dropped meanwhile."""
    with _ROW_STORES:
        kept = _row_stores.pop(n, None)
        if kept is not None:
            _row_stores[n] = kept  # now the most recently solved
            return kept[1]
        again = n in _solved
        _solved.add(n)
    d = max_reduced_degree(n)
    small = (d + 1) * (d + 2) // 2 <= WHOLE_TABLE_ENTRIES
    if not again:
        return _build_rows(n, small)
    if small:
        store = _packed_rows(n, _build_rows(n, True)[1])
    else:
        store = _build_rows(n, _table_bytes(n) <= ROW_STORE_BYTES)
    price = _store_bytes(n, store)
    # racing threads may each build a store: each reads its own, and every build is the same
    with _ROW_STORES:
        _row_stores.pop(n, None)
        _row_stores[n] = price, store
        total = sum(entry[0] for entry in _row_stores.values())
        for m in list(_row_stores):
            if total <= 2 * ROW_STORE_BYTES or m == n:
                break
            total -= _row_stores.pop(m)[0]
    return store


def _rows_down(step: int, rows, ctx: Context):
    """(i, T(i, .)) for i from d_n down to 0, n = ctx.n, slot k modulo
    2**w_k, from a store of tuple rows, every step-th row. Stored rows are
    yielded as they are; between checkpoints each block's rows are rebuilt
    upward from its checkpoint, then yielded from its top row down."""
    if step == 1:
        yield from zip(range(ctx.d, -1, -1), reversed(rows))
        return
    masks = _slot_masks(ctx.n)
    for base in range(ctx.d - ctx.d % step, -1, -step):
        block = [rows[base // step]]
        for _ in range(base + 1, min(base + step, ctx.d + 1)):
            block.append(_times_x(block[-1], 0, masks))
        yield from zip(range(base + len(block) - 1, -1, -1), reversed(block))


def _packed_solve(newton: Sequence[int], n: int, rows, sizes, shifts, keep) -> list[int]:
    """_solve over packed rows (_packed_rows). acc is newton packed in the
    rows' fields, slot k & 2**w_k - 1. Its top field, i, is r_i, below
    2**w_i, and acc + r_i row_i clears it and adds r_i (2**w_k - T(i,k)) to
    each field k < i; & keep leaves acc_k - r_i T(i,k) modulo 2**w_k there.
    No field carries into the next: it holds less than 2**w_k (1 + 2**w_i),
    and w_i <= w_{k+1}. So each row is one product and one mask."""
    little = itertools.repeat("little")
    acc = int.from_bytes(
        b"".join(map(int.to_bytes, map(operator.and_, newton, _slot_masks(n)), sizes, little)),
        "little",
    )
    out = [0] * len(sizes)
    for i in range(len(sizes) - 1, 0, -1):
        r = out[i] = acc >> shifts[i]
        if r:
            acc = (acc + r * rows[i]) & keep
    out[0] = acc
    return out


def _solve(newton: Sequence[int], ctx: Context) -> list[int]:
    """The canonical coefficients modulo 2**n (n = ctx.n) of the function
    with Newton coefficients newton.

    Writing x**i = sum_k T(i,k) N_k, where T(i,i) = 1, coefficient k of
    sum r_i x**i is sum_{i >= k} r_i T(i,k), and two forms of degree at
    most d_n induce one function exactly when these agree modulo 2**w_k.
    So from i = d_n down, r_i is what is left of newton[i] modulo 2**w_i,
    and r_i T(i,k) leaves every lower slot k, which reads T(i,k) only
    modulo 2**w_k. The rows come from n's row store (_row_store): packed
    rows are read by _packed_solve, tuple rows by _rows_down."""
    step, rows, *layout = _row_store(ctx.n)
    if layout:
        return _packed_solve(newton, ctx.n, rows, *layout)
    masks = _slot_masks(ctx.n)
    acc = list(newton)  # unmasked: the & that reads a slot gives its residue
    out = [0] * len(masks)
    for i, row in _rows_down(step, rows, ctx):
        r = out[i] = acc[i] & masks[i]
        if r:
            acc = [a - r * t for a, t in zip(acc, row)]
    return out


def reduce(poly, ctx: Context) -> ReducedPoly:
    """Canonical form of the function the polynomial induces modulo 2**n.

    Any integer polynomial is accepted, but a ReducedPoly canonical for
    another n is a ValueError; coefficients are first normalized into
    [0, 2**n). A vector of at most d+1 slots, each already in range,
    is canonical as it stands; any other goes to the Newton basis and
    back through the triangular solve, whatever its degree. Either way
    every slot is in range (_solve masks each), so ReducedPoly._made
    checks none again.
    """
    coeffs = _trimmed([c & ctx.mask for c in _coeffs_for(poly, ctx)])
    widths = ctx.coeff_bits
    if len(coeffs) > len(widths) or any(c >> w for c, w in zip(coeffs, widths)):
        coeffs = _solve(_to_newton(coeffs, ctx.n), ctx)
    return ReducedPoly._made(tuple(coeffs) + (0,) * (len(widths) - len(coeffs)), ctx.n)


def equivalent(p, t, ctx: Context) -> bool:
    """Do the two polynomials induce the same function on the odd residues?"""
    return reduce(p, ctx) == reduce(t, ctx)


def conjugate_to_nonunits(poly) -> IntPoly:
    """The polynomial h(x+1) - 1, exact over the integers.

    Conjugation by the shift x -> x+1 transports a map on odd residues to
    a map on even residues and back. h(x+1) is sum_k h_k (x+1)**k, which
    _expand takes to monomials with every node -1.
    """
    coeffs = _as_coeffs(poly)
    return IntPoly(_expand(coeffs, [-1] * len(coeffs), -1)) - 1


def indicator_polys(ctx: Context) -> tuple[IntPoly, IntPoly]:
    """The pair (v0, v1): v0 is 1 on odd residues and 0 on even ones,
    v1 = 1 - v0 is its complement. v0 is fitted to x & 1 (_fit_ring), so
    its degree is keller_beta(n) - 1."""
    v0 = _fit_ring([x & 1 for x in range(keller_beta(ctx.n))], ctx.n)
    return v0, IntPoly((1,)) - v0


def glue_polynomial(p, h, ctx: Context) -> IntPoly:
    """One polynomial acting as p on odd residues and as the conjugate of
    h on even residues.

    The glued function takes p(x) at odd x and h(x+1) - 1 at even x. So p
    and h are evaluated once each at the odd x below mu = keller_beta(n),
    and the values at 0, 1, ..., mu-1 are fitted (_fit_ring): the result
    has degree below mu and coefficients in [0, 2**n).
    """
    operands = [_coeffs_for(p, ctx), _coeffs_for(h, ctx)]
    for name, f in zip(("first", "second"), operands):
        if not induces_permutation_on_units(f):
            raise NotAPermutation(f"{name} argument does not permute the odd residues")
    odd = range(1, keller_beta(ctx.n), 2)  # keller_beta(n) is even
    at_p, at_h = _values_at(operands, odd, ctx.n)
    return _fit_ring([v for hv, pv in zip(at_h, at_p) for v in (hv - 1, pv)], ctx.n)


def bivariate_quasigroup_check(coeff_matrix: Sequence[Sequence[int]], n: int) -> bool:
    """Does P(x, y) define a quasigroup on Z_{2**n}?

    coeff_matrix[i][j] is the coefficient of x**i y**j. The criterion is
    that the four specializations P(x,0), P(x,1), P(0,y), P(1,y) each
    permute the ring; a constant specialization means the answer is no.
    """
    if checked_index(n) < 2:
        raise ValueError("modulus exponent must be at least 2")
    rows = [checked_indices(row) for row in coeff_matrix]
    width = max(map(len, rows), default=0)
    if not width:  # every specialization of the zero polynomial is constant
        return False
    rows = [row + (0,) * (width - len(row)) for row in rows]
    specializations = (
        tuple(row[0] for row in rows),             # P(x, 0)
        tuple(sum(row) for row in rows),           # P(x, 1)
        rows[0],                                   # P(0, y)
        tuple(sum(col) for col in zip(*rows)),     # P(1, y)
    )
    return all(len(_trimmed(c)) > 1 and rivest_permutes_ring(c) for c in specializations)
