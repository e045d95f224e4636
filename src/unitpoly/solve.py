"""Interpolation and both kinds of inversion modulo 2**n.

Each problem shape has one solver. Every solver at the standard nodes
1, 3, ..., 2d+1 hands its node values to poly's _fit_nodes, which reads
their Newton coefficients off a difference table and ends in the
triangular solve that reduce also ends in. Multiplicative inverses and
products read their node values off poly's one evaluator at small points,
_values_at, Horner's rule over packed coefficient chunks (a product's two
operands in one packed pass), and invert all of them with a single
unit_inverse. The composition check of an inverse permutation reads the
inverse's node values the same way.

Inverse permutations find their node values, the preimages of the
nodes, through poly's one lift (_lifted): two-adic Newton iteration up a
ladder of precisions m = 2, ..., ceil(n/4), ceil(n/2), n (context's
_ladder), where a step to precision m needs p only modulo 2**m and the
slope p' only modulo 2**ceil(m/2). Both come off one tree of p's class
heads (poly's _head_tree) at the depth s that poly's one depth rule picks
for the reads of the whole ladder (_tree_depth); at depth 0, for the
smallest n, the tree is the coefficients. p''s heads are taken off p's
once at ceil(n/2) (poly's _slope_tree). The composition check reads the
full tree. The one fit of the preimages is the only solve, and no step
builds a Context.

Arbitrary nodes go through one elimination to Howell form. The node x
with value v is the augmented row [1, x, ..., x**d | v], kept as one int
with a field of 2n + 1 bits per entry, column 0 on top. Two is a zero
divisor modulo 2**n, so a column's pivot is its entry of least two-adic
valuation, 2**e times an odd unit, which one product with the unit's
inverse normalizes. Every other row then loses an exact multiple of the
pivot row: one product with the pivot row negated once per column, one
add, and one AND with the mask of each field's low n bits. A field holds
any such product, so no carry crosses into the next. After a pivot with
e > 0, the pivot row times 2**(n - e), zero in the pivot's column (the
closure row), joins the rows still to reduce; so every constraint the
pivot rows place on later columns gets a pivot of its own. A leftover row
with a nonzero value then means no fit, and otherwise the fits number
exactly 2**sum_c max(0, w_c - (n - e_c)), e_c = n on a column without a
pivot: the solution budget is read before any fit is listed, and the
elimination's own budget before it starts.

The fits are listed from coefficient d down, the pivot rows' residuals
kept in one int per prefix; coefficient c takes the values of its
pivot's residual class in the box [0, 2**w_c). That range is never
empty. By the Howell form, a canonical prefix that meets the later pivot
rows has a completion g modulo 2**n, and g's canonical form (_solve)
keeps that prefix. The two differ by a null polynomial, a combination of
the 2**w_k N_k, so their top differing coefficient, at some k, differs by
a nonzero multiple of 2**w_k modulo 2**n, which two entries of
[0, 2**w_k) cannot: k <= c. So coefficient c of the form lies in the
class and below 2**w_c, and no branch of the listing ends empty.
"""

from __future__ import annotations

import functools
import operator

from .context import Context, _ladder, checked_budget, coeff_widths, unit_inverse, unit_inverses
from .errors import BudgetExceeded, NotAPermutation, NotAUnitFunction
from .poly import (
    ReducedPoly,
    _cheapest_depth,
    _coeffs_for,
    _fit_nodes,
    _head_tree,
    _head_values,
    _lifted,
    _node_values,
    _tree_prices,
    _values_at,
    evaluate,  # unused here; perfbench's self-test reads solve.evaluate
    induces_function_on_units,
    induces_permutation_on_units,
)

DEFAULT_SOLUTION_BUDGET = 1 << 12  # most fits interpolate_at_nodes enumerates by default
# most one-word steps interpolate_at_nodes' elimination may take (_elimination_price), read at
# each call, so raising it is the one way to admit a dearer call: priced calls ran at 1.3e8 to
# 3.3e8 steps a second on a 2-core host, so this admits about 3 to 8 s; d + 1 nodes pass up to
# n = 512 (4.3-4.7 s) and are refused from n = 1024 on
DEFAULT_ELIMINATION_BUDGET = 1 << 30
# deepest inversion tree: 64 heads; 8 was no faster at n = 4096, 11 MiB more; 6, the evaluators'
# cap (poly.KEPT_TREE_DEPTH), made the whole call at n = 2048, where 7 is picked, slower in 11
# of 12 interleaved pairs on a 2-core host (median 3.27 against 2.98 s), for 1.9 MiB less RSS
TREE_DEPTH_LIMIT = 7


@functools.lru_cache(maxsize=64)
def _tree_depth(length: int, n: int) -> int:
    """The depth s of invert_permutation's tree of p, of length coefficients,
    by poly's one depth rule (_cheapest_depth): the s up to TREE_DEPTH_LIMIT
    (and floor(n/2), where poly's _tree_prices stops so the top slope stays
    in reach) of least _tree_cost plus _read_cost at d_n + 1 points for each
    precision read. For a degree-d p the picks are 0 at n = 2, 3, 4 and 7,
    and rise from 1 to 7 from n = 1960. In interleaved timings each was the
    fastest or within 5 % of it at n = 8 to 2048, but for 3 at n = 128, 7 %
    behind 4; at n = 2 to 15 each 0 was faster than 1."""
    ladder = _ladder(n)
    precisions = [*ladder, *((m + 1) // 2 for m in ladder), n]
    prices = _tree_prices(length, n, precisions, TREE_DEPTH_LIMIT)
    return _cheapest_depth(prices, len(coeff_widths(n)))


def _elimination_price(rows: int, width: int, n: int) -> int:
    """One-word steps of interpolate_at_nodes' packed rows (_packed_rows)
    and their elimination (_howell) for rows nodes over width columns
    modulo 2**n, counted before either starts.

    A step at column c works on the live part of a packed row, its
    width + 1 - c fields of 2n + 1 bits: a product by an n-bit multiplier
    costs that many words times ceil(n/64), and a closure row one word
    each. Building a row by doubling costs about two such products at
    column 0. Every row meets column 0 with the entry 1, so rows - 1 rows
    move there and none is normalized. Row operations keep a Vandermonde
    row's coefficients divisible by its leading entry's power of two
    (they are the Newton form's products of node differences times
    complete symmetric polynomials of the nodes), so a closure row
    carries only the value, which no pivot moves: after column 0, each
    column's pivot leaves for good and rows - c rows meet column c, one
    normalized and the others moved.
    """
    field, words = 2 * n + 1, -(-n // 64)
    lives = [-(-(width + 1 - col) * field // 64) for col in range(min(rows, width))]
    price = 2 * rows * words * lives[0] if rows else 0
    for col, live in enumerate(lives):
        price += ((rows - max(col, 1)) * words + (col > 0)) * live
    return price


def _ones(count: int, n: int) -> int:
    """A 1 at the bottom of each of count fields of 2n + 1 bits, by
    doubling (a division would cost a product per field)."""
    field = 2 * n + 1
    ones, span = 1, 1
    while span < count:
        ones |= ones << span * field
        span *= 2
    return ones >> (span - count) * field


def _low_bits(count: int, n: int) -> int:
    """The low n bits of each of count fields of 2n + 1 bits: the AND that
    takes every field modulo 2**n."""
    ones = _ones(count, n)
    return (ones << n) - ones


def _packed_rows(nodes, values, width: int, n: int) -> list[int]:
    """[1, x, ..., x**(width-1) | v] modulo 2**n for each node x and value
    v, one int each with a field of 2n + 1 bits per entry: 1 in the top
    field, v in the lowest. The powers double: the row's first span
    fields times x**span, each field masked, are its next span."""
    mask, field = (1 << n) - 1, 2 * n + 1
    fields = _low_bits(width, n)
    rows = []
    for node, value in zip(nodes, values):
        row, span, power = 1, 1, node
        while span < width:
            row = row << span * field | row * power & fields
            power = power * power & mask
            span *= 2
        rows.append(row >> (span - width) * field << field | value)
    return rows


def _howell(rows: list[int], width: int, n: int) -> dict[int, tuple[int, int]] | None:
    """Howell form of packed rows over Z_{2**n} (_packed_rows' layout).

    Column by column, the row whose entry has the least two-adic
    valuation e is the pivot; its odd part is cancelled by one product
    with the inverse, and each other row loses an exact multiple of it,
    one product with the pivot row negated once per column. If e > 0 the
    pivot row times 2**(n - e), zero in this column, joins the rows still
    to reduce: the closure row. Every row's fields above the column are
    clear, so the live part of a row shrinks as the columns go.

    Returns:
        {column: (e, pivot row)} for the pivot columns, or None when a
        leftover row has zero coefficients and a nonzero value: no fit.
    """
    field = 2 * n + 1
    tops = _ones(width + 1, n) << n
    fields = _low_bits(width + 1, n)
    pivots = {}
    for col in range(width):
        if not rows:
            break
        shift = (width - col) * field
        entries = [row >> shift for row in rows]
        low = functools.reduce(operator.or_, entries)
        if not low:
            continue
        low &= -low  # 2**e, e the least valuation in the column
        best = next(i for i, entry in enumerate(entries) if entry & low)
        pivot, lead = rows.pop(best), entries.pop(best)
        exponent = low.bit_length() - 1
        if lead != low:
            pivot = pivot * unit_inverse(lead >> exponent, n) & fields
        negated = (tops >> col * field) - pivot  # 2**n less each field, from col down
        for i, entry in enumerate(entries):
            if entry:  # in place, so a large n holds one copy of the rows
                rows[i] = rows[i] + (entry >> exponent) * negated & fields
        if exponent:
            closure = (pivot << n - exponent) & fields
            if closure:
                rows.append(closure)
        pivots[col] = exponent, pivot
    return None if any(rows) else pivots


def _fits(pivots: dict[int, tuple[int, int]], exponents: list[int], ctx: Context) -> list[tuple]:
    """Every canonical vector through the Howell form, coefficient d
    first. The residual of pivot row j is field j of one int per prefix;
    columns[k] holds -(entry k of row j) in field j, so choosing x_k adds
    x_k * columns[k]. Column c then takes the values of its residual
    class in [0, 2**w_c), never none (see the module notes)."""
    n, width, mask = ctx.n, ctx.d + 1, ctx.mask
    field = 2 * n + 1
    residual, columns = 0, [0] * width
    for j, (_, row) in pivots.items():
        residual += (row & mask) << j * field
        for k in range(width - 1, j, -1):
            row >>= field  # entry k is now the lowest field
            columns[k] += (-(row & mask) & mask) << j * field
    fields = _low_bits(width, n)
    level = [((), residual)]
    for col in range(width - 1, -1, -1):
        exponent, shift, column = exponents[col], col * field, columns[col]
        bound, step = 1 << ctx.coeff_bits[col], 1 << n - exponent
        level = [
            ((x,) + prefix, residual + x * column & fields)
            for prefix, residual in level
            for x in range((residual >> shift & mask) >> exponent, bound, step)
        ]
    return [prefix for prefix, _ in level]


def interpolate(values, ctx: Context) -> ReducedPoly:
    """The canonical polynomial taking the given values at 1, 3, ..., 2d+1.

    The d+1 values must be odd residues. Exactly one canonical polynomial
    fits any value table that comes from a polynomial function, and the
    table determines the function everywhere else on the odd residues.

    Raises:
        InconsistentTable: no polynomial function takes these values.
        ValueError: wrong table length, or an entry is not an odd residue.
    """
    vals = [ctx.check_unit(v) for v in values]
    if len(vals) != ctx.d + 1:
        raise ValueError(f"need exactly {ctx.d + 1} values for n={ctx.n}, got {len(vals)}")
    return _fit_nodes(vals, ctx)


def interpolate_at_nodes(
    nodes,
    values,
    ctx: Context,
    *,
    max_solutions: int | None = DEFAULT_SOLUTION_BUDGET,
) -> list[ReducedPoly]:
    """Every canonical polynomial agreeing with a table on arbitrary odd nodes.

    The nodes must be distinct odd residues, values odd residues. The
    system may be underdetermined, in which case free coefficients sweep
    their whole range and partially pinned ones branch over the residue
    classes the pivot power leaves open; the result is the complete
    (possibly empty) solution set, sorted by coefficient vector. Its size
    is known from the Howell form before any fit is listed.

    Args:
        max_solutions: cap on the solution count, DEFAULT_SOLUTION_BUDGET
            unless given (None lifts it); a larger count raises
            BudgetExceeded instead of enumerating an enormous set, and a
            negative one is a ValueError.

    Raises:
        BudgetExceeded: the elimination would take more one-word steps
            (_elimination_price) than DEFAULT_ELIMINATION_BUDGET; it is
            refused before it starts.
    """
    if max_solutions is not None:
        max_solutions = checked_budget(max_solutions, "max_solutions")
    node_list = [ctx.check_unit(v) for v in nodes]
    value_list = [ctx.check_unit(v) for v in values]
    if len(node_list) != len(value_list):
        raise ValueError("nodes and values must have the same length")
    if len(set(node_list)) != len(node_list):
        raise ValueError("nodes must be distinct")
    n, width = ctx.n, ctx.d + 1
    price = _elimination_price(len(node_list), width, n)
    if price > DEFAULT_ELIMINATION_BUDGET:
        raise BudgetExceeded(
            f"eliminating {len(node_list)} nodes at n={n} takes {price} one-word steps, "
            f"more than the elimination budget {DEFAULT_ELIMINATION_BUDGET} "
            "(solve.DEFAULT_ELIMINATION_BUDGET unless raised)"
        )
    pivots = _howell(_packed_rows(node_list, value_list, width, n), width, n)
    if pivots is None:
        return []
    exponents = [pivots[col][0] if col in pivots else n for col in range(width)]
    bits = sum(max(0, w - n + e) for w, e in zip(ctx.coeff_bits, exponents))
    if max_solutions is not None and 1 << bits > max_solutions:
        raise BudgetExceeded(f"more than {max_solutions} polynomials fit the table")
    fits = _fits(pivots, exponents, ctx)
    if len(fits) != 1 << bits:
        raise RuntimeError("the fits missed their count from the Howell form")
    return [ReducedPoly._made(coeffs, n) for coeffs in sorted(fits)]


def invert_permutation(poly, ctx: Context) -> ReducedPoly:
    """Canonical polynomial inducing the inverse permutation.

    Finds the preimage of each standard node c by two-adic Newton
    iteration x <- x - (p(x) - c) / p'(x), starting from x = c (poly's
    _lifted). The permutation test makes p' odd at every odd x, so a root
    right to ceil(m/2) bits is one step from a root right to m bits. The
    steps climb the ladder m = 2, ..., ceil(n/2), n of the module notes,
    each reading p modulo 2**m and p' modulo 2**ceil(m/2) off one tree of
    p's class heads. The preimages are then fitted, and the result is
    checked by composition: p itself is evaluated at every fitted
    preimage, at full precision, through the same tree.

    Raises:
        NotAPermutation: the polynomial does not permute the odd residues.
    """
    if not induces_permutation_on_units(poly):
        raise NotAPermutation("polynomial does not permute the odd residues")
    coeffs = _coeffs_for(poly, ctx)
    nodes = ctx.interpolation_nodes
    tree = _head_tree(coeffs, ctx.n, _tree_depth(len(coeffs), ctx.n))
    preimages = _lifted(tree, nodes, ctx.n)
    inverse = _fit_nodes(preimages, ctx)
    if _head_values(tree, _node_values(inverse, ctx)) != list(nodes):
        raise RuntimeError("inverse failed its composition check")
    return inverse


def multiplicative_inverse(poly, ctx: Context) -> ReducedPoly:
    """Canonical polynomial for the pointwise inverse 1/p on odd residues.

    The inverse of a function into the odd residues is again a polynomial
    function (the function group has two-power order), so inverting the
    d+1 node values, all for the price of one unit_inverse, and fitting
    them recovers its canonical form.

    Raises:
        NotAUnitFunction: some value of p is even.
    """
    if not induces_function_on_units(poly):
        raise NotAUnitFunction("polynomial does not map odd residues to odd residues")
    return _fit_nodes(unit_inverses(_node_values(poly, ctx), ctx.n), ctx)


def multiply_reduced(p: ReducedPoly, s: ReducedPoly, ctx: Context) -> ReducedPoly:
    """Product in the group of canonical forms: the pointwise product of
    the operands' values at the standard nodes, fitted and reduced."""
    if not isinstance(p, ReducedPoly) or not isinstance(s, ReducedPoly):
        raise ValueError("multiply_reduced needs two canonical polynomials")
    polys = [_coeffs_for(p, ctx), _coeffs_for(s, ctx)]
    at_p, at_s = _values_at(polys, ctx.interpolation_nodes, ctx.n)
    return _fit_nodes([(a * b) & ctx.mask for a, b in zip(at_p, at_s)], ctx)
