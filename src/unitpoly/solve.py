"""Interpolation and both kinds of inversion modulo 2**n.

Each problem shape has one solver. Every solver at the standard nodes
1, 3, ..., 2d+1 hands its node values to poly's _fit_nodes, which reads
their Newton coefficients off a difference table and ends in the
triangular solve that reduce also ends in. Multiplicative inverses and
products compute their node values pointwise from poly's _node_values,
inverting all of them with a single unit_inverse.

Inverse permutations find their node values, the preimages of the
nodes, through poly's one lift (_lifted): two-adic Newton iteration up a
ladder of precisions m = 2, ..., ceil(n/4), ceil(n/2), n (poly's
_ladder), where a step to precision m needs p only modulo 2**m and the
slope p' only modulo 2**ceil(m/2). Both come off one tree of p's class
heads (poly's _head_tree) at the depth s that poly's one depth rule picks
for the reads of the whole ladder (_tree_depth); at depth 0, for the
smallest n, the tree is the coefficients. p''s heads are taken off p's
once at ceil(n/2) (poly's _slope_tree). The composition check reads the
full tree. The one fit of the preimages is the only solve, and no step
builds a Context.

Arbitrary nodes can leave the system underdetermined, so they go through
row reduction. Two is a zero divisor modulo 2**n, so Gaussian elimination
cannot divide freely. Rows are combined using only three moves that
preserve the solution set exactly: adding an integer multiple of one row
to another, swapping rows, and rescaling a row by an odd unit. Picking
the pivot of minimal two-adic valuation in each column and normalizing
away its odd part leaves a pure power of two on the diagonal.
"""

from __future__ import annotations

import functools

from .context import Context, checked_budget, coeff_widths, unit_inverse, unit_inverses
from .errors import BudgetExceeded, NotAPermutation, NotAUnitFunction
from .poly import (
    ReducedPoly,
    _cheapest_depth,
    _coeffs_for,
    _fit_nodes,
    _head_tree,
    _head_values,
    _ladder,
    _lifted,
    _node_values,
    _tree_prices,
    evaluate,  # unused here; perfbench's self-test reads solve.evaluate
    induces_function_on_units,
    induces_permutation_on_units,
)

DEFAULT_SOLUTION_BUDGET = 1 << 12  # most fits interpolate_at_nodes enumerates by default
TREE_DEPTH_LIMIT = 7  # deepest inversion tree: 64 heads; 8 was no faster at n = 4096, 11 MiB more


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


def _vandermonde_rows(nodes, width: int, ctx: Context) -> list[list[int]]:
    mask = ctx.mask
    rows = []
    for node in nodes:
        row = [1]
        power = 1
        for _ in range(width - 1):
            power = (power * node) & mask
            row.append(power)
        rows.append(row)
    return rows


def _echelon(rows: list[list[int]], rhs: list[int], ctx: Context) -> list[tuple[int, int, int]]:
    """Row-reduce [rows | rhs] over Z_{2**n} in place.

    For each column the surviving entry of minimal two-adic valuation is
    swapped up, its odd part is cancelled by multiplying the row with the
    part's inverse, and every lower entry (whose valuation cannot be
    smaller) is cleared by subtracting an exact integer multiple.

    Returns:
        Pivot triples (row, column, exponent), in order; the pivot entry
        itself is 2**exponent. Columns without a pivot are free.
    """
    mask = ctx.mask
    height = len(rows)
    width = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(width):
        if rank == height:
            break
        best = -1
        best_val = ctx.n
        for i in range(rank, height):
            entry = rows[i][col]
            if entry:
                val = (entry & -entry).bit_length() - 1
                if val < best_val:
                    best, best_val = i, val
        if best < 0:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        rhs[rank], rhs[best] = rhs[best], rhs[rank]
        odd = rows[rank][col] >> best_val
        if odd != 1:
            inv = unit_inverse(odd, ctx.n)
            rows[rank] = [(inv * v) & mask for v in rows[rank]]
            rhs[rank] = (inv * rhs[rank]) & mask
        pivot_row = rows[rank]
        for i in range(rank + 1, height):
            entry = rows[i][col]
            if entry:
                m = entry >> best_val  # exact: best_val was minimal in this column
                rows[i] = [(x - m * y) & mask for x, y in zip(rows[i], pivot_row)]
                rhs[i] = (rhs[i] - m * rhs[rank]) & mask
        pivots.append((rank, col, best_val))
        rank += 1
    return pivots


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
    nodes, values, ctx: Context, *, max_solutions: int | None = DEFAULT_SOLUTION_BUDGET
) -> list[ReducedPoly]:
    """Every canonical polynomial agreeing with a table on arbitrary odd nodes.

    The nodes must be distinct odd residues, values odd residues. The
    system may be underdetermined, in which case free coefficients sweep
    their whole range and partially pinned ones branch over the residue
    classes the pivot power leaves open; the result is the complete
    (possibly empty) solution set, sorted by coefficient vector.

    Args:
        max_solutions: cap on the solution count, DEFAULT_SOLUTION_BUDGET
            unless given (None lifts it); exceeding it raises BudgetExceeded
            instead of enumerating an enormous set, and a negative one is
            a ValueError.
    """
    if max_solutions is not None:
        max_solutions = checked_budget(max_solutions, "max_solutions")
    node_list = [ctx.check_unit(v) for v in nodes]
    value_list = [ctx.check_unit(v) for v in values]
    if len(node_list) != len(value_list):
        raise ValueError("nodes and values must have the same length")
    if len(set(node_list)) != len(node_list):
        raise ValueError("nodes must be distinct")
    width = ctx.d + 1
    rows = _vandermonde_rows(node_list, width, ctx)
    rhs = list(value_list)
    pivots = _echelon(rows, rhs, ctx)
    for i in range(len(pivots), len(rows)):
        if rhs[i]:
            return []
    pivot_for_col = {col: (row, exponent) for row, col, exponent in pivots}
    mask = ctx.mask
    solutions: list[tuple[int, ...]] = []
    assignment = [0] * width

    def candidates(col: int) -> range:
        # values of coefficient col consistent with the ones above it
        bound = 1 << ctx.coeff_bits[col]
        if col not in pivot_for_col:
            return range(bound)
        row, exponent = pivot_for_col[col]
        acc = rhs[row]
        line = rows[row]
        for k in range(col + 1, width):
            acc = (acc - line[k] * assignment[k]) & mask
        if acc & ((1 << exponent) - 1):
            return range(0)
        return range(acc >> exponent, bound, 1 << (ctx.n - exponent))

    # depth-first over the columns, highest first; stack[i] feeds column width-1-i
    stack = [iter(candidates(width - 1))]
    while stack:
        col = width - len(stack)
        value = next(stack[-1], None)
        if value is None:
            stack.pop()
            continue
        assignment[col] = value
        if col:
            stack.append(iter(candidates(col - 1)))
            continue
        solutions.append(tuple(assignment))
        if max_solutions is not None and len(solutions) > max_solutions:
            raise BudgetExceeded(f"more than {max_solutions} polynomials fit the table")
    solutions.sort()
    return [ReducedPoly(coeffs, ctx.n) for coeffs in solutions]


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
    values = zip(_node_values(p, ctx), _node_values(s, ctx))
    return _fit_nodes([(a * b) & ctx.mask for a, b in values], ctx)
