"""Interpolation and both kinds of inversion modulo 2**n.

Each problem shape has one solver. Every solver at the standard nodes
1, 3, ..., 2d+1 hands its node values to poly's _fit_nodes, the one way
to a canonical form that reduce also takes. Multiplicative inverses and
products compute their node values pointwise from poly's _node_values,
inverting all of them with a single unit_inverse.

Inverse permutations find their node values, the preimages of the
nodes, by two-adic Newton iteration up a ladder of precisions m = 2, ...,
ceil(n/4), ceil(n/2), n. A step to precision m needs p only modulo 2**m
and the slope p' only modulo 2**ceil(m/2). Modulo 2**m a polynomial
function is fixed by its values at the first d_m + 1 nodes: the Newton
coefficients of the difference between p and the fit of those values
(poly's _fit, without the fold) all vanish modulo 2**m, so the fit
equals p on every odd residue. Below the top level each step therefore
runs over a fit of about m/2 terms instead of p, and the slope over a
fit of p' of about m/4 terms.

Arbitrary nodes can leave the system underdetermined, so they go through
row reduction. Two is a zero divisor modulo 2**n, so Gaussian elimination
cannot divide freely. Rows are combined using only three moves that
preserve the solution set exactly: adding an integer multiple of one row
to another, swapping rows, and rescaling a row by an odd unit. Picking
the pivot of minimal two-adic valuation in each column and normalizing
away its odd part leaves a pure power of two on the diagonal.
"""

from __future__ import annotations

from .context import Context, coeff_widths, unit_inverse, unit_inverses
from .errors import BudgetExceeded, NotAPermutation, NotAUnitFunction
from .poly import (
    ReducedPoly,
    _coeffs_for,
    _eval_masked,
    _fit,
    _fit_nodes,
    _node_values,
    evaluate,
    induces_function_on_units,
    induces_permutation_on_units,
)


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


def interpolate_at_nodes(nodes, values, ctx: Context, *, max_solutions: int | None = None) -> list[ReducedPoly]:
    """Every canonical polynomial agreeing with a table on arbitrary odd nodes.

    The nodes must be distinct odd residues, values odd residues. The
    system may be underdetermined, in which case free coefficients sweep
    their whole range and partially pinned ones branch over the residue
    classes the pivot power leaves open; the result is the complete
    (possibly empty) solution set, sorted by coefficient vector.

    Args:
        max_solutions: optional cap; exceeding it raises BudgetExceeded
            instead of enumerating an enormous set.
    """
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


def _ladder(n: int) -> list[int]:
    """The Newton precisions 2, ..., ceil(n/4), ceil(n/2), n, ascending:
    each level starts from a root right to the ceiling of half its bits."""
    levels = [n]
    while levels[-1] > 2:
        levels.append((levels[-1] + 1) // 2)
    return levels[::-1]


def invert_permutation(poly, ctx: Context) -> ReducedPoly:
    """Canonical polynomial inducing the inverse permutation.

    Finds the preimage of each standard node c by two-adic Newton
    iteration x <- x - (p(x) - c) / p'(x), starting from x = c. The
    permutation test makes p' odd at every odd x, so a root right to
    ceil(m/2) bits is one step from a root right to m bits. The steps
    climb the ladder m = 2, ..., ceil(n/2), n of the module notes: below
    the top level p is replaced by the fit of its node values read modulo
    2**m, at every level p' by the fit of its node values read modulo
    2**ceil(m/2), and a slope modulo 2 is 1. The preimages are then
    fitted, and the result is checked by composition: p itself is
    evaluated at every fitted preimage, at full precision.

    Raises:
        NotAPermutation: the polynomial does not permute the odd residues.
    """
    if not induces_permutation_on_units(poly):
        raise NotAPermutation("polynomial does not permute the odd residues")
    coeffs = _coeffs_for(poly, ctx)
    mask = ctx.mask
    nodes = ctx.interpolation_nodes
    # p and p' at as many nodes as the widest fit reads, d + 1 for precision ceil(n/2)
    node_values, node_slopes = [], []
    for c in nodes[: len(coeff_widths((ctx.n + 1) // 2))]:
        value = slope = 0
        for a in reversed(coeffs):
            slope = (slope * c + value) & mask
            value = (value * c + a) & mask
        node_values.append(value)
        node_slopes.append(slope)
    preimages = list(nodes)
    for m in _ladder(ctx.n):
        if m < ctx.n:
            m_ctx = Context(m, max_n=ctx.n)
            level_poly = _fit(node_values[: m_ctx.d + 1], m_ctx)
        else:
            level_poly = coeffs
        half = (m + 1) // 2
        if half > 1:
            half_ctx = Context(half, max_n=ctx.n)
            derivative = _fit(node_slopes[: half_ctx.d + 1], half_ctx)
            slopes = [_eval_masked(derivative, x, half_ctx.mask) for x in preimages]
            inverses = unit_inverses(slopes, half)
        else:
            inverses = [1] * len(preimages)  # p' is odd
        level_mask = (1 << m) - 1
        preimages = [
            (x - (_eval_masked(level_poly, x, level_mask) - c) * inverse) & level_mask
            for x, c, inverse in zip(preimages, nodes, inverses)
        ]
    inverse = _fit_nodes(preimages, ctx)
    for x, y in zip(nodes, _node_values(inverse, ctx)):
        if evaluate(poly, y, ctx) != x:
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
