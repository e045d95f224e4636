"""Integer polynomials and their canonical forms modulo 2**n.

A polynomial with integer coefficients induces a function on the odd
residues by evaluation modulo 2**n. Among all polynomials inducing the
same function there is exactly one with degree at most d_n whose i-th
coefficient lies below 2**(n-i-t_i); that representative is ReducedPoly.
This module holds the two polynomial types, the rewriting ideal, the one
road from node values to canonical forms (_node_values, _fit_nodes),
parity tests for what a polynomial does to the odd residues (or the
whole ring), and the gluing that welds two functions into one polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .context import Context, coeff_widths, two_adic_factorial_valuation, unit_inverse
from .errors import BudgetExceeded, InconsistentTable, NotAPermutation

INDICATOR_BUDGET = 1 << 20  # largest unit-indicator exponent that gluing will build


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
        object.__setattr__(self, "coeffs", _trimmed(tuple(int(c) for c in self.coeffs)))

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
        n = int(self.n)
        if n < 2:
            raise ValueError(f"modulus exponent must be at least 2, got {n}")
        widths = coeff_widths(n)
        coeffs = _trimmed(tuple(int(c) for c in self.coeffs))
        if len(coeffs) > len(widths):
            raise ValueError(
                f"degree {len(coeffs) - 1} exceeds the cap {len(widths) - 1} for n={n}"
            )
        coeffs += (0,) * (len(widths) - len(coeffs))
        for i, (c, bits) in enumerate(zip(coeffs, widths)):
            if not 0 <= c < 1 << bits:
                raise ValueError(
                    f"coefficient {c} at degree {i} is outside [0, {1 << bits}) for n={n}"
                )
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "n", n)

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
    return tuple(int(c) for c in poly)


def parse_poly(text: str) -> IntPoly:
    """Parse the comma-separated coefficient format, lowest degree first.

    Negative coefficients are accepted; they are normalized when the
    polynomial enters a modular operation.
    """
    pieces = [piece.strip() for piece in text.split(",")]
    if pieces == [""]:
        raise ValueError("empty polynomial text")
    try:
        return IntPoly(tuple(int(piece) for piece in pieces))
    except ValueError as exc:
        raise ValueError(f"bad polynomial text {text!r}: {exc}") from None


def format_poly(coeffs: Iterable[int]) -> str:
    """Comma-separated decimal coefficients, trailing zeros trimmed."""
    out = _trimmed([int(c) for c in coeffs])
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
    residues at all) and the odd-indexed coefficient sum odd.
    """
    coeffs = _as_coeffs(poly)
    return sum(coeffs) & 1 == 1 and sum(coeffs[1::2]) & 1 == 1


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


def ideal_generators(ctx: Context) -> tuple[IntPoly, ...]:
    """The d+2 generators of the rewriting ideal, cached on the context.

    Index 0 holds the literal constant 2**n. Index i, for 1 <= i <= d,
    holds 2**(n-i-t_i) * (x+1)(x+3)...(x+2i-1) with coefficients reduced
    modulo 2**n. The last entry is the monic degree-(d+1) product, which
    vanishes on every odd residue; reduce folds with indices 1..d only.
    """
    if ctx._generator_cache is not None:
        return ctx._generator_cache
    mask = ctx.mask
    gens = [IntPoly((ctx.modulus,))]
    prod = [1]
    for i in range(1, ctx.d + 2):
        root = 2 * i - 1
        new = [0] * (len(prod) + 1)
        for j, c in enumerate(prod):
            new[j] = (new[j] + c * root) & mask
            new[j + 1] = (new[j + 1] + c) & mask
        prod = new
        if i <= ctx.d:
            scale = 1 << ctx.coeff_bits[i]
            gens.append(IntPoly(tuple((c * scale) & mask for c in prod)))
        else:
            gens.append(IntPoly(tuple(prod)))
    ctx._generator_cache = tuple(gens)
    return ctx._generator_cache


def _node_values(poly, ctx: Context) -> list[int]:
    """Values of the induced function at the standard nodes 1, 3, ..., 2d+1."""
    coeffs = _coeffs_for(poly, ctx)
    return [_eval_masked(coeffs, x, ctx.mask) for x in ctx.interpolation_nodes]


def _fit_nodes(vals: list[int], ctx: Context) -> ReducedPoly:
    """The canonical polynomial taking the values vals at 1, 3, ..., 2d+1:
    the fit, then the fold into range."""
    return _fold(_fit(vals, ctx), ctx)


def _fit(vals: list[int], ctx: Context) -> list[int]:
    """The d+1 monomial coefficients, in [0, 2**n) but not yet folded into
    range, of a polynomial taking the values vals at 1, 3, ..., 2d+1.

    The values count modulo 2**n. The k-th step-2 difference at 1 is
    2**(k + t_k) * odd(k!) times the k-th Newton coefficient, or
    InconsistentTable is raised; Horner's rule then converts the Newton
    form to monomials."""
    mask = ctx.mask
    scaled = []  # the k-th difference over 2**(k + t_k), that is odd(k!) * newton[k]
    for k in range(ctx.d + 1):
        exponent = ctx.n - ctx.coeff_bits[k]  # k + t_k
        diff = vals[0]
        if diff & ((1 << exponent) - 1):
            raise InconsistentTable(
                f"no polynomial function fits: 2**{exponent} does not divide "
                f"{diff} at degree {k}"
            )
        scaled.append(diff >> exponent)
        vals = [(b - a) & mask for a, b in zip(vals, vals[1:])]
    # one inverse, of odd(d!); odd((k-1)!)**-1 = odd(k!)**-1 * odd(k) sweeps it down
    inverse = unit_inverse(math.factorial(ctx.d) >> two_adic_factorial_valuation(ctx.d), ctx.n)
    coeffs = []
    for k in range(ctx.d, -1, -1):
        # coeffs <- coeffs * (x - (2k+1)) + newton[k]
        newton = (scaled[k] * inverse) & mask
        if k:
            inverse = (inverse * (k >> ((k & -k).bit_length() - 1))) & mask
        root = 2 * k + 1
        coeffs = [(lo - root * hi) & mask for lo, hi in zip([newton] + coeffs, coeffs + [0])]
    return coeffs


def _fold(coeffs: list[int], ctx: Context) -> ReducedPoly:
    """Canonical form of d+1 coefficients in [0, 2**n): from index d down to 1, subtract
    the scaled generator (an ideal member, so the function stays) that brings each into range."""
    mask = ctx.mask
    gens = ideal_generators(ctx)
    for i in range(ctx.d, 0, -1):
        q = coeffs[i] >> ctx.coeff_bits[i]
        if q:
            gen = gens[i].coeffs
            for j in range(i + 1):
                coeffs[j] = (coeffs[j] - q * gen[j]) & mask
    return ReducedPoly(tuple(coeffs), ctx.n)


def reduce(poly, ctx: Context) -> ReducedPoly:
    """Canonical form of the function the polynomial induces modulo 2**n.

    Any integer polynomial is accepted; coefficients are first normalized
    into [0, 2**n). Above degree d it is replaced by the fit of its values
    at the standard nodes, which fix the function on every odd residue;
    otherwise its coefficients are folded into range.
    """
    coeffs = _trimmed([c & ctx.mask for c in _as_coeffs(poly)])
    if len(coeffs) > ctx.d + 1:
        return _fit_nodes(_node_values(coeffs, ctx), ctx)
    return _fold(coeffs + [0] * (ctx.d + 1 - len(coeffs)), ctx)


def equivalent(p, t, ctx: Context) -> bool:
    """Do the two polynomials induce the same function on the odd residues?"""
    return reduce(p, ctx) == reduce(t, ctx)


def conjugate_to_nonunits(poly) -> IntPoly:
    """The polynomial h(x+1) - 1, exact over the integers.

    Conjugation by the shift x -> x+1 transports a map on odd residues to
    a map on even residues and back.
    """
    result = IntPoly()
    shift = IntPoly((1, 1))
    for c in reversed(_as_coeffs(poly)):
        result = result * shift + int(c)
    return result - 1


def _indicator_exponent(n: int) -> int:
    # smallest exponent e with a**e == 1 for every odd a modulo 2**n
    if n == 2:
        return 2
    if n == 3:
        return 4
    e = 1 << (n - 2)
    if e > INDICATOR_BUDGET:
        raise BudgetExceeded(
            f"the unit indicator x**(2**{n - 2}) exceeds the degree budget {INDICATOR_BUDGET}"
        )
    return e


def indicator_polys(ctx: Context) -> tuple[IntPoly, IntPoly]:
    """The pair (v0, v1): v0 is 1 on odd residues and 0 on even ones,
    v1 = 1 - v0 is its complement. v0 is the single monomial x**e with
    e the exponent of the unit group (odd residues power to 1, even ones
    power to 0 because e >= n). Raises BudgetExceeded when e = 2**(n-2)
    is above INDICATOR_BUDGET."""
    v0 = IntPoly((0,) * _indicator_exponent(ctx.n) + (1,))
    return v0, IntPoly((1,)) - v0


def glue_polynomial(p, h, ctx: Context) -> IntPoly:
    """One polynomial acting as p on odd residues and as the conjugate of
    h on even residues.

    Built as h' + (p - h') * v0 where h' = h(x+1) - 1 and v0 is the unit
    indicator: at odd x the indicator is 1 and the value is p(x), at even
    x it is 0 and the value is h'(x). Since v0 is a monomial the product
    is just a shift. Raises BudgetExceeded when 2**(n-2) is above
    INDICATOR_BUDGET.
    """
    e = _indicator_exponent(ctx.n)
    if not induces_permutation_on_units(p):
        raise NotAPermutation("first argument does not permute the odd residues")
    if not induces_permutation_on_units(h):
        raise NotAPermutation("second argument does not permute the odd residues")
    hp = conjugate_to_nonunits(h)
    diff = IntPoly(_as_coeffs(p)) - hp
    return hp + diff.shifted(e)


def bivariate_quasigroup_check(coeff_matrix: Sequence[Sequence[int]], n: int) -> bool:
    """Does P(x, y) define a quasigroup on Z_{2**n}?

    coeff_matrix[i][j] is the coefficient of x**i y**j. The criterion is
    that the four specializations P(x,0), P(x,1), P(0,y), P(1,y) each
    permute the ring; a constant specialization means the answer is no.
    """
    if n < 2:
        raise ValueError("modulus exponent must be at least 2")
    rows = [tuple(int(c) for c in row) for row in coeff_matrix]
    if not rows:
        return False
    width = max(len(row) for row in rows)
    rows = [row + (0,) * (width - len(row)) for row in rows]
    specializations = (
        tuple(row[0] for row in rows),             # P(x, 0)
        tuple(sum(row) for row in rows),           # P(x, 1)
        rows[0],                                   # P(0, y)
        tuple(sum(col) for col in zip(*rows)),     # P(1, y)
    )
    for coeffs in specializations:
        poly = IntPoly(coeffs)
        if poly.degree is None or poly.degree < 1:
            return False
        if not rivest_permutes_ring(poly):
            return False
    return True
