"""Deliberately naive reference implementations for testing.

Everything here recomputes results from first principles: factorials are
built and factored literally, polynomial values accumulate term by term
with plain powering and generic modulo (no Horner, no masking), and
counting is done by exhaustive enumeration, or, for the census counts,
by scanning those literal valuations where the library uses closed forms
in popcounts. Canonical forms come from rewriting by the ideal
generators, rebuilt on every call, where the library fits node values,
and the triangular solve from Newton coefficients reads every entry of
its table off a closed sum, where the library climbs rows by recurrence;
inverse permutations come from full-length Newton steps at each node,
where the library climbs a precision ladder, and roots grow one bit at a
time, where the library lifts them a ladder level at a time. Nothing
calls the library's evaluation or rewriting code, so agreement between
the two routes is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Literal

from .errors import BudgetExceeded
from .poly import ReducedPoly  # data type only; construction revalidates ranges

EVAL_BUDGET_N = 12
ENUM_BUDGET_N = 6


def oracle_factorial_valuation(i: int) -> int:
    """Two-adic valuation of i!, read off the literal factorial's trailing zero bits."""
    f = math.factorial(i)
    return (f & -f).bit_length() - 1


def oracle_max_reduced_degree(n: int) -> int:
    """Largest i with n - i - (valuation of i!) positive, by direct scan."""
    best = 0
    for i in range(2 * n + 2):
        if n - i - oracle_factorial_valuation(i) > 0:
            best = i
    return best


def oracle_count_reduced(n: int) -> int:
    """log2 of the number of polynomial functions on the odd residues: the
    positive widths n - i - (valuation of i!), summed by direct scan, less
    one bit for the parity that keeps odd residues odd."""
    return sum(max(0, n - i - oracle_factorial_valuation(i)) for i in range(n)) - 1


def oracle_keller_exponent(n: int) -> int:
    """3 plus the sum over 3 <= j <= n of the smallest s with 2**j dividing
    s!, each threshold found by walking s up and factoring s! afresh."""
    total = 3
    s, valuation = 1, 0
    for j in range(3, n + 1):
        while valuation < j:
            s += 1
            valuation = oracle_factorial_valuation(s)
        total += s
    return total


def oracle_reduce(poly, n: int) -> ReducedPoly:
    """Canonical form by remainder, then fold, with freshly built generators.

    B_i = (x+1)(x+3)...(x+2i-1) is multiplied out exactly for i <= d+1.
    While the degree exceeds d, the leading term times the monic B_{d+1}
    is subtracted; then a pass from d down to 1 subtracts the multiple of
    2**(n-i-t_i) * B_i that brings slot i into its range. Each step takes
    away a polynomial that vanishes on the odd residues modulo 2**n.
    """
    modulus = 2**n
    d = oracle_max_reduced_degree(n)
    products = [[1]]
    for i in range(1, d + 2):
        prev = [0] + products[-1] + [0]
        products.append([lo * (2 * i - 1) + hi for lo, hi in zip(prev[1:], prev)])
    coeffs = [int(c) % modulus for c in getattr(poly, "coeffs", poly)]
    monic = products[d + 1]
    while len(coeffs) > d + 1:
        top = coeffs.pop()
        offset = len(coeffs) - (d + 1)
        for j in range(d + 1):
            coeffs[offset + j] = (coeffs[offset + j] - top * monic[j]) % modulus
    coeffs += [0] * (d + 1 - len(coeffs))
    for i in range(d, 0, -1):
        scale = 2 ** (n - i - oracle_factorial_valuation(i))
        q = coeffs[i] // scale
        for j in range(i + 1):
            coeffs[j] = (coeffs[j] - q * scale * products[i][j]) % modulus
    return ReducedPoly(tuple(coeffs), n)


def oracle_newton_of_power(i: int, k: int) -> int:
    """T(i, k), the coefficient of (x-1)(x-3)...(x-2k+1) when x**i is
    written in that Newton basis: the complete homogeneous symmetric
    polynomial h_{i-k}(a_0, ..., a_k) of the nodes a_j = 2j+1, which equals
    sum_j a_j**i / prod_{l != j} (a_j - a_l). The terms are summed one by
    one over the common denominator 2**k * k!, where the j-th is weighted
    by (-1)**(k-j) * C(k, j), and the quotient is checked to be exact."""
    if i < k:
        return 0
    total = sum((-1) ** (k - j) * math.comb(k, j) * (2 * j + 1) ** i for j in range(k + 1))
    quotient, remainder = divmod(total, 2**k * math.factorial(k))
    if remainder:
        raise ArithmeticError(f"the divided difference T({i}, {k}) is not an integer")
    return quotient


def oracle_solve(newton, n: int) -> list[int]:
    """The canonical coefficients of the function whose k-th Newton
    coefficient is newton[k], for k <= d: from i = d down, coefficient i
    is newton[i] - sum_{j > i} r_j T(j, i) modulo 2**(n - i - t_i), with
    every T(j, i) from oracle_newton_of_power."""
    d = oracle_max_reduced_degree(n)
    r = [0] * (d + 1)
    for i in range(d, -1, -1):
        rest = newton[i] - sum(r[j] * oracle_newton_of_power(j, i) for j in range(i + 1, d + 1))
        r[i] = rest % 2 ** (n - i - oracle_factorial_valuation(i))
    return r


def oracle_preimages(poly, n: int) -> list[int]:
    """Preimages of the standard nodes 1, 3, ..., 2d+1 under a permutation
    of the odd residues modulo 2**n, one node at a time.

    Newton's step x <- x - (p(x) - c) / p'(x) starts from x = c and
    doubles its precision up to n; every step sums all terms of p and of
    its derivative with plain powering and generic modulo, and inverts
    the slope with pow. A slope that is not a unit raises ValueError.
    """
    coeffs = [int(c) for c in getattr(poly, "coeffs", poly)]
    preimages = []
    for c in range(1, 2 * oracle_max_reduced_degree(n) + 2, 2):
        x = c
        precision = 1
        while precision < n:
            precision = min(2 * precision, n)
            modulus = 2**precision
            value = sum(a * pow(x, i, modulus) for i, a in enumerate(coeffs)) % modulus
            slope = sum(i * a * pow(x, i - 1, modulus) for i, a in enumerate(coeffs) if i) % modulus
            x = (x - (value - c) * pow(slope, -1, modulus)) % modulus
        preimages.append(x)
    return preimages


def oracle_roots(poly, n: int, branch_limit: int = 1 << 12) -> list[int]:
    """All roots of the polynomial modulo 2**n, ascending, grown one bit at
    a time: each root modulo 2**k is extended by both choices of bit k, and
    those that are roots modulo 2**(k+1) are kept. Every value sums all
    terms with plain powering and generic modulo. More than branch_limit
    roots modulo some 2**(k+1) raise BudgetExceeded."""
    coeffs = [int(c) for c in getattr(poly, "coeffs", poly)]
    roots = [0]
    for k in range(n):
        modulus = 2 ** (k + 1)
        roots = [
            x
            for r in roots
            for x in (r, r + 2**k)
            if sum(a * pow(x, i, modulus) for i, a in enumerate(coeffs)) % modulus == 0
        ]
        if len(roots) > branch_limit:
            raise BudgetExceeded(f"oracle root search is capped at {branch_limit} roots per bit")
    return sorted(roots)


@dataclass(frozen=True)
class FunctionTable:
    """Value vector of an induced function over a full domain.

    For domain "units" the points are 1, 3, ..., 2**n - 1 in order; for
    "ring" they are 0, 1, ..., 2**n - 1.
    """

    n: int
    domain: Literal["units", "ring"]
    values: tuple[int, ...]

    def points(self) -> range:
        if self.domain == "units":
            return range(1, 2**self.n, 2)
        return range(2**self.n)


def oracle_function_of(poly, n: int, domain: Literal["units", "ring"] = "units") -> FunctionTable:
    """Evaluate at every domain point, term by term, with generic modulo."""
    if n > EVAL_BUDGET_N:
        raise BudgetExceeded(f"oracle evaluation is capped at n <= {EVAL_BUDGET_N}")
    if domain not in ("units", "ring"):
        raise ValueError(f"unknown domain {domain!r}")
    coeffs = [int(c) for c in getattr(poly, "coeffs", poly)]
    modulus = 2**n
    points = range(1, modulus, 2) if domain == "units" else range(modulus)
    values = []
    for a in points:
        total = 0
        power = 1
        for c in coeffs:
            total = (total + c * power) % modulus
            power = (power * a) % modulus
        values.append(total)
    return FunctionTable(n, domain, tuple(values))


def oracle_enumerate_reduced(n: int) -> Iterator[ReducedPoly]:
    """Every syntactically valid canonical vector, in lexicographic order.

    Membership in the function or permutation classes is not filtered
    here; callers test the parities they care about.
    """
    if n > ENUM_BUDGET_N:
        raise BudgetExceeded(f"oracle enumeration is capped at n <= {ENUM_BUDGET_N}")
    d = oracle_max_reduced_degree(n)
    bounds = [2 ** (n - i - oracle_factorial_valuation(i)) for i in range(d + 1)]
    for combo in itertools.product(*[range(b) for b in bounds]):
        yield ReducedPoly(combo, n)


def oracle_is_permutation(table: FunctionTable) -> bool:
    """The values are exactly the domain points, each hit once."""
    return set(table.values) == set(table.points())


def oracle_is_unit_valued(table: FunctionTable) -> bool:
    """Every value odd."""
    return all(v % 2 == 1 for v in table.values)


def oracle_bivariate_table(coeff_matrix, n: int) -> list[list[int]]:
    """Full operation table of a two-variable polynomial over the ring.

    Entry [x][y] is the value at (x, y), computed term by term.
    """
    if n > EVAL_BUDGET_N:
        raise BudgetExceeded(f"oracle evaluation is capped at n <= {EVAL_BUDGET_N}")
    modulus = 2**n
    rows = [[int(c) for c in row] for row in coeff_matrix]
    table = []
    for x in range(modulus):
        line = []
        for y in range(modulus):
            total = 0
            xpow = 1
            for row in rows:
                ypow = 1
                for c in row:
                    total = (total + c * xpow * ypow) % modulus
                    ypow = (ypow * y) % modulus
                xpow = (xpow * x) % modulus
            line.append(total)
        table.append(line)
    return table


def oracle_is_latin_square(table) -> bool:
    """Each row and each column hits every symbol exactly once."""
    size = len(table)
    symbols = set(range(size))
    for row in table:
        if set(row) != symbols:
            return False
    for col in zip(*table):
        if set(col) != symbols:
            return False
    return True
