"""Deliberately naive reference implementations for testing.

Everything here recomputes results from first principles: factorials are
built and factored literally, polynomial values accumulate term by term
with plain powering and generic modulo (no Horner, no masking), and
counting is done by exhaustive enumeration. Canonical forms come from
rewriting by the ideal generators, rebuilt on every call, where the
library fits node values; inverse permutations come from full-length
Newton steps at each node, where the library climbs a precision ladder.
Nothing calls the library's evaluation or rewriting code, so agreement
between the two routes is meaningful evidence.
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
    """Two-adic valuation of i!, by literally factoring the factorial."""
    f = math.factorial(i)
    count = 0
    while f % 2 == 0:
        f //= 2
        count += 1
    return count


def oracle_max_reduced_degree(n: int) -> int:
    """Largest i with n - i - (valuation of i!) positive, by direct scan."""
    best = 0
    for i in range(2 * n + 2):
        if n - i - oracle_factorial_valuation(i) > 0:
            best = i
    return best


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
