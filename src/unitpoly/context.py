"""Shared constants for arithmetic modulo 2**n.

Everything downstream keys off one integer table, coeff_widths(n): the
slot widths n - i - t_i of a canonical coefficient vector, t_i being the
two-adic valuation of i!, that is i - popcount(i). Its last index is d_n,
the degree cap, which max_reduced_degree finds in O(log n) steps without
the table (census sums the table in closed form the same way); the table
is then n - 2i + popcount(i) for i up to d_n, one map at C speed. A
Context bundles the table with the modulus. checked_indices checks a
whole coefficient vector in one pass, as checked_index does one value.
The inverse of an odd residue lives here too, below every module that
needs it (residue re-exports it as its public home), and so does the one
ladder of Newton precisions, _ladder, that it climbs, as do poly's
preimage lift and residue's root search.
"""

from __future__ import annotations

import functools
import operator

DEFAULT_MAX_N = 4096


def two_adic_factorial_valuation(i: int) -> int:
    """Exponent of the largest power of two dividing i! (Legendre's formula).

    Args:
        i: a non-negative integer.

    Returns:
        The sum of floor(i / 2**k) over k >= 1, which in base two is i
        minus the number of one bits of i.
    """
    if checked_index(i) < 0:
        raise ValueError("factorial valuation needs i >= 0")
    return i - i.bit_count()


def checked_index(value) -> int:
    """value as an int, by operator.index: an int or a bool passes, and a
    float, a string or anything else is a ValueError naming it, never
    truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{value!r} is not an integer") from None


def checked_indices(values) -> tuple[int, ...]:
    """Each of values as an int, as checked_index takes it, in one pass of
    operator.index at C speed; only when that fails does a second pass,
    by checked_index, find the first non-integer and name it."""
    values = tuple(values)  # the object itself for a tuple, so an iterator is read once
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        return tuple(map(checked_index, values))


def checked_budget(value, name: str) -> int:
    """value as an int (checked_index); a negative budget is a ValueError naming it."""
    value = checked_index(value)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def max_reduced_degree(n: int) -> int:
    """Largest i with n - i - t_i > 0, the degree cap for canonical forms.

    i + t_i = 2i - popcount(i) rises by 1 + v_2(i + 1) per step of i, and
    it is below n at i = (n - 1) // 2; the cap is at most about log2(n) / 2
    steps above that, so no width table is built.
    """
    if checked_index(n) < 1:
        raise ValueError("modulus exponent must be positive")
    i = (n - 1) // 2
    while 2 * i + 2 - (i + 1).bit_count() < n:
        i += 1
    return i


@functools.lru_cache(maxsize=64)  # unit_inverse climbs it on every call: 0.4-0.9 us a build
def _ladder(n: int) -> tuple[int, ...]:
    """The Newton precisions 2, ..., ceil(n/4), ceil(n/2), n, ascending:
    each level starts from a root right to the ceiling of half its bits."""
    levels = [n]
    while levels[-1] > 2:
        levels.append((levels[-1] + 1) // 2)
    return tuple(reversed(levels))


def unit_inverse(a: int, n: int) -> int:
    """Multiplicative inverse of an odd residue modulo 2**n.

    For odd a, (3*a) XOR 2 is already an inverse modulo 32, as the sixteen
    odd residues modulo 32 show, and the step x <- x*(2 - a*x) doubles the
    bits that are right. The steps climb the _ladder's levels above five
    bits, each step working modulo 2**m of its level m alone. So the
    products grow with the precision, only the last step is at full width,
    and the whole costs about two n-bit products.
    """
    if checked_index(n) < 1:
        raise ValueError("modulus exponent must be positive")
    mask = (1 << n) - 1
    a = checked_index(a) & mask
    if a & 1 == 0:
        raise ValueError("only odd residues are invertible modulo 2**n")
    inv = (3 * a ^ 2) & 31
    for m in _ladder(n):
        if m > 5:
            low = (1 << m) - 1
            inv = (inv * (2 - (a & low) * inv)) & low
    return inv & mask


def unit_inverses(values, n: int) -> list[int]:
    """unit_inverse of each value, for the price of one (Montgomery's trick).

    The prefix products a_0, a_0*a_1, ... are inverted once as a whole;
    a backward sweep then peels one factor off at a time: the inverse of
    a_i is the inverse of the prefix up to i times the prefix before i.
    """
    mask = (1 << n) - 1
    values = [int(a) & mask for a in values]
    prefixes = []
    acc = 1
    for a in values:
        prefixes.append(acc)
        acc = (acc * a) & mask
    inv = unit_inverse(acc, n)  # a ValueError unless every value is odd
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = (inv * prefixes[i]) & mask
        inv = (inv * values[i]) & mask
    return out


@functools.lru_cache(maxsize=64)
def coeff_widths(n: int) -> tuple[int, ...]:
    """Widths n - i - t_i, i <= d_n: canonical coefficient i modulo 2**n
    lies in [0, 2**coeff_widths(n)[i]); () for n <= 0. i + t_i strictly
    increases, so the positive widths are those up to max_reduced_degree,
    n - 2i + popcount(i) each, in one map over i."""
    if n < 1:
        return ()
    d = max_reduced_degree(n)
    return tuple(map(operator.add, range(n, n - 2 * d - 1, -2), map(int.bit_count, range(d + 1))))


class Context:
    """Precomputed tables for one modulus 2**n.

    Instances are never mutated after construction and are safe to share.

    Attributes:
        n: the modulus exponent.
        modulus: 2**n.
        mask: 2**n - 1, used to reduce with a single AND.
        d: the degree cap d_n for canonical polynomials.
        coeff_bits: coeff_widths(n); coefficient i of a canonical
            polynomial lies in [0, 2**coeff_bits[i]).
    """

    def __init__(self, n: int, max_n: int = DEFAULT_MAX_N):
        if checked_index(n) < 2:
            raise ValueError(f"modulus exponent must be at least 2, got {n}")
        if n > checked_index(max_n):
            raise ValueError(f"modulus exponent {n} exceeds the ceiling {max_n}")
        self.n = n
        self.modulus = 1 << n
        self.mask = self.modulus - 1
        self.coeff_bits = coeff_widths(n)
        self.d = len(self.coeff_bits) - 1

    def units(self) -> range:
        """The odd residues modulo 2**n, ascending."""
        return range(1, self.modulus, 2)

    def ring(self) -> range:
        """All residues modulo 2**n, ascending."""
        return range(self.modulus)

    @property
    def interpolation_nodes(self) -> range:
        """The d+1 consecutive odd nodes 1, 3, ..., 2d+1."""
        return range(1, 2 * self.d + 2, 2)

    def check_residue(self, a: int) -> int:
        a = checked_index(a)
        if not 0 <= a < self.modulus:
            raise ValueError(f"{a} is not a residue modulo 2**{self.n}")
        return a

    def check_unit(self, a: int) -> int:
        a = self.check_residue(a)
        if a & 1 == 0:
            raise ValueError(f"{a} is even, not a unit modulo 2**{self.n}")
        return a

    def __repr__(self) -> str:
        return f"Context(n={self.n})"
