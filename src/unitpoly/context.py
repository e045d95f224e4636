"""Shared constants for arithmetic modulo 2**n.

Everything downstream keys off one integer table, coeff_widths(n): the
slot widths n - i - t_i of a canonical coefficient vector, t_i being the
two-adic valuation of i!. Its last index is d_n, the degree cap, and its
sum counts the polynomial functions. A Context bundles it with the modulus.
The inverse of an odd residue lives here too, below every module that
needs it (residue re-exports it as its public home).
"""

from __future__ import annotations

import functools
import itertools

DEFAULT_MAX_N = 4096


def two_adic_factorial_valuation(i: int) -> int:
    """Exponent of the largest power of two dividing i! (Legendre's formula).

    Args:
        i: a non-negative integer.

    Returns:
        The sum of floor(i / 2**k) over k >= 1, which in base two is i
        minus the number of one bits of i.
    """
    if i < 0:
        raise ValueError("factorial valuation needs i >= 0")
    return i - i.bit_count()


def max_reduced_degree(n: int) -> int:
    """Largest i with n - i - t_i > 0, the degree cap for canonical forms."""
    if n < 1:
        raise ValueError("modulus exponent must be positive")
    return len(coeff_widths(n)) - 1


def unit_inverse(a: int, n: int) -> int:
    """Multiplicative inverse of an odd residue modulo 2**n.

    Every odd a satisfies a*a == 1 modulo 8, so a is its own inverse to
    three bits; the step x <- x*(2 - a*x) doubles the bits that are right.
    That makes about log2(n/3) steps of two n-bit products each.
    """
    if n < 1:
        raise ValueError("modulus exponent must be positive")
    mask = (1 << n) - 1
    a = int(a) & mask
    if a & 1 == 0:
        raise ValueError("only odd residues are invertible modulo 2**n")
    inv = a
    bits = 3
    while bits < n:
        inv = (inv * (2 - a * inv)) & mask
        bits *= 2
    return inv


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
    lies in [0, 2**coeff_widths(n)[i]). i + t_i strictly increases, so the
    widths are one upward scan, cut at the first that is not positive."""
    scan = (n - i - two_adic_factorial_valuation(i) for i in itertools.count())
    return tuple(itertools.takewhile(lambda width: width > 0, scan))


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
        if n < 2:
            raise ValueError(f"modulus exponent must be at least 2, got {n}")
        if n > max_n:
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
        a = int(a)
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
