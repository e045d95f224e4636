"""Shared constants for arithmetic modulo 2**n.

Everything downstream keys off two integer tables: t_i, the two-adic
valuation of i!, and d_n, the largest degree a canonical polynomial can
need modulo 2**n; coeff_widths turns them into the slot widths of a
canonical coefficient vector. A Context bundles those with the modulus.
"""

from __future__ import annotations

import functools

DEFAULT_MAX_N = 4096


@functools.lru_cache(maxsize=None)
def two_adic_factorial_valuation(i: int) -> int:
    """Exponent of the largest power of two dividing i! (Legendre's sum).

    Args:
        i: a non-negative integer.

    Returns:
        The sum of floor(i / 2**k) over k >= 1.
    """
    if i < 0:
        raise ValueError("factorial valuation needs i >= 0")
    total = 0
    power = 2
    while power <= i:
        total += i // power
        power *= 2
    return total


def max_reduced_degree(n: int) -> int:
    """Largest i with n - i - t_i > 0, the degree cap for canonical forms.

    Since i + t_i is strictly increasing, a single upward scan finds it.
    """
    if n < 1:
        raise ValueError("modulus exponent must be positive")
    i = 0
    while (i + 1) + two_adic_factorial_valuation(i + 1) < n:
        i += 1
    return i


@functools.lru_cache(maxsize=None)
def coeff_widths(n: int) -> tuple[int, ...]:
    """Widths n - i - t_i, i <= d_n: canonical coefficient i modulo 2**n
    lies in [0, 2**coeff_widths(n)[i])."""
    return tuple(
        n - i - two_adic_factorial_valuation(i) for i in range(max_reduced_degree(n) + 1)
    )


class Context:
    """Precomputed tables for one modulus 2**n.

    Instances are never mutated after construction (the ideal-generator
    cache is filled once, idempotently) and are safe to share.

    Attributes:
        n: the modulus exponent.
        modulus: 2**n.
        mask: 2**n - 1, used to reduce with a single AND.
        d: the degree cap d_n for canonical polynomials.
        coeff_bits: coeff_widths(n); coefficient i of a canonical
            polynomial lies in [0, 2**coeff_bits[i]).
        max_n: the configured ceiling this context was checked against.
    """

    def __init__(self, n: int, max_n: int = DEFAULT_MAX_N):
        if n < 2:
            raise ValueError(f"modulus exponent must be at least 2, got {n}")
        if n > max_n:
            raise ValueError(f"modulus exponent {n} exceeds the ceiling {max_n}")
        self.n = n
        self.max_n = max_n
        self.modulus = 1 << n
        self.mask = self.modulus - 1
        self.coeff_bits = coeff_widths(n)
        self.d = len(self.coeff_bits) - 1
        self._generator_cache = None  # filled lazily by poly.ideal_generators

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
