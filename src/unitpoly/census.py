"""Closed-form counts of induced-function classes, as exponents of two.

All counts are powers of two, so every function here returns or stores
the exponent, never the (possibly astronomical) count itself.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .context import coeff_widths, two_adic_factorial_valuation


def _require(n: int) -> None:
    if n < 2:
        raise ValueError(f"modulus exponent must be at least 2, got {n}")


def count_reduced(n: int) -> int:
    """log2 of the number of polynomial functions on the odd residues.

    Slot i of a canonical polynomial takes 2**coeff_widths(n)[i] values,
    less one bit for the parity that keeps odd residues odd.
    """
    _require(n)
    # uncached, so a sweep over many n leaves the width cache to Contexts
    return sum(coeff_widths.__wrapped__(n)) - 1


def count_permutational(n: int) -> int:
    """log2 of the number of polynomial permutations of the odd residues.

    Exactly half the polynomial functions are permutations, so this is
    count_reduced(n) - 1.
    """
    return count_reduced(n) - 1


def count_ring_permutational(n: int) -> int:
    """log2 of the number of polynomial permutations of all of Z_{2**n}.

    Each one either preserves or swaps the odd/even classes, and either
    half is a free pair of permutations on the odd residues, giving
    2 * (2**count_permutational)**2.
    """
    return 2 * count_permutational(n) + 1


def keller_beta(j: int) -> int:
    """Smallest s with 2**j dividing s!."""
    if j < 1:
        raise ValueError("keller_beta needs j >= 1")
    s = 1
    while two_adic_factorial_valuation(s) < j:
        s += 1
    return s


def keller_exponent(n: int) -> int:
    """Exponent of the classical factorial-threshold count, 3 + sum of
    keller_beta(j) for 3 <= j <= n (empty sum at n = 2)."""
    _require(n)
    # t_s is non-decreasing, so one upward scan crosses each threshold once
    total = 3
    s = 1
    for j in range(3, n + 1):
        while two_adic_factorial_valuation(s) < j:
            s += 1
        total += s
    return total


def keller_identity_check(n: int) -> bool:
    """Cross-check the two counting routes for ring permutations: the
    factorial-threshold count equals the count derived from canonical forms."""
    return keller_exponent(n) == count_ring_permutational(n)


@dataclass(frozen=True)
class CensusReport:
    """All counts for one n, as log2 exponents, plus the identity verdict."""

    n: int
    log2_reduced: int
    log2_permutational: int
    log2_ring_permutational: int
    keller_exponent: int
    identity_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def census_report(n: int) -> CensusReport:
    keller, ring = keller_exponent(n), count_ring_permutational(n)
    return CensusReport(
        n=n,
        log2_reduced=count_reduced(n),
        log2_permutational=count_permutational(n),
        log2_ring_permutational=ring,
        keller_exponent=keller,
        identity_ok=keller == ring,
    )
