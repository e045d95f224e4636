"""Closed-form counts of induced-function classes, as exponents of two.

All counts are powers of two, so every function here returns or stores
the exponent, never the (possibly astronomical) count itself.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Iterator

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


def _keller_thresholds() -> Iterator[int]:
    """keller_beta(1), keller_beta(2), ... in one upward scan: t_s is
    non-decreasing, so the pointer s crosses each threshold once."""
    s = 1
    for j in itertools.count(1):
        while two_adic_factorial_valuation(s) < j:
            s += 1
        yield s


def keller_beta(j: int) -> int:
    """Smallest s with 2**j dividing s!."""
    if j < 1:
        raise ValueError("keller_beta needs j >= 1")
    return next(itertools.islice(_keller_thresholds(), j - 1, None))


def keller_exponent(n: int) -> int:
    """Exponent of the classical factorial-threshold count, 3 + sum of
    keller_beta(j) for 3 <= j <= n (empty sum at n = 2)."""
    _require(n)
    return 3 + sum(itertools.islice(_keller_thresholds(), 2, n))


def identity_sweep(top: int) -> Iterator[tuple[int, int, int]]:
    """(n, count_ring_permutational(n), keller_exponent(n)) for n = 2..top,
    in one upward pass.

    Slot i of a canonical form opens when n - i - t_i reaches 1 and every
    open slot widens by one per step of n, so the width sum grows by the
    number of open slots; the Keller sum grows by keller_beta(n).
    """
    _require(top)
    opened = width_sum = 0
    keller = 3
    betas = itertools.islice(_keller_thresholds(), 2, None)  # keller_beta(3), ...
    for n in range(1, top + 1):
        while opened + two_adic_factorial_valuation(opened) < n:
            opened += 1
        width_sum += opened
        if n > 2:
            keller += next(betas)
        if n > 1:
            # count_reduced is width_sum - 1; see count_ring_permutational
            yield n, 2 * (width_sum - 2) + 1, keller


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
    # one width scan: the other two counts follow from count_reduced by the
    # identities of count_permutational and count_ring_permutational
    reduced = count_reduced(n)
    permutational = reduced - 1
    ring = 2 * permutational + 1
    keller = keller_exponent(n)
    return CensusReport(
        n=n,
        log2_reduced=reduced,
        log2_permutational=permutational,
        log2_ring_permutational=ring,
        keller_exponent=keller,
        identity_ok=keller == ring,
    )
