"""Closed-form counts of induced-function classes, as exponents of two.

All counts are powers of two, so every function here returns or stores
the exponent, never the (possibly astronomical) count itself.

Every count is a sum over the 2-adic table t_i = v_2(i!), and Legendre's
formula gives t_i = i - popcount(i). So each sum has a closed form in
popcounts and a few shifts: the degree cap and the Keller threshold are
found a few steps from their first guess, and no table is scanned. Every
count costs O(log n) integer operations, at any n.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterator

from .context import checked_index, max_reduced_degree


def _require(n: int) -> None:
    if checked_index(n) < 2:
        raise ValueError(f"modulus exponent must be at least 2, got {n}")


def _popcount_prefix(m: int) -> int:
    """Sum of popcount(i) over 0 <= i <= m, one bit position at a time: bit
    k is set in 2**k of every 2**(k+1) consecutive integers."""
    total = 0
    for k in range(m.bit_length()):
        period = 2 << k
        total += ((m + 1) // period << k) + max(0, (m + 1) % period - (1 << k))
    return total


def count_reduced(n: int) -> int:
    """log2 of the number of polynomial functions on the odd residues.

    Slot i of a canonical polynomial takes 2**(n - i - t_i) values,
    less one bit for the parity that keeps odd residues odd. With
    t_i = i - popcount(i), the sum over i <= d is
    (d + 1)*n - d*(d + 1) + (popcount(0) + ... + popcount(d)).
    """
    _require(n)
    d = max_reduced_degree(n)
    return (d + 1) * (n - d) + _popcount_prefix(d) - 1


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
    """Smallest s with 2**j dividing s!.

    t_s = s - popcount(s) is below j at s = j, and reaches j within about
    log2(j) steps up from there.
    """
    if checked_index(j) < 1:
        raise ValueError("keller_beta needs j >= 1")
    s = j
    while s - s.bit_count() < j:
        s += 1
    return s


def keller_exponent(n: int) -> int:
    """Exponent of the classical factorial-threshold count, 3 + sum of
    keller_beta(j) for 3 <= j <= n (empty sum at n = 2).

    keller_beta(j) = s for exactly t_s - t_{s-1} = v_2(s) values of j, so
    with S = keller_beta(n) the sum over 1 <= j <= n is
    sum(s * v_2(s) for s < S) + S * (n - t_{S-1}); the first term counts
    each multiple of 2**k below S once for every k >= 1, and
    keller_beta(1) + keller_beta(2) = 6.
    """
    _require(n)
    top = keller_beta(n)
    below = top - 1
    multiples = 0
    for k in range(1, below.bit_length()):
        q = below >> k
        multiples += (q * (q + 1) // 2) << k
    return multiples + top * (n - below + below.bit_count()) - 3


def identity_sweep(top: int) -> Iterator[tuple[int, int, int]]:
    """(n, count_ring_permutational(n), keller_exponent(n)) for n = 2..top,
    in one upward pass.

    Slot i of a canonical form opens when n - i - t_i reaches 1 and every
    open slot widens by one per step of n, so the width sum grows by the
    number of open slots; the Keller sum grows by keller_beta(n). Both
    pointers only move up, and t_s is s - popcount(s).
    """
    _require(top)
    opened = width_sum = 0
    keller = 3
    beta = 4  # keller_beta(2)
    for n in range(1, top + 1):
        while 2 * opened - opened.bit_count() < n:
            opened += 1
        width_sum += opened
        if n > 2:
            while beta - beta.bit_count() < n:
                beta += 1
            keller += beta
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
    # the other two counts follow from count_reduced by the identities of
    # count_permutational and count_ring_permutational
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
