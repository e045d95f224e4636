"""Unit-group arithmetic modulo 2**n.

Inverses of odd residues come from Newton iteration, which doubles the
number of correct low bits per step; each step works only to the
precision it reaches, so an inverse costs about two n-bit products
(unit_inverse is defined in context, so that poly can use it too, and
re-exported here). Roots of general polynomials climb the same ladder
of doubling precisions, but the derivative at a root may be even, so a
root modulo 2**h can have no lifts or several, and the search branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import _ladder, checked_budget, checked_index
from .context import unit_inverse  # re-exported
from .errors import BudgetExceeded
from .poly import _as_coeffs, _eval_masked

DEFAULT_BRANCH_LIMIT = 1 << 20


def hensel_roots(poly, n: int, *, branch_limit: int = DEFAULT_BRANCH_LIMIT) -> list[int]:
    """All roots of the polynomial modulo 2**n, ascending.

    The roots modulo 2 are found by trying 0 and 1; then the roots climb
    the Newton precisions of _ladder(n), each level from h = ceil(m/2)
    bits to m. As the j-th derivative over j! has integer coefficients,
    Taylor's formula gives p(r + 2**h t) = p(r) + 2**h t p'(r) modulo
    2**(2h), and m <= 2h. So the roots modulo 2**m over a root r modulo
    2**h are the r + 2**h t whose t modulo 2**(m-h) solves
    t p'(r) = -p(r) / 2**h. With 2**e the power of two in p'(r) modulo
    2**(m-h) (e = m - h when p'(r) is 0 there), r has no lift unless 2**e
    divides the right side, and then 2**e lifts, which one unit_inverse of
    the slope's odd part gives. e = 0 is Newton's step for a simple root
    (von zur Gathen and Gerhard, "Modern Computer Algebra", ch. 9). The
    roots modulo 2**m are counted against branch_limit before any of them
    is built.

    Args:
        poly: coefficient sequence or polynomial object, lowest degree first.
        n: modulus exponent, n >= 1.
        branch_limit: maximum number of roots modulo 2**m at any precision m
            the search stops at (1 and the ladder's levels).

    Raises:
        BudgetExceeded: when the roots modulo 2**m at one of those
            precisions outnumber branch_limit; the message names the bit
            m - 1.
        ValueError: n below 1 or a negative branch_limit.
    """
    if checked_index(n) < 1:
        raise ValueError("modulus exponent must be positive")
    branch_limit = checked_budget(branch_limit, "branch_limit")
    full_mask = (1 << n) - 1
    coeffs = [c & full_mask for c in _as_coeffs(poly)]
    slope = [i * c & full_mask for i, c in enumerate(coeffs) if i]
    roots = [r for r in (0, 1) if _eval_masked(coeffs, r, 1) == 0]
    if len(roots) > branch_limit:
        raise BudgetExceeded(f"root search frontier grew past {branch_limit} at bit 0")
    for m in _ladder(n):
        h = (m + 1) // 2
        width = m - h
        level_mask = (1 << m) - 1
        width_mask = (1 << width) - 1
        lifts = []  # (least lift, e): the lifts are least + j * 2**(m-e), j < 2**e
        count = 0
        for r in roots:
            rest = -(_eval_masked(coeffs, r, level_mask) >> h) & width_mask
            s = _eval_masked(slope, r, width_mask)
            e = (s & -s).bit_length() - 1 if s else width
            if rest & ((1 << e) - 1):
                continue
            count += 1 << e
            if count > branch_limit:
                raise BudgetExceeded(
                    f"root search frontier grew past {branch_limit} at bit {m - 1}"
                )
            free = width - e
            t = (rest >> e) * unit_inverse(s >> e, free) & ((1 << free) - 1) if free else 0
            lifts.append((r + (t << h), e))
        roots = [least + (j << (m - e)) for least, e in lifts for j in range(1 << e)]
    return sorted(roots)


@dataclass(frozen=True)
class UnitGroupReport:
    """Structured outcome of the unit-group structure check."""

    n: int
    order_exponent: int
    halfway_power: int
    halfway_expected: int
    order_ok: bool
    halfway_ok: bool

    @property
    def passed(self) -> bool:
        return self.order_ok and self.halfway_ok


def check_unit_group_structure(n: int) -> UnitGroupReport:
    """Verify that 5 has order exactly 2**(n-2) modulo 2**n, n >= 3.

    Repeated squaring walks 5 up to the exponent 2**(n-3); that halfway
    value must be 2**(n-1) + 1, and one more squaring must reach 1 while
    the halfway value itself is not 1 (so the order is not smaller).
    """
    if checked_index(n) < 3:
        raise ValueError("the structure check needs n >= 3")
    mask = (1 << n) - 1
    v = 5
    for _ in range(n - 3):
        v = (v * v) & mask
    halfway = v
    final = (v * v) & mask
    expected = (1 << (n - 1)) + 1
    return UnitGroupReport(
        n=n,
        order_exponent=n - 2,
        halfway_power=halfway,
        halfway_expected=expected,
        order_ok=(final == 1 and halfway != 1),
        halfway_ok=(halfway == expected),
    )
