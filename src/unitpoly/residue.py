"""Unit-group arithmetic modulo 2**n.

Inverses of odd residues come from Newton iteration, which doubles the
number of correct low bits per step; each step works only to the
precision it reaches, so an inverse costs about two n-bit products
(unit_inverse is defined in context, so that poly can use it too, and
re-exported here). Roots of general polynomials are grown one bit at a
time instead: a root modulo 2**(k+1) restricts to a root modulo 2**k,
and the derivative may vanish, so the search branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import checked_budget, checked_index, unit_inverse  # unit_inverse: re-exported
from .errors import BudgetExceeded
from .poly import _as_coeffs, _eval_masked

DEFAULT_BRANCH_LIMIT = 1 << 20


def hensel_roots(poly, n: int, *, branch_limit: int = DEFAULT_BRANCH_LIMIT) -> list[int]:
    """All roots of the polynomial modulo 2**n, ascending.

    Partial roots modulo 2**k are extended by each bit choice that keeps
    them roots modulo 2**(k+1); candidates that stop being roots are
    dropped. The frontier of live candidates is capped by branch_limit.

    Args:
        poly: coefficient sequence or polynomial object, lowest degree first.
        n: modulus exponent, n >= 1.
        branch_limit: maximum number of simultaneous partial roots.

    Raises:
        BudgetExceeded: when the frontier outgrows branch_limit.
        ValueError: n below 1 or a negative branch_limit.
    """
    if checked_index(n) < 1:
        raise ValueError("modulus exponent must be positive")
    branch_limit = checked_budget(branch_limit, "branch_limit")
    full_mask = (1 << n) - 1
    coeffs = [c & full_mask for c in _as_coeffs(poly)]
    frontier = [0]
    for k in range(n):
        step_mask = (2 << k) - 1
        new_frontier = []
        for r in frontier:
            for bit in (0, 1):
                candidate = r | (bit << k)
                if _eval_masked(coeffs, candidate, step_mask) == 0:
                    new_frontier.append(candidate)
        if len(new_frontier) > branch_limit:
            raise BudgetExceeded(
                f"root search frontier grew past {branch_limit} at bit {k}"
            )
        frontier = new_frontier
        if not frontier:
            return []
    return sorted(frontier)


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
