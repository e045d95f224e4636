"""Huge k-ary quasigroups built from permutation polynomials modulo 2**n.

Three combiners are supported. UNIT_PRODUCT multiplies permuted odd
residues, so the carrier is the odd residues. The two RING modes add
permutations of the whole ring built piecewise from polynomials on the
odd residues: RING_ADDITIVE extends each polynomial to even arguments by
conjugation with x+1, RING_GLUED uses a second polynomial for the even
half. Adjoint solving never searches, and building, applying or
serializing a spec inverts nothing.

Every apply and adjoint evaluates fixed polynomials at odd points, each
through its own evaluator (poly._OddEvaluator), which reads the
polynomial's class heads, deeper in stages as its queries add up
(poly._stages). An adjoint needs one value of a polynomial's inverse.
Until that inverse is due, the adjoint lifts its one preimage by Newton
iteration through the polynomial's own evaluator, checked at full width
(poly._OddEvaluator.preimage). The inverse is due at the polynomial's
(d + 1)-th adjoint, d + 1 being its length, the number of preimages one
inversion lifts: as in ski rental, the lifts so far then cost about what
one inversion (solve.invert_permutation) does, so the spec inverts once
and keeps the inverse's evaluator. A spec that answers a few queries, as
one command line call does, builds no evaluator heads and inverts
nothing.
"""

from __future__ import annotations

import itertools
import json
import random
from enum import Enum

from .context import Context, DEFAULT_MAX_N, checked_budget, checked_index
from .errors import BudgetExceeded, CarrierError, NotAPermutation
from .poly import ReducedPoly, _OddEvaluator, induces_permutation_on_units
from .residue import unit_inverse
from .solve import invert_permutation

DEFAULT_LATIN_BUDGET = 1 << 20
RANDOM_ARITY_BUDGET = 1 << 10  # largest k that QuasigroupSpec.random will draw


def _integer(value) -> int:
    """A document's integer: a JSON integer (not a bool) or a decimal string,
    an optional minus sign then one or more ASCII digits."""
    if type(value) is int or (type(value) is str and value.isascii()
                              and value.removeprefix("-").isdigit()):
        return int(value)
    raise TypeError(f"expected an integer or a decimal string, got {type(value).__name__}")


def _rows(value) -> list[tuple[int, ...]]:
    """A document's coefficient vectors: a list of lists of integers."""
    if type(value) is not list or any(type(row) is not list for row in value):
        raise TypeError("p and h must be lists of coefficient lists")
    return [tuple(map(_integer, row)) for row in value]


class Mode(Enum):
    UNIT_PRODUCT = "UNIT_PRODUCT"
    RING_ADDITIVE = "RING_ADDITIVE"
    RING_GLUED = "RING_GLUED"


def random_permutational_poly(ctx: Context, rng: random.Random) -> ReducedPoly:
    """Uniform canonical permutation polynomial.

    Coefficients are drawn uniformly from their ranges and redrawn until
    both parity conditions hold; each draw is accepted with probability
    one quarter, so the loop is short.
    """
    while True:
        coeffs = tuple(rng.randrange(1 << bits) for bits in ctx.coeff_bits)
        if induces_permutation_on_units(coeffs):
            return ReducedPoly(coeffs, ctx.n)


class QuasigroupSpec:
    """A k-ary quasigroup given by one permutation polynomial per slot.

    Attributes:
        ctx: the modulus context.
        n, k: modulus exponent and arity.
        mode: the combiner.
        p_polys: the k coordinate permutations (canonical forms).
        h_polys: the k even-half permutations, RING_GLUED only.

    A spec holds one evaluator (poly._OddEvaluator) per polynomial it
    reads: each p and h, made by the first query that evaluates it, and at
    most one inverse per polynomial (2k for RING_GLUED, k otherwise),
    computed by the adjoint that brings the polynomial's count of adjoints
    to its length d + 1; the adjoints before it lift their answers through
    the polynomial's own evaluator. Filling a slot is idempotent, since
    every fill computes the same canonical form and the same class heads,
    and one adjoint alone gets the due count, so a slot is inverted at most
    once and a spec stays safe to share, as a Context is.
    """

    def __init__(self, ctx: Context, mode, p_polys, h_polys=None):
        self.ctx = ctx
        self.n = ctx.n
        self.mode = Mode(mode)
        self.p_polys = tuple(p_polys)
        self.k = len(self.p_polys)
        if self.k < 1:
            raise ValueError("a quasigroup needs at least one coordinate")
        self._validate_polys(self.p_polys, "p")
        if self.mode is Mode.RING_GLUED:
            if h_polys is None:
                raise ValueError("RING_GLUED needs one h polynomial per coordinate")
            self.h_polys = tuple(h_polys)
            if len(self.h_polys) != self.k:
                raise ValueError("h polynomial count must match k")
            self._validate_polys(self.h_polys, "h")
        else:
            if h_polys is not None:
                raise ValueError(f"mode {self.mode.value} does not take h polynomials")
            self.h_polys = None
        # per (odd half, inverse): one evaluator slot per coordinate, filled on first use,
        # an inverse's once it is due (_value)
        halves = (True,) if self.h_polys is None else (True, False)
        self._evaluators = {(odd, inverse): [None] * self.k
                            for odd in halves for inverse in (False, True)}
        # per odd half: each coordinate's count of the adjoints that read its inverse
        self._adjoints = {odd: [itertools.count(1) for _ in range(self.k)] for odd in halves}

    def _validate_polys(self, polys, label):
        for idx, p in enumerate(polys):
            if not isinstance(p, ReducedPoly):
                raise ValueError(f"{label}[{idx}] must be a canonical polynomial")
            if p.n != self.n:
                raise ValueError(f"{label}[{idx}] is canonical for n={p.n}, spec has n={self.n}")
            if not induces_permutation_on_units(p):
                raise NotAPermutation(f"{label}[{idx}] does not permute the odd residues")

    def _evaluator(self, idx: int, odd: bool = True, inverse: bool = False) -> _OddEvaluator:
        """The evaluator of p[idx] (odd) or of the even half h[idx], or of
        its inverse, made on first use. The inverse is computed then, the
        only inversion in this module, and only once it is due (_value)."""
        slots = self._evaluators[odd, inverse]
        if slots[idx] is None:
            poly = (self.p_polys if odd else self.h_polys)[idx]
            if inverse:
                poly = invert_permutation(poly, self.ctx)
            slots[idx] = _OddEvaluator(poly.coeffs, self.n)
        return slots[idx]

    def _value(self, idx: int, x: int, odd: bool = True, inverse: bool = False) -> int:
        """The value at the odd x of p[idx] (odd) or of the even half h[idx],
        or of its inverse. Until the inverse is due, each query lifts its
        preimage through the polynomial's own evaluator (preimage); the
        query that brings its count to the polynomial's length d + 1,
        the number of preimages one inversion lifts, inverts it instead, and
        every later query reads the inverse's evaluator."""
        odd = odd or self.h_polys is None  # RING_ADDITIVE is RING_GLUED with h = p
        if inverse and self._evaluators[odd, True][idx] is None:
            # one query gets the due count, so racing threads invert a slot at most once
            if next(self._adjoints[odd][idx]) != self.ctx.d + 1:
                return self._evaluator(idx, odd).preimage(x)
        return self._evaluator(idx, odd, inverse)(x)

    # -- carrier handling ---------------------------------------------------

    def carrier(self) -> range:
        if self.mode is Mode.UNIT_PRODUCT:
            return self.ctx.units()
        return self.ctx.ring()

    def _check_args(self, args) -> list[int]:
        out = [checked_index(a) for a in args]
        if len(out) != self.k:
            raise ValueError(f"expected {self.k} arguments, got {len(out)}")
        modulus = self.ctx.modulus
        for a in out:
            if not 0 <= a < modulus:
                raise CarrierError(f"{a} is not a residue modulo 2**{self.n}")
            if self.mode is Mode.UNIT_PRODUCT and a & 1 == 0:
                raise CarrierError(f"{a} is even; this carrier is the odd residues")
        return out

    # -- the operation and its adjoints -------------------------------------

    def _glued(self, idx: int, a: int, inverse: bool = False) -> int:
        # the ring permutation acting as p[idx] on odd a and as h[idx],
        # conjugated by x+1, on even a (RING modes; inverses glue the same way)
        if a & 1:
            return self._value(idx, a, True, inverse)
        return (self._value(idx, a + 1, False, inverse) - 1) & self.ctx.mask

    def apply(self, args) -> int:
        """The quasigroup operation on a full argument tuple."""
        args = self._check_args(args)
        mask = self.ctx.mask
        if self.mode is Mode.UNIT_PRODUCT:
            out = 1
            for idx, a in enumerate(args):
                out = (out * self._value(idx, a)) & mask
            return out
        total = 0
        for idx, a in enumerate(args):
            total = (total + self._glued(idx, a)) & mask
        return total

    def adjoint(self, i: int, args) -> int:
        """Solve the operation for its i-th argument (1-based).

        args carries the target value in position i and the remaining
        arguments in their own positions: the returned b satisfies
        apply(args with position i replaced by b) == args[i-1].
        """
        if not 1 <= checked_index(i) <= self.k:
            raise ValueError(f"coordinate must be in 1..{self.k}, got {i}")
        args = self._check_args(args)
        idx = i - 1
        target = args[idx]
        mask = self.ctx.mask
        if self.mode is Mode.UNIT_PRODUCT:
            # the unit group is abelian: divide by the product of the other factors
            others = 1
            for j in range(self.k):
                if j != idx:
                    others = (others * self._value(j, args[j])) & mask
            acc = (target * unit_inverse(others, self.n)) & mask
            return self._value(idx, acc, inverse=True)
        acc = target
        for j in range(self.k):
            if j != idx:
                acc = (acc - self._glued(j, args[j])) & mask
        # _glued reads only the half that acc falls in, so it counts toward that inverse only
        return self._glued(idx, acc, inverse=True)

    # -- verification --------------------------------------------------------

    def latin_check(self, budget: int = DEFAULT_LATIN_BUDGET) -> bool:
        """Exhaustively confirm the quasigroup and adjoint properties.

        Checks that every adjoint inverts the operation at every point:
        g_i(f(args)) == args[i-1] for every argument tuple and slot i. With
        the other slots fixed, the section b -> f(..., b, ...) then has a
        left inverse, so it is injective on the finite carrier and hence
        permutes it. A value of the operation outside the carrier makes the
        adjoint raise CarrierError.

        Raises:
            BudgetExceeded: carrier_size**k exceeds the budget; checked from
                n alone, before the carrier is touched. The size is a power
                of two, compared and printed by its exponent, so the check
                and its message stay short at any n.
            ValueError: a negative budget.
        """
        bits = self.n - 1 if self.mode is Mode.UNIT_PRODUCT else self.n
        # 2**(k*bits) > budget exactly when k*bits reaches budget's bit length
        if self.k * bits >= checked_budget(budget, "budget").bit_length():
            raise BudgetExceeded(
                f"carrier size (2**{bits})**{self.k} exceeds the exhaustion budget {budget}"
            )
        for args in itertools.product(self.carrier(), repeat=self.k):
            value = self.apply(args)
            for i in range(1, self.k + 1):
                probe = list(args)
                probe[i - 1] = value
                if self.adjoint(i, probe) != args[i - 1]:
                    return False
        return True

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "n": self.n,
            "k": self.k,
            "mode": self.mode.value,
            "p": [[str(c) for c in p.coeffs] for p in self.p_polys],
        }
        if self.h_polys is not None:
            data["h"] = [[str(c) for c in h.coeffs] for h in self.h_polys]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict, max_n: int = DEFAULT_MAX_N) -> "QuasigroupSpec":
        """The spec a document describes; ValueError if it is malformed."""
        if not isinstance(data, dict):
            raise ValueError(
                f"malformed quasigroup document: expected an object, got {type(data).__name__}"
            )
        try:
            n, k = _integer(data["n"]), _integer(data["k"])
            mode = Mode(str(data["mode"]).upper())
            p_rows = _rows(data["p"])
            h_rows = None if data.get("h") is None else _rows(data["h"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"malformed quasigroup document: {exc}") from None
        ctx = Context(n, max_n=max_n)
        p_polys = [ReducedPoly(row, n) for row in p_rows]
        h_polys = None if h_rows is None else [ReducedPoly(row, n) for row in h_rows]
        spec = cls(ctx, mode, p_polys, h_polys)
        if spec.k != k:
            raise ValueError(f"document says k={k} but carries {spec.k} polynomials")
        return spec

    @classmethod
    def from_json(cls, text: str, max_n: int = DEFAULT_MAX_N) -> "QuasigroupSpec":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:  # bad syntax, too long a number, too deep
            raise ValueError(f"malformed quasigroup document: {exc}") from None
        return cls.from_dict(data, max_n=max_n)

    @classmethod
    def random(cls, ctx: Context, k: int, mode, rng: random.Random) -> "QuasigroupSpec":
        """Seeded uniform spec: every polynomial drawn by rejection sampling.

        Raises:
            BudgetExceeded: k is above RANDOM_ARITY_BUDGET; nothing is drawn.
        """
        if checked_index(k) > RANDOM_ARITY_BUDGET:
            raise BudgetExceeded(
                f"arity {k} exceeds the random spec budget {RANDOM_ARITY_BUDGET}"
            )
        mode = Mode(mode)
        p_polys = [random_permutational_poly(ctx, rng) for _ in range(k)]
        h_polys = (
            [random_permutational_poly(ctx, rng) for _ in range(k)]
            if mode is Mode.RING_GLUED
            else None
        )
        return cls(ctx, mode, p_polys, h_polys)

    def __repr__(self) -> str:
        return f"QuasigroupSpec(n={self.n}, k={self.k}, mode={self.mode.value})"
