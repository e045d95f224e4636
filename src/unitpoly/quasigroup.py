"""Huge k-ary quasigroups built from permutation polynomials modulo 2**n.

A spec is k coordinate permutations σ_1, ..., σ_k of its carrier and one
group operation ⊙: f(x_1, ..., x_k) = σ_1(x_1) ⊙ ... ⊙ σ_k(x_k), so the
i-th adjoint is σ_i⁻¹(y ⊙ (⊙_{j≠i} σ_j(x_j))⁻¹) and never searches.
UNIT_PRODUCT multiplies permuted odd residues, so its carrier is the odd
residues. The two RING modes add permutations of the whole ring, each
glued from polynomials on the odd residues: p on odd arguments, and on
even ones an even half conjugated by x+1, p again in RING_ADDITIVE and a
second polynomial h in RING_GLUED.

Each polynomial a spec reads has one owner, _Permutation, which reads it
through its own evaluator (poly._OddEvaluator) and inverts it once due.
Building, applying or serializing a spec inverts nothing, and a spec that
answers a few queries, as one command line call does, builds no evaluator
heads and inverts nothing.
"""

from __future__ import annotations

import itertools
import json
import random
from enum import Enum

from .context import Context, DEFAULT_MAX_N, checked_budget, checked_index, decimal
from .errors import BudgetExceeded, CarrierError, NotAPermutation
from .poly import ReducedPoly, _OddEvaluator, induces_permutation_on_units
from .residue import unit_inverse
from .solve import invert_permutation

DEFAULT_LATIN_BUDGET = 1 << 20
RANDOM_ARITY_BUDGET = 1 << 10  # largest k that QuasigroupSpec.random will draw


def _integer(value) -> int:
    """A document's integer: a JSON integer (not a bool) or a context.decimal string."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            return decimal(value)
        except ValueError:
            pass
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


class _Permutation:
    """Everything a spec keeps for one polynomial σ it reads: σ's evaluator
    (poly._OddEvaluator), made by the first query, σ⁻¹'s, and a count of
    σ's preimages.

    The due rule: each preimage is lifted through σ's evaluator, checked at
    full width (poly._OddEvaluator.preimage), until the count reaches σ's
    length d + 1, the number of preimages one inversion lifts. As in ski
    rental, the lifts so far then cost about what one inversion does, so that
    preimage inverts σ (solve.invert_permutation) and every later one reads
    σ⁻¹'s evaluator. Every fill of a slot computes the same canonical form and
    class heads, and one preimage alone gets the due count, so σ is inverted
    at most once and an owner stays safe to share, as a Context is.
    """

    __slots__ = ("poly", "ctx", "forward", "inverse", "_preimages")

    def __init__(self, poly: ReducedPoly, ctx: Context):
        self.poly = poly
        self.ctx = ctx
        self.forward = self.inverse = None  # σ's evaluator, and σ⁻¹'s once due
        self._preimages = itertools.count(1)

    def evaluator(self) -> _OddEvaluator:
        """σ's evaluator, made on first use."""
        if self.forward is None:
            self.forward = _OddEvaluator(self.poly.coeffs, self.ctx.n)
        return self.forward

    def inverse_reader(self):
        """What reads σ⁻¹ at one more odd point, by the due rule: σ's
        evaluator's preimage lift, or σ⁻¹'s evaluator once due."""
        if self.inverse is None:
            # one query gets the due count, so racing threads invert at most once
            if next(self._preimages) != self.ctx.d + 1:
                return self.evaluator().preimage
            self.inverse = _OddEvaluator(invert_permutation(self.poly, self.ctx).coeffs, self.ctx.n)
        return self.inverse


class QuasigroupSpec:
    """A k-ary quasigroup f(x_1, ..., x_k) = σ_1(x_1) ⊙ ... ⊙ σ_k(x_k).

    Attributes:
        ctx: the modulus context.
        n, k: modulus exponent and arity.
        mode: the combiner.
        p_polys: the k coordinate permutations (canonical forms).
        h_polys: the k even-half permutations, RING_GLUED only.

    The spec holds one _Permutation per polynomial. RING_ADDITIVE reads the
    same owner for both halves, so they share one count and one inverse.
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
        odd = [_Permutation(p, ctx) for p in self.p_polys]
        even = odd if self.h_polys is None else [_Permutation(h, ctx) for h in self.h_polys]
        # per coordinate, the owners of its even and odd halves, indexed by a & 1
        self._halves = tuple(zip(even, odd))

    def _validate_polys(self, polys, label):
        for idx, p in enumerate(polys):
            if not isinstance(p, ReducedPoly):
                raise ValueError(f"{label}[{idx}] must be a canonical polynomial")
            if p.n != self.n:
                raise ValueError(f"{label}[{idx}] is canonical for n={p.n}, spec has n={self.n}")
            if not induces_permutation_on_units(p):
                raise NotAPermutation(f"{label}[{idx}] does not permute the odd residues")

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

    # -- the coordinates and the group operation ------------------------------

    def _coordinate(self, idx: int, a: int, inverse: bool = False) -> int:
        """σ_{idx+1}(a), or σ_{idx+1}⁻¹(a): the odd half at odd a, the even
        half conjugated by x+1 at even a (an inverse conjugates the same way)."""
        odd = a & 1
        owner = self._halves[idx][odd]
        # a filled forward slot is read directly: no extra frame per coordinate
        reader = owner.inverse_reader() if inverse else owner.forward or owner.evaluator()
        y = reader(a | 1)
        return y if odd else (y - 1) & self.ctx.mask

    def _product(self, values) -> int:
        """⊙ over values: their product (UNIT_PRODUCT) or sum, modulo 2**n."""
        mask = self.ctx.mask
        if self.mode is Mode.UNIT_PRODUCT:
            out = 1
            for value in values:
                out = (out * value) & mask
            return out
        return sum(values) & mask

    def _quotient(self, y: int, x: int) -> int:
        """y ⊙ x⁻¹: y times x's unit inverse (UNIT_PRODUCT) or y - x, modulo 2**n."""
        if self.mode is Mode.UNIT_PRODUCT:
            return (y * unit_inverse(x, self.n)) & self.ctx.mask
        return (y - x) & self.ctx.mask

    def apply(self, args) -> int:
        """The quasigroup operation on a full argument tuple."""
        args = self._check_args(args)
        return self._product(list(map(self._coordinate, range(self.k), args)))

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
        others = []
        for j, a in enumerate(args):
            if j != idx:
                others.append(self._coordinate(j, a))
        # σ_i keeps parity, so only the half the answer falls in counts toward its inverse
        return self._coordinate(idx, self._quotient(args[idx], self._product(others)), True)

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
                the carrier's bounds, before it is swept. The size is a power
                of two, compared and printed by its exponent, so the check
                and its message stay short at any n.
            ValueError: a negative budget.
        """
        carrier = self.carrier()
        # its size, 2**bits, from its bounds: len() stops at sys.maxsize
        bits = ((carrier[-1] - carrier[0]) // carrier.step).bit_length()
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
        except (KeyError, TypeError, ValueError) as exc:
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
