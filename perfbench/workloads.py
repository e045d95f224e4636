"""The four benchmark workloads: seeded inputs, timed program calls, checks.

Each workload draws its inputs from its own ``random.Random`` streams,
seeded from the benchmark's ``--seed``, using only the arithmetic in this
file, so a commit that changes the program still receives identical
inputs. The program is reached through the ``unitpoly`` package object
``up``, looked up at call time, so the tracer and the self-tests can
replace functions at every import site.

A workload offers three things to the runner:

* ``setup(clock)``: the program's own set-up calls, each passed through
  ``clock`` so that only their time counts toward ``setup_s``;
* ``prepare()``: harness-side work after set-up that needs the program's
  objects (expected CLI text), never timed;
* ``round(rng, index)``: one round of timed operations, one of each kind,
  as ``Op`` records whose ``check`` verifies the result independently.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import re
import sys
import traceback
from collections import namedtuple

Op = namedtuple("Op", "kind call check raw")

CHECK_POINTS = 4  # random odd points per functional check


# -- arithmetic owned by the harness ------------------------------------------


def fact_valuation(i: int) -> int:
    """Exponent of two in i! (Legendre)."""
    total, power = 0, 2
    while power <= i:
        total += i // power
        power *= 2
    return total


def coeff_widths(n: int) -> list[int]:
    """Bit width of each canonical coefficient slot modulo 2**n."""
    widths = []
    i = 0
    while n - i - fact_valuation(i) > 0:
        widths.append(n - i - fact_valuation(i))
        i += 1
    return widths


def horner(coeffs, x: int, mask: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) & mask
    return value


def permutes_units(coeffs) -> bool:
    return sum(coeffs) & 1 == 1 and sum(coeffs[1::2]) & 1 == 1


def is_canonical(coeffs, widths) -> bool:
    return len(coeffs) == len(widths) and all(
        0 <= c < (1 << w) for c, w in zip(coeffs, widths)
    )


def odd_points(rng: random.Random, n: int, count: int = CHECK_POINTS) -> list[int]:
    return [rng.getrandbits(n) | 1 for _ in range(count)]


def random_canonical(rng: random.Random, widths, permutation: bool = True) -> list[int]:
    """Uniform canonical coefficients; redrawn until they permute the units."""
    while True:
        coeffs = [rng.getrandbits(w) for w in widths]
        if not permutation or permutes_units(coeffs):
            return coeffs


def random_full(rng: random.Random, bits: int, degree: int, permutation: bool = True) -> list[int]:
    """Exact degree, coefficients of full width ``bits``."""
    while True:
        coeffs = [rng.getrandbits(bits) for _ in range(degree + 1)]
        if coeffs[-1] and (not permutation or permutes_units(coeffs)):
            return coeffs


def agrees(out_coeffs, widths, mask, points, expected) -> bool:
    """Canonical, and equal to ``expected(x)`` at every point."""
    return is_canonical(out_coeffs, widths) and all(
        horner(out_coeffs, x, mask) == expected(x) for x in points
    )


def expecting(error, fn, *args, **kwargs):
    """Call ``fn``; an ``error`` it raises is returned as the answer."""
    try:
        return fn(*args, **kwargs)
    except error as exc:
        return exc


class Workload:
    name = ""
    unit = "ms"  # display unit of the per-kind latencies
    kinds: tuple[str, ...] = ()
    digest_rounds = 1  # rounds whose inputs and outputs are hashed
    setup_reps = 7  # setup_s is the median over this many cold set-ups

    def __init__(self, up, seed: int, tiny: bool):
        self.up = up
        self.seed = seed

    def stream(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{purpose}")

    def setup_inputs(self):
        """Harness-side inputs the set-up calls consume (hashed as inputs)."""
        return ()

    def setup(self, clock) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        pass

    def round(self, rng: random.Random, index: int) -> list[Op]:
        raise NotImplementedError


# -- solve ---------------------------------------------------------------------


class Solve(Workload):
    """Interpolation, inversion and pointwise inversion at n = 256, and the
    arbitrary-node solver at n = 32 as the control a fast path must not move."""

    name = "solve"
    kinds = ("interpolate", "invert", "mulinv", "interp_nodes")
    digest_rounds = 2
    NODES_PER_ROUND = 8
    MAX_SOLUTIONS = 64

    def __init__(self, up, seed, tiny):
        super().__init__(up, seed, tiny)
        self.n, self.nodes_n = (16, 12) if tiny else (256, 32)
        self.widths = coeff_widths(self.n)
        self.node_widths = coeff_widths(self.nodes_n)

    def setup(self, clock):
        up = self.up
        self.ctx = clock(up.Context, self.n)
        clock(up.ideal_generators, self.ctx)  # the interpolate check reduces
        self.nodes_ctx = clock(up.Context, self.nodes_n)

    def round(self, rng, index):
        up, ctx, n = self.up, self.ctx, self.n
        mask = (1 << n) - 1
        d = len(self.widths) - 1
        src = random_full(rng, n, d)
        poly = up.IntPoly(tuple(src))
        values = [horner(src, x, mask) for x in range(1, 2 * d + 2, 2)]
        points = odd_points(rng, n)

        def check_interpolate(r):
            return (
                is_canonical(r.coeffs, self.widths)
                and all(horner(r.coeffs, 2 * j + 1, mask) == v for j, v in enumerate(values))
                and r.coeffs == up.reduce(poly, ctx).coeffs
            )

        def check_invert(r):
            return is_canonical(r.coeffs, self.widths) and all(
                horner(src, horner(r.coeffs, x, mask), mask) == x for x in points
            )

        def check_mulinv(r):
            return agrees(r.coeffs, self.widths, mask, points,
                          lambda x: pow(horner(src, x, mask), -1, mask + 1))

        ops = [
            Op("interpolate", functools.partial(up.interpolate, values, ctx),
               check_interpolate, ("interpolate", values)),
            Op("invert", functools.partial(up.invert_permutation, poly, ctx),
               check_invert, ("invert", src)),
            Op("mulinv", functools.partial(up.multiplicative_inverse, poly, ctx),
               check_mulinv, ("mulinv", src)),
        ]
        ops += [self._nodes_op(rng) for _ in range(self.NODES_PER_ROUND)]
        return ops

    def _nodes_op(self, rng):
        up, n, widths = self.up, self.nodes_n, self.node_widths
        mask = (1 << n) - 1
        src = random_canonical(rng, widths)
        nodes = rng.sample(range(1, 1 << n, 2), len(widths) + 16)
        values = [horner(src, x, mask) for x in nodes]

        def check(fits):
            if isinstance(fits, up.BudgetExceeded):
                return True  # a correct answer under an explicit budget
            return tuple(src) in [f.coeffs for f in fits] and all(
                is_canonical(f.coeffs, widths)
                and all(horner(f.coeffs, x, mask) == v for x, v in zip(nodes, values))
                for f in fits
            )

        call = functools.partial(
            expecting, up.BudgetExceeded, up.interpolate_at_nodes,
            nodes, values, self.nodes_ctx, max_solutions=self.MAX_SOLUTIONS,
        )
        return Op("interp_nodes", call, check, ("interp_nodes", nodes, values))


# -- canon ---------------------------------------------------------------------


class Canon(Workload):
    """Canonical forms at n = 1024: long inputs need degree lowering and
    folding, short ones folding only; products of canonical forms."""

    name = "canon"
    kinds = ("reduce_long", "reduce_short", "mul")
    digest_rounds = 2

    def __init__(self, up, seed, tiny):
        super().__init__(up, seed, tiny)
        self.n = 32 if tiny else 1024
        self.widths = coeff_widths(self.n)

    def setup(self, clock):
        self.ctx = clock(self.up.Context, self.n)
        clock(self.up.ideal_generators, self.ctx)

    def round(self, rng, index):
        up, ctx, n, widths = self.up, self.ctx, self.n, self.widths
        mask = (1 << n) - 1
        d = len(widths) - 1
        long = random_full(rng, n, 2 * d, permutation=False)
        short = random_full(rng, n, d, permutation=False)
        p = random_canonical(rng, widths, permutation=False)
        s = random_canonical(rng, widths, permutation=False)
        points = odd_points(rng, n)

        def reduce_op(kind, coeffs):
            check = lambda r: agrees(r.coeffs, widths, mask, points,
                                     lambda x: horner(coeffs, x, mask))
            return Op(kind, functools.partial(up.reduce, up.IntPoly(tuple(coeffs)), ctx),
                      check, (kind, coeffs))

        def check_mul(r):
            return agrees(r.coeffs, widths, mask, points,
                          lambda x: horner(p, x, mask) * horner(s, x, mask) & mask)

        return [
            reduce_op("reduce_long", long),
            reduce_op("reduce_short", short),
            Op("mul", functools.partial(up.multiply_reduced, up.ReducedPoly(tuple(p), n),
                                        up.ReducedPoly(tuple(s), n), ctx),
               check_mul, ("mul", p, s)),
        ]


# -- quasigroup ----------------------------------------------------------------


def glued_value(p, h, a: int, mask: int) -> int:
    """RING_GLUED coordinate permutation: p on odd a, conjugated h on even a."""
    if a & 1:
        return horner(p, a, mask)
    return (horner(h, a + 1, mask) - 1) & mask


class Quasigroup(Workload):
    """One UNIT_PRODUCT and one RING_GLUED spec at n = 256, k = 3; each
    apply is followed by the adjoint for the next coordinate in turn."""

    name = "quasigroup"
    unit = "us"
    kinds = ("qg_unit_apply", "qg_unit_adjoint", "qg_ring_apply", "qg_ring_adjoint")
    digest_rounds = 50
    setup_reps = 5  # each builds two specs: nine inversions at n = 256
    K = 3

    def __init__(self, up, seed, tiny):
        super().__init__(up, seed, tiny)
        self.n = 16 if tiny else 256
        widths = coeff_widths(self.n)
        rng = self.stream("specs")
        self.p_unit = [random_canonical(rng, widths) for _ in range(self.K)]
        self.p_ring = [random_canonical(rng, widths) for _ in range(self.K)]
        self.h_ring = [random_canonical(rng, widths) for _ in range(self.K)]

    def setup_inputs(self):
        return (self.p_unit, self.p_ring, self.h_ring)

    def setup(self, clock):
        up, n = self.up, self.n
        ctx = clock(up.Context, n)
        polys = lambda rows: [up.ReducedPoly(tuple(c), n) for c in rows]
        self.unit_spec = clock(lambda: up.QuasigroupSpec(ctx, "UNIT_PRODUCT", polys(self.p_unit)))
        self.ring_spec = clock(lambda: up.QuasigroupSpec(ctx, "RING_GLUED", polys(self.p_ring),
                                                         polys(self.h_ring)))

    def round(self, rng, index):
        n, k = self.n, self.K
        mask = (1 << n) - 1
        coord = index % k + 1
        unit_args = [rng.getrandbits(n) | 1 for _ in range(k)]
        unit_value = 1
        for p, a in zip(self.p_unit, unit_args):
            unit_value = unit_value * horner(p, a, mask) & mask
        ring_args = [rng.getrandbits(n) for _ in range(k)]
        ring_value = sum(glued_value(p, h, a, mask)
                         for p, h, a in zip(self.p_ring, self.h_ring, ring_args)) & mask
        return [
            *self._pair("qg_unit", self.unit_spec, unit_args, unit_value, coord),
            *self._pair("qg_ring", self.ring_spec, ring_args, ring_value, coord),
        ]

    def _pair(self, prefix, spec, args, value, coord):
        probe = list(args)
        probe[coord - 1] = value
        return (
            Op(f"{prefix}_apply", functools.partial(spec.apply, args),
               lambda r: r == value, (prefix, "apply", args)),
            Op(f"{prefix}_adjoint", functools.partial(spec.adjoint, coord, probe),
               lambda r: r == args[coord - 1], (prefix, "adjoint", coord, probe)),
        )


# -- cli -----------------------------------------------------------------------


def run_cli(up, argv):
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = up.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _ok_output(fmt, payload, text):
    if fmt == "json":
        return 0, json.dumps({"ok": payload}, sort_keys=True) + "\n", ""
    lines = text if isinstance(text, list) else [text]
    return 0, "".join(f"{line}\n" for line in lines), ""


def _error_output(fmt, exc):
    name = type(exc).__name__
    if fmt == "json":
        body = {"error": {"type": name, "message": str(exc)}}
        return 1, json.dumps(body, sort_keys=True) + "\n", ""
    return 1, "", f"error: {name}: {exc}\n"


def _coeff_strings(coeffs) -> list[str]:
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    return [str(c) for c in trimmed] or ["0"]


def _poly_answer(coeffs):
    strings = _coeff_strings(coeffs)
    return {"poly": strings}, ",".join(strings)


def _bool_answer(value):
    return {"result": value}, "true" if value else "false"


def _value_answer(value):
    return {"value": str(value)}, str(value)


def _text(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


class CheckFailed(Exception):
    """A library result behind an expected CLI output failed its check."""


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


_SELFTEST_TAIL = re.compile(r"(\d+)/\1 checks passed")


def _selftest_ok(fmt, result):
    code, out, err = result
    if code != 0 or err:
        return False
    if fmt == "json":
        return json.loads(out)["ok"]["failed"] == 0
    lines = out.splitlines()
    return bool(lines) and _SELFTEST_TAIL.fullmatch(lines[-1]) is not None and all(
        line.startswith("ok   ") for line in lines[:-1]
    )


class Cli(Workload):
    """A fixed seeded script of every subcommand, text and JSON, run
    in-process through ``unitpoly.cli.run`` with output captured."""

    name = "cli"
    digest_rounds = 1
    COMMANDS = (
        "reduce", "eval", "member", "perm", "rivest", "interp", "interp_nodes",
        "interp_nodes_budget", "invert", "invert_not_perm", "mulinv", "mul",
        "hensel_roots", "unit_inv", "count", "keller", "qg_apply", "qg_adjoint",
        "qg_check", "qg_random", "selftest",
    )
    kinds = tuple(f"{c}.{fmt}" for c in COMMANDS for fmt in ("text", "json"))

    def __init__(self, up, seed, tiny):
        super().__init__(up, seed, tiny)
        # small: per-command solves and spec rebuilds; big: cheap commands
        self.small, self.mid, self.big = (16, 32, 64) if tiny else (64, 256, 4096)
        self.nodes_n = 16
        rng = self.stream("specs")
        widths = coeff_widths(self.small)
        self.p_unit = [random_canonical(rng, widths) for _ in range(3)]
        self.p_ring = [random_canonical(rng, widths) for _ in range(3)]
        self.h_ring = [random_canonical(rng, widths) for _ in range(3)]
        self.p_tiny = [random_canonical(rng, coeff_widths(3)) for _ in range(2)]
        self.work_dir = None

    def setup_inputs(self):
        return (self.p_unit, self.p_ring, self.h_ring, self.p_tiny)

    def setup(self, clock):
        up, n = self.up, self.small

        def build():
            ctx, tiny_ctx = up.Context(n), up.Context(3)
            polys = lambda rows, m: [up.ReducedPoly(tuple(c), m) for c in rows]
            specs = (
                up.QuasigroupSpec(ctx, "UNIT_PRODUCT", polys(self.p_unit, n)),
                up.QuasigroupSpec(ctx, "RING_GLUED", polys(self.p_ring, n), polys(self.h_ring, n)),
                up.QuasigroupSpec(tiny_ctx, "UNIT_PRODUCT", polys(self.p_tiny, 3)),
            )
            return specs, [spec.to_json() for spec in specs]

        (self.unit_spec, self.ring_spec, self.tiny_spec), self.spec_texts = clock(build)

    def prepare(self):
        """Write the spec files and build the script with its expected output."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.spec_paths = []
        for name, text in zip(("unit", "ring", "tiny"), self.spec_texts):
            path = self.work_dir / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            self.spec_paths.append(str(path))
        self.script = []
        rng = self.stream("script")
        for command in self.COMMANDS:
            argv, expect = getattr(self, f"_cmd_{command}")(rng)
            raw = [a.replace(str(self.work_dir), "<work>") for a in argv]
            for fmt in ("text", "json"):
                full = argv + (["--format", "json"] if fmt == "json" else [])
                try:
                    check = expect(fmt)
                except Exception:  # a wrong library answer fails this entry
                    traceback.print_exc(file=sys.stderr)
                    check = lambda result: False
                call = functools.partial(run_cli, self.up, full)
                self.script.append(Op(f"{command}.{fmt}", call, check, raw + [fmt]))

    def round(self, rng, index):
        return self.script

    # Each _cmd_* draws its inputs and returns the argv and ``expect``: a
    # function of the output format that returns a checker of (code, stdout,
    # stderr). ``expect`` builds the expected output from direct library
    # calls and checks their results first; any exception it raises marks
    # the entry as failing.

    @staticmethod
    def _exact(output):
        return lambda result: result == output

    def _answer_cmd(self, argv, answer):
        """``answer()`` gives (payload, text), or returns an expected error."""

        def expect(fmt):
            found = answer()
            if isinstance(found, BaseException):
                return self._exact(_error_output(fmt, found))
            return self._exact(_ok_output(fmt, *found))

        return argv, expect

    def _poly_cmd(self, command, n, poly_args, compute, verify):
        def answer():
            rp = compute(self.up.Context(n))
            _require(verify(rp.coeffs), f"{command} result")
            return _poly_answer(rp.coeffs)

        return self._answer_cmd([command, "--n", str(n), *poly_args], answer)

    def _cmd_reduce(self, rng):
        n = self.small
        mask, widths = (1 << n) - 1, coeff_widths(n)
        coeffs = random_full(rng, n + 8, 2 * len(widths), permutation=False)
        points = odd_points(rng, n)
        return self._poly_cmd(
            "reduce", n, ["--poly", _text(coeffs)],
            lambda ctx: self.up.reduce(self.up.parse_poly(_text(coeffs)), ctx),
            lambda out: agrees(out, widths, mask, points, lambda x: horner(coeffs, x, mask)),
        )

    def _cmd_eval(self, rng):
        up, n = self.up, self.mid * 4
        coeffs = random_full(rng, n, 8, permutation=False)
        at = rng.getrandbits(n) | 1

        def answer():
            value = up.evaluate(up.parse_poly(_text(coeffs)), at, up.Context(n))
            _require(value == horner(coeffs, at, (1 << n) - 1), "eval result")
            return _value_answer(value)

        return self._answer_cmd(
            ["eval", "--n", str(n), "--poly", _text(coeffs), "--at", str(at)], answer)

    def _predicate_cmd(self, rng, command, library, harness):
        coeffs = random_full(rng, self.big, 6, permutation=False)

        def answer():
            value = library(self.up.parse_poly(_text(coeffs)))
            _require(value == harness(coeffs), f"{command} result")
            return _bool_answer(value)

        return self._answer_cmd([command, "--poly", _text(coeffs)], answer)

    def _cmd_member(self, rng):
        return self._predicate_cmd(rng, "member", self.up.induces_function_on_units,
                                   lambda c: sum(c) & 1 == 1)

    def _cmd_perm(self, rng):
        return self._predicate_cmd(rng, "perm", self.up.induces_permutation_on_units,
                                   permutes_units)

    def _cmd_rivest(self, rng):
        return self._predicate_cmd(
            rng, "rivest", self.up.rivest_permutes_ring,
            lambda c: c[1] & 1 == 1 and sum(c[2::2]) & 1 == 0 and sum(c[3::2]) & 1 == 0,
        )

    def _cmd_interp(self, rng):
        up, n = self.up, self.small
        mask, widths = (1 << n) - 1, coeff_widths(n)
        src = random_full(rng, n, len(widths) - 1)
        values = [horner(src, 2 * j + 1, mask) for j in range(len(widths))]
        points = odd_points(rng, n)
        return self._poly_cmd(
            "interp", n, ["--values", _text(values)],
            lambda ctx: up.interpolate(values, ctx),
            lambda out: agrees(out, widths, mask, points, lambda x: horner(src, x, mask)),
        )

    def _nodes_cmd(self, nodes, values, limit, src=None):
        up, n = self.up, self.nodes_n
        mask, widths = (1 << n) - 1, coeff_widths(n)

        def answer():
            try:
                fits = up.interpolate_at_nodes(nodes, values, up.Context(n), max_solutions=limit)
            except up.BudgetExceeded as exc:
                return exc  # a correct answer under an explicit budget
            _require(src is None or tuple(src) in [f.coeffs for f in fits], "source among fits")
            for f in fits:
                _require(is_canonical(f.coeffs, widths), "canonical fit")
                _require(all(horner(f.coeffs, x, mask) == v for x, v in zip(nodes, values)),
                         "fit through every node")
            return ({"polys": [_coeff_strings(f.coeffs) for f in fits]},
                    [_poly_answer(f.coeffs)[1] for f in fits])

        argv = ["interp-nodes", "--n", str(n), "--nodes", _text(nodes),
                "--values", _text(values), "--limit", str(limit)]
        return self._answer_cmd(argv, answer)

    def _cmd_interp_nodes(self, rng):
        n = self.nodes_n
        widths = coeff_widths(n)
        src = random_canonical(rng, widths)
        nodes = rng.sample(range(1, 1 << n, 2), len(widths) + 2)
        values = [horner(src, x, (1 << n) - 1) for x in nodes]
        return self._nodes_cmd(nodes, values, 64, src)

    def _cmd_interp_nodes_budget(self, rng):
        # one node pins almost nothing: the fit count exceeds the budget (exit 1)
        value = rng.getrandbits(self.nodes_n) | 1
        return self._nodes_cmd([1], [value], 4)

    def _cmd_invert(self, rng):
        up, n = self.up, self.small
        mask, widths = (1 << n) - 1, coeff_widths(n)
        src = random_full(rng, n, len(widths) - 1)
        points = odd_points(rng, n)
        return self._poly_cmd(
            "invert", n, ["--poly", _text(src)],
            lambda ctx: up.invert_permutation(up.parse_poly(_text(src)), ctx),
            lambda out: is_canonical(out, widths)
            and all(horner(src, horner(out, x, mask), mask) == x for x in points),
        )

    def _cmd_invert_not_perm(self, rng):
        # even odd-indexed coefficient sum: not a permutation (exit 1)
        up, n = self.up, self.small
        coeffs = [rng.getrandbits(n) | 1, rng.getrandbits(n) & ~1 or 2]

        def answer():
            try:
                up.invert_permutation(up.parse_poly(_text(coeffs)), up.Context(n))
            except up.NotAPermutation as exc:
                return exc
            raise CheckFailed("invert accepted a non-permutation")

        return self._answer_cmd(["invert", "--n", str(n), "--poly", _text(coeffs)], answer)

    def _cmd_mulinv(self, rng):
        up, n = self.up, self.small
        mask, widths = (1 << n) - 1, coeff_widths(n)
        src = random_full(rng, n, len(widths) - 1)
        points = odd_points(rng, n)
        return self._poly_cmd(
            "mulinv", n, ["--poly", _text(src)],
            lambda ctx: up.multiplicative_inverse(up.parse_poly(_text(src)), ctx),
            lambda out: agrees(out, widths, mask, points,
                               lambda x: pow(horner(src, x, mask), -1, mask + 1)),
        )

    def _cmd_mul(self, rng):
        up, n = self.up, self.small
        mask, widths = (1 << n) - 1, coeff_widths(n)
        a = random_full(rng, n, len(widths) - 1, permutation=False)
        b = random_full(rng, n, len(widths) - 1, permutation=False)
        points = odd_points(rng, n)

        def compute(ctx):
            reduced = [up.reduce(up.parse_poly(_text(c)), ctx) for c in (a, b)]
            return up.multiply_reduced(*reduced, ctx)

        return self._poly_cmd(
            "mul", n, ["--poly", _text(a), "--by", _text(b)], compute,
            lambda out: agrees(out, widths, mask, points,
                               lambda x: horner(a, x, mask) * horner(b, x, mask) & mask),
        )

    def _cmd_hensel_roots(self, rng):
        up, n = self.up, self.mid
        mask = (1 << n) - 1
        s = rng.getrandbits(n) | 1
        coeffs = [-s * s & mask, 0, 1]  # x**2 - s**2

        def answer():
            roots = up.hensel_roots(up.parse_poly(_text(coeffs)), n)
            _require(s in roots and -s & mask in roots and roots == sorted(roots)
                     and all(horner(coeffs, r, mask) == 0 for r in roots), "hensel roots")
            strings = [str(r) for r in roots]
            return {"roots": strings}, ",".join(strings)

        return self._answer_cmd(["hensel-roots", "--n", str(n), "--poly", _text(coeffs)], answer)

    def _cmd_unit_inv(self, rng):
        n = self.big
        value = rng.getrandbits(n) | 1

        def answer():
            inverse = self.up.unit_inverse(value, n)
            _require(value * inverse & ((1 << n) - 1) == 1, "unit inverse")
            return _value_answer(inverse)

        return self._answer_cmd(["unit-inv", "--n", str(n), "--value", str(value)], answer)

    def _cmd_count(self, rng):
        n = self.big

        def answer():
            report = self.up.census_report(n).to_dict()
            _require(report["identity_ok"] is True
                     and report["log2_permutational"] == report["log2_reduced"] - 1, "census")
            lines = [f"{key} = {str(value).lower() if isinstance(value, bool) else value}"
                     for key, value in report.items()]
            return report, lines

        return self._answer_cmd(["count", "--n", str(n)], answer)

    def _cmd_keller(self, rng):
        n = self.big

        def answer():
            ok = self.up.keller_identity_check(n)
            _require(ok is True, "counting identity")
            return _bool_answer(ok)

        return self._answer_cmd(["keller", "--n", str(n)], answer)

    def _cmd_qg_apply(self, rng):
        n, mask = self.small, (1 << self.small) - 1
        args = [rng.getrandbits(n) | 1 for _ in range(3)]

        def answer():
            want = 1
            for p, a in zip(self.p_unit, args):
                want = want * horner(p, a, mask) & mask
            value = self.unit_spec.apply(args)
            _require(value == want, "qg apply")
            return _value_answer(value)

        argv = ["qg", "apply", "--spec", self.spec_paths[0], "--args", _text(args)]
        return self._answer_cmd(argv, answer)

    def _cmd_qg_adjoint(self, rng):
        n, mask = self.small, (1 << self.small) - 1
        args = [rng.getrandbits(n) for _ in range(3)]
        probe = list(args)
        probe[1] = sum(glued_value(p, h, a, mask)
                       for p, h, a in zip(self.p_ring, self.h_ring, args)) & mask

        def answer():
            value = self.ring_spec.adjoint(2, probe)
            _require(value == args[1], "qg adjoint")
            return _value_answer(value)

        argv = ["qg", "adjoint", "--spec", self.spec_paths[1], "--coord", "2",
                "--args", _text(probe)]
        return self._answer_cmd(argv, answer)

    def _cmd_qg_check(self, rng):
        def answer():
            ok = self.tiny_spec.latin_check()
            _require(ok is True, "latin check")
            return _bool_answer(ok)

        return self._answer_cmd(["qg", "check", "--spec", self.spec_paths[2]], answer)

    def _cmd_qg_random(self, rng):
        up, n = self.up, self.small
        seed = rng.getrandbits(32)

        def answer():
            spec = up.QuasigroupSpec.random(up.Context(n), 2, "RING_GLUED", random.Random(seed))
            data = spec.to_dict()
            _require(all(permutes_units([int(c) for c in row]) for row in data["p"] + data["h"]),
                     "random spec permutes the units")
            return {"spec": data}, json.dumps(data, sort_keys=True)

        argv = ["qg", "random", "--n", str(n), "--k", "2", "--mode", "ring_glued",
                "--seed", str(seed)]
        return self._answer_cmd(argv, answer)

    def _cmd_selftest(self, rng):
        # its expected lines are the library's own worked examples; check shape
        return ["selftest"], lambda fmt: functools.partial(_selftest_ok, fmt)


WORKLOADS = {cls.name: cls for cls in (Solve, Canon, Quasigroup, Cli)}
