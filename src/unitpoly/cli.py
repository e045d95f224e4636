"""Command-line surface: one subcommand per library operation.

Output is deterministic, byte for byte. Text mode prints bare results,
with polynomials as comma-separated decimal coefficients, lowest degree
first. JSON mode wraps results as {"ok": ...} and failures as
{"error": {"type": ..., "message": ...}}; big integers travel as decimal
strings. Exit codes: 0 success, 1 domain error, 2 usage error. The env
var UNITPOLY_MAX_N overrides the default ceiling on n.

Each subcommand is one row of _COMMANDS: name, help text, flag names
(every flag's argparse spec is declared once, in _FLAGS) and a handler.
run() turns --n into args.ctx, checked against the ceiling, for every
command that takes --n, and _render() prints a result by its type.
Handlers call library functions by their module-level names when they
run, so a wrapper installed on those names sees every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from collections.abc import Callable, Mapping
from typing import NamedTuple

from .census import census_report, identity_sweep, keller_identity_check
from .context import DEFAULT_MAX_N, Context
from .errors import UnitPolyError
from .poly import (
    ReducedPoly,
    evaluate,
    ideal_generators,
    induces_function_on_units,
    induces_permutation_on_units,
    parse_poly,
    reduce,
    rivest_permutes_ring,
)
from .quasigroup import DEFAULT_LATIN_BUDGET, QuasigroupSpec
from .residue import DEFAULT_BRANCH_LIMIT, check_unit_group_structure, hensel_roots, unit_inverse
from .solve import (
    DEFAULT_SOLUTION_BUDGET,
    interpolate,
    interpolate_at_nodes,
    invert_permutation,
    multiplicative_inverse,
    multiply_reduced,
)


def _max_n() -> int:
    raw = os.environ.get("UNITPOLY_MAX_N")
    if raw is None:
        return DEFAULT_MAX_N
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"UNITPOLY_MAX_N must be an integer, got {raw!r}") from None


def _poly_arg(text: str):
    try:
        return parse_poly(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _ints_arg(text: str):
    try:
        return [int(piece.strip()) for piece in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _render(result):
    """(payload, text, exit code) for a handler's result, by its type."""
    if isinstance(result, ReducedPoly):
        text = result.text()
        return {"poly": text.split(",")}, text, 0
    if isinstance(result, bool):  # before int: bool is a subclass of int
        return {"result": result}, "true" if result else "false", 0
    if isinstance(result, int):
        return {"value": str(result)}, str(result), 0
    return result  # already (payload, text, exit code)


# -- handlers with their own output shape ------------------------------------


def _cmd_interp_nodes(args):
    fits = interpolate_at_nodes(args.nodes, args.values, args.ctx, max_solutions=args.limit)
    payload = {"polys": [rp.text().split(",") for rp in fits]}
    return payload, [rp.text() for rp in fits], 0


def _cmd_hensel_roots(args):
    roots = hensel_roots(args.poly, args.n, branch_limit=args.branch_limit)
    return {"roots": [str(r) for r in roots]}, ",".join(str(r) for r in roots), 0


def _cmd_count(args):
    report = census_report(args.n).to_dict()
    return report, [f"{key} = {_render(value)[1]}" for key, value in report.items()], 0


def _load_spec(args) -> QuasigroupSpec:
    if args.spec == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read spec file: {exc}") from None
    return QuasigroupSpec.from_json(text, max_n=_max_n())


def _cmd_qg_random(args):
    spec = QuasigroupSpec.random(args.ctx, args.k, args.mode.upper(), random.Random(args.seed))
    data = spec.to_dict()
    return {"spec": data}, json.dumps(data, sort_keys=True), 0


# -- selftest ----------------------------------------------------------------


def _selftest_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, got, want) -> None:
        ok = got == want
        checks.append((name, ok, "" if ok else f"got {got!r}, want {want!r}"))

    ctx3, ctx4, ctx5 = Context(3), Context(4), Context(5)

    rp = reduce(parse_poly("1,0,0,0,0,3"), ctx5)
    add("canonical form of 1+3x^5 at n=5", rp.coeffs, (31, 3, 2, 0))

    gens = tuple(g.coeffs for g in ideal_generators(ctx5))
    add(
        "ideal generators at n=5",
        gens,
        ((32,), (16, 16), (12, 16, 4), (30, 14, 18, 2), (9, 16, 22, 16, 1)),
    )

    add("interpolation of (9,5,9) at n=4", interpolate((9, 5, 9), ctx4).coeffs, (6, 2, 1))

    fits = interpolate_at_nodes((1, 5, 9), (9, 9, 9), ctx4)
    add(
        "all fits through nodes 1,5,9 -> 9,9,9 at n=4",
        tuple(rp.coeffs for rp in fits),
        ((2, 6, 1), (5, 4, 0), (6, 2, 1), (9, 0, 0)),
    )

    perm = parse_poly("5,1,1")
    add(
        "forward values of 5+x+x^2 at n=4",
        tuple(evaluate(perm, x, ctx4) for x in (1, 3, 5)),
        (7, 1, 3),
    )
    add("inverse permutation of 5+x+x^2 at n=4", invert_permutation(perm, ctx4).coeffs, (13, 5, 1))

    add("pointwise inverse of 2+x at n=3", multiplicative_inverse((2, 1), ctx3).coeffs, (2, 1))
    add("pointwise inverse of 4+3x at n=4", multiplicative_inverse((4, 3), ctx4).coeffs, (3, 3, 1))
    add(
        "pointwise inverse of 31+2x+2x^2+x^3+x^4 at n=5",
        multiplicative_inverse((31, 2, 2, 1, 1), ctx5).coeffs,
        (4, 7, 2, 0),
    )

    square4 = multiply_reduced(reduce((2, 1), ctx4), reduce((2, 1), ctx4), ctx4)
    add("square of 2+x at n=4", square4.coeffs, (4, 4, 1))
    square3 = multiply_reduced(reduce((2, 1), ctx3), reduce((2, 1), ctx3), ctx3)
    add("square of 2+x collapses to 1 at n=3", square3.coeffs, (1, 0))

    add("2+x permutes the odd residues", induces_permutation_on_units((2, 1)), True)
    add("its square does not", induces_permutation_on_units((4, 4, 1)), False)

    report = check_unit_group_structure(5)
    add("unit group structure at n=5", (report.halfway_power, report.passed), (17, True))

    add(
        "counting identity for every n in 2..1024",
        all(ring == keller for _, ring, keller in identity_sweep(1024)),
        True,
    )
    return checks


def _cmd_selftest(args):
    checks = _selftest_checks()
    failed = sum(1 for _, ok, _ in checks if not ok)
    lines = []
    for name, ok, detail in checks:
        if ok:
            lines.append(f"ok   {name}")
        else:
            lines.append(f"FAIL {name}: {detail}")
    lines.append(f"{len(checks) - failed}/{len(checks)} checks passed")
    payload = {
        "passed": len(checks) - failed,
        "failed": failed,
        "checks": [
            {"name": name, "ok": ok, **({"detail": detail} if detail else {})}
            for name, ok, detail in checks
        ],
    }
    return payload, lines, 0 if failed == 0 else 1


# -- the command table -------------------------------------------------------


_FLAGS = {
    "format": {"choices": ("text", "json"), "default": "text", "help": "output format"},
    "n": {"type": int, "required": True, "help": "modulus exponent"},
    "poly": {"type": _poly_arg, "required": True},
    "by": {"type": _poly_arg, "required": True},
    "at": {"type": int, "required": True},
    "values": {"type": _ints_arg, "required": True},
    "nodes": {"type": _ints_arg, "required": True},
    "limit": {"type": int, "default": DEFAULT_SOLUTION_BUDGET,
              "help": f"cap on the solution count (default {DEFAULT_SOLUTION_BUDGET})"},
    "branch-limit": {"type": int, "default": DEFAULT_BRANCH_LIMIT},
    "value": {"type": int, "required": True},
    "spec": {"required": True, "help": "spec JSON file, or - for stdin"},
    "args": {"type": _ints_arg, "required": True},
    "coord": {"type": int, "required": True, "help": "coordinate to solve for, 1-based"},
    "budget": {"type": int, "default": DEFAULT_LATIN_BUDGET},
    "k": {"type": int, "required": True},
    "mode": {"choices": ("unit_product", "ring_additive", "ring_glued"), "required": True},
    "seed": {"type": int, "required": True},
}


class _Command(NamedTuple):
    name: str
    help: str
    flags: tuple[str, ...] = ()
    handler: Callable | None = None  # None: a group of subcommands
    flag_help: Mapping[str, str | None] = {}  # this command's help for a flag


_COMMANDS = (
    _Command("reduce", "canonical form of a polynomial", ("n", "poly"),
             lambda a: reduce(a.poly, a.ctx)),
    _Command("eval", "evaluate at a point", ("n", "poly", "at"),
             lambda a: evaluate(a.poly, a.at, a.ctx)),
    _Command("member", "does it map odd residues to odd residues?", ("poly",),
             lambda a: induces_function_on_units(a.poly)),
    _Command("perm", "does it permute the odd residues?", ("poly",),
             lambda a: induces_permutation_on_units(a.poly)),
    _Command("rivest", "does it permute the whole ring?", ("poly",),
             lambda a: rivest_permutes_ring(a.poly)),
    _Command("interp", "interpolate values at the standard odd nodes", ("n", "values"),
             lambda a: interpolate(a.values, a.ctx)),
    _Command("interp-nodes", "all canonical fits through arbitrary odd nodes",
             ("n", "nodes", "values", "limit"), _cmd_interp_nodes),
    _Command("invert", "inverse of a permutation of the odd residues", ("n", "poly"),
             lambda a: invert_permutation(a.poly, a.ctx)),
    _Command("mulinv", "pointwise multiplicative inverse", ("n", "poly"),
             lambda a: multiplicative_inverse(a.poly, a.ctx)),
    _Command("mul", "product of two canonical forms", ("n", "poly", "by"),
             lambda a: multiply_reduced(reduce(a.poly, a.ctx), reduce(a.by, a.ctx), a.ctx)),
    _Command("hensel-roots", "all roots modulo 2**n", ("n", "poly", "branch-limit"),
             _cmd_hensel_roots),
    _Command("unit-inv", "inverse of an odd residue", ("n", "value"),
             lambda a: unit_inverse(a.ctx.check_unit(a.value), a.n)),
    _Command("count", "function counts as log2 exponents", ("n",), _cmd_count),
    _Command("keller", "check the counting identity at one n", ("n",),
             lambda a: keller_identity_check(a.n)),
    _Command("qg", "k-ary quasigroup operations"),
    _Command("qg apply", "apply the operation", ("spec", "args"),
             lambda a: _load_spec(a).apply(a.args)),
    _Command("qg adjoint", "solve for one argument", ("spec", "coord", "args"),
             lambda a: _load_spec(a).adjoint(a.coord, a.args),
             {"args": "argument tuple with the target value in the solved position"}),
    _Command("qg check", "exhaustive quasigroup verification", ("spec", "budget"),
             lambda a: _load_spec(a).latin_check(budget=a.budget)),
    _Command("qg random", "seeded random spec", ("n", "k", "mode", "seed"), _cmd_qg_random,
             {"n": None}),
    _Command("selftest", "run the built-in worked examples", (), _cmd_selftest),
)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unitpoly",
        description="Polynomial functions on the odd residues modulo 2**n.",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for row in _COMMANDS:
        group, _, name = row.name.rpartition(" ")
        if row.handler is None:
            groups[name] = groups[group].add_parser(name, help=row.help).add_subparsers(
                dest=f"{name}_command", required=True
            )
            continue
        p = groups[group].add_parser(name, help=row.help)
        for flag in ("format", *row.flags):
            spec = _FLAGS[flag]
            if flag in row.flag_help:
                spec = {**spec, "help": row.flag_help[flag]}
            p.add_argument(f"--{flag}", **spec)
        p.set_defaults(handler=row.handler)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if "n" in args:  # the one ceiling check, for every command with --n
            args.ctx = Context(args.n, max_n=_max_n())
        payload, text, code = _render(args.handler(args))
    except (UnitPolyError, ValueError) as exc:
        if args.format == "json":
            print(json.dumps(
                {"error": {"type": type(exc).__name__, "message": str(exc)}},
                sort_keys=True,
            ))
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps({"ok": payload}, sort_keys=True))
    elif isinstance(text, list):
        for line in text:
            print(line)
    else:
        print(text)
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # inside the try, so a reader gone early is met here
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull, so the interpreter's last flush
        # cannot raise again (as the signal module's notes on SIGPIPE advise), and fail quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
