"""Command-line surface: one subcommand per library operation.

Output is deterministic, byte for byte. Text mode prints bare results,
with polynomials as comma-separated decimal coefficients, lowest degree
first. JSON mode wraps results as {"ok": ...} and failures as
{"error": {"type": ..., "message": ...}}; big integers travel as decimal
strings. Exit codes: 0 success, 1 domain error, 2 usage error. The env
var UNITPOLY_MAX_N overrides the default ceiling on n.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .census import census_report, keller_identity_check
from .context import DEFAULT_MAX_N, Context
from .errors import UnitPolyError
from .poly import (
    evaluate,
    ideal_generators,
    induces_function_on_units,
    induces_permutation_on_units,
    parse_poly,
    reduce,
    rivest_permutes_ring,
)
from .quasigroup import QuasigroupSpec
from .residue import check_unit_group_structure, hensel_roots, unit_inverse
from .solve import (
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


def _context(n: int) -> Context:
    return Context(n, max_n=_max_n())


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


def _poly_result(rp):
    text = rp.text()
    return {"poly": text.split(",")}, text, 0


def _bool_result(value: bool):
    return {"result": bool(value)}, "true" if value else "false", 0


# -- handlers ----------------------------------------------------------------


def _cmd_reduce(args):
    return _poly_result(reduce(args.poly, _context(args.n)))


def _cmd_eval(args):
    value = evaluate(args.poly, args.at, _context(args.n))
    return {"value": str(value)}, str(value), 0


def _cmd_member(args):
    return _bool_result(induces_function_on_units(args.poly))


def _cmd_perm(args):
    return _bool_result(induces_permutation_on_units(args.poly))


def _cmd_rivest(args):
    return _bool_result(rivest_permutes_ring(args.poly))


def _cmd_interp(args):
    return _poly_result(interpolate(args.values, _context(args.n)))


def _cmd_interp_nodes(args):
    fits = interpolate_at_nodes(
        args.nodes, args.values, _context(args.n), max_solutions=args.limit
    )
    payload = {"polys": [rp.text().split(",") for rp in fits]}
    return payload, [rp.text() for rp in fits], 0


def _cmd_invert(args):
    return _poly_result(invert_permutation(args.poly, _context(args.n)))


def _cmd_mulinv(args):
    return _poly_result(multiplicative_inverse(args.poly, _context(args.n)))


def _cmd_mul(args):
    ctx = _context(args.n)
    return _poly_result(multiply_reduced(reduce(args.poly, ctx), reduce(args.by, ctx), ctx))


def _cmd_hensel_roots(args):
    roots = hensel_roots(args.poly, args.n, branch_limit=args.branch_limit)
    return {"roots": [str(r) for r in roots]}, ",".join(str(r) for r in roots), 0


def _cmd_unit_inv(args):
    _context(args.n)  # enforce the same n ceiling as every other command
    value = unit_inverse(args.value, args.n)
    return {"value": str(value)}, str(value), 0


def _cmd_count(args):
    _context(args.n)
    report = census_report(args.n).to_dict()
    lines = []
    for key, value in report.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return report, lines, 0


def _cmd_keller(args):
    _context(args.n)
    return _bool_result(keller_identity_check(args.n))


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


def _cmd_qg_apply(args):
    value = _load_spec(args).apply(args.args)
    return {"value": str(value)}, str(value), 0


def _cmd_qg_adjoint(args):
    value = _load_spec(args).adjoint(args.coord, args.args)
    return {"value": str(value)}, str(value), 0


def _cmd_qg_check(args):
    ok = _load_spec(args).latin_check(budget=args.budget)
    return _bool_result(ok)


def _cmd_qg_random(args):
    ctx = _context(args.n)
    spec = QuasigroupSpec.random(ctx, args.k, args.mode.upper(), random.Random(args.seed))
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
        all(keller_identity_check(n) for n in range(2, 1025)),
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


# -- parser ------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="unitpoly",
        description="Polynomial functions on the odd residues modulo 2**n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help_text, need_n=True):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        if need_n:
            p.add_argument("--n", type=int, required=True, help="modulus exponent")
        p.set_defaults(handler=handler)
        return p

    p = command("reduce", _cmd_reduce, "canonical form of a polynomial")
    p.add_argument("--poly", type=_poly_arg, required=True)

    p = command("eval", _cmd_eval, "evaluate at a point")
    p.add_argument("--poly", type=_poly_arg, required=True)
    p.add_argument("--at", type=int, required=True)

    p = command("member", _cmd_member, "does it map odd residues to odd residues?", need_n=False)
    p.add_argument("--poly", type=_poly_arg, required=True)

    p = command("perm", _cmd_perm, "does it permute the odd residues?", need_n=False)
    p.add_argument("--poly", type=_poly_arg, required=True)

    p = command("rivest", _cmd_rivest, "does it permute the whole ring?", need_n=False)
    p.add_argument("--poly", type=_poly_arg, required=True)

    p = command("interp", _cmd_interp, "interpolate values at the standard odd nodes")
    p.add_argument("--values", type=_ints_arg, required=True)

    p = command("interp-nodes", _cmd_interp_nodes, "all canonical fits through arbitrary odd nodes")
    p.add_argument("--nodes", type=_ints_arg, required=True)
    p.add_argument("--values", type=_ints_arg, required=True)
    p.add_argument("--limit", type=int, default=1 << 12, help="cap on the solution count (default 4096)")

    p = command("invert", _cmd_invert, "inverse of a permutation of the odd residues")
    p.add_argument("--poly", type=_poly_arg, required=True)

    p = command("mulinv", _cmd_mulinv, "pointwise multiplicative inverse")
    p.add_argument("--poly", type=_poly_arg, required=True)

    p = command("mul", _cmd_mul, "product of two canonical forms")
    p.add_argument("--poly", type=_poly_arg, required=True)
    p.add_argument("--by", type=_poly_arg, required=True)

    p = command("hensel-roots", _cmd_hensel_roots, "all roots modulo 2**n")
    p.add_argument("--poly", type=_poly_arg, required=True)
    p.add_argument("--branch-limit", type=int, default=1 << 20)

    p = command("unit-inv", _cmd_unit_inv, "inverse of an odd residue")
    p.add_argument("--value", type=int, required=True)

    command("count", _cmd_count, "function counts as log2 exponents")
    command("keller", _cmd_keller, "check the counting identity at one n")

    qg = sub.add_parser("qg", help="k-ary quasigroup operations")
    qg_sub = qg.add_subparsers(dest="qg_command", required=True)

    p = qg_sub.add_parser("apply", parents=[shared], help="apply the operation")
    p.add_argument("--spec", required=True, help="spec JSON file, or - for stdin")
    p.add_argument("--args", type=_ints_arg, required=True)
    p.set_defaults(handler=_cmd_qg_apply)

    p = qg_sub.add_parser("adjoint", parents=[shared], help="solve for one argument")
    p.add_argument("--spec", required=True, help="spec JSON file, or - for stdin")
    p.add_argument("--coord", type=int, required=True, help="coordinate to solve for, 1-based")
    p.add_argument("--args", type=_ints_arg, required=True,
                   help="argument tuple with the target value in the solved position")
    p.set_defaults(handler=_cmd_qg_adjoint)

    p = qg_sub.add_parser("check", parents=[shared], help="exhaustive quasigroup verification")
    p.add_argument("--spec", required=True, help="spec JSON file, or - for stdin")
    p.add_argument("--budget", type=int, default=1 << 20)
    p.set_defaults(handler=_cmd_qg_check)

    p = qg_sub.add_parser("random", parents=[shared], help="seeded random spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=("unit_product", "ring_additive", "ring_glued"),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(handler=_cmd_qg_random)

    command("selftest", _cmd_selftest, "run the built-in worked examples", need_n=False)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, text, code = args.handler(args)
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
    else:
        if isinstance(text, list):
            for line in text:
                print(line)
        elif text is not None:
            print(text)
    return code


def main() -> None:
    sys.exit(run())
