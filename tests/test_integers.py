"""Integers that arrive as text: one table (conftest) through every reader.

Every flag, every comma list, UNITPOLY_MAX_N, parse_poly and a spec
document's strings read an integer by context.decimal: an optional
"-" then ASCII digits, with spaces and tabs allowed only around the pieces
of a comma list. A refused flag or list is a usage error (exit 2).
"""

import json
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import DECIMAL_LISTS, DECIMALS, NOT_DECIMAL, NOT_DECIMAL_LISTS
from unitpoly import Context, IntPoly, Mode, QuasigroupSpec, ReducedPoly, parse_poly
from unitpoly.cli import _build_parser, _max_n, run
from unitpoly.context import decimal_list
from unitpoly.quasigroup import _integer

# each integer flag, after the other flags its command needs
SCALAR_FLAGS = {
    "n": ["keller"],
    "at": ["eval", "--n=4", "--poly=1"],
    "limit": ["interp-nodes", "--n=4", "--nodes=1", "--values=1"],
    "branch-limit": ["hensel-roots", "--n=4", "--poly=1"],
    "value": ["unit-inv", "--n=4"],
    "coord": ["qg", "adjoint", "--spec=-", "--args=1"],
    "budget": ["qg", "check", "--spec=-"],
    "k": ["qg", "random", "--n=4", "--mode=unit_product", "--seed=1"],
    "seed": ["qg", "random", "--n=4", "--k=1", "--mode=unit_product"],
}
LIST_FLAGS = {
    "values": ["interp", "--n=4"],
    "nodes": ["interp-nodes", "--n=4", "--values=1"],
    "args": ["qg", "apply", "--spec=-"],
    "poly": ["reduce", "--n=4"],
    "by": ["mul", "--n=4", "--poly=1"],
}
# a list reads each piece once the spaces and tabs around it are stripped
LISTS = {**DECIMAL_LISTS, **{f" {text}\t": [value] for text, value in DECIMALS.items()}}
NOT_LISTS = NOT_DECIMAL_LISTS + tuple(t for t in NOT_DECIMAL if t == t.strip(" \t"))
DIGIT_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                 reason="no integer string conversion limit before 3.10.7")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parsed(flag, argv):
    args = _build_parser().parse_args(argv)
    return getattr(args, flag.replace("-", "_"))


@pytest.mark.parametrize("flag", SCALAR_FLAGS)
def test_an_integer_flag_reads_the_table(capsys, flag):
    argv = SCALAR_FLAGS[flag]
    for text, value in DECIMALS.items():
        assert _parsed(flag, [*argv, f"--{flag}={text}"]) == value, text
    for text in NOT_DECIMAL + NOT_DECIMAL_LISTS:
        code, out, err = invoke(capsys, *argv, f"--{flag}={text}")
        assert (code, out) == (2, ""), text
        assert f"error: argument --{flag}: invalid decimal value: {text!r}" in err


@pytest.mark.parametrize("flag", LIST_FLAGS)
def test_a_list_flag_reads_the_table(capsys, flag):
    argv = LIST_FLAGS[flag]
    for text, values in LISTS.items():
        want = IntPoly(values) if flag in ("poly", "by") else values
        assert _parsed(flag, [*argv, f"--{flag}={text}"]) == want, text
    for text in NOT_LISTS:
        code, out, err = invoke(capsys, *argv, f"--{flag}={text}")
        assert (code, out) == (2, ""), text
        reader = "polynomial" if flag in ("poly", "by") else "decimal_list"
        assert f"error: argument --{flag}: invalid {reader} value: {text!r}" in err


def test_parse_poly_reads_the_table():
    for text, values in LISTS.items():
        assert parse_poly(text) == IntPoly(values), text
    for text in NOT_LISTS:
        with pytest.raises(ValueError):
            parse_poly(text)


def test_max_n_reads_the_table(capsys, monkeypatch):
    for text, value in DECIMALS.items():
        monkeypatch.setenv("UNITPOLY_MAX_N", text)
        assert _max_n() == value
    for text in NOT_DECIMAL + NOT_DECIMAL_LISTS:
        monkeypatch.setenv("UNITPOLY_MAX_N", text)
        assert invoke(capsys, "keller", "--n", "4") == (
            1, "", f"error: ValueError: UNITPOLY_MAX_N must be an integer, got {text!r}\n"
        )


def _document(**changes):
    data = QuasigroupSpec(Context(4), Mode.UNIT_PRODUCT, [ReducedPoly((2, 1), 4)]).to_dict()
    return {**data, **changes}


def test_a_spec_document_reads_the_table():
    for text, value in DECIMALS.items():
        with pytest.raises(ValueError) as caught:  # k disagrees with the one polynomial
            QuasigroupSpec.from_dict(_document(k=text))
        assert str(caught.value) == f"document says k={value} but carries 1 polynomials"
    for text in NOT_DECIMAL + NOT_DECIMAL_LISTS:
        for data in (_document(k=text), _document(p=[["2", text]])):
            with pytest.raises(ValueError) as caught:
                QuasigroupSpec.from_dict(data)
            assert str(caught.value) == (
                "malformed quasigroup document: expected an integer or a decimal string, got str"
            ), text


@given(st.text("0123456789-+_, ٣０\t", max_size=12))
def test_a_list_is_read_as_a_document_reads_each_piece(text):
    pieces = [piece.strip(" \t") for piece in text.split(",")]
    try:
        want = [_integer(piece) for piece in pieces]
    except TypeError:
        want = None
    assert (want is not None) == all(re.fullmatch("-?[0-9]+", piece) for piece in pieces), text
    try:
        got = decimal_list(text)
    except ValueError:
        got = None
    assert got == want, text
    if want is not None:
        assert parse_poly(text) == IntPoly(want), text
    else:
        with pytest.raises(ValueError):
            parse_poly(text)


# -- the digit ceiling ("Ceilings" in the README) -------------------------------


@DIGIT_LIMIT
def test_an_integer_past_the_digit_limit_is_a_usage_error(capsys):
    digits = "1" * 4302
    for argv in (["unit-inv", "--n", "4", "--value", digits],
                 ["interp", "--n", "4", "--values", f"1,{digits}"],
                 ["reduce", "--n", "4", "--poly", f"1,{digits}"]):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "") and "Traceback" not in err


@DIGIT_LIMIT
def test_a_document_past_the_digit_limit_is_malformed(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_document(p=[["2", "1" * 4302]])))
    code, out, err = invoke(capsys, "qg", "apply", "--spec", str(path), "--args", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueError: malformed quasigroup document: ")


@DIGIT_LIMIT
def test_printing_past_the_digit_limit_is_a_domain_error(capsys, monkeypatch):
    monkeypatch.setenv("UNITPOLY_MAX_N", "15000")
    argv = ("unit-inv", "--n", "15000", "--value", "3")
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueError: Exceeds the limit (4300 digits)")
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("Exceeds the limit (4300 digits)")
