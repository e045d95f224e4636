import os
import pathlib
import random
import sys

import pytest
from hypothesis import settings

# every property test replays the same examples and leaves no example database
settings.register_profile("unitpoly", derandomize=True, database=None, deadline=None)
settings.load_profile("unitpoly")

# `python -m unitpoly` subprocesses import this checkout's package too, as the
# tests do through pyproject's pythonpath = ["src"]
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


# Integers as text, one table for every reader of the package (flags, lists,
# UNITPOLY_MAX_N, parse_poly, spec documents): each reads a key of DECIMALS as
# its value and refuses each string of NOT_DECIMAL. A decimal integer is an
# optional "-" then ASCII digits; a number past the interpreter's digit limit
# (4300 by default, absent before Python 3.10.7) is refused too.
DECIMALS = {"7": 7, "-7": -7, "007": 7, "-0": 0}
NOT_DECIMAL = (
    "+7", " 7", "7 ", "7\n", "7_0", "\u0667", "\u00b2", "\uff17", "0x7", "7.0", "", "-", "--7",
    "\u0663", "+3", " 3 ", "0_3", "\u0668", " 1_0", "\u30007", "7\u3000", "-\u0663", "7\uff17",
) + (("1" * 4302,) if hasattr(sys, "get_int_max_str_digits") else ())
# comma lists: spaces and tabs around a piece are stripped, and nothing else is
DECIMAL_LISTS = {" 1 , -4 , 0 , 2 ": [1, -4, 0, 2], "\t7\t,-0": [7, 0], "1,0,0,3": [1, 0, 0, 3]}
NOT_DECIMAL_LISTS = (
    "1_0,\u0663", "1\u3000,2", "1,\u30002", "1,+1", "1,,2", ",", "1;2", "1 2", "1,2\n",
)


def horner(coeffs, x, n):
    """coeffs at x modulo 2**n, by plain Horner's rule: the reference the
    tests check the library's results against, never its own evaluation."""
    mask = (1 << n) - 1
    value = 0
    for c in reversed(coeffs):
        value = (value * x + c) & mask
    return value


@pytest.fixture
def rng():
    # fixed stream so failures replay exactly
    return random.Random(0x5EED)


@pytest.fixture
def inversions(monkeypatch):
    """The polynomials a quasigroup spec passes to invert_permutation, in order."""
    from unitpoly import quasigroup

    calls = []
    real = quasigroup.invert_permutation

    def counting(poly, ctx):
        calls.append(poly)
        return real(poly, ctx)

    monkeypatch.setattr(quasigroup, "invert_permutation", counting)
    return calls


@pytest.fixture
def head_builds(monkeypatch):
    """The stage switches of evaluators (poly._OddEvaluator), in order: (from depth,
    to depth) for each tree an evaluator grows (poly._deepened). invert_permutation
    builds its one tree through _head_tree, so an inversion's tree is not counted."""
    from unitpoly import poly

    calls = []
    real = poly._deepened

    def counting(tree, n, depth):
        calls.append((tree[0], depth))
        return real(tree, n, depth)

    monkeypatch.setattr(poly, "_deepened", counting)
    return calls


@pytest.fixture(autouse=True)
def cold_row_stores():
    """Empties poly's kept row stores and its record of precisions solved (poly._row_store),
    so every test starts as a fresh process does, whatever ran before it; a test that needs
    a cold start again calls the function it returns."""
    from unitpoly import poly

    def empty():
        with poly._ROW_STORES:
            poly._row_stores.clear()
            poly._solved.clear()

    empty()
    return empty


@pytest.fixture
def store_builds(monkeypatch):
    """(n, whole) for each row store of tuples poly builds, in order (poly._build_rows)."""
    from unitpoly import poly

    builds = []
    real = poly._build_rows

    def counting(n, whole):
        builds.append((n, whole))
        return real(n, whole)

    monkeypatch.setattr(poly, "_build_rows", counting)
    return builds
