import os
import pathlib
import random

import pytest
from hypothesis import settings

# every property test replays the same examples and leaves no example database
settings.register_profile("unitpoly", derandomize=True, database=None, deadline=None)
settings.load_profile("unitpoly")

# `python -m unitpoly` subprocesses import this checkout's package too, as the
# tests do through pyproject's pythonpath = ["src"]
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


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
