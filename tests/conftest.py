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
    """The coefficient vectors whose class heads an evaluator (poly._OddEvaluator)
    builds, in order. Evaluators reach the heads through poly's own _head_tree;
    invert_permutation builds its tree through solve's binding, so an inversion's
    tree is not counted."""
    from unitpoly import poly

    calls = []
    real = poly._head_tree

    def counting(coeffs, n, depth):
        if depth:  # depth 0 is the coefficients themselves and builds nothing
            calls.append(coeffs)
        return real(coeffs, n, depth)

    monkeypatch.setattr(poly, "_head_tree", counting)
    return calls
