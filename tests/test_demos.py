"""Every demo prints exactly its golden output, tests/demo_golden/<demo>.txt.

After an intended change to a demo's output, regenerate its golden file by
running the demo from the repository root:
    PYTHONPATH=src python demos/<demo>.py > tests/demo_golden/<demo>.txt
"""

import contextlib
import io
import pathlib
import runpy

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
DEMOS = sorted((TESTS.parent / "demos").glob("*.py"))


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert {p.stem for p in DEMOS} == {p.stem for p in (TESTS / "demo_golden").glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue() == (TESTS / "demo_golden" / f"{demo.stem}.txt").read_text()
