"""The command-line surface: output bytes, exit codes, error shapes."""

import io
import json
import pathlib
import subprocess
import sys

import pytest

from conftest import horner
from unitpoly.cli import run
from unitpoly.quasigroup import RANDOM_ARITY_BUDGET


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reduce_text(capsys):
    code, out, err = invoke(capsys, "reduce", "--n", "5", "--poly", "1,0,0,0,0,3")
    assert (code, out, err) == (0, "31,3,2\n", "")


def test_reduce_json(capsys):
    code, out, _ = invoke(capsys, "reduce", "--n", "5", "--poly", "1,0,0,0,0,3",
                          "--format", "json")
    assert code == 0
    assert json.loads(out) == {"ok": {"poly": ["31", "3", "2"]}}


def test_output_is_deterministic(capsys):
    first = invoke(capsys, "count", "--n", "7", "--format", "json")
    second = invoke(capsys, "count", "--n", "7", "--format", "json")
    assert first == second


def test_usage_error_then_valid_command(capsys):
    code, out, err = invoke(capsys, "reduce", "--n", "5")
    assert (code, out) == (2, "") and "--poly" in err
    code, _, _ = invoke(capsys, "reduce", "--n", "5", "--poly", "1,0,0,0,0,3",
                        "--format", "json")
    assert code == 0
    assert invoke(capsys, "reduce", "--n", "5", "--poly", "1,0,0,0,0,3") == (0, "31,3,2\n", "")


def test_eval(capsys):
    code, out, _ = invoke(capsys, "eval", "--n", "4", "--poly", "5,1,1", "--at", "3")
    assert (code, out) == (0, "1\n")


@pytest.mark.parametrize(
    "cmd, poly, expected",
    [
        ("member", "2,1", "true"),
        ("member", "1,1", "false"),
        ("perm", "4,4,1", "false"),
        ("rivest", "2,1", "true"),
    ],
)
def test_predicate_commands(capsys, cmd, poly, expected):
    code, out, _ = invoke(capsys, cmd, "--poly", poly)
    assert (code, out) == (0, expected + "\n")


def test_interp(capsys):
    code, out, _ = invoke(capsys, "interp", "--n", "4", "--values", "9,5,9")
    assert (code, out) == (0, "6,2,1\n")


def test_interp_nodes_lists_every_fit(capsys):
    code, out, _ = invoke(capsys, "interp-nodes", "--n", "4",
                          "--nodes", "1,5,9", "--values", "9,9,9")
    assert code == 0
    assert out == "2,6,1\n5,4\n6,2,1\n9\n"


def test_interp_nodes_has_a_default_budget(capsys):
    # 2**1073 canonical polynomials take the value 1 at x = 1 when n = 64
    code, out, err = invoke(capsys, "interp-nodes", "--n", "64", "--nodes", "1", "--values", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: BudgetExceeded:")


def test_a_negative_budget_exits_1(capsys):
    code, out, err = invoke(capsys, "hensel-roots", "--n", "4", "--poly", "1",
                            "--branch-limit", "-1")
    assert (code, out) == (1, "")
    assert err == "error: ValueError: branch_limit must be non-negative, got -1\n"


def test_interp_nodes_budget_at_large_n(capsys):
    # d = 1024 free coefficients: the enumeration must not recurse per degree
    code, out, _ = invoke(capsys, "interp-nodes", "--n", "2048", "--nodes", "1", "--values", "1",
                          "--limit", "1", "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BudgetExceeded"


def test_interp_nodes_inconsistent_table_prints_nothing(capsys):
    code, out, err = invoke(capsys, "interp-nodes", "--n", "16", "--nodes", "8375,15491,42275",
                            "--values", "27729,32407,1253", "--limit", "4")
    assert (code, out, err) == (0, "", "")


def test_interp_nodes_refuses_a_dear_elimination(capsys):
    # d + 1 = 2049 nodes at n = 4096: refused by the elimination budget before it starts
    nodes = ",".join(str(2 * i + 1) for i in range(2049))
    code, out, err = invoke(capsys, "interp-nodes", "--n", "4096", "--nodes", nodes,
                            "--values", nodes)
    assert (code, out) == (1, "")
    assert err.startswith("error: BudgetExceeded: eliminating 2049 nodes at n=4096 takes ")


def test_invert(capsys):
    code, out, _ = invoke(capsys, "invert", "--n", "4", "--poly", "5,1,1")
    assert (code, out) == (0, "13,5,1\n")


def test_mulinv(capsys):
    code, out, _ = invoke(capsys, "mulinv", "--n", "5", "--poly", "31,2,2,1,1")
    assert (code, out) == (0, "4,7,2\n")


def test_mul(capsys):
    code, out, _ = invoke(capsys, "mul", "--n", "4", "--poly", "2,1", "--by", "2,1")
    assert (code, out) == (0, "4,4,1\n")


def test_hensel_roots(capsys):
    code, out, _ = invoke(capsys, "hensel-roots", "--n", "4", "--poly=-1,0,1")
    assert (code, out) == (0, "1,7,9,15\n")


def test_hensel_roots_empty(capsys):
    code, out, _ = invoke(capsys, "hensel-roots", "--n", "3", "--poly", "1,0,1")
    assert (code, out) == (0, "\n")


def test_unit_inv(capsys):
    code, out, _ = invoke(capsys, "unit-inv", "--n", "4", "--value", "3")
    assert (code, out) == (0, "11\n")


def test_count_text(capsys):
    code, out, _ = invoke(capsys, "count", "--n", "5")
    assert code == 0
    assert out.splitlines() == [
        "n = 5",
        "log2_reduced = 11",
        "log2_permutational = 10",
        "log2_ring_permutational = 21",
        "keller_exponent = 21",
        "identity_ok = true",
    ]


def test_keller(capsys):
    code, out, _ = invoke(capsys, "keller", "--n", "1024")
    assert (code, out) == (0, "true\n")


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["eval", "--n", "4", "--poly", "5,1,1", "--at", "3"], '{"ok": {"value": "1"}}'),
        (["unit-inv", "--n", "4", "--value", "3"], '{"ok": {"value": "11"}}'),
        (["qg", "apply", "--spec", "{spec}", "--args", "3,5"], '{"ok": {"value": "31"}}'),
        (["member", "--poly", "2,1"], '{"ok": {"result": true}}'),
        (["perm", "--poly", "4,4,1"], '{"ok": {"result": false}}'),
        (["keller", "--n", "1024"], '{"ok": {"result": true}}'),
        (["qg", "check", "--spec", "{spec}"], '{"ok": {"result": true}}'),
        (["interp", "--n", "4", "--values", "9,5,9"], '{"ok": {"poly": ["6", "2", "1"]}}'),
        (["interp-nodes", "--n", "4", "--nodes", "1,5,9", "--values", "9,9,9"],
         '{"ok": {"polys": [["2", "6", "1"], ["5", "4"], ["6", "2", "1"], ["9"]]}}'),
        (["hensel-roots", "--n", "4", "--poly=-1,0,1"], '{"ok": {"roots": ["1", "7", "9", "15"]}}'),
    ],
)
def test_json_shape_of_each_result_type(capsys, spec_file, argv, expected):
    argv = [str(spec_file) if arg == "{spec}" else arg for arg in argv]
    assert invoke(capsys, *argv, "--format", "json") == (0, expected + "\n", "")


# -- exit codes and error shapes ----------------------------------------------


def test_usage_error_exits_2(capsys):
    assert invoke(capsys, "reduce", "--poly", "1")[0] == 2
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "reduce", "--n", "4", "--poly", "zebra")[0] == 2
    assert invoke(capsys)[0] == 2


def test_domain_error_exits_1_text(capsys):
    code, out, err = invoke(capsys, "reduce", "--n", "1", "--poly", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ValueError:")


def test_domain_error_exits_1_json(capsys):
    code, out, err = invoke(capsys, "interp", "--n", "4", "--values", "1,1,3",
                            "--format", "json")
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["error"]["type"] == "InconsistentTable"
    assert "divide" in doc["error"]["message"]


def test_inconsistent_table_message_is_pinned(capsys):
    message = "no polynomial function fits: 2**3 does not divide 2 at degree 2"
    argv = ("interp", "--n", "8", "--values", "1,1,3,5,7")
    assert invoke(capsys, *argv) == (1, "", f"error: InconsistentTable: {message}\n")
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": {"type": "InconsistentTable", "message": message}}


def test_inconsistent_table_message_masks_a_negative_difference(capsys):
    # the second differences at 1 are -4, 8, -4; -4 is printed as its residue mod 2**8
    message = "no polynomial function fits: 2**3 does not divide 252 at degree 2"
    argv = ("interp", "--n", "8", "--values", "1,3,1,7,9")
    assert invoke(capsys, *argv) == (1, "", f"error: InconsistentTable: {message}\n")
    code, out, err = invoke(capsys, *argv, "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": {"type": "InconsistentTable", "message": message}}


@pytest.mark.parametrize(
    "argv",
    [
        ["unit-inv", "--n", "8", "--value", "-1"],
        ["unit-inv", "--n", "8", "--value", "1001"],
        ["hensel-roots", "--n", "1", "--poly", "0,1"],
    ],
    ids=["unit-inv-negative", "unit-inv-past-modulus", "hensel-roots-n-1"],
)
def test_out_of_range_input_is_a_domain_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ValueError:")


def test_not_a_permutation_error_type(capsys):
    code, out, _ = invoke(capsys, "invert", "--n", "4", "--poly", "4,4,1",
                          "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotAPermutation"


# -- the n ceiling ------------------------------------------------------------


def test_max_n_env_override(capsys, monkeypatch):
    monkeypatch.setenv("UNITPOLY_MAX_N", "8")
    assert invoke(capsys, "reduce", "--n", "8", "--poly", "1")[0] == 0
    code, _, err = invoke(capsys, "reduce", "--n", "9", "--poly", "1")
    assert code == 1
    assert "9" in err
    code, out, err = invoke(capsys, "hensel-roots", "--n", "9", "--poly", "0,1")
    assert (code, out) == (1, "")
    assert "ceiling" in err


def test_max_n_env_must_be_integer(capsys, monkeypatch):
    monkeypatch.setenv("UNITPOLY_MAX_N", "lots")
    code, _, err = invoke(capsys, "reduce", "--n", "4", "--poly", "1")
    assert code == 1
    assert "UNITPOLY_MAX_N" in err


def test_default_ceiling_allows_4096(capsys):
    assert invoke(capsys, "keller", "--n", "4096")[0] == 0
    assert invoke(capsys, "keller", "--n", "4097")[0] == 1


# -- quasigroup subcommands ----------------------------------------------------


@pytest.fixture
def spec_file(tmp_path, capsys):
    code, out, _ = invoke(capsys, "qg", "random", "--n", "6", "--k", "2",
                          "--mode", "unit_product", "--seed", "11")
    assert code == 0
    path = tmp_path / "spec.json"
    path.write_text(out)
    return path


def test_qg_random_is_seeded(capsys):
    a = invoke(capsys, "qg", "random", "--n", "6", "--k", "2",
               "--mode", "ring_glued", "--seed", "4")
    b = invoke(capsys, "qg", "random", "--n", "6", "--k", "2",
               "--mode", "ring_glued", "--seed", "4")
    assert a == b
    c = invoke(capsys, "qg", "random", "--n", "6", "--k", "2",
               "--mode", "ring_glued", "--seed", "5")
    assert a != c


def test_qg_random_arity_budget(capsys):
    code, out, err = invoke(capsys, "qg", "random", "--n", "8", "--k",
                            str(RANDOM_ARITY_BUDGET + 1), "--mode", "unit_product", "--seed", "1")
    assert (code, out) == (1, "")
    assert err == (f"error: BudgetExceeded: arity {RANDOM_ARITY_BUDGET + 1} exceeds "
                   f"the random spec budget {RANDOM_ARITY_BUDGET}\n")
    code, out, _ = invoke(capsys, "qg", "random", "--n", "8", "--k",
                          str(RANDOM_ARITY_BUDGET), "--mode", "unit_product", "--seed", "1")
    assert code == 0 and json.loads(out)["k"] == RANDOM_ARITY_BUDGET


def test_qg_random_requires_seed(capsys):
    code, _, _ = invoke(capsys, "qg", "random", "--n", "6", "--k", "2",
                        "--mode", "ring_glued")
    assert code == 2


def test_qg_apply_adjoint_round_trip(capsys, spec_file):
    code, out, _ = invoke(capsys, "qg", "apply", "--spec", str(spec_file),
                          "--args", "3,5")
    assert code == 0
    value = out.strip()
    code, out, _ = invoke(capsys, "qg", "adjoint", "--spec", str(spec_file),
                          "--coord", "2", "--args", f"3,{value}")
    assert (code, out.strip()) == (0, "5")


def test_qg_check(capsys, spec_file):
    code, out, _ = invoke(capsys, "qg", "check", "--spec", str(spec_file))
    assert (code, out) == (0, "true\n")


@pytest.mark.parametrize("n, mode", [(31, "unit_product"), (64, "ring_additive"),
                                     (4096, "ring_glued")])
def test_qg_check_reads_its_budget_before_the_carrier(capsys, tmp_path, n, mode):
    # a carrier of 2**30 or more residues: listing it exhausts memory, len() overflows
    _, spec, _ = invoke(capsys, "qg", "random", "--n", str(n), "--k", "2", "--mode", mode,
                        "--seed", "1")
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code, out, err = invoke(capsys, "qg", "check", "--spec", str(path), "--budget", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: BudgetExceeded: carrier size ")
    code, out, _ = invoke(capsys, "qg", "check", "--spec", str(path), "--budget", "3",
                          "--format", "json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "BudgetExceeded"


def test_qg_spec_from_stdin(capsys, spec_file, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(spec_file.read_text()))
    code, out, _ = invoke(capsys, "qg", "apply", "--spec", "-", "--args", "3,5")
    assert code == 0
    assert out.strip().isdigit()


def test_qg_missing_file_is_domain_error(capsys):
    code, _, err = invoke(capsys, "qg", "apply", "--spec", "/no/such/file.json",
                          "--args", "1")
    assert code == 1
    assert "cannot read spec file" in err


@pytest.mark.parametrize(
    "document",
    [
        '{"n": 6}',
        "[1,2]",
        "null",
        '{"n":6,"k":1,"mode":"UNIT_PRODUCT","p":5}',
        '{"n":6,"k":1,"mode":"UNIT_PRODUCT","p":[[null]]}',
        '{"n":6,"k":1,"mode":"UNIT_PRODUCT","p":[["1","1"]],"h":7}',
        '{"n":1e400,"k":1,"mode":"UNIT_PRODUCT","p":[["1","1"]]}',
        "[" * 100_000,
        '{"n":4,"k":1,"mode":"UNIT_PRODUCT","p":["21"]}',
        '{"n":4.7,"k":1,"mode":"UNIT_PRODUCT","p":[["2","1"]]}',
        '{"n":4,"k":1,"mode":"UNIT_PRODUCT","p":[[2.5,1]]}',
        '{"n":4,"k":1,"mode":"UNIT_PRODUCT","p":"2121"}',
        '{"n":4,"k":1,"mode":"UNIT_PRODUCT","p":[{"2":1}]}',
    ],
    ids=["missing-keys", "list", "null", "p-int", "p-null", "h-int", "n-inf", "too-deep",
         "p-string-row", "n-float", "p-float", "p-string", "p-object-row"],
)
def test_qg_malformed_spec_json_error(capsys, monkeypatch, document):
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    code, out, err = invoke(capsys, "qg", "apply", "--spec", "-", "--args", "3",
                            "--format", "json")
    assert (code, err) == (1, "")
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError"
    assert error["message"].startswith("malformed quasigroup document:")


# -- selftest -------------------------------------------------------------------


def test_selftest_passes(capsys):
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    assert "15/15 checks passed" in out
    assert "FAIL" not in out


def test_selftest_json(capsys):
    code, out, _ = invoke(capsys, "selftest", "--format", "json")
    assert code == 0
    doc = json.loads(out)["ok"]
    assert doc["failed"] == 0
    assert doc["passed"] == 15


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "unitpoly", "selftest"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout


def test_package_and_cli_load_only_the_standard_library():
    # the package has no runtime dependencies: an isolated interpreter, blind to
    # PYTHONPATH and the user's site, imports it and runs its selftest on the stdlib alone
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import unitpoly, unitpoly.cli\n"
        "code = unitpoly.cli.run(['selftest'])\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(code, sorted(loaded - set(sys.stdlib_module_names) - {'unitpoly'}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", script], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "15/15 checks passed" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_qg_commands_invert_only_for_adjoint(capsys, tmp_path, inversions):
    # pinned outputs are those of specs that inverted all six polynomials when built
    code, out, _ = invoke(capsys, "qg", "random", "--n", "6", "--k", "3",
                          "--mode", "ring_glued", "--seed", "9")
    assert (code, out) == (0, '{"h": [["54", "7", "0", "0"], ["35", "31", "5", "0"], '
                              '["10", "20", "0", "3"]], "k": 3, "mode": "RING_GLUED", "n": 6, '
                              '"p": [["23", "0", "5", "3"], ["0", "26", "0", "3"], '
                              '["62", "8", "0", "1"]]}\n')
    spec = tmp_path / "glued.json"
    spec.write_text(out)
    assert invoke(capsys, "qg", "apply", "--spec", str(spec),
                  "--args", "3,5,10") == (0, "12\n", "")
    assert invoke(capsys, "qg", "apply", "--spec", str(spec), "--args", "3,5,10",
                  "--format", "json") == (0, '{"ok": {"value": "12"}}\n', "")
    assert inversions == []
    # one adjoint on a freshly loaded spec is below its due count, d + 1 = 4: it lifts
    assert invoke(capsys, "qg", "adjoint", "--spec", str(spec), "--coord", "2",
                  "--args", "3,12,10") == (0, "5\n", "")
    assert inversions == []


def test_a_reader_closing_the_pipe_early_gets_a_quiet_exit():
    # the spec is about 650 KB of JSON, far past a pipe's buffer, so the writer
    # still has output when the reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "unitpoly", "qg", "random", "--n", "1024", "--k", "8",
         "--mode", "unit_product", "--seed", "1", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    head = proc.stdout.read(200)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert head.startswith(b'{"ok": {')
    assert "Traceback" not in err and "BrokenPipeError" not in err


# -- large n: the path each command takes at n = 512 to 4096 ---------------------
#
# Each check runs one command line's argv and checks what it prints by an identity at
# four odd points, 1, 3, 2**(n-1) + 1 and 2**n - 1, evaluated by plain Horner's rule,
# never by the library's own evaluation. Each identity must also fail on the result
# with one bit flipped, so no check passes vacuously. The polynomial inputs are sparse,
# so each stays far below the 128 KiB a single argument may take, and the same argv
# runs from a shell.


def odd_points(n):
    return 1, 3, 2 ** (n - 1) + 1, 2 ** n - 1


def flipped(values):
    """values with bit 0 of the last one flipped: a planted fault."""
    return [*values[:-1], values[-1] ^ 1]


def text(values):
    return ",".join(map(str, values))


def numbers(out):
    return [int(c) for c in out.split(",")]


def is_product(r, p, q, n):
    """r(x) = p(x) q(x) at the four odd points."""
    return all(horner(r, x, n) == horner(p, x, n) * horner(q, x, n) % 2 ** n
               for x in odd_points(n))


def is_unit_inverse(q, p, n):
    """p(x) q(x) = 1 at the four odd points."""
    return all(horner(p, x, n) * horner(q, x, n) % 2 ** n == 1 for x in odd_points(n))


def is_compositional_inverse(q, p, n):
    """p(q(x)) = x at the four odd points."""
    return all(horner(p, horner(q, x, n), n) == x for x in odd_points(n))


# degree above d and coefficients above 2**n: each input is reduced by a solve of its own
P1024 = [2 ** 1024 + 3 * i + 1 if i % 16 == 0 else 0 for i in range(641)]
Q1024 = [2 ** 1025 - 7 * i if i % 13 == 5 else 0 for i in range(577)]
P2048 = [2 ** 2048 + 3 * i + 1 if i % 32 == 0 else 0 for i in range(1281)]
Q2048 = [2 ** 2049 - 7 * i if i % 29 == 5 else 0 for i in range(1153)]
PERM512 = [2 ** 512 + 6 if i == 0 else 2 ** 512 + 1 if i == 1 else 2 ** 513 + 2 * i if i % 8 == 0
           else 3 * 2 ** 511 + 4 * i if i % 8 == 3 else 0 for i in range(301)]


def test_hensel_roots_at_4096(capsys):
    # x**2 - 1 has exactly the roots 1, 2**4095 - 1, 2**4095 + 1 and 2**4096 - 1
    roots = [1, 2 ** 4095 - 1, 2 ** 4095 + 1, 2 ** 4096 - 1]
    code, out, err = invoke(capsys, "hensel-roots", "--n", "4096", "--poly=-1,0,1")
    assert (code, out, err) == (0, text(roots) + "\n", "")
    assert text(flipped(roots)) + "\n" != out


def test_hensel_roots_refuses_2_to_the_2048_roots_at_4096(capsys):
    # (x - 1)**2 has 2**2048 roots, so its search must be refused
    code, out, err = invoke(capsys, "hensel-roots", "--n", "4096", "--poly=1,-2,1")
    assert (code, out) == (1, "")
    assert err.startswith("error: BudgetExceeded:")


@pytest.mark.parametrize(
    "n, p, q",
    [
        # the two inputs are reduced on one Context, so the second solve admits the whole
        # row table in place of its checkpoints, and the fit of the product reads it
        (1024, P1024, Q1024),
        # the same above the row store's byte budget: the second and third solves keep
        # the checkpoints
        (2048, P2048, Q2048),
    ],
    ids=["whole-table", "checkpoints"],
)
def test_mul_at_large_n(capsys, n, p, q):
    code, out, err = invoke(capsys, "mul", "--n", str(n), "--poly", text(p), "--by", text(q))
    assert (code, err) == (0, "")
    product = numbers(out)
    assert is_product(product, p, q, n)
    assert not is_product(flipped(product), p, q, n)


# mulinv and invert read their inputs' node values (and invert its inverse's in the
# composition check) in packed chunks of more than one coefficient each


def test_mulinv_at_1024(capsys):
    code, out, err = invoke(capsys, "mulinv", "--n", "1024", "--poly", text(P1024))
    assert (code, err) == (0, "")
    inverse = numbers(out)
    assert is_unit_inverse(inverse, P1024, 1024)
    assert not is_unit_inverse(flipped(inverse), P1024, 1024)


def test_invert_at_512(capsys):
    code, out, err = invoke(capsys, "invert", "--n", "512", "--poly", text(PERM512))
    assert (code, err) == (0, "")
    inverse = numbers(out)
    assert is_compositional_inverse(inverse, PERM512, 512)
    assert not is_compositional_inverse(flipped(inverse), PERM512, 512)


def test_qg_round_trip_at_1024(capsys, tmp_path, inversions):
    # each command loads the spec afresh, so its first adjoint lifts one preimage through
    # a depth-0 tree and checks it at full width: solving coordinate 2 of the applied
    # value must give back the second argument
    code, spec, _ = invoke(capsys, "qg", "random", "--n", "1024", "--k", "2",
                           "--mode", "ring_glued", "--seed", "3")
    assert code == 0
    path = tmp_path / "qg1024.json"
    path.write_text(spec)
    a, b = 3 ** 600 % 2 ** 1024, 2 ** 1023 - 5
    code, value, _ = invoke(capsys, "qg", "apply", "--spec", str(path), "--args", f"{a},{b}")
    assert code == 0
    code, back, err = invoke(capsys, "qg", "adjoint", "--spec", str(path), "--coord", "2",
                             "--args", f"{a},{value.strip()}")
    assert (code, back, err) == (0, f"{b}\n", "")
    assert inversions == []
    assert text(flipped([b])) + "\n" != back
