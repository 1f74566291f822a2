"""Command-line interface: documents, exit codes, verification flags."""

import json
import random
import subprocess
import sys

import pytest

from helpers import GCD_FAULT
from polymat.cli import main
from polymat.parsing import parse_polynomial

EX_2x4 = {
    "schema": 1,
    "nvars": 3,
    "matrix": [
        ["-2*z1*z2^2 + z1^2*z3 + z2^2*z3 - z1*z3^2 + z2*z3^2",
         "z1^3 - z2^3 - z1^2*z3 + z2*z3^2",
         "z1*z2 - z2*z3",
         "z2^2"],
        ["-z1*z2 + z3^2", "-z2^2 + z1*z3", "0", "z2"],
    ],
}

EX_3x3 = {
    "schema": 1,
    "nvars": 3,
    "matrix": [
        ["z1^2 - z1*z2", "z2*z3 + z3^2 + z2 + z3", "-z2*z3 - z2"],
        ["z1*z2 - z2^2", "-z1*z3 + z2*z3", "z1^3 - z1^2*z2 + z1*z2 - z2^2"],
        ["0", "z2 + z3", "-z2"],
    ],
}

EQ_3x3 = {
    "schema": 1,
    "nvars": 3,
    "matrix": [
        ["z1*z2 - z2^2 + z2*z3 + z2 - z3 - 1",
         "z1*z2*z3 - z2^2*z3 + z1*z2 - z2^2 + z2*z3 - z3",
         "z1*z2*z3 - z2^2*z3"],
        ["z1*z2 - z2^2 + z1 - z2 + z3 + 1",
         "z1*z2*z3 - z2^2*z3 + 2*z1*z2 - 2*z2^2 + z1*z3 - z2*z3 + z1 - z2 + z3",
         "z1*z2*z3 - z2^2*z3 + z1*z2 - z2^2 + z1*z3 - z2*z3"],
        ["z1 - z2", "z1*z3 - z2*z3 + 2*z1 - 2*z2", "z1*z3 - z2*z3 + z1 - z2"],
    ],
}

UNJUDGEABLE = {
    "schema": 1,
    "nvars": 3,
    "matrix": [["z2", "z2^2", "z1"],
               ["z3", "z2*z3", "0"],
               ["0", "z1", "0"]],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


def test_analyze(tmp_path, capsys):
    path = write(tmp_path, "ex.json", EX_2x4)
    code, doc, err = run_cli(capsys, ["analyze", path])
    assert code == 0
    assert doc["shape"] == [2, 4]
    assert doc["rank"] == 2
    assert doc["d_chain"] == ["1", "z1*z2 - z2*z3"]
    assert "d2" in err


def test_analyze_rank_deficient(tmp_path, capsys):
    # a zero row: d_3 = 0, so the rank read off the chain is 2
    payload = {"schema": 1, "nvars": 3,
               "matrix": [["z1", "z2", "0"], ["0", "0", "0"],
                          ["z2", "z1", "1"]]}
    path = write(tmp_path, "deficient.json", payload)
    code, doc, _ = run_cli(capsys, ["analyze", path])
    assert code == 0
    assert doc["rank"] == 2
    assert doc["d_chain"] == ["1", "1", "0"]


def test_analyze_gcd_fault_within_bound(tmp_path):
    # the gcd of the 4x4 minors once ran for more than 30 s
    path = write(tmp_path, "fault.json",
                 {"schema": 1, "nvars": 4, "matrix": GCD_FAULT})
    proc = subprocess.run(
        [sys.executable, "-m", "polymat", "analyze", path, "--quiet"],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["rank"] == 4
    assert doc["d_chain"] == ["1", "1", "1", "z1 - z4"]


def test_factorize_verified(tmp_path, capsys):
    path = write(tmp_path, "ex.json", EX_2x4)
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z1 - z3",
                                    "--verify", "--quiet"])
    assert code == 0
    assert doc["outcome"] == "factored"
    assert doc["r"] == 1
    assert doc["verified"] is True
    # witnesses round-trip through the parser
    for grid in (doc["g1"], doc["f1"]):
        for row in grid:
            for cell in row:
                parse_polynomial(cell, doc["nvars"])


def test_factorize_no_factorization_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "ex.json", EX_2x4)
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z2", "--quiet"])
    assert code == 0
    assert doc["outcome"] == "no_factorization"
    assert doc["certificate"]


def test_factorize_iterate_chain(tmp_path, capsys):
    path = write(tmp_path, "ex.json", EX_3x3)
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z1 - z2",
                                    "--verify", "--iterate", "--quiet"])
    assert code == 0
    assert doc["outcome"] == "factored"
    assert [step["h"] for step in doc["chain"]] == ["z1 - z2", "z1"]
    assert doc["verified"] is True


def test_iterate_stops_below_full_row_rank(tmp_path, capsys):
    # rank 2 < 3 rows: d_3 = 0, which every z_i divides, so the right
    # factor must not be searched for further factors
    payload = {"schema": 1, "nvars": 4, "h": "z1",
               "matrix": [["0", "-2*z1 - 12*z4", "0",
                           "z1*z2 + 6*z2*z4 + 2*z1 + 12*z4"],
                          ["3*z1*z3 + 3*z1", "2*z1*z3", "-2*z1*z2",
                           "-2*z1^2"],
                          ["0", "-4", "0", "2*z2 + 4"]]}
    path = write(tmp_path, "deficient.json", payload)
    code, doc, _ = run_cli(capsys, ["factorize", path, "--verify",
                                    "--iterate", "--quiet"])
    assert code == 0
    assert doc["outcome"] == "factored"
    assert doc["verified"] is True


def test_unable_to_judge_exit_two(tmp_path, capsys):
    path = write(tmp_path, "ex.json", UNJUDGEABLE)
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z1", "--quiet"])
    assert code == 2
    assert doc["outcome"] == "unable_to_judge"
    assert doc["r"] == 2


def test_equivalence(tmp_path, capsys):
    path = write(tmp_path, "eq.json", EQ_3x3)
    code, doc, _ = run_cli(capsys, ["equivalence", path, "--h", "z1 - z2",
                                    "--r", "2", "--verify", "--quiet"])
    assert code == 0
    assert doc["outcome"] == "equivalent"
    assert doc["verified"] is True
    for grid in (doc["u"], doc["d"], doc["v"]):
        for row in grid:
            for cell in row:
                parse_polynomial(cell, 3)


def test_not_equivalent_exit_zero(tmp_path, capsys):
    payload = {"schema": 1, "nvars": 3,
               "matrix": [["z1^2 - 2*z1*z2 + z2^2", "0"], ["0", "1"]]}
    path = write(tmp_path, "ne.json", payload)
    code, doc, _ = run_cli(capsys, ["equivalence", path, "--h", "z1 - z2",
                                    "--r", "2", "--quiet"])
    assert code == 0
    assert doc["outcome"] == "not_equivalent"
    assert doc["certificate"]


def test_equivalence_determinant_mismatch(tmp_path, capsys):
    path = write(tmp_path, "eq.json", EQ_3x3)
    code, doc, _ = run_cli(capsys, ["equivalence", path, "--h", "z1 - z2",
                                    "--r", "1", "--quiet"])
    assert code == 1
    assert "error" in doc


def test_groebner(tmp_path, capsys):
    payload = {"schema": 1, "nvars": 3,
               "polys": ["z1 - z3"] + [c for row in EX_2x4["matrix"]
                                       for c in row]}
    path = write(tmp_path, "g.json", payload)
    code, doc, _ = run_cli(capsys, ["groebner", path, "--quiet"])
    assert code == 0
    assert sorted(doc["basis"]) == ["z1 - z3", "z2", "z3^2"]
    assert doc["unit_ideal"] is False


def test_malformed_file_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, doc, _ = run_cli(capsys, ["analyze", str(path)])
    assert code == 1
    assert "error" in doc

    ragged = {"schema": 1, "nvars": 3, "matrix": [["z1"], ["z1", "z2"]]}
    path2 = write(tmp_path, "ragged.json", ragged)
    code, doc, _ = run_cli(capsys, ["analyze", path2])
    assert code == 1

    bad_expr = {"schema": 1, "nvars": 2, "matrix": [["z3"]]}
    path3 = write(tmp_path, "badexpr.json", bad_expr)
    code, doc, _ = run_cli(capsys, ["analyze", path3])
    assert code == 1
    assert "z3" in doc["error"]["message"]


def test_oversized_entry_exit_one(tmp_path, capsys):
    # refused by the parser before it expands the power
    payload = {"schema": 1, "nvars": 3,
               "matrix": [["(z1+z2+z3)^1000000", "z2"]]}
    code, doc, _ = run_cli(capsys, ["analyze", write(tmp_path, "big.json",
                                                     payload)])
    assert code == 1
    assert doc["error"]["message"] == \
        "matrix[0][0]: expression too large at line 1, column 12"


@pytest.mark.parametrize("nvars", [True, False, 0, 1.0, "1", None])
def test_nvars_must_be_a_positive_integer(tmp_path, capsys, nvars):
    # a matrix in z1 alone, which a boolean true once passed for nvars = 1
    payload = {"schema": 1, "nvars": nvars, "matrix": [["z1", "1"]]}
    code, doc, _ = run_cli(capsys, ["analyze", write(tmp_path, "n.json",
                                                     payload)])
    assert code == 1
    assert doc["error"]["message"] == \
        "problem file needs a positive integer 'nvars'"


def test_bad_h_in_the_file_names_the_field(tmp_path, capsys):
    path = write(tmp_path, "badh.json", {**EX_2x4, "h": "z1 +"})
    code, doc, _ = run_cli(capsys, ["factorize", path, "--quiet"])
    assert code == 1
    message = doc["error"]["message"]
    assert message.startswith("h: ") and "--h" not in message
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z1 +",
                                    "--quiet"])
    assert doc["error"]["message"].startswith("--h: ")


def test_not_in_class_exit_one(tmp_path, capsys):
    payload = {"schema": 1, "nvars": 3, "matrix": [["1", "0"], ["0", "1"]]}
    path = write(tmp_path, "id.json", payload)
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z1 - z3",
                                    "--quiet"])
    assert code == 1
    assert "error" in doc


def test_budget_env_and_flags(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "ex.json", EX_2x4)
    monkeypatch.setenv("POLYMAT_MAX_OPS", "44")
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z1 - z3",
                                    "--quiet"])
    assert doc["budgets"]["max_ops"] == 44
    # a flag beats the environment
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z1 - z3",
                                    "--max-ops", "77", "--quiet"])
    assert doc["budgets"]["max_ops"] == 77


def test_negative_budget_exit_one(tmp_path, capsys, monkeypatch):
    # invalid input, not an inconclusive answer; a zero budget stays valid
    path = write(tmp_path, "ex.json", EX_2x4)
    eq = write(tmp_path, "eq.json", EQ_3x3)
    for argv in (["factorize", path, "--h", "z1 - z3", "--max-ops", "-5"],
                 ["factorize", path, "--h", "z1 - z3", "--max-deg", "-1"],
                 ["equivalence", eq, "--h", "z1 - z2", "--r", "2",
                  "--max-ops", "-1"]):
        code, doc, _ = run_cli(capsys, argv + ["--quiet"])
        assert code == 1
        assert doc["error"]["type"] == "InputError"
        assert "must not be negative" in doc["error"]["message"]
    for env in ("POLYMAT_MAX_OPS", "POLYMAT_MAX_DEG"):
        for value in ("-2", "abc"):
            monkeypatch.setenv(env, value)
            code, doc, _ = run_cli(capsys, ["factorize", path, "--h",
                                            "z1 - z3", "--quiet"])
            assert code == 1
            assert doc["error"]["type"] == "InputError"
            assert env in doc["error"]["message"]
            # a valid flag beats the invalid environment value
            code, doc, _ = run_cli(capsys, ["factorize", path, "--h",
                                            "z1 - z3", "--max-ops", "0",
                                            "--max-deg", "0", "--quiet"])
            assert code == 2
        monkeypatch.delenv(env)


def test_usage_error_exit_one(tmp_path, capsys):
    # a malformed command line is an input error with the usual document,
    # not argparse's exit 2, which would read as an inconclusive answer
    path = write(tmp_path, "ex.json", EX_2x4)
    for argv, command in (
            (["factorize", path, "--h", "z1 - z3", "--max-ops", "abc"],
             "factorize"),
            (["factorize", path, "--h", "z1 - z3", "--bogus"], "factorize"),
            (["equivalence", path, "--h", "z1 - z3"], "equivalence"),
            (["bogus", path], None),
            ([], None)):
        code, doc, err = run_cli(capsys, argv)
        assert code == 1
        assert doc["command"] == command
        assert doc["error"]["type"] == "InputError"
        assert err.startswith("error: ")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: polymat" in capsys.readouterr().out


def test_document_keys(tmp_path, capsys):
    # main frames every command's body the same way; the key order is part
    # of the document
    ex = write(tmp_path, "ex.json", EX_3x3)
    eq = write(tmp_path, "eq.json", EQ_3x3)
    head, tail = ["schema", "command", "argv", "nvars"], ["elapsed_seconds"]
    for argv, body in (
            (["analyze", ex], ["shape", "rank", "d_chain"]),
            (["groebner", ex], ["basis", "unit_ideal"]),
            (["factorize", ex, "--h", "z1 - z2", "--verify", "--iterate"],
             ["h", "order", "budgets", "outcome", "r", "g1", "f1",
              "certificate", "cofactors", "chain", "g_total", "f_final",
              "verified"]),
            (["equivalence", eq, "--h", "z1 - z2", "--r", "2"],
             ["h", "r", "outcome", "u", "d", "v", "certificate", "budgets",
              "verified"])):
        code, doc, _ = run_cli(capsys, argv + ["--quiet"])
        assert code == 0
        assert list(doc) == head + body + tail
    code, doc, _ = run_cli(capsys, ["analyze", str(tmp_path / "missing.json"),
                                    "--quiet"])
    assert code == 1
    assert list(doc) == ["schema", "command", "error"]
    assert list(doc["error"]) == ["type", "message"]


def test_parser_shared_across_calls(tmp_path, capsys):
    # one parser serves every call in a process; no flag carries over
    path = write(tmp_path, "ex.json", EX_2x4)
    argv = ["factorize", path, "--h", "z1 - z3", "--quiet"]
    _, doc, _ = run_cli(capsys, argv + ["--verify"])
    assert doc["verified"] is True
    _, doc, _ = run_cli(capsys, argv)
    assert doc["verified"] is None


def test_completion_budget_exit_two(tmp_path, capsys):
    path = write(tmp_path, "ex.json", EX_2x4)
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z1 - z3",
                                    "--max-ops", "0", "--quiet"])
    assert code == 2
    assert doc["outcome"] == "completion_not_found"


def test_internal_fault_exit_three(tmp_path, capsys, monkeypatch):
    # a witness that fails its exact check is polymat's fault, not the input's
    monkeypatch.setattr(sys.modules["polymat.factorize"],
                        "verify_factorization", lambda *args, **kw: False)
    path = write(tmp_path, "ex.json", EX_2x4)
    code, doc, err = run_cli(capsys, ["factorize", path, "--h", "z1 - z3"])
    assert code == 3
    assert doc["error"]["type"] == "InternalError"
    assert "error" in err


def _not_annihilating(*rows):
    return sys.modules["polymat.factorize"].PolyMatrix(
        [[parse_polynomial(p, 3) for p in row] for row in rows])


def _broken_stacks(*rows):
    # a Cramer stack that does not annihilate F(z1 -> f), flagged ZLP
    return lambda *args: iter([(_not_annihilating(*rows), True)])


def test_broken_annihilator_exit_three(tmp_path, capsys, monkeypatch):
    # a Cramer stack (r > 1) that does not annihilate F(z1 -> f), at any
    # point or on the exact pivots, is a broken invariant, not an input
    # error
    monkeypatch.setattr(sys.modules["polymat.factorize"], "_cramer_stacks",
                        _broken_stacks(["z1", "z2", "0"], ["0", "0", "1"]))
    ex = write(tmp_path, "ex.json", EX_3x3)
    code, doc, _ = run_cli(capsys, ["factorize", ex, "--h", "z1 - z2",
                                    "--quiet"])
    assert code == 3
    assert doc["error"]["type"] == "InternalError"
    eq = write(tmp_path, "eq.json", EQ_3x3)
    code, doc, _ = run_cli(capsys, ["equivalence", eq, "--h", "z1 - z2",
                                    "--r", "2", "--quiet"])
    assert code == 3
    assert doc["error"]["type"] == "InternalError"


def test_broken_cramer_vector_exit_three(tmp_path, capsys, monkeypatch):
    # the same fault on r = 1, where the stack is the one Cramer vector
    monkeypatch.setattr(sys.modules["polymat.factorize"], "_cramer_stacks",
                        _broken_stacks(["z1", "z2"]))
    path = write(tmp_path, "ex.json", EX_2x4)
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z1 - z3",
                                    "--quiet"])
    assert code == 3
    assert doc["error"]["type"] == "InternalError"
    diag = write(tmp_path, "diag.json", {"schema": 1, "nvars": 3,
                                         "matrix": [["z1 - z3", "0"],
                                                    ["0", "1"]]})
    code, doc, _ = run_cli(capsys, ["equivalence", diag, "--h", "z1 - z3",
                                    "--r", "1", "--quiet"])
    assert code == 3
    assert doc["error"]["type"] == "InternalError"


def test_no_zlp_subset_exit_two(tmp_path, capsys):
    # a factorization exists, but no r-subset of the syzygy basis of
    # F(z1 -> z3) is ZLP: inconclusive on valid input, not an internal fault
    path = write(tmp_path, "no-subset.json", {
        "schema": 1, "nvars": 3,
        "matrix": [["z3", "0", "0"], ["z3 - 2", "z1 - z3", "0"],
                   ["z2", "0", "z1 - z3"]]})
    code, doc, _ = run_cli(capsys, ["factorize", path, "--h", "z1 - z3",
                                    "--quiet"])
    assert code == 2
    assert doc["outcome"] == "completion_not_found"
    assert doc["r"] == 2
    assert doc["certificate"] == ["1"]
    assert doc["cofactors"] == ["1/2", "-1/2", "0"]


def test_full_row_rank_at_a_point(monkeypatch):
    # the chain's rank tests: full rank at the seeded point needs no exact
    # elimination on the matrix, and a drop there is settled by one
    from polymat import cli
    from polymat.matrix import _PRIME, PolyMatrix
    calls = []
    exact = PolyMatrix.rank
    monkeypatch.setattr(PolyMatrix, "rank",
                        lambda self: calls.append(self) or exact(self))
    rng = random.Random(1)  # the point's draw
    x1 = rng.randrange(_PRIME)

    def m(grid):
        return PolyMatrix([[parse_polynomial(p, 3) for p in row]
                           for row in grid])

    full = m([["z1", "z2", "1"], ["0", "z3", "z1"]])
    assert cli._full_row_rank(full) and full not in calls
    # rank 1 everywhere, and rank 1 at the point
    low = m([["z1", "z2"], ["2*z1", "2*z2"]])
    assert not cli._full_row_rank(low) and low in calls
    # full rank, but singular at the point
    singular = m([[f"z1 - ({x1})", "0"], ["0", "1"]])
    assert cli._full_row_rank(singular) and singular in calls


def test_console_entry_point(tmp_path):
    path = write(tmp_path, "ex.json", EX_2x4)
    proc = subprocess.run(
        [sys.executable, "-m", "polymat", "analyze", path, "--quiet"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "analyze"
