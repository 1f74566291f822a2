"""Exact outputs pinned at recorded values.

Buchberger's pair order and its reduction steps decide the cofactors it
returns and the certificates the CLI prints, so a change to either shows
up here.  ``golden.json`` holds the expected strings; rebuild it with
``PYTHONPATH=src python tests/test_golden.py > tests/golden.json`` only
when a change of these outputs is intended.
"""

import contextlib
import io
import json
import os
import random
import sys

from helpers import example_2x4, rand_matrix, rand_poly, rand_unimodular
from polymat.cli import main
from polymat.completion import complete_to_unimodular
from polymat.groebner import buchberger
from polymat.matrix import PolyMatrix, minor_ideal_generators
from polymat.modules import syzygy
from polymat.poly import Polynomial

HERE = os.path.dirname(os.path.abspath(__file__))
PROBLEMS = os.path.join(os.path.dirname(HERE), "problems")


def katsura(n: int) -> list[Polynomial]:
    """The katsura-n ideal in the n + 1 variables u_0..u_n (z1..z_{n+1}),
    built here rather than taken from the benchmark's families, so that a
    change to the benchmark cannot move a pinned input."""
    nv = n + 1
    u = [Polynomial.variable(nv, i) for i in range(nv)]

    def at(k: int) -> Polynomial:
        return u[abs(k)] if abs(k) <= n else Polynomial.zero(nv)

    gens = [sum((at(k) * at(m - k) for k in range(-n, n + 1)),
                Polynomial.zero(nv)) - u[m] for m in range(n)]
    gens.append(sum(u[1:], Polynomial.zero(nv)) * 2 + u[0] - 1)
    return gens


def minors_ideal(seed: int = 3, l: int = 4, size: int = 3, nvars: int = 3):
    """(h, the size x size minors of a seeded l x l matrix with linear
    entries): the kind of ideal decide_equivalence tests for the unit
    ideal, here one that is not the unit ideal."""
    rng = random.Random(seed)
    h = Polynomial.variable(nvars, 0) - rand_poly(
        rng, nvars, max_deg=1, allowed_vars=range(1, nvars), nonzero=True)
    return [h] + minor_ideal_generators(rand_matrix(rng, l, l, nvars), size)


def strings(basis) -> dict:
    return {"generators": [str(g) for g in basis.generators],
            "cofactors": [[str(c) for c in row] for row in basis.cofactors]}


def cli_document(name: str) -> dict:
    """The factorize --verify document without the fields that depend on
    the run: the wall time and the echoed argv with its path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["factorize", os.path.join(PROBLEMS, name), "--verify",
                     "--quiet"])
    doc = json.loads(out.getvalue())
    del doc["elapsed_seconds"], doc["argv"]
    return {"exit": code, "document": doc}


def syzygy_2x4() -> list[list[str]]:
    """Syzygies of the rows of the worked 2x4 example at z1 -> z3."""
    ex = example_2x4()
    fbar = ex["F"].substitute(0, Polynomial.variable(3, 2))
    basis = syzygy([fbar.row(i) for i in range(fbar.rows)])
    return [[str(p) for p in g] for g in basis.generators]


# a generous budget, a small op budget and a small degree budget
COMPLETION_BUDGETS = ((200, 12), (2, 12), (200, 1))


def completions() -> list[dict]:
    """complete_to_unimodular on the first rows of 30 seeded products of
    elementary matrices, under each budget: the status, the ops it used and
    the completed matrix with its inverse."""
    rng = random.Random(29)
    out = []
    for _ in range(30):
        size = rng.choice([2, 3, 4])
        r = rng.randrange(1, size)
        u = rand_unimodular(rng, size, ops=5, max_deg=2)
        stack = PolyMatrix([list(u.row(i)) for i in range(r)])
        for max_ops, max_degree in COMPLETION_BUDGETS:
            res = complete_to_unimodular(stack, max_ops, max_degree)
            out.append({"status": res.status, "ops_used": res.ops_used,
                        "matrix": str(res.matrix),
                        "inverse": str(res.inverse)})
    return out


def outputs() -> dict:
    return {
        "completion": completions(),
        "katsura3": strings(buchberger(katsura(3), track=True)),
        "minors_ideal": strings(buchberger(minors_ideal(), track=True)),
        "syzygy_2x4": syzygy_2x4(),
        "factorize_ex_2x4": cli_document("ex_2x4.json"),
        "factorize_ex_3x3": cli_document("ex_3x3.json"),
    }


def golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_buchberger_katsura3_with_cofactors():
    assert strings(buchberger(katsura(3), track=True)) == golden()["katsura3"]


def test_buchberger_minors_ideal_with_cofactors():
    basis = buchberger(minors_ideal(), track=True)
    assert strings(basis) == golden()["minors_ideal"]


def test_syzygy_of_worked_example():
    assert syzygy_2x4() == golden()["syzygy_2x4"]


def test_completion_under_budgets():
    assert completions() == golden()["completion"]


def test_factorize_documents():
    for name in ("ex_2x4", "ex_3x3"):
        assert cli_document(name + ".json") == golden()["factorize_" + name]


if __name__ == "__main__":
    json.dump(outputs(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
