"""The four workloads: one round of operations each, built from a seed.

A round is a fixed list of at least 100 distinct operations, so that the
90th latency percentile over them has ten operations beyond it.  A run
repeats whole rounds, so every run attempts the same operations in the same
proportions, whatever its length.  Each operation carries the kind and
payload of the check that ``checks.py`` makes on its answer after the timed
phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import families

WORKLOADS = ("factor", "equiv", "groebner", "cli")

# (l, m, nvars, degree, structures per r); every r from 1 to l is used.
# l = 4 is kept to 4x5 in 3 variables with linear F1 entries: in 4
# variables, with quadratic entries or at 4x6, some shapes run into the gcd
# swell and miss the deadline on some seeds only, or come close to it.
FACTOR_GRID = (
    [(l, m, n, d, 2) for l, m in ((2, 3), (2, 4)) for n in (3, 4)
     for d in (1, 2)]
    + [(3, m, n, d, 3) for m in (4, 5) for n in (3, 4) for d in (1, 2)]
    + [(4, 5, 3, 1, 1)]
)

# (l, nvars, structures per answer); positives for every r in 1..l and the
# diag(h^2,1,..,1) negatives.
EQUIV_GRID = [(l, n, 5) for l in (2, 3, 4) for n in (3, 4)]

# (l, nvars, r, structures): the ideal (h, (l - r)-minors of F) that
# decide_equivalence tests for the unit ideal, on positive equivalence cases.
# (The reduced maximal minors factorize tests on the factor family always
# contain a constant, so Buchberger returns at once on them.)
IDEAL_GRID = [(4, n, 2, 48) for n in (3, 4)]
# Cheapest first, so that the short mode keeps the cheap ones.
NAMED_IDEALS = [("katsura", 3), ("cyclic", 4), ("katsura", 4),
                ("cyclic", 5), ("katsura", 5)]

# The problem files shipped with polymat and what the worked examples in
# its README promise for them.
PROBLEM_FILES = {
    "ex_2x4.json": [("analyze", []), ("factorize", ["--verify", "--iterate"])],
    "ex_3x3.json": [("analyze", []), ("factorize", ["--verify", "--iterate"])],
    "eq_3x3.json": [("analyze", []),
                    ("equivalence", ["--h", "z1 - z2", "--r", "2",
                                     "--verify"])],
    "groebner_demo.json": [("groebner", [])],
}
PROBLEM_FACTS = {"ex_2x4.json": {"r": 1}, "ex_3x3.json": {"r": 2},
                 "eq_3x3.json": {"r": 2}}
# The family instances written out as problem files: every factor shape
# with l <= 3 (each run through analyze, groebner and factorize), and
# positive and negative equivalence cases.
CLI_FACTOR_CASES = [(l, m, n, d, r)
                    for l, m in ((2, 3), (2, 4), (3, 4), (3, 5))
                    for n in (3, 4) for d in (1, 2) for r in range(1, l + 1)]
CLI_EQUIV_CASES = [(l, n, r, False) for l in (2, 3, 4) for n in (3, 4)
                   for r in range(1, l + 1)] + \
                  [(l, n, 2, True) for l in (2, 3, 4) for n in (3, 4)]


def entries(grid: list, short: bool) -> list:
    """The short mode runs the first two entries of every grid, with one
    structure per entry."""
    return grid[:2] if short else grid


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: str  # key of checks.CHECKS
    payload: object
    fault: bool = False  # the named gcd fault: expected to miss the deadline


def _call(namespace, name: str, *args, **kwargs):
    """Look the function up when called, so that tracing wrappers installed
    after set-up are the ones that run."""
    return getattr(namespace, name)(*args, **kwargs)


def _factor_op(pm, case: families.FactorCase, fault: bool = False) -> Op:
    return Op(case.key, partial(_call, pm, "factorize", case.matrix, case.h),
              "factorize", case, fault)


def build_factor(pm, seed: int, short: bool, workdir: str) -> list[Op]:
    ops = []
    for l, m, n, d, structures in entries(FACTOR_GRID, short):
        for r in range(1, l + 1):
            for v in range(1 if short else structures):
                case = families.factor_case(pm, seed, l, m, n, d, r, v)
                ops.append(_factor_op(pm, case))
    ops.append(_factor_op(pm, families.gcd_fault_case(pm), fault=True))
    return ops


def build_equiv(pm, seed: int, short: bool, workdir: str) -> list[Op]:
    ops = []
    for l, n, structures in entries(EQUIV_GRID, short):
        for v in range(1 if short else structures):
            answers = [(r, False) for r in range(1, l + 1)] + [(2, True)]
            for r, negative in answers:
                case = families.equiv_case(pm, seed, l, n, r, negative, v)
                ops.append(Op(case.key,
                              partial(_call, pm, "decide_equivalence",
                                      case.matrix, case.h, case.r),
                              "equivalence", case))
    return ops


def build_groebner(pm, seed: int, short: bool, workdir: str) -> list[Op]:
    ops = []
    for name, n in entries(NAMED_IDEALS, short):
        gens = getattr(families, name)(pm, n)
        ops.append(Op(f"{name}-{n}", partial(_call, pm, "buchberger", gens),
                      "groebner", (gens, False)))
    for l, n, r, structures in entries(IDEAL_GRID, short):
        for v in range(1 if short else structures):
            gens = families.equivalence_ideal(pm, seed, l, n, r, v)
            ops.append(Op(f"equiv-ideal:{l}x{l}:n{n}:r{r}:v{v}",
                          partial(_call, pm, "buchberger", gens, track=True),
                          "groebner", (gens, True)))
    return ops


def _run_cli(cli, argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = _call(cli, "main", argv)
    return code, out.getvalue()


def answer_key(op: Op, result):
    """A hashable stand-in for an answer, equal for equal answers: the
    result itself, or the command's exit code and document without the
    wall-clock field."""
    if op.check != "cli":
        return result
    code, stdout = result
    doc = json.loads(stdout)
    doc.pop("elapsed_seconds", None)
    return json.dumps([code, doc], sort_keys=True)


def _problem(case, **facts) -> dict:
    return {"schema": 1, "nvars": case.matrix.nvars,
            "matrix": [[str(p) for p in row] for row in case.matrix.entries],
            "h": str(case.h), **facts}


def build_cli(pm, seed: int, short: bool, workdir: str) -> list[Op]:
    """Problem files are written under ``workdir``; commands read them."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    jobs = []  # (path, problem, command, extra args)
    for name, commands in PROBLEM_FILES.items():
        path = os.path.join(root, "problems", name)
        with open(path, encoding="utf-8") as fh:
            problem = {**json.load(fh), **PROBLEM_FACTS.get(name, {})}
        jobs += [(path, problem, cmd, args) for cmd, args in commands]

    def write(name: str, problem: dict) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        return path

    for l, m, n, d, r in entries(CLI_FACTOR_CASES, short):
        case = families.factor_case(pm, seed, l, m, n, d, r)
        problem = _problem(case, r=r)
        path = write(f"factor-{l}x{m}-n{n}-d{d}-r{r}.json", problem)
        jobs += [(path, problem, "analyze", []),
                 (path, problem, "groebner", []),
                 (path, problem, "factorize", ["--verify", "--iterate"])]
    for l, n, r, negative in entries(CLI_EQUIV_CASES, short):
        case = families.equiv_case(pm, seed, l, n, r, negative)
        problem = _problem(case, r=case.r, negative=negative)
        path = write(f"equiv-{l}x{l}-n{n}-r{r}-{int(negative)}.json", problem)
        jobs.append((path, problem, "equivalence",
                     ["--h", problem["h"], "--r", str(case.r), "--verify"]))

    ops = []
    for path, problem, cmd, args in jobs:
        argv = [cmd, path] + args
        ops.append(Op(" ".join([cmd, os.path.basename(path)] + args),
                      partial(_run_cli, pm.cli, argv), "cli", (cmd, problem)))
    fault = families.gcd_fault_case(pm)
    problem = _problem(fault, r=fault.r)
    path = write("gcd-fault.json", problem)
    argv = ["factorize", path, "--verify", "--iterate"]
    ops.append(Op("factorize gcd-fault.json", partial(_run_cli, pm.cli, argv),
                  "cli", ("factorize", problem), fault=True))
    return ops


BUILDERS = {"factor": build_factor, "equiv": build_equiv,
            "groebner": build_groebner, "cli": build_cli}
