"""Witness checks run under ``python -O`` too.

The exact re-check of every positive answer, and of the intermediate
results the answers are built from, is an explicit test that raises
InternalError, not an ``assert``, so it survives -O.  The script below runs
in a ``python -O`` subprocess; it patches one check's input at a time to
fail and reports which calls raised InternalError.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SCRIPT = r"""
import contextlib, dataclasses, json, sys, types
import polymat
from polymat.matrix import PolyMatrix
from helpers import P, example_2x4, example_equivalence

fz = sys.modules["polymat.factorize"]
cp = sys.modules["polymat.completion"]
complete = fz._complete


@contextlib.contextmanager
def patched(owner, name, value):
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def false(*args, **kwargs):
    return False


def zero_syzygy(rows):
    # one zero generator: a stack of rank 0, whatever r is
    return types.SimpleNamespace(generators=((P("0"),) * len(rows),))


def not_annihilating(*args):
    # one Cramer stack, flagged ZLP, that annihilates nothing
    return iter([(PolyMatrix([[P("z1"), P("z2")]]), True)])


def wrong_inverse(*args):
    res = complete(*args)
    return dataclasses.replace(res, inverse=res.inverse * P("2"))


h = P("z1 - z3")
ex, eq = example_2x4(), example_equivalence()
no_zlp_stack = PolyMatrix([[P(p) for p in row] for row in (
    ["z3", "0", "0"], ["z3 - 2", "z1 - z3", "0"], ["z2", "0", "z1 - z3"])])
calls = {
    # r < l: completion, then the witness check
    "factorize r=1 of 2": (fz, "verify_factorization", false,
                           lambda: polymat.factorize(ex["F"], ex["h"])),
    # r == l: h divides every row
    "factorize r=l": (fz, "verify_factorization", false,
                      lambda: polymat.factorize(
                          PolyMatrix([[h, h * P("z2")], [P("0"), h]]), h)),
    "equivalence r<l": (fz, "verify_equivalence", false,
                        lambda: polymat.decide_equivalence(
                            eq["F"], eq["h"], 2)),
    "equivalence r=l": (fz, "verify_equivalence", false,
                        lambda: polymat.decide_equivalence(
                            PolyMatrix.diagonal([h, h]), h, 2)),
    # when no Cramer stack is ZLP (r = 2 here), the syzygies of
    # F(z1 -> f) must give r independent rows
    "annihilator rank": (fz, "syzygy", zero_syzygy,
                         lambda: polymat.factorize(no_zlp_stack, h)),
    # for r = 1, the Cramer vector must annihilate F(z1 -> f)
    "cramer vector factorize": (fz, "_cramer_stacks", not_annihilating,
                                lambda: polymat.factorize(ex["F"], ex["h"])),
    "cramer vector equivalence": (fz, "_cramer_stacks", not_annihilating,
                                  lambda: polymat.decide_equivalence(
                                      PolyMatrix.diagonal([h, P("1")]),
                                      h, 1)),
    # the completion must be unimodular and extend its input
    "completion": (PolyMatrix, "is_unimodular", false,
                   lambda: polymat.complete_to_unimodular(
                       PolyMatrix([[P("z1"), P("1 + z1*z2")]]))),
    # h1 * h2 must give back h0
    "zlp left factor": (cp, "_solve_left_factor",
                        lambda h0, h2: PolyMatrix.identity(2, 3),
                        lambda: polymat.zlp_factorize(PolyMatrix(
                            [[P("z1"), P("0"), P("0")],
                             [P("0"), P("1"), P("0")]]))),
    # the inverse the completion tracks must invert it
    "tracked inverse factorize": (fz, "_complete", wrong_inverse,
                                  lambda: polymat.factorize(ex["F"], ex["h"])),
    "tracked inverse equivalence": (fz, "_complete", wrong_inverse,
                                    lambda: polymat.decide_equivalence(
                                        eq["F"], eq["h"], 2)),
    # the adjugate inverse must be the inverse
    "inverse": (PolyMatrix, "identity",
                classmethod(lambda cls, n, nvars: PolyMatrix(
                    [[P("2") if i == j else P("0") for j in range(n)]
                     for i in range(n)])),
                lambda: PolyMatrix([[P("1"), P("z1")], [P("0"), P("1")]])
                .inverse_unimodular()),
}
raised = {}
for name, (owner, attr, value, call) in calls.items():
    with patched(owner, attr, value):
        try:
            call()
            raised[name] = False
        except polymat.InternalError:
            raised[name] = True
print(json.dumps({"optimize": sys.flags.optimize, "raised": raised}))
"""


def test_rejected_witnesses_raise_internal_error_under_O():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([SRC, HERE,
                                           os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["optimize"] == 1
    assert out["raised"] == {
        "factorize r=1 of 2": True, "factorize r=l": True,
        "equivalence r<l": True, "equivalence r=l": True,
        "annihilator rank": True, "cramer vector factorize": True,
        "cramer vector equivalence": True, "completion": True,
        "zlp left factor": True, "inverse": True,
        "tracked inverse factorize": True,
        "tracked inverse equivalence": True}


def test_internal_error_is_a_runtime_error():
    from polymat import InternalError
    assert issubclass(InternalError, RuntimeError)
    assert not issubclass(InternalError, ValueError)
