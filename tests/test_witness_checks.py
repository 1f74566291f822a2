"""Witness checks run under ``python -O`` too.

The exact re-check of every positive answer is an explicit test that
raises InternalError, not an ``assert``, so it survives -O.  The script
below runs in a ``python -O`` subprocess with the verifier patched to
reject everything, and reports which calls raised InternalError.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SCRIPT = r"""
import json, sys
import polymat
from polymat.matrix import PolyMatrix
from helpers import P, example_2x4, example_equivalence

fz = sys.modules["polymat.factorize"]
fz.verify_factorization = lambda *args, **kwargs: False
fz.verify_equivalence = lambda *args, **kwargs: False
h = P("z1 - z3")
ex, eq = example_2x4(), example_equivalence()
calls = {
    # r < l: completion, then the witness check
    "factorize r=1 of 2": lambda: polymat.factorize(ex["F"], ex["h"]),
    # r == l: h divides every row
    "factorize r=l": lambda: polymat.factorize(
        PolyMatrix([[h, h * P("z2")], [P("0"), h]]), h),
    "equivalence r<l": lambda: polymat.decide_equivalence(
        eq["F"], eq["h"], 2),
    "equivalence r=l": lambda: polymat.decide_equivalence(
        PolyMatrix.diagonal([h, h]), h, 2),
}
raised = {}
for name, call in calls.items():
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
    assert out["raised"] == {"factorize r=1 of 2": True, "factorize r=l": True,
                             "equivalence r<l": True, "equivalence r=l": True}


def test_internal_error_is_a_runtime_error():
    from polymat import InternalError
    assert issubclass(InternalError, RuntimeError)
    assert not issubclass(InternalError, ValueError)
