"""Tests of the benchmark's own checks and metric arithmetic.

Run from the root of the checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import polymat as pm  # noqa: E402
import polymat.cli  # noqa: E402,F401  (tracing.install wraps cli.main)

import checks  # noqa: E402
import families  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(10, 0, -1)]
    assert run.percentile(values, 0.5) == 5.0
    assert run.percentile(values, 0.9) == 9.0
    assert run.percentile([3.0], 0.9) == 3.0


def test_failed_operations_are_slowest_and_not_counted():
    records = [(0, "ok", 0.1, None), (1, "ok", 0.3, None),
               (2, "deadline", run.DEADLINE_S, None), (1, "ok", 0.2, None)]
    metrics = run.end_to_end(records, [True, True, False, True], wall=3.0,
                             setup_s=0.5, peak_rss_mb=20.0)
    assert metrics["ops_per_s"] == (1.0, "1/s")
    # operation 1 ran twice: the median of its repeats counts
    assert metrics["latency_p50_s"] == (0.25, "s")
    # the failed operation is the 90th percentile: reported at the deadline
    assert metrics["latency_p90_s"] == (run.DEADLINE_S, "s")


def test_repeated_answers_are_kept_once():
    ops = [workloads.Op("same", lambda: pm.Polynomial.one(2), "groebner", None),
           workloads.Op("raises", lambda: 1 // 0, "groebner", None)]
    answers = [[], []]
    records, rounds, _ = run.run_rounds(ops, 0.05, answers)
    assert rounds > 1 and len(records) == 2 * rounds
    assert answers == [[pm.Polynomial.one(2)], []]
    assert {kept for i, _, _, kept in records if i == 0} == {0}
    assert {kept for i, _, _, kept in records if i == 1} == {None}
    cli = workloads.Op("cli", None, "cli", None)
    assert (workloads.answer_key(cli, (0, '{"a": 1, "elapsed_seconds": 1}'))
            == workloads.answer_key(cli, (0, '{"elapsed_seconds": 2, "a": 1}')))


def test_self_time_subtracts_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 6.0])
    tracer = tracing.Tracer()
    with monkeypatch.context() as patch:  # wrappers keep the clock they saw
        patch.setattr(tracing.time, "perf_counter", lambda: next(ticks))
        inner = tracer.wrap("poly.gcd", lambda: "g")
        outer = tracer.wrap("poly.gcd_many", lambda: inner())
    assert outer() == "g"
    assert tracer.calls == {"poly.gcd": 1, "poly.gcd_many": 1}
    assert tracer.self_s["poly.gcd"] == 2.0
    assert tracer.self_s["poly.gcd_many"] == 4.0
    (_, inner_parent, *_), (outer_id, outer_parent, *_) = tracer.spans
    assert inner_parent == outer_id and outer_parent is None


def test_install_rebinds_every_importing_namespace():
    names = ("polymat.groebner", "polymat.factorize", "polymat")
    original = sys.modules["polymat.groebner"].buchberger
    owners = [m for n, m in sys.modules.items()
              if n == "polymat" or n.startswith("polymat.")]
    owners += [pm.Polynomial, pm.PolyMatrix]
    saved = [(owner, dict(vars(owner))) for owner in owners]
    try:
        tracing.install(tracing.Tracer())
        for name in names:
            assert sys.modules[name].buchberger.__wrapped__ is original
    finally:
        for owner, attrs in saved:
            for key, value in list(vars(owner).items()):
                if attrs.get(key) is not value:
                    setattr(owner, key, attrs[key])
    assert sys.modules["polymat.factorize"].buchberger is original


def test_factorization_check_accepts_and_rejects():
    case = families.factor_case(pm, 7, 2, 3, 3, 1, 1)
    out = pm.factorize(case.matrix, case.h)
    assert checks.check_factorization(case, out) is None
    wrong = pm.PolyMatrix.identity(2, 3)
    bad = type(out)(out.variant, out.r, out.h, wrong, out.f1)
    assert "G1 * F1" in checks.check_factorization(case, bad)
    refused = type(out)("no_factorization", out.r, out.h)
    assert "not an allowed answer" in checks.check_factorization(case, refused)


def test_equivalence_check_knows_the_expected_answer():
    pos = families.equiv_case(pm, 7, 3, 3, 2, False)
    neg = families.equiv_case(pm, 7, 3, 3, 2, True)
    out_pos = pm.decide_equivalence(pos.matrix, pos.h, pos.r)
    out_neg = pm.decide_equivalence(neg.matrix, neg.h, neg.r)
    assert checks.check_equivalence(pos, out_pos) is None
    assert checks.check_equivalence(neg, out_neg) is None
    assert checks.check_equivalence(neg, out_pos) is not None
    swapped = type(out_pos)(out_pos.variant, out_pos.r, out_pos.h,
                            out_pos.v, out_pos.d, out_pos.u)
    assert checks.check_equivalence(pos, swapped) is not None


def test_groebner_check_compares_with_sympy():
    gens = families.cyclic(pm, 3)
    basis = pm.buchberger(gens)
    assert checks.check_groebner((gens, False), basis) is None
    short = type(basis)(basis.generators[:-1], basis.order)
    assert checks.check_groebner((gens, False), short) is not None
    tracked = pm.buchberger(gens, track=True)
    assert checks.check_groebner((gens, True), tracked) is None


def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    printed = run.end_to_end([(0, "ok", 0.1, None)], [True], 1.0, 0.1, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(printed)
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == ["factor", "equiv",
                                                      "groebner", "cli"]


def test_short_run_prints_one_result_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "equiv",
         "--short"], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    assert all(math.isfinite(m["value"]) and m["value"] > 0
               for m in result["metrics"].values())
