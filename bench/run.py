"""Benchmark of polymat: factorize, decide_equivalence, buchberger and the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload factor --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload cli --short    # small counts, all checks

The load is a closed loop in one thread: each operation starts when the
previous one returns.  Set-up (importing polymat and building the seeded
inputs) is timed several times and its median reported as ``setup_s``.
The timed phase repeats whole rounds of the workload's operations until
``--seconds`` (by default ``run_seconds`` of BENCHMARK.json) have passed.
Each distinct answer is then checked with sympy, and the last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
half the time runs untraced and half traced, and the metrics are per-layer
call counts and self times per round, plus the traced/untraced throughput
ratio; the spans of the first traced round go to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# Three times the slowest operation that completes (factorize on a 4x5
# matrix, about 1.3 s); the gcd fault case runs for more than a minute.
DEADLINE_S = 4.0
# Set-up takes a tenth of a second, where the machine's speed swings by a
# fifth from one second to the next: it is timed SETUPS_BEFORE times before
# the timed phase and SETUPS_AFTER times after it, and the median reported.
SETUPS_BEFORE = 3
SETUPS_AFTER = 6


class Deadline(BaseException):
    """Raised in the running operation when its deadline passes.  Not an
    Exception, so that no handler inside polymat can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q
    of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def purge_polymat() -> None:
    for name in [n for n in sys.modules
                 if n == "polymat" or n.startswith("polymat.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int, short: bool, workdir: str,
           times: list[float], repeats: int):
    """Import polymat afresh and build the round, ``repeats`` times; appends
    each time to ``times`` and returns the last round built."""
    import workloads
    for _ in range(repeats):
        purge_polymat()
        gc.collect()  # the previous import's modules, not this set-up's
        start = time.perf_counter()
        pm = importlib.import_module("polymat")
        importlib.import_module("polymat.cli")
        ops = workloads.BUILDERS[workload](pm, seed, short, workdir)
        times.append(time.perf_counter() - start)
    return ops


def run_rounds(ops, seconds: float, answers: list[list], tracer=None):
    """Whole rounds until ``seconds`` have passed (at least one), the first
    in the round's order and later ones shuffled.

    ``answers[i]`` collects the distinct answers of operation i, each kept
    once, so that the memory held grows with one round's answers and not
    with the number of rounds a run completes.  Returns
    [(op index, status, latency, index into answers[i] or None)], the round
    count and the wall time, without the time spent keeping answers."""
    import workloads
    seen = [{} for _ in ops]  # answer key -> index into answers[i]
    records = []
    rounds = 0
    keeping = 0.0
    order = list(range(len(ops)))
    clock = time.perf_counter
    start = clock()
    while True:
        for i in order:
            op = ops[i]
            if tracer is not None:
                tracer.request += 1
                tracer.reset_stack()
            t0 = clock()
            try:
                signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
                try:
                    result, status = op.run(), "ok"
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except Deadline:
                result, status = None, "deadline"
            except Exception as exc:  # an answer the check must see as failed
                result, status = None, f"{type(exc).__name__}: {exc}"
            t1 = clock()
            kept = None
            if status == "ok":
                try:
                    key = workloads.answer_key(op, result)
                except ValueError as exc:  # output that is not a document
                    status = f"unreadable answer: {exc}"
                else:
                    kept = seen[i].get(key)
                    if kept is None:
                        kept = seen[i][key] = len(answers[i])
                        answers[i].append(result)
            records.append((i, status, t1 - t0, kept))
            keeping += clock() - t1
        rounds += 1
        if tracer is not None:
            tracer.keep = False
        if clock() - start >= seconds:
            break
        # a disturbance that recurs with the round's period should not hit
        # the same operations in every round
        random.Random(rounds).shuffle(order)
    return records, rounds, clock() - start - keeping


def evaluate(ops, records, answers):
    """Check each distinct answer of each operation once.  Returns
    (flags, problems): flags[k] is True when record k is correct; problems
    lists failures other than the named gcd fault."""
    import checks

    def verdict(op, result):
        try:
            return checks.CHECKS[op.check](op.payload, result)
        except Exception as exc:  # a malformed answer fails its check
            return f"check raised {type(exc).__name__}: {exc}"

    verdicts = [[verdict(op, result) for result in kept]
                for op, kept in zip(ops, answers)]
    flags, problems = [], []
    for i, status, _, kept in records:
        op = ops[i]
        reason = status if status != "ok" else verdicts[i][kept]
        flags.append(reason is None)
        if reason is not None and not (op.fault and status == "deadline"):
            problems.append(f"{op.label}: {reason}")
    return flags, problems


def op_latencies(records, flags) -> list[float]:
    """Each operation's median latency over its repeats in the run; a failed
    attempt counts as slower than every completed one."""
    by_op: dict[int, list[float]] = {}
    for (i, _, lat, _), ok in zip(records, flags):
        by_op.setdefault(i, []).append(lat if ok else math.inf)
    return [statistics.median(v) for v in by_op.values()]


def end_to_end(records, flags, wall: float, setup_s: float,
               peak_rss_mb: float) -> dict:
    latencies = op_latencies(records, flags)

    def pct(q):  # an infinite percentile is reported at the deadline
        return min(percentile(latencies, q), DEADLINE_S)

    return {
        "ops_per_s": (sum(flags) / wall, "1/s"),
        "latency_p50_s": (pct(0.5), "s"),
        "latency_p90_s": (pct(0.9), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, rounds: int, ratio: float) -> dict:
    import tracing
    out = {}
    for name in tracing.span_names():
        out[f"{name}.calls"] = (tracer.calls[name] / rounds, "count")
        out[f"{name}.self_s"] = (tracer.self_s[name] / rounds, "s")
    out[tracing.OPS_USED] = (tracer.ops_used / rounds, "count")
    out[tracing.OVERHEAD] = (ratio, "ratio")
    return out


def write_spans(path: str, tracer, workload: str, seed: int, rounds: int):
    origin = min((s[4] for s in tracer.spans), default=0.0)
    doc = {
        "workload": workload, "seed": seed, "traced_rounds": rounds,
        "span_fields": ["id", "parent", "request", "name", "start_s", "end_s"],
        "spans": [[i, p, q, n, round(a - origin, 7), round(b - origin, 7)]
                  for i, p, q, n, a, b in tracer.spans],
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def parse_args(argv):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase; by default "
                        "run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="small inputs, one set-up, one round")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polymat", "__init__.py")):
        print(f"polymat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.short:
        seconds = 0.0
    elif args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]
    else:
        seconds = args.seconds
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"problems-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        setup_times = []
        ops = set_up(args.workload, args.seed, args.short, workdir,
                     setup_times, 1 if args.short else SETUPS_BEFORE)
        gc.collect()
        answers = [[] for _ in ops]
        if args.trace:
            import tracing
            records, _, wall_u = run_rounds(ops, seconds / 2, answers)
            n_untraced = len(records)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced, rounds, wall_t = run_rounds(ops, seconds / 2, answers,
                                                tracer)
            records += traced
        else:
            records, rounds, wall = run_rounds(ops, seconds, answers)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not (args.trace or args.short):
            set_up(args.workload, args.seed, False, workdir, setup_times,
                   SETUPS_AFTER)
        flags, problems = evaluate(ops, records, answers)
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        untraced_rate = sum(flags[:n_untraced]) / wall_u
        traced_rate = sum(flags[n_untraced:]) / wall_t
        metrics = per_layer(tracer, rounds, traced_rate / untraced_rate)
        spans_path = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json")
        write_spans(spans_path, tracer, args.workload, args.seed, rounds)
        print(f"spans of the first traced round: {spans_path}",
              file=sys.stderr)
    else:
        metrics = end_to_end(records, flags, wall,
                             statistics.median(setup_times), peak_rss_mb)

    failed = flags.count(False)
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload}: {len(ops)} operations a round, {len(records)} "
          f"attempted, {failed} failed", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
