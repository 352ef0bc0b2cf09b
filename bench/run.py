"""Benchmark for redsop: three closed-loop workloads, timed end to end or per layer.

    python3 bench/run.py --workload check-colon --seed 1 --seconds 36 --trace 0

``check-colon`` and ``check-monomial`` run verification suites through
``suites.run_suites`` in one process, as ``redsop check`` does, with the
basis cache cleared once per pass.  ``sessions`` runs a stream of session
blocks through ``session.run_block`` and ``session.render_report``, as
``redsop run`` does, clearing the basis cache before every block because
each ``redsop run`` is a fresh process.  One caller; each call starts
when the previous one returns.

A run makes at least two passes, and more while another fits in
``--seconds``, and reports medians.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it runs the pass once untraced and once with spans
around each layer and prints the per-layer metrics.  The last line of
standard output is the result as JSON.  Every pass checks its outputs:
suites must report no violation, reports must carry the answers the
generator knows, and where ``expected.json`` holds the seed, the counts
and report digests must match.  NOTES.md says why the workloads are
these.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
EXPECTED = os.path.join(BENCH, "expected.json")

WORKLOADS = ("check-colon", "check-monomial", "sessions")
# Imports timed before the first pass and after each pass.  They are
# spread over the run because a few seconds of a busy neighbour on a
# shared host can slow every import of one batch by a third.
SETUP_BATCH = 15
SETUP_CODE = "import time; t = time.perf_counter(); import redsop; print(time.perf_counter() - t)"


@dataclass
class PassResult:
    wall_s: float
    latencies: list          # seconds per operation: a query, or a suite draw
    attempted: int
    failed: int
    problems: list
    outputs: dict            # what must repeat exactly: digests or suite counts
    suites: dict = field(default_factory=dict)  # suite -> [wall_s, instances, checks]


def clear_basis_cache():
    from redsop import groebner

    groebner._GB_CACHE.clear()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# check-* workloads

def suite_pass(calls, tracer=None):
    """One pass over the suite calls, timing every instance draw."""
    from redsop import session, suites

    marks = []
    original = suites.module_stream

    def marked_stream(*args, **kwargs):
        for item in original(*args, **kwargs):
            marks.append(time.perf_counter())
            if tracer is not None:
                tracer.owner_id += 1
            yield item

    latencies, results, per_suite = [], [], {}
    suites.module_stream = marked_stream
    try:
        clear_basis_cache()
        t0 = time.perf_counter()
        for name, seed, count, opts in calls:
            marks.append(time.perf_counter())
            res = suites.run_suites([name], seed, count, **opts)[0]
            marks.append(time.perf_counter())
            latencies.extend(b - a for a, b in zip(marks, marks[1:]))
            wall, inst, checks = per_suite.get(name, (0.0, 0, 0))
            per_suite[name] = [wall + marks[-1] - marks[0], inst + res.instances,
                               checks + res.checks]
            del marks[:]
            results.append(res)
        # the check report redsop check prints for the whole pass
        session.render_report({"schema": session.SCHEMA, "command": "check-theorems",
                               "seed": calls[0][1], "status": "ok", "timing_ms": None,
                               "suites": [r.to_dict() for r in results],
                               "passed": all(r.passed for r in results)})
        wall_s = time.perf_counter() - t0
    finally:
        suites.module_stream = original
    return results, latencies, wall_s, per_suite


def run_suite_pass(workload, seed, tracer=None):
    import inputs

    calls = inputs.suite_calls(workload, seed)
    results, latencies, wall_s, per_suite = suite_pass(calls, tracer)
    problems = []
    for (name, _, count, opts), res in zip(calls, results):
        if res.violations:
            problems.append(f"{name} {opts}: {res.violations} violations, first "
                            f"{json.dumps(res.first_counterexample, sort_keys=True)}")
        want = inputs.expected_instances(name, count)
        if res.instances != want:
            problems.append(f"{name} {opts}: {res.instances} instances, expected {want}")
    outputs = {"input": _digest(json.dumps(calls, sort_keys=True)),
               "checks": [r.checks for r in results]}
    return PassResult(wall_s, latencies, sum(r.checks for r in results),
                      sum(r.violations for r in results), problems, outputs, per_suite)


# ---------------------------------------------------------------------------
# sessions workload

def _answer(report):
    return json.dumps([report.get("verdict"), report.get("depth")])


def run_session_pass(queries, tracer=None):
    from redsop import session

    latencies, texts, codes, reports = [], [], [], []
    t0 = time.perf_counter()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.owner_id = i
        t = time.perf_counter()
        clear_basis_cache()
        report, code = session.run_block(q.text)
        texts.append(session.render_report(report))
        latencies.append(time.perf_counter() - t)
        reports.append(report)
        codes.append(code)
    wall_s = time.perf_counter() - t0

    problems, failed, pairs = [], 0, {}
    for i, (q, report, code) in enumerate(zip(queries, reports, codes)):
        bad = []
        if report.get("status") != "ok" or code != 0:
            bad.append(f"status {report.get('status')} exit {code}: {report.get('error')}")
        else:
            for key, want in q.expect.items():
                got = len(report.get(key) or ()) if key == "entries" else report.get(key)
                if got != want:
                    bad.append(f"{key} = {got!r}, expected {want!r}")
            if q.pair is not None:
                pairs.setdefault(q.pair, set()).add(_answer(report))
        if bad:
            failed += 1
            problems.append(f"query {i} ({report.get('command')}): {'; '.join(bad)}")
    for tag, answers in sorted(pairs.items()):
        if len(answers) != 1:
            problems.append(f"coordinate change altered the answer of {tag}: {sorted(answers)}")
    outputs = {"input": _digest("".join(q.text for q in queries)),
               "reports": _digest("".join(texts))}
    return PassResult(wall_s, latencies, len(queries), failed, problems, outputs)


# ---------------------------------------------------------------------------
# one run

def make_pass(workload, seed):
    """A callable running one pass, with its inputs generated beforehand."""
    if workload == "sessions":
        import inputs

        queries = inputs.session_stream(seed)
        return lambda tracer=None: run_session_pass(queries, tracer)
    return lambda tracer=None: run_suite_pass(workload, seed, tracer)


def load_expected():
    if not os.path.exists(EXPECTED):
        return {}
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def check_recorded(workload, seed, outputs, expected):
    """Compare the pass outputs with the values recorded for this seed, if any."""
    recorded = expected.get(workload, {}).get(str(seed))
    if recorded is None:
        return [], False
    if recorded["input"] != outputs["input"]:
        return [f"recorded values for seed {seed} belong to other inputs; record them again"], True
    diffs = [f"{key}: got {outputs[key]!r}, recorded {recorded[key]!r}"
             for key in sorted(recorded) if outputs.get(key) != recorded[key]]
    return diffs, True


def record(workload, seed, outputs):
    expected = load_expected()
    expected.setdefault(workload, {})[str(seed)] = outputs
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def time_imports(n):
    """Times of ``import redsop`` in n fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return [float(subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                                 capture_output=True, text=True, timeout=120,
                                 check=True).stdout) for _ in range(n)]


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's suite counts or report digest in expected.json")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "redsop")):
        print(f"error: no redsop sources under {SRC}", file=sys.stderr)
        return 2

    context = {"python": platform.python_version(), "nproc": os.cpu_count(),
               "workload": args.workload, "seed": args.seed, "commit": commit(),
               "basis_cache": "cleared at the start of every pass"
                              + (" and before every query" if args.workload == "sessions" else "")}
    sys.path.insert(0, SRC)
    import inputs
    import spans

    one_pass = make_pass(args.workload, args.seed)
    passes = []
    tracer = None
    started = time.perf_counter()
    if args.trace:
        passes.append(one_pass())
        tracer = spans.Tracer()
        tracer.install()
        try:
            passes.append(one_pass(tracer))
        finally:
            tracer.uninstall()
    else:
        time_imports(1)  # warm-up, which writes the bytecode
        setup_times = time_imports(SETUP_BATCH)
        while True:
            passes.append(one_pass())
            setup_times += time_imports(SETUP_BATCH)
            elapsed = time.perf_counter() - started
            if len(passes) >= 2 and elapsed + passes[-1].wall_s > args.seconds:
                break

    problems = []
    for k, p in enumerate(passes):
        problems.extend(f"pass {k}: {msg}" for msg in p.problems)
        if p.outputs != passes[0].outputs:
            problems.append(f"pass {k}: outputs differ from pass 0: {p.outputs} vs {passes[0].outputs}")
    diffs, recorded = check_recorded(args.workload, args.seed, passes[0].outputs, load_expected())
    problems.extend(diffs)
    if args.record and not problems:
        record(args.workload, args.seed, passes[0].outputs)
    context["recorded_outputs"] = "matched" if recorded and not diffs else (
        "differ" if recorded else "unchecked: none recorded for this seed")
    if not recorded:
        print(f"note: expected.json records no outputs of {args.workload} for seed "
              f"{args.seed}; only the checks that need no record were made", file=sys.stderr)

    first = passes[0]
    walls = [p.wall_s for p in passes]
    if args.trace:
        traced_wall = passes[1].wall_s
        values = {k: metric(v, u) for k, (v, u) in
                  spans.layer_metrics(tracer, traced_wall).items()}
        values["trace.overhead_ratio"] = metric(traced_wall / first.wall_s, "ratio")
        for suite in dict.fromkeys(name for plan in inputs.SUITE_PLANS.values()
                                   for name, _, _ in plan):
            wall, inst, checks = first.suites.get(suite, (0.0, 0, 0))
            values[f"suites.{suite}.wall_s"] = metric(wall, "s")
            values[f"suites.{suite}.instances"] = metric(inst, "count")
            values[f"suites.{suite}.checks"] = metric(checks, "count")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz"))
        context["spans"] = len(tracer.start)
    else:
        samples = [x for p in passes for x in p.latencies]
        p90, p99 = percentile(samples, 90), percentile(samples, 99)
        values = {
            "wall_s": metric(statistics.median(walls), "s"),
            "query_p50_ms": metric(1000 * percentile(samples, 50), "ms"),
            "query_p90_ms": metric(1000 * p90, "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": metric(statistics.median(setup_times), "s"),
        }
        context["latency_samples"] = len(samples)
        context["setup_samples"] = len(setup_times)
        context["samples_above_p90"] = sum(1 for x in samples if x > p90)
        context["query_p99_ms"] = 1000 * p99
        context["samples_above_p99"] = sum(1 for x in samples if x > p99)
    context["passes"] = len(passes)
    context["pass_wall_s"] = walls
    context["suites"] = first.suites

    result = {"correct": not problems, "attempted": first.attempted,
              "failed": first.failed, "metrics": values}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"context": context, "problems": problems, **result}, fh, indent=1)
    for msg in problems[:20]:
        print(f"problem: {msg}")
    print("context: " + json.dumps(context, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
