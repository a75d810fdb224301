"""The baxter benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {words,algebra,verify} --seed N \\
        --seconds S --trace {0,1}

Each run is made of sessions, each in a fresh interpreter, so the
library's process-wide caches start empty.  Every session of a run sends
the same stream, made from the seed.  On ``words`` (six sessions) and
``algebra`` (three), the first session measures for ``S`` over the
number of sessions, up to the nearest boundary of a block of the
stream; on ``verify`` it makes one pass of the suites.  The others send
exactly its requests again: on ``verify``, as many as start within
``S`` seconds, at least two.  Load is one client in a closed loop: the
next request is sent only after the previous one returns.

The shared machine changes speed by a third or more for seconds to
minutes at a time.  So sessions scale each latency, and their set-up
time, to a fixed machine speed measured by a reference task (see
``speed.py``), and each request's latency is the least of its scaled
latencies in the sessions: the least of several repeats in fresh
processes made seconds apart drops the bursts the reference missed.
The end-to-end metrics are taken over these latencies; the run record
also gives them unscaled.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of one traced session and the tracing overhead,
measured by replaying its requests untraced.  The line before it is the
run record: metadata, per-session summaries and failures.  Spans and
run records are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
BUDGET_S = 170  # every run ends well within the three minutes allowed

# Per workload: ``sessions``, how many sessions share the window (verify:
# the least number of passes; more start while the window lasts);
# ``block``, the length of the stream's repeating stratified block of
# requests (verify: one pass); ``batch``, the requests made during set-up,
# whose busy time from cold caches is ``wall_s``; and ``sizes``, the scale.
PLANS = {
    "words": {"sessions": 6, "block": 250, "batch": 250, "sizes": {}},
    "algebra": {"sessions": 3, "block": 90, "batch": 900,
                "sizes": {"warmup_degree": 6}},
    "verify": {"sessions": 3, "block": None, "batch": None, "sizes": {"max_n": 5},
               "passes": True},
}

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"), ("wall_s", "s"), ("peak_rss_mb", "MB"),
)

HOPF_OPS = ("p_product", "dual_product", "p_coproduct", "dual_coproduct",
            "e_product", "h_product")
VERIFY_SUITES = ("exactlin", "words", "perms", "trees", "congruence",
                 "insertion", "lattice", "hopf", "series")
# (span, metric suffixes); suffix -> span total field
LAYER_SPANS = (
    ("insertion.p_symbol", ("calls", "self_s", "errors")),
    ("insertion.q_symbol", ("self_s",)),
    ("insertion.p_shape", ("calls", "self_s", "misses")),
    ("insertion.class_of_pair", ("calls", "self_s", "members")),
    ("insertion.baxter_representative", ("self_s",)),
    ("trees.render", ("self_s",)),
    ("perms.is_baxter", ("calls", "self_s")),
    ("congruence.congruence_class", ("self_s", "members")),
    ("words.shifted_shuffle", ("calls", "self_s", "terms")),
    ("words.standardize", ("calls",)),
    ("lattice.baxter_leq", ("calls", "self_s")),
    ("lattice.enumerate_tbt", ("self_s",)),
    *((f"hopf.{op}", ("calls", "self_s")) for op in HOPF_OPS),
    ("hopf.p_product", ("misses",)),
    ("exactlin.kernel_basis", ("calls", "self_s")),
    *((f"verify.{suite}", ("s",)) for suite in VERIFY_SUITES),
)
FIELDS = {"calls": "calls", "self_s": "self_s", "errors": "errors",
          "misses": "misses", "members": "items", "terms": "items", "s": "total_s"}
PER_LAYER = tuple(
    (f"{span}.{suffix}", "s" if suffix in ("self_s", "s") else "count")
    for span, suffixes in LAYER_SPANS for suffix in suffixes
) + (
    ("insertion.default_limit.recursion_errors", "count"),
    ("cli.self_s", "s"), ("hopf.terms_out", "count"),
    ("hopf.kept_per_expanded", "ratio"), ("trace.overhead_s", "s"),
    ("trace.traced_s", "s"), ("trace.untraced_s", "s"),
)


class BenchError(Exception):
    """A session could not be run; the run prints no result."""


def expected_digests(workload, seed):
    """Per session, the recorded digest of each of its first outputs
    (None where the output was an error), or None if none is recorded."""
    recorded = json.loads((HERE / "expected.json").read_text()).get(workload, {})
    sessions = recorded.get(str(seed)) or recorded.get("*")
    if sessions is None:
        return None
    return [[None if d == "-" else d for d in line.split()] for line in sessions]


def start_session(spec, deadline):
    """Run one session in a fresh interpreter and return its summary."""
    spec = dict(spec, t_spawn=time.monotonic())
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent before a session could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "session.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"session {spec['session']} overran the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"session {spec['session']} exited with {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def session_spec(workload, seed, index, plan, expected, **extra):
    return {"workload": workload, "seed": seed, "session": index,
            "block": plan["block"], "batch": plan["batch"], "sizes": plan["sizes"],
            "expected": expected[0] if expected else None, **extra}


def run_sessions(workload, seed, seconds, deadline, plan, expected):
    """The untraced sessions of one run: the first measures for its
    window, the others send exactly its requests again."""
    began = time.monotonic()
    window = 0 if plan.get("passes") else seconds / plan["sessions"]
    sessions = [start_session(
        session_spec(workload, seed, 0, plan, expected, seconds=window), deadline)]
    ops = sessions[0]["ops"]
    while (len(sessions) < plan["sessions"]
           or plan.get("passes") and time.monotonic() - began < seconds):
        sessions.append(start_session(
            session_spec(workload, seed, len(sessions), plan, expected, ops=ops), deadline))
    return sessions


def traced_sessions(workload, seed, seconds, deadline, plan, expected):
    """One traced session measuring the same window as an untraced one,
    and its requests replayed untraced, which also probes deep requests
    at the default recursion limit."""
    window = 0 if plan.get("passes") else seconds / plan["sessions"]
    spans = str(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz")
    traced = start_session(session_spec(workload, seed, 0, plan, expected, seconds=window,
                                        trace=True, spans_path=spans), deadline)
    untraced = start_session(session_spec(workload, seed, 1, plan, expected,
                                          ops=traced["ops"], probe_deep=True), deadline)
    return traced, untraced


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_latencies(sessions, key="scaled_latencies"):
    """Per request, the least of its latencies in the sessions."""
    return [min(column) for column in zip(*(s[key] for s in sessions))]


def end_to_end(sessions, plan, scaled=True):
    best = best_latencies(sessions, "scaled_latencies" if scaled else "latencies")
    # A verify session is one pass of one request per suite.  Its suites
    # differ a hundredfold in cost, so the percentiles of nine of them
    # jump from suite to suite; latency is taken per pass instead.
    best_ms = [x * 1e3 for x in ([sum(best)] if plan.get("passes") else best)]
    setup = "scaled_setup_s" if scaled else "setup_s"
    values = {
        "setup_s": statistics.median(s[setup] for s in sessions),
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best_ms),
        "latency_p99_ms": percentile(best_ms, 99),
        "wall_s": sum(best[:sessions[0]["batch"]]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(traced, untraced):
    def get(span, field):
        return traced["layers"].get(span, {}).get(field, 0)

    values = {}
    for span, suffixes in LAYER_SPANS:
        for suffix in suffixes:
            values[f"{span}.{suffix}"] = get(span, FIELDS[suffix])
    values["cli.self_s"] = get("cli.main", "self_s")
    values["hopf.terms_out"] = get("hopf.p_product", "items")
    expanded = get("words.shifted_shuffle", "items")
    values["hopf.kept_per_expanded"] = values["hopf.terms_out"] / expanded if expanded else 0.0
    probe = untraced["deep_probe"]
    values["insertion.default_limit.recursion_errors"] = probe["recursion_errors"]
    traced_s = traced["setup_s"] + traced["busy_s"]
    untraced_s = untraced["setup_s"] + untraced["busy_s"]
    values["trace.traced_s"] = traced_s
    values["trace.untraced_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def metadata(workload, seed, seconds, trace, plan, sessions):
    from workloads import WORKLOADS

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine; the source hash still identifies the code
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "baxter").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "recursion_limit": sys.getrecursionlimit(),
        "commit": commit, "source_sha256": source.hexdigest(),
        "caps": sessions[0]["caps"],
        "load": "one client, closed loop, one process at a time",
        "plan": plan,
        "descriptors": WORKLOADS[workload].DESCRIPTORS,
    }


def measure(workload, seed, seconds, trace, plan=None):
    """Run the benchmark and return (record, result)."""
    plan = plan or PLANS[workload]
    deadline = time.monotonic() + BUDGET_S
    # Digests are recorded at the default scale; verify's output depends on it.
    expected = (expected_digests(workload, seed)
                if plan["sizes"] == PLANS[workload]["sizes"] else None)
    OUT_DIR.mkdir(exist_ok=True)
    if trace:
        sessions = traced_sessions(workload, seed, seconds, deadline, plan, expected)
    else:
        sessions = run_sessions(workload, seed, seconds, deadline, plan, expected)
    # Every session sent the same requests, so each must give the same outputs.
    disagree = sum(s["outputs_sha256"] != sessions[0]["outputs_sha256"] for s in sessions)
    attempted = sum(s["ops"] for s in sessions)
    failed = sum(s["failed"] for s in sessions) + disagree
    wrong = sum(s["wrong"] for s in sessions) + disagree
    errors = {}
    for s in sessions:
        for name, n in s["errors"].items():
            errors[name] = errors.get(name, 0) + n
    record = {
        "metadata": metadata(workload, seed, seconds, trace, plan, sessions),
        "failed_frac": failed / attempted,
        "wrong": wrong, "sessions_disagreeing": disagree, "errors": errors,
        "deep": {key: sum(s["deep"][key] for s in sessions)
                 for key in ("attempted", "failed")},
        "compared_with_recorded": sum(s["compared"] for s in sessions),
        "deep_probe": sessions[-1].get("deep_probe"),
        "unscaled": None if trace else {
            name: m["value"] for name, m in end_to_end(sessions, plan, scaled=False).items()},
        "sessions": [{k: v for k, v in s.items()
                      if k not in ("latencies", "scaled_latencies", "layers")}
                     for s in sessions],
    }
    metrics = per_layer(*sessions) if trace else end_to_end(sessions, plan)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "baxter" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    try:
        record, result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
