"""One benchmark session in a fresh interpreter.

Usage (normally started by ``run.py``)::

    python3 perfbench/session.py '<JSON spec>'

The session imports the library from ``src/`` of the checkout, sets the
workload up, then sends requests one at a time (a closed loop with one
client), timing each call, until it has made ``ops`` requests or, without
``ops``, until the block boundary nearest the end of its window.  Between
requests it times the reference task of ``speed.py``, which scales each
latency, and the set-up time, to a fixed machine speed.  Every output is
judged outside the timed span.  The last line of standard
output is a JSON summary.

Spec keys: ``workload``, ``seed``, ``session`` (index within the run),
``seconds`` (window), ``ops`` (exact request count, or null), ``block``
(requests per block of the stream), ``batch`` (requests made during
set-up and always sent, after which ``peak_rss_mb`` is read), ``trace``,
``t_spawn`` (``time.monotonic()`` just before the parent started this
process), ``expected`` (recorded digests of the first outputs, or null),
``record`` (return digests instead of comparing them), ``probe_deep``
(after the loop, count the deep requests that raise ``RecursionError``
at the interpreter's default recursion limit), ``sizes`` (per-workload
scale), and ``spans_path``.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

DEFAULT_RECURSION_LIMIT = sys.getrecursionlimit()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = ("config", "trees", "insertion", "perms", "congruence", "words",
           "lattice", "exactlin", "hopf", "verify", "cli")


def import_library():
    """The library modules of this checkout, by short name."""
    src = ROOT / "src"
    if not (src / "baxter" / "__init__.py").is_file():
        raise SystemExit(f"no library at {src / 'baxter'}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"baxter.{name}") for name in MODULES}
    if Path(modules["cli"].__file__).resolve().parent != src / "baxter":
        raise SystemExit("imported a baxter package from outside the checkout")
    return modules


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def probe_default_limit(workload, requests):
    """How many of ``requests`` raise ``RecursionError`` at the default
    recursion limit.  Made after the timed loop, so it times nothing."""
    raised = sys.getrecursionlimit()
    sys.setrecursionlimit(DEFAULT_RECURSION_LIMIT)
    errors = 0
    try:
        for req in requests:
            try:
                workload.run(req)
            except RecursionError:
                errors += 1
    finally:
        sys.setrecursionlimit(raised)
    return {"probed": len(requests), "recursion_errors": errors}


def run_session(spec, modules):
    from speed import Speed
    from tracing import Tracer, instrument
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]](modules, spec["seed"], spec.get("sizes"))
    tracer = None
    setup = workload.setup
    if spec.get("trace"):
        tracer = Tracer()
        suites = modules["verify"].SUITES
        instrument(tracer, modules,
                   [(suites, name, f"verify.{name}") for name in list(suites)])
        if hasattr(workload, "render"):
            workload.render = tracer.wrap(workload.render, "trees.render")
        setup = tracer.wrap(setup, "setup")
    setup()
    stream = workload.requests()
    block = spec.get("block") or getattr(workload, "block", 1)
    batch = spec.get("batch", 0)
    if batch is None:
        batch = block
    first = list(itertools.islice(stream, batch))
    setup_s = time.monotonic() - spec["t_spawn"]
    clock = time.perf_counter
    meter = Speed(clock)
    for _ in range(3):
        meter.sample()
    setup_factor = meter.factor(meter.samples[0][0], meter.samples[-1][0])

    expected = spec.get("expected") or []
    out = {
        "setup_s": setup_s, "scaled_setup_s": setup_s * setup_factor,
        "ops": 0, "batch": batch, "busy_s": 0.0,
        "latencies": [], "starts": [], "errors": {}, "wrong": 0, "wrong_examples": [],
        "compared": 0, "kinds": {}, "repeats": 0,
        "deep": {"attempted": 0, "failed": 0},
    }
    digests = []
    outputs = hashlib.sha256()  # of every output, to compare sessions
    deep_requests = {}
    runners = {}
    limit = spec.get("ops")
    began = time.monotonic()
    deadline = began + spec.get("seconds", 0)
    for index, req in enumerate(itertools.chain(first, stream)):
        if limit is not None:
            if index >= limit:
                break
        elif index >= max(batch, 1) and index % block == 0:
            now = time.monotonic()
            half_block = (now - began) / (index // block) / 2
            if now + half_block >= deadline:
                break
        run = runners.get(req.kind)
        if run is None:  # one traced function, hence one span name, per kind
            run = runners[req.kind] = (
                tracer.wrap(lambda r: workload.run(r), f"op.{req.kind}")
                if tracer else workload.run)
        meter.due()
        error = None
        start = clock()
        try:
            result = run(req)
        except Exception as exc:  # a failed request is counted, not fatal
            error = exc
        latency = clock() - start

        out["ops"] += 1
        out["busy_s"] += latency
        if index == batch - 1:
            out["peak_rss_mb"] = peak_rss_mb()
        out["latencies"].append(latency)
        out["starts"].append(start)
        out["kinds"][req.kind] = out["kinds"].get(req.kind, 0) + 1
        out["repeats"] += "repeat" in req.tags
        deep = "deep" in req.tags
        out["deep"]["attempted"] += deep
        if deep:
            deep_requests.setdefault(req.args, req)
        if error is not None:
            name = type(error).__name__
            out["errors"][name] = out["errors"].get(name, 0) + 1
            out["deep"]["failed"] += deep
            digests.append(None)
            outputs.update(f"!{name}\n".encode())
            continue
        try:
            problem = workload.check(req, result)
            got = digest(workload.canonical(req, result))
        except Exception as exc:  # an output too malformed to check is wrong
            problem, got = f"output could not be checked: {exc!r}", None
        digests.append(got)
        outputs.update(f"{got}\n".encode())
        if problem is None and index < len(expected) and expected[index] is not None:
            out["compared"] += 1
            if got != expected[index]:
                problem = f"output digest {got} differs from the recorded {expected[index]}"
        if problem is not None:
            out["wrong"] += 1
            if len(out["wrong_examples"]) < 3:
                out["wrong_examples"].append(
                    {"index": index, "kind": req.kind, "problem": problem})

    meter.sample()
    out["scaled_latencies"] = [latency * meter.factor(start, start + latency)
                               for start, latency in zip(out.pop("starts"), out["latencies"])]
    out["reference_s"] = {"samples": len(meter.samples),
                          "median": statistics.median(s for _, s in meter.samples)}
    out["failed"] = out["wrong"] + sum(out["errors"].values())
    out["outputs_sha256"] = outputs.hexdigest()
    out.setdefault("peak_rss_mb", peak_rss_mb())
    config = modules["config"]
    out["caps"] = {"PRODUCT_DEGREE_CAP": config.PRODUCT_DEGREE_CAP,
                   "ENUM_DEGREE_CAP": config.ENUM_DEGREE_CAP}
    if spec.get("record"):
        out["digests"] = digests
    if tracer is not None:
        out["layers"] = tracer.totals()
        out["spans"] = {"recorded": tracer.opened, "kept": len(tracer.spans)}
        if spec.get("spans_path"):
            tracer.write(spec["spans_path"])
    if spec.get("probe_deep"):
        out["deep_probe"] = probe_default_limit(workload, list(deep_requests.values()))
    return out


def main(argv):
    spec = json.loads(argv[1])
    sys.path.insert(0, str(HERE))
    modules = import_library()
    print(json.dumps(run_session(spec, modules)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
