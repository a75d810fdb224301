"""Tests of the benchmark itself, at a tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import combinatorics as comb  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = session.import_library()
TINY = {
    "words": {"sessions": 2, "block": 5, "batch": 4, "sizes": {}},
    "algebra": {"sessions": 2, "block": 5, "batch": 3, "sizes": {"warmup_degree": 3}},
    "verify": {"sessions": 2, "block": None, "batch": None, "sizes": {"max_n": 2},
               "passes": True},
}


def first_requests(workload, seed, count=40):
    wl = WORKLOADS[workload](MODULES, seed, {"warmup_degree": 0})
    if workload == "algebra":
        wl.setup()
    return list(itertools.islice(wl.requests(), count))


def tiny_session(workload, seed=3, ops=25, modules=MODULES, **extra):
    spec = {"workload": workload, "seed": seed, "session": 0, "ops": ops,
            "batch": 0, "record": True, "t_spawn": time.monotonic(),
            "sizes": TINY[workload]["sizes"], **extra}
    return session.run_session(spec, modules)


def test_benchmark_json_declares_what_run_reports():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in declared["workloads"]} <= set(run.PLANS)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_appears_with_its_unit(workload, trace):
    record, result = run.measure(workload, 5, 0.2, trace, plan=TINY[workload])
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    meta = record["metadata"]
    assert meta["seed"] == 5 and meta["python"] and meta["nproc"] >= 1
    assert meta["descriptors"] == WORKLOADS[workload].DESCRIPTORS
    if workload == "algebra":
        assert meta["caps"]["PRODUCT_DEGREE_CAP"] == 10


@pytest.mark.parametrize("workload", ["words", "algebra"])
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert first_requests(workload, 7) == first_requests(workload, 7)
    assert first_requests(workload, 7) != first_requests(workload, 8)


def test_sessions_of_a_run_repeat_the_same_requests():
    record, result = run.measure("algebra", 5, 0.2, 0, plan=TINY["algebra"])
    sessions = record["sessions"]
    assert len(sessions) == 2 and sessions[0]["ops"] == sessions[1]["ops"]
    assert sessions[0]["outputs_sha256"] == sessions[1]["outputs_sha256"]
    assert result["correct"] and record["sessions_disagreeing"] == 0


def test_each_request_takes_its_least_latency():
    sessions = [{"scaled_latencies": [3.0, 1.0, 2.0]},
                {"scaled_latencies": [1.0, 4.0, 2.5]}]
    assert run.best_latencies(sessions) == [1.0, 1.0, 2.0]


def test_latencies_scale_to_the_reference_speed():
    ticks = iter(range(100))
    meter = speed.Speed(clock=lambda: next(ticks) * speed.NOMINAL_S)
    meter.sample()  # the reference took one tick: nominal speed
    assert meter.factor(0, 1) == pytest.approx(1.0)
    assert len(meter.samples) == 1 and next(ticks) == 2 * speed.REPEATS + 1
    meter = speed.Speed(clock=lambda: next(ticks) * 2 * speed.NOMINAL_S)
    meter.sample()  # two ticks: half speed, so latencies are halved
    assert meter.factor(0, 1e9) == pytest.approx(0.5)


def test_probe_counts_recursion_errors_at_the_default_limit():
    def depth(n):
        return 0 if n == 0 else 1 + depth(n - 1)

    wl = SimpleNamespace(run=lambda req: depth(req))
    sys.setrecursionlimit(10_000)
    try:
        assert session.probe_default_limit(wl, [10, 5000, 20]) == {
            "probed": 3, "recursion_errors": 1}
        assert sys.getrecursionlimit() == 10_000
    finally:
        sys.setrecursionlimit(session.DEFAULT_RECURSION_LIMIT)


def test_same_seed_same_digests():
    assert tiny_session("words")["digests"] == tiny_session("words")["digests"]


def test_recorded_digests_match_on_a_committed_seed():
    expected = run.expected_digests("words", 0)[0]
    out = tiny_session("words", seed=0, ops=len(expected), expected=expected)
    assert out["compared"] > 0 and out["wrong"] == 0


def test_injected_wrong_answer_counts_as_failed():
    modules = dict(MODULES, perms=SimpleNamespace(is_baxter=lambda u: False))
    out = tiny_session("words", ops=60, modules=modules)
    assert out["wrong"] > 0
    assert out["failed"] == out["wrong"] + sum(out["errors"].values())
    assert out["wrong_examples"][0]["kind"] == "check"


def test_output_differing_from_the_recording_counts_as_failed():
    good = tiny_session("words")["digests"]
    bad = ["00000000" if d else d for d in good]
    out = tiny_session("words", expected=bad)
    assert out["wrong"] == out["compared"] > 0


def test_checks_reject_a_wrong_product():
    wl = WORKLOADS["algebra"](MODULES, 1, {"warmup_degree": 0})
    wl.setup()
    hopf = MODULES["hopf"]
    a, b = wl.pairs[2]
    req = next(r for r in wl.requests() if r.kind == "p_product")
    assert wl.check(req, hopf.p_product(*req.args)) is None
    assert wl.check(req, hopf.p_product(a, b)) is not None


def test_independent_combinatorics_agree_with_the_library():
    ins, node = MODULES["insertion"], MODULES["trees"].Node
    sizes = comb.ClassSizes()
    for n in range(6):
        for p in itertools.permutations(range(1, n + 1)):
            pair = comb.twin_pair_of(p, node)
            assert pair == ins.p_shape(p)
            assert comb.pair_text(pair) == MODULES["trees"].pair_str(pair)
            assert comb.is_baxter(p) == MODULES["perms"].is_baxter(p)
            assert sizes(pair) == len(ins.class_of_pair(pair))
    for u in [(3, 1, 3, 2, 1), (2, 2, 1, 2), (1, 1, 1)]:
        pair = ins.p_shape(u)
        assert comb.standardize(u) in ins.class_of_pair(pair)


def test_separable_permutations_are_baxter():
    rng = random.Random(2)
    for n in range(1, 60):
        p = comb.separable(n, rng)
        assert sorted(p) == list(range(1, n + 1)) and comb.is_baxter(p)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
