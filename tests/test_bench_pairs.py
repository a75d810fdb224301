"""The statistics and record shape of ``tools/bench_pairs.py``, on made-up
runs: nothing here runs the benchmark."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def _run(parent, head):
    return {side: {"metrics": dict(zip(("wall_s", "ops_per_s"), values))}
            for side, values in (("parent", parent), ("head", head))}


def test_spread_is_the_inclusive_median_and_quartiles():
    assert bench_pairs.spread([5.0]) == {"q1": 5.0, "median": 5.0, "q3": 5.0}
    assert bench_pairs.spread([4, 1, 3, 2, 5]) == {"q1": 2, "median": 3, "q3": 4}
    assert bench_pairs.spread([1, 2, 3, 4]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}


def test_summarize_counts_the_pairs_head_wins_in_the_metric_direction():
    runs = [_run((1.0, 10), (0.8, 12)), _run((1.0, 10), (1.1, 9)),
            _run((1.2, 11), (0.9, 11)), _run((0.9, 10), (0.9, 13))]
    out = bench_pairs.summarize(runs, METRICS)
    assert set(out) == {"wall_s", "ops_per_s"}
    wall = out["wall_s"]
    assert wall["pairs_better"] == 2  # a tie is not better
    assert wall["parent"] == {"q1": 0.975, "median": 1.0, "q3": 1.05}
    assert wall["head"]["median"] == pytest.approx(0.9)
    assert wall["change"] == pytest.approx(-0.1)
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    ops = out["ops_per_s"]
    assert ops["pairs_better"] == 2
    assert ops["change"] == pytest.approx(11.5 / 10 - 1)
    assert json.loads(json.dumps(out)) == out


def test_parse_result_reads_the_last_line_of_run_py():
    result = {"correct": True, "attempted": 9, "failed": 0,
              "metrics": {"wall_s": {"value": 0.7, "unit": "s"}}}
    stdout = json.dumps({"record": {}}) + "\n" + json.dumps(result) + "\n"
    assert bench_pairs.parse_result(stdout) == {
        "correct": True, "attempted": 9, "failed": 0, "metrics": {"wall_s": 0.7}}


# The head side's copy of a checkout, on a throwaway repository.
def test_the_head_copy_takes_edits_and_new_files_but_no_ignored_ones(tmp_path):
    repo, into = tmp_path / "repo", tmp_path / "copy"
    (repo / "pkg").mkdir(parents=True)
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "pkg" / "m.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("y = 1\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    (repo / "pkg" / "m.py").write_text("x = 2\n")
    (repo / "pkg" / "new.py").write_text("z = 1\n")
    (repo / "gone.py").unlink()
    (repo / "pkg" / "__pycache__").mkdir()
    (repo / "pkg" / "__pycache__" / "m.cpython-311.pyc").write_bytes(b"stale")
    bench_pairs.copy_checkout(repo, into)
    copied = sorted(str(p.relative_to(into)) for p in into.rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/m.py", "pkg/new.py"]
    assert (into / "pkg" / "m.py").read_text() == "x = 2\n"
