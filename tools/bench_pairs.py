"""Paired before/after runs of the benchmark, written as one JSON record.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload verify \\
        --workload words --pairs 10 --seconds 40 --seed 1 --out BENCH_N.json

Both sides run from clean temporary copies, so neither finds bytecode or
other leftovers that the other lacks.  The parent revision is exported
with ``git archive``, which leaves nothing behind in the repository's
``.git``; the other side, ``head``, copies the files of this checkout
that git lists, tracked or untracked but not ignored, so uncommitted
edits and new files come along and ``__pycache__`` does not.  Each pair runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once on
either side, one process at a time, and the side that goes first
alternates from pair to pair.  For every end-to-end metric that
``BENCHMARK.json`` declares, the record holds each side's median and
quartiles over the pairs, the relative change of the medians, and the
number of pairs in which ``head`` came out better.  Every run's values,
``correct`` and ``failed`` are kept too.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "head")


def spread(values) -> dict:
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        (v,) = values
        return {"q1": v, "median": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs, metrics) -> dict:
    """Per metric, each side's spread, the change of the medians and the
    pairs won by ``head``.

    ``runs`` lists one ``{"parent": {...}, "head": {...}}`` pair per
    entry, each side mapping metric names to values; ``metrics`` is the
    ``end_to_end`` list of ``BENCHMARK.json``.  A tie does not count as
    better.
    """
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run[side]["metrics"][name] for run in runs] for side in SIDES}
        sides = {side: spread(values[side]) for side in SIDES}
        base = sides["parent"]["median"]
        better = sum((h < p) if lower else (h > p)
                     for p, h in zip(values["parent"], values["head"]))
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "change": sides["head"]["median"] / base - 1 if base else None,
            "pairs_better": better,
        }
    return out


def parse_result(stdout: str) -> dict:
    """The result line of ``perfbench/run.py``: its last line of output,
    with each metric reduced to its value."""
    result = json.loads(stdout.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return parse_result(proc.stdout)


def export(rev: str, into: Path) -> str:
    """Write the files of ``rev`` under ``into``; return its full hash."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True,
                             check=True).stdout
    # the "data" filter, where this Python has it, refuses links and
    # paths that lead out of ``into``
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)
    return sha


def copy_checkout(root: Path, into: Path) -> None:
    """Copy the files of the checkout at ``root`` that ``git ls-files
    --cached --others --exclude-standard`` lists under ``into``, skipping
    tracked files deleted from the checkout."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True).stdout
    for name in filter(None, map(os.fsdecode, listed.split(b"\0"))):
        source = root / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="path of the JSON record")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "head": {"commit": _git("rev-parse", "HEAD"),
                 "uncommitted_changes": bool(_git("status", "--porcelain"))},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent, \
            tempfile.TemporaryDirectory(prefix="bench-head-") as head:
        record["parent"] = {"commit": export(args.parent, Path(parent))}
        copy_checkout(ROOT, Path(head))
        roots = {"parent": Path(parent), "head": Path(head)}
        for workload in args.workload:
            runs = []
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                run = {"first": order[0]}
                for side in order:
                    run[side] = run_once(roots[side], workload, args.seed, args.seconds)
                    print(workload, k, side, json.dumps(run[side]["metrics"]),
                          file=sys.stderr, flush=True)
                runs.append(run)
            record["workloads"][workload] = {
                "all_correct": all(run[s]["correct"] for run in runs for s in SIDES),
                "failed": {s: sum(run[s]["failed"] for run in runs) for s in SIDES},
                "metrics": summarize(runs, metrics),
                "runs": runs,
            }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
