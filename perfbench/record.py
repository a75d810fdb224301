"""Record the output digests that ``run.py`` compares outputs against.

Usage, from the root of a checkout::

    python3 perfbench/record.py

Writes ``perfbench/expected.json``.  For each seed in ``SEEDS`` of
``words`` and ``algebra`` it holds the digests of the first outputs,
space-separated (``-`` where the request raised); every session of a run
sends the same stream, so one line serves them all.  ``verify`` has one
line, under ``"*"``, as its output does not depend on the seed.
Sessions run in this one process: outputs do not depend on cache state,
so the algebra warm-up is skipped.  Re-record only when the
library's outputs are meant to change.
"""

from __future__ import annotations

import json
import sys
import time

import session
from run import HERE, PLANS

SEEDS = range(21)
FIRST = {"words": 48, "algebra": 96, "verify": None}  # verify: one pass


def record(modules, workload, seed):
    spec = {"workload": workload, "seed": seed, "session": 0,
            "ops": FIRST[workload], "block": PLANS[workload]["block"],
            "batch": 0, "record": True, "t_spawn": time.monotonic(),
            "sizes": dict(PLANS[workload]["sizes"], warmup_degree=0)}
    out = session.run_session(spec, modules)
    if out["wrong"] or out["errors"]:
        raise SystemExit(f"{workload} seed {seed}: {out['wrong_examples']} {out['errors']}")
    return [" ".join(d or "-" for d in out["digests"])]


def main():
    modules = session.import_library()
    expected = {"verify": {"*": record(modules, "verify", 0)}}
    for workload in ("words", "algebra"):
        expected[workload] = {str(seed): record(modules, workload, seed) for seed in SEEDS}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
