"""Record the golden output of every task in every workload grid.

Run from the repository root, at a commit whose outputs are known good:

    python3 perfbench/record_goldens.py

CLI tasks record the stdout sha256, byte count and exit code; library
tasks the sha256 of their canonical text and the count of nonzero terms.
Each stratum runs in its own worker, exactly as the benchmark runs it.
The ``deep_modp`` goldens (Ravenel route only) are confirmed once against
the rational oracle wherever the oracle is affordable (height 1 here;
at (2, 2, 150) and beyond it would take far longer than the grid).
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = Path.cwd()
    env = run.worker_env(root)
    goldens: dict[str, dict] = {}
    seconds: dict[str, float] = {}
    for name, spec in workloads.WORKLOADS.items():
        for stratum in spec["strata"]:
            t0 = time.perf_counter()
            reply = run.Worker(root, env).run(stratum, 0)
            for task, res in zip(stratum, reply["results"]):
                key = workloads.task_key(task)
                if res["error"]:
                    print(f"FAILED {key}: {res['error']}", file=sys.stderr)
                    return 1
                goldens[key] = {"sha256": res["sha256"], "size": res["size"], "code": res["code"]}
                seconds[key] = round(res["seconds"], 4)
            print(f"{name}: {len(stratum)} tasks in {time.perf_counter() - t0:.1f} s", flush=True)

    confirmed = []
    oracle = [["morava_oracle", *task[1:]] for task in workloads.grid("deep_modp") if task[2] == 1]
    reply = run.Worker(root, env).run(oracle, 0)
    for task, res in zip(oracle, reply["results"]):
        key = workloads.task_key(["ravenel", *task[1:]])
        if res["error"] or res["sha256"] != goldens[key]["sha256"]:
            print(f"FAILED oracle check {key}: {res['error'] or 'differs'}", file=sys.stderr)
            return 1
        confirmed.append(key)
    print(f"deep_modp: {len(confirmed)} Ravenel goldens confirmed by the rational oracle")

    out = {
        "meta": {
            "commit": run.commit_of(root),
            "source_sha256": run.source_digest(root),
            "python": platform.python_version(),
            "oracle_confirmed": confirmed,
            "record_seconds": seconds,
        },
        "tasks": goldens,
    }
    run.GOLDENS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} goldens to {run.GOLDENS.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
