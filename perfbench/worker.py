"""One benchmark worker: a fresh, single-threaded process that runs one
round's task list and exits.

Protocol on stdin/stdout, one JSON object per line:
  worker -> client  {"ready": true}        once set-up is done
  client -> worker  {"tasks": [...], "trace": 0|1}
  worker -> client  the round result, then the worker exits

Set-up is what a new ``fgl`` session pays before its first command: import
``fgl`` and every module the CLI uses, build the CLI parser (through the
public ``main``) and load the fixture table.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

import spans
import tasks  # imports fgl and every module the CLI uses
from fgl import cli, fixtures


def _setup() -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main(["--help"])
        except SystemExit:
            pass
    fixtures.load_fixture_table()


def _run_task(task, tracer) -> dict:
    family, *params = task
    out = {"error": None, "code": None}
    t0 = time.perf_counter()
    try:
        if family == "cli":
            text, out["code"], stderr = tasks.run_cli(params[0])
            size = len(text.encode())  # encoding is part of writing stdout
            if out["code"] != 0:
                out["error"] = f"exit {out['code']}: {stderr.strip()[:200]}"
        else:
            text, size = tasks.LIBRARY[family](*params)
    except Exception as exc:  # a failed task is counted, not fatal
        text, size = "", 0
        out["error"] = f"{type(exc).__name__}: {exc}"[:300]
    out["seconds"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_task(out["seconds"])
        if family == "cli":
            tracer.counters["cli.output_bytes"] += size
    # digesting is outside the timed interval
    out["sha256"] = hashlib.sha256(text.encode()).hexdigest()
    out["size"] = size
    return out


def main() -> int:
    proto = sys.stdout
    _setup()
    proto.write(json.dumps({"ready": True}) + "\n")
    proto.flush()
    msg = json.loads(sys.stdin.readline())
    tracer = None
    if msg.get("trace"):
        tracer = spans.Tracer()
        tracer.install()
    results = []
    excluded = 0.0
    cpu0 = time.process_time()
    start = time.perf_counter()
    for i, task in enumerate(msg["tasks"]):
        if tracer is not None:
            tracer.begin_task(i)
        t_task = time.perf_counter()
        res = _run_task(task, tracer)
        excluded += time.perf_counter() - t_task - res["seconds"]
        results.append(res)
    wall = time.perf_counter() - start - excluded
    cpu = time.process_time() - cpu0
    reply = {
        "results": results,
        "wall_s": wall,
        "cpu_s": cpu,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }
    proto.write(json.dumps(reply) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
