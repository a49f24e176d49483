"""fgl benchmark client: time to a verified result, per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

The loop is closed with one client: one single-threaded worker process at
a time (``worker.py``), a fresh one per round, so process-global caches
start cold as in a new session.  Rounds run until ``--seconds`` is used
up.  Every task's output is compared with ``goldens.json`` outside the
timed interval; any mismatch, exception, wrong exit code or disagreement
of the two routes counts as a failed task and makes the exit code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs round 0
of the seed's plan in pairs, untraced then traced, and reports the
per-layer metrics (see ``spans.py``) and the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record (every round,
per-task times, failures, trace spans) goes to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of bytecode

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"
MIN_SETUP_SAMPLES = 40  # setup_s is a median over worker spawns
TAIL_MIN_BEYOND = 10  # task_tail_s: at least this many tasks beyond the percentile
TIME_CAP_S = 100  # start no pass after this, whatever the sample counts
ROUND_TIMEOUT_S = 120

END_TO_END = {
    "run_wall_s": "s",
    "task_p50_s": "s",
    "task_tail_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class Worker:
    """One worker process, from spawn to exit; ``setup_s`` is spawn-to-ready."""

    def __init__(self, root: Path, env: dict):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
        )
        try:
            line = self.proc.stdout.readline()
            self.setup_s = time.perf_counter() - t0
            if not line or not json.loads(line).get("ready"):
                raise RuntimeError("worker died during set-up: " + self._stderr())
        except BaseException:
            self.close()
            raise

    def _stderr(self) -> str:
        self.close()
        return self.proc.stderr.read().decode(errors="replace")[-2000:]

    def run(self, tasks: list, trace: int) -> dict:
        msg = json.dumps({"tasks": tasks, "trace": trace}) + "\n"
        try:
            out, err = self.proc.communicate(msg.encode(), timeout=ROUND_TIMEOUT_S)
        finally:
            self.close()
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"worker exit {self.proc.returncode}: {err.decode(errors='replace')[-2000:]}")
        return json.loads(out.decode().splitlines()[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH="src",
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=str(root / ".bench_build" / "pycache"),
        OMP_NUM_THREADS="1",
    )
    return env


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit_of(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return res.stdout.strip() or None


def check(task: list, res: dict, goldens: dict) -> str | None:
    """Why the task failed, or None when it matches its golden output."""
    if res["error"]:
        return res["error"]
    gold = goldens.get(workloads.task_key(task))
    if gold is None:
        return "no golden output recorded"
    if (res["sha256"], res["size"], res["code"]) != (gold["sha256"], gold["size"], gold["code"]):
        return f"output differs from golden (size {res['size']} vs {gold['size']})"
    return None


def tail_percentile(times: list[float], q: int) -> tuple[float, int]:
    """Nearest-rank percentile ``q``; the maximum when fewer than 11 samples."""
    ordered = sorted(times)
    if len(ordered) < TAIL_MIN_BEYOND + 1:
        return ordered[-1], 100
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], q


class Run:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.env = worker_env(root)
        self.goldens = json.loads(GOLDENS.read_text())["tasks"]
        self.plan = workloads.PassPlan(args.workload, args.seed, tiny=args.tiny)
        self.rounds: list[dict] = []
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit_of(root),
            "source_sha256": source_digest(root),
            "clients": 1,
        }

    def round(self, tasks: list, trace: int) -> dict:
        worker = Worker(self.root, self.env)
        reply = worker.run(tasks, trace)
        reply["setup_s"] = worker.setup_s
        reply["trace_on"] = trace
        reply["tasks"] = tasks
        for task, res in zip(tasks, reply["results"]):
            self.attempted += 1
            why = check(task, res, self.goldens)
            if why:
                self.failures.append((workloads.task_key(task), why))
        self.rounds.append(reply)
        return reply

    def warm(self) -> None:
        """Discarded spawn: writes bytecode under .bench_build, warms the file cache."""
        Worker(self.root, self.env).run([], 0)

    def probe_setup(self) -> float:
        probe = Worker(self.root, self.env)
        probe.run([], 0)
        return probe.setup_s

    def end_to_end(self) -> dict:
        spec = workloads.WORKLOADS[self.args.workload]
        min_passes = 1 if self.args.tiny else spec["min_passes"]
        start = time.perf_counter()
        pass_walls, times, setups = [], [], []
        k = 0
        while True:
            t0 = time.perf_counter()
            wall = 0.0
            for tasks in self.plan.rounds(k):
                reply = self.round(tasks, 0)
                wall += reply["wall_s"]
                times += [res["seconds"] for res in reply["results"]]
                setups += [reply["setup_s"], self.probe_setup()]
            pass_walls.append(wall)
            k += 1
            now = time.perf_counter()
            if k >= min_passes and (now + (now - t0) > start + self.args.seconds
                                    or now - start > TIME_CAP_S):
                break
        while len(setups) < (1 if self.args.tiny else MIN_SETUP_SAMPLES):
            setups.append(self.probe_setup())
        tail, q_used = tail_percentile(times, spec["tail_percentile"])
        self.info.update(passes=k, tail_percentile=q_used, task_samples=len(times),
                         setup_samples=len(setups))
        return {
            "run_wall_s": statistics.median(pass_walls),
            "task_p50_s": statistics.median(times),
            "task_tail_s": tail,
            "peak_rss_mib": max(rd["maxrss_kib"] for rd in self.rounds) / 1024,
            "setup_s": statistics.median(setups),
        }

    def run_pass(self, rounds: list, trace: int) -> dict:
        """One pass of ``rounds``: results, walls and trace summaries summed."""
        replies = [self.round(tasks, trace) for tasks in rounds]
        merged = {
            "wall_s": sum(rd["wall_s"] for rd in replies),
            "cpu_s": sum(rd["cpu_s"] for rd in replies),
            "results": [res for rd in replies for res in rd["results"]],
        }
        if trace:
            merged["trace"] = spans.merge([rd["trace"] for rd in replies])
        return merged

    def per_layer(self) -> dict:
        rounds = self.plan.rounds(0)
        tasks = [task for r in rounds for task in r]
        deadline = time.perf_counter() + self.args.seconds
        plain, traced = [], []
        while True:
            t0 = time.perf_counter()
            plain.append(self.run_pass(rounds, 0))
            traced.append(self.run_pass(rounds, 1))
            now = time.perf_counter()
            if self.args.tiny or now + (now - t0) > deadline or len(traced) >= 5:
                break
        for a, b in zip(plain, traced):
            for task, ra, rb in zip(tasks, a["results"], b["results"]):
                if ra["sha256"] != rb["sha256"]:
                    self.failures.append((workloads.task_key(task), "traced output differs"))
        first = traced[0]["trace"]
        for tp in traced[1:]:
            for name in ("ratint.kernel_dim", "cli.output_bytes"):
                if tp["trace"]["counters"].get(name, 0) != first["counters"].get(name, 0):
                    self.failures.append((name, "counter did not repeat exactly"))
        self.info["trace_passes"] = len(traced)
        self.info["trace"] = {k: first[k] for k in ("by_parent", "spans")}

        def med(fn):
            return statistics.median(fn(tp) for tp in traced)

        metrics = {}
        for name in spans.SPAN_NAMES:
            metrics[f"{name}.calls"] = (first["calls"].get(name, 0), "count")
            metrics[f"{name}.self_s"] = (med(lambda tp: tp["trace"]["self_s"].get(name, 0.0)), "s")
        for name, unit in spans.COUNTERS.items():
            metrics[name] = (first["counters"].get(name, 0), unit)
        traced_wall = med(lambda tp: tp["wall_s"])
        bookkeeping = med(lambda tp: tp["trace"]["bookkeeping_s"])
        layers = med(lambda tp: sum(tp["trace"]["self_s"].values()))
        metrics.update({
            "worker.cpu_s": (med(lambda tp: tp["cpu_s"]), "s"),
            "worker.gc_s": (med(lambda tp: tp["trace"]["gc_s"]), "s"),
            "worker.gc_collections": (first["gc_collections"], "count"),
            "worker.unwrapped_s": (med(lambda tp: tp["trace"]["unwrapped_s"]), "s"),
            "trace.bookkeeping_s": (bookkeeping, "s"),
            "trace.layer_frac": (layers / max(traced_wall - bookkeeping, 1e-9), "ratio"),
            "trace.overhead_frac": (
                traced_wall / statistics.median(tp["wall_s"] for tp in plain) - 1, "ratio"),
        })
        return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smoke test: tiny grid, one round")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fgl" / "__init__.py").is_file() or not GOLDENS.is_file():
        print("error: run from the repository root (src/fgl and perfbench/goldens.json needed)",
              file=sys.stderr)
        return 2

    run = Run(args, root)
    run.warm()
    if args.trace:
        metrics = run.per_layer()
    else:
        metrics = {k: (v, END_TO_END[k]) for k, v in run.end_to_end().items()}
    failed = len(run.failures)
    run.info["task_fail_frac"] = failed / run.attempted
    run.info["rounds"] = len(run.rounds)

    record_dir = root / ".bench_build" / "perfbench"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "info": run.info,
        "metrics": metrics,
        "failures": run.failures,
        "rounds": [{k: rd[k] for k in ("tasks", "results", "wall_s", "cpu_s", "maxrss_kib",
                                         "setup_s", "trace_on")} for rd in run.rounds],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    (record_dir / name).write_text(json.dumps(record, indent=1))

    for key, why in run.failures:
        print(f"FAILED {key}: {why}", file=sys.stderr)
    print(json.dumps({k: v for k, v in run.info.items() if k != "trace"}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
