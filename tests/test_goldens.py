"""Replay the benchmark goldens: every output must stay byte-identical.

``perfbench/goldens.json`` pins the sha256 and size of every benchmark
task's output.  This replays the cheap part of it in one process: every
``paper`` workload command through the CLI, every Ravenel cell of
``deep_modp``, and the rational-oracle cells and the two smallest Abel
inverse cells of ``deep_q``.  ``fgl --format json reproduce`` also runs once
in a fresh interpreter with a fixed hash seed, so that an output depending
on set or dict-of-str order shows.  The goldens file is only read.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
GOLDENS = json.loads((BENCH / "goldens.json").read_text())["tasks"]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tasks = _load("tasks")
workloads = _load("workloads")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv", [task[1] for task in workloads.grid("paper")], ids="_".join
)
def test_paper_command_matches_golden(argv):
    golden = GOLDENS[workloads.task_key(["cli", argv])]
    out, code, err = tasks.run_cli(argv)
    assert (code, len(out.encode()), _digest(out)) == (
        golden["code"], golden["size"], golden["sha256"]
    ), err


RAVENEL = sorted(key for key in GOLDENS if key.startswith("ravenel:"))


@pytest.mark.parametrize("key", RAVENEL)
def test_ravenel_cell_matches_golden(key):
    golden = GOLDENS[key]
    text, size = tasks.ravenel(*(int(v) for v in key.split(":")[1].split(",")))
    assert (size, _digest(text)) == (golden["size"], golden["sha256"])


LIBRARY = sorted(key for key in GOLDENS if key.startswith("morava_oracle:")) + [
    "abel_inverse:20",
    "abel_inverse:22",
]


@pytest.mark.parametrize("key", LIBRARY)
def test_library_cell_matches_golden(key):
    family, params = key.split(":")
    golden = GOLDENS[key]
    text, size = getattr(tasks, family)(*(int(v) for v in params.split(",")))
    assert (size, _digest(text)) == (golden["size"], golden["sha256"])


def test_reproduce_json_matches_golden_with_fixed_hash_seed():
    argv = ["--format", "json", "reproduce"]
    golden = GOLDENS[workloads.task_key(["cli", argv])]
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "fgl.cli", *argv], capture_output=True, env=env, timeout=120
    )
    assert (proc.returncode, len(proc.stdout), _digest(proc.stdout.decode())) == (
        golden["code"], golden["size"], golden["sha256"]
    ), proc.stderr.decode()
