"""Replay the benchmark goldens: every output must stay byte-identical.

``perfbench/goldens.json`` pins the sha256 and size of every benchmark
task's output.  This replays the cheap part of it in one process: every
``paper`` workload command through the CLI, and every Ravenel cell of
``deep_modp``.  The goldens file is only read.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
