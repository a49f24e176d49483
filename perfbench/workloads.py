"""Workload grids and the seeded plan of rounds and passes.

A workload is a list of strata; a stratum is a list of cells (tasks of
one kind at a spread of sizes).  One *round* is one fresh worker process
running at most one task from every stratum, in a seeded order, so no
task repeats inside a worker and process-global caches start cold.  One
*pass* is the rounds that together run every cell of the grid once.

A task is a JSON-able list ``[family, *params]``; ``task_key`` is its name
in the golden file.  Family ``cli`` takes an argv list; the library
families are implemented in ``tasks.py``.
"""

from __future__ import annotations

import random

# The paper's own parameters: every README subcommand, both formats.
PAPER_COMMANDS = [
    "bp log --prime 2 --upto 4 --method recursive",
    "bp log --prime 2 --upto 4 --method closed",
    "bp coeff --prime 2 -i 2 -j 2",
    "bp express-v --prime 3 -n 3",
    "morava fgl --prime 2 --height 2 --degree 24 --method ravenel",
    "morava fgl --prime 2 --height 2 --degree 24 --method rational",
    "morava witt -n 6",
    "morava approx --kind wp --prime 2 --height 2 --degree 8",
    "morava approx --kind bv --height 2 --degree 16",
    "abel coeffs --upto 9 --method assoc",
    "abel coeffs --upto 9 --method closed",
    "abel log --upto 9 --method integral",
    "abel log --upto 9 --method product",
    "abel log --upto 9 --method uv",
    "abel exp --upto 6",
    "abel membership --poly a*b --pairs 2,1;3,0",
    "ptypical images --upto 4",
    "ptypical kernel --max-weight 33",
    "ptypical genfun --upto 60 --parts",
    "ptypical conjecture --max-weight 20",
    "reproduce",
]


def _cli(fmt: str, command: str) -> list:
    return ["cli", ["--format", fmt] + command.split()]


def _cells(family: str, *grids) -> list[list]:
    return [[family, *params] for params in grids]


# Why each workload exists, and which layers it stresses and bypasses, is
# in README.md.  ``tail_percentile`` is the highest percentile that leaves
# at least 10 tasks beyond it when a run does only ``min_passes`` passes.
WORKLOADS = {
    "paper": {
        "strata": [[_cli(fmt, c)] for c in PAPER_COMMANDS for fmt in ("text", "json")],
        "min_passes": 5,
        "tail_percentile": 95,
        "tiny": [_cli("text", "bp log --prime 2 --upto 4 --method recursive"),
                 _cli("json", "morava witt -n 6"),
                 _cli("text", "ptypical genfun --upto 60 --parts")],
    },
    "deep_q": {
        "strata": [
            _cells("abel_assoc", [13], [14], [15], [16]),
            _cells("abel_inverse", [20], [22], [24], [26]),
            _cells("morava_oracle", [2, 2, 24], [2, 2, 27], [2, 2, 30], [2, 2, 32]),
            _cells("morava_oracle", [3, 2, 24], [3, 2, 27], [3, 2, 30], [3, 2, 32]),
            _cells("morava_oracle", [5, 1, 20], [5, 1, 23], [5, 1, 27], [5, 1, 30]),
            _cells("morava_oracle", [5, 2, 30], [5, 2, 33], [5, 2, 37], [5, 2, 40]),
            _cells("morava_oracle", [7, 1, 20], [7, 1, 23], [7, 1, 27], [7, 1, 30]),
            _cells("bp_log", [2, 4], [2, 5], [2, 6], [2, 7]),
            _cells("bp_log", [3, 2], [3, 3], [3, 4], [3, 5]),
            _cells("bp_log", [5, 1], [5, 2], [5, 3], [5, 4]),
            _cells("express_v", [2, 3], [2, 4], [2, 5], [3, 3]),
        ],
        "min_passes": 2,
        "tail_percentile": 88,
        "tiny": [["abel_inverse", 20], ["morava_oracle", 5, 1, 20],
                 ["bp_log", 2, 4], ["express_v", 2, 3]],
    },
    "deep_kernel": {
        "strata": [
            _cells("conjecture", [36], [37], [38]),
            _cells("conjecture", [39], [40], [41]),
            _cells("conjecture", [42], [43], [44]),
            [["mod2_presentation"]],
        ],
        "min_passes": 3,
        "tail_percentile": 66,
        "tiny": [["conjecture", 36]],
    },
    "deep_modp": {
        "strata": [
            _cells("ravenel", [2, 1, 24], [2, 1, 26], [2, 1, 28], [2, 1, 30]),
            _cells("ravenel", [3, 1, 32], [3, 1, 35], [3, 1, 38], [3, 1, 42]),
            # height 2: the cost steps up at degrees 184 and 190, so four bands
            _cells("ravenel", *[[2, 2, n] for n in (150, 155, 160, 165)]),
            _cells("ravenel", *[[2, 2, n] for n in (170, 175, 180, 183)]),
            _cells("ravenel", *[[2, 2, n] for n in (184, 186, 188, 190)]),
            _cells("ravenel", *[[2, 2, n] for n in (193, 195, 197, 200)]),
        ],
        "min_passes": 2,
        "tail_percentile": 79,
        "tiny": [["ravenel", 3, 1, 32], ["ravenel", 2, 2, 150]],
    },
}


def task_key(task: list) -> str:
    family, *params = task
    if family == "cli":
        return "cli " + " ".join(params[0])
    return family + ":" + ",".join(str(p) for p in params)


def grid(workload: str) -> list[list]:
    """Every cell of the workload, each once."""
    return [cell for stratum in WORKLOADS[workload]["strata"] for cell in stratum]


class PassPlan:
    """Seeded rounds for the passes of one run.

    A pass runs every cell of the grid exactly once, spread over ``width``
    rounds (the size of the largest stratum): round ``j`` of a pass takes
    slot ``j`` of a seeded permutation of each stratum, padded with empty
    slots.  The seed picks which cells share a round and their order, so
    every pass does the same work and its wall time does not hinge on
    one draw.  Pass ``k`` is the same for the same seed on any machine.
    """

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        spec = WORKLOADS[workload]
        self.strata = [[cell] for cell in spec["tiny"]] if tiny else spec["strata"]
        self.width = max(len(stratum) for stratum in self.strata)

    def rounds(self, k: int) -> list[list[list]]:
        rng = random.Random(f"{self.workload}/{self.seed}/{k}")
        slots = [
            rng.sample(stratum + [None] * (self.width - len(stratum)), self.width)
            for stratum in self.strata
        ]
        rounds = []
        for j in range(self.width):
            tasks = [perm[j] for perm in slots if perm[j] is not None]
            rng.shuffle(tasks)
            rounds.append(tasks)
        return rounds
