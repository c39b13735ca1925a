"""Op lists of the three benchmark workloads.

An op is the argv list of one ``dyadicrep`` CLI call. Only ``expand``
depends on the seed; ``enumerate`` and ``families`` are fixed.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("enumerate", "expand", "families")

EXPAND_N_COUNT = 200
EXPAND_N_RANGE = (2, 4000)
EXPAND_X_COUNT = 50
EXPAND_E_RANGE = (2, 64)
EXPAND_FIXED = (
    ["greedy", "--n", "3113"],
    ["sweep", "2", "500", "--jobs", "2"],
    # JSON, because only the JSON payload carries the step digests
    ["chain", "8", "6", "--format", "json"],
)


def enumerate_ops() -> list[list[str]]:
    ops = [["enumerate", str(k), "--jobs", "1"] for k in range(2, 9)]
    # the one --jobs 2 op keeps the ProcessPool path measured
    ops.append(["enumerate", "8", "--jobs", "2"])
    return ops


def expand_ops(seed: int, index: int = 0) -> list[list[str]]:
    """200 greedy --n, 50 greedy --x and three fixed ops, shuffled.

    Pass `index` of a run draws its own sample from (seed, index), since
    the cost per N varies by orders of magnitude from one N to the next
    and one sample would make a run's figures hinge on the N it drew. N is
    a stratified uniform sample of [2, 4000]: one N uniform in each of 200
    equal-width strata.
    """
    rng = random.Random(f"expand/{seed}/{index}")
    lo, hi = EXPAND_N_RANGE
    width = hi - lo + 1
    ops = []
    for i in range(EXPAND_N_COUNT):
        a = lo + i * width // EXPAND_N_COUNT
        b = lo + (i + 1) * width // EXPAND_N_COUNT - 1
        ops.append(["greedy", "--n", str(rng.randint(a, b))])
    for _ in range(EXPAND_X_COUNT):
        e = rng.randint(*EXPAND_E_RANGE)
        p = rng.randrange(1, 1 << (e + 1), 2)
        ops.append(["greedy", "--x", f"{p}/{1 << e}"])
    ops.extend(list(op) for op in EXPAND_FIXED)
    rng.shuffle(ops)
    return ops


def families_ops() -> list[list[str]]:
    ops = [["table1", "--u-max", "25"]]
    ops += [["multiplicity", "--subset-size", str(m)] for m in range(1, 6)]
    return ops


def build(workload: str, seed: int, index: int = 0) -> list[list[str]]:
    """The op list of pass `index` of a run with this seed."""
    if workload == "enumerate":
        return enumerate_ops()
    if workload == "expand":
        return expand_ops(seed, index)
    if workload == "families":
        return families_ops()
    raise ValueError(f"unknown workload {workload!r}")


def digest(ops: list[list[str]]) -> str:
    """sha256 of the op list, so runs can be shown to share inputs."""
    return hashlib.sha256(json.dumps(ops).encode()).hexdigest()
