"""dyadicrep benchmark: runs one workload for a while and prints its metrics.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
src/. A run spawns a few set-up probes, then passes until they have taken
--seconds in all (at least three passes). Each pass is one fresh
interpreter (bench_pass.py) that runs the workload's whole op list through
dyadicrep.cli.main in-process. Payloads are checked here, outside the
timed region, by bench_checks, which does not import dyadicrep.

The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones from traced
passes (untraced passes alternate with them, to give the tracing
overhead). The line before it is {"info": ...}, never gated: op-list
digests, pass counts, the op-time percentiles op_p50_s and op_tail_s,
and machine facts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import bench_checks
import bench_trace
import bench_workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASS_SCRIPT = os.path.join(HERE, "bench_pass.py")
# Passes import dyadicrep from cached bytecode, as an installed CLI does,
# whatever PYTHONDONTWRITEBYTECODE says; the cache stays in the checkout.
PASS_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "PYTHONPYCACHEPREFIX": os.path.join(ROOT, ".bench_build", "pycache"),
}

SETUP_PROBES = 6
# A run must end well inside 180 s; no pass starts past this budget.
HARD_BUDGET_S = 165.0
TAIL_BEYOND = 10
# Untraced runs take at least this many passes, so every median over
# passes has a middle sample.
MIN_PASSES = 3
# op_tail_s pools this many consecutive passes: the fewest that hold the
# TAIL_BEYOND + 1 ops the percentile needs on every workload.
TAIL_PASSES = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def spawn(request: dict, timeout: float) -> tuple[list[dict], dict | None, str]:
    """Runs bench_pass.py once: (op records, summary or None, stderr)."""
    spawn_ns = time.monotonic_ns()
    # Its own process group, so a pass that overruns is killed together
    # with any --jobs workers it started.
    proc = subprocess.Popen(
        [sys.executable, PASS_SCRIPT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=PASS_ENV,
        start_new_session=True,
    )
    data = json.dumps(dict(request, spawn_ns=spawn_ns)).encode()
    try:
        out, err = proc.communicate(data, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += b"\npass killed after its time budget"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    records, summary = [], None
    for line in out.decode().splitlines():
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if "summary" in doc:
            summary = doc["summary"]
        elif "i" in doc:
            records.append(doc)
    if proc.returncode != 0:
        summary = None
    return records, summary, err.decode(errors="replace")


def tail_rank(count: int) -> tuple[int, int]:
    """(p, rank): the highest whole percentile p with at least TAIL_BEYOND
    of count ops beyond it, and its nearest-rank position (1-based)."""
    p = math.floor(100 * (count - TAIL_BEYOND) / count)
    return p, math.ceil(p * count / 100)


def end_to_end(passes: list[dict], setups: list[float],
               attempted: int, failed: int) -> tuple[dict, dict]:
    """The gated metrics, medians over passes, and the op-time percentiles,
    which are reported but not gated.

    On this machine, ten runs of expand spread op_p50_s and op_tail_s by
    40-45% between quartiles, twice the largest bound a benchmark may set:
    expand's op costs are bimodal, and both percentiles sit near a gap
    between clusters, where noise moves them from one cluster to the other.
    """
    # The tail pools the ops of TAIL_PASSES consecutive passes, so its
    # percentile is the same in every run; the run reports the median over
    # every such window.
    groups = [passes[g:g + TAIL_PASSES]
              for g in range(len(passes) - TAIL_PASSES + 1)] or [passes]
    size = sum(len(p["times"]) for p in groups[0])
    pct, rank = tail_rank(size)
    tails = [sorted(t for p in group for t in p["times"])[rank - 1] for group in groups]
    metrics = {
        "wall_s": statistics.median(sum(p["times"]) for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    op_times = {
        "op_p50_s": statistics.median(t for p in passes for t in p["times"]),
        "op_tail_s": statistics.median(tails),
        "tail_percentile": pct,
        "tail_ops": size,
        "tail_windows": len(tails),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, op_times


def per_layer(traced: list[dict], untraced: list[dict], replay: dict | None) -> dict:
    layers = [p["layers"] for p in traced]
    values = {
        name: statistics.median(layer.get(name, 0.0) for layer in layers)
        for name, _ in bench_trace.METRICS
    }
    values["trace.overhead_s"] = (
        statistics.median(sum(p["times"]) for p in traced)
        - statistics.median(sum(p["times"]) for p in untraced)
    )
    if replay and replay["check_on_s"] > 0:
        values["greedy.check_share"] = 1 - replay["check_off_s"] / replay["check_on_s"]
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in bench_trace.METRICS
    }


def machine_info() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh
                 if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {
        "commit": read_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "src_lines": src_lines,
    }


def read_commit() -> str | None:
    """HEAD's commit id when the checkout carries a .git directory."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    # SIGTERM unwinds like an exception, so spawn() can stop its pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dyadicrep", "cli.py")):
        print(f"error: no dyadicrep sources under {ROOT}/src", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    # The first probe may compile bytecode; it is not a sample.
    _, first, err = spawn({"mode": "setup"}, HARD_BUDGET_S)
    if first is None:
        print(f"error: set-up probe failed:\n{err}", file=sys.stderr)
        return 1
    setups: list[float] = []
    for _ in range(SETUP_PROBES):
        _, summary, err = spawn({"mode": "setup"}, HARD_BUDGET_S)
        if summary is None:
            print(f"error: set-up probe failed:\n{err}", file=sys.stderr)
            return 1
        setups.append(summary["setup_s"])

    checker = bench_checks.PassChecker()
    attempted = failed = 0
    reasons: dict[str, int] = {}
    untraced: list[dict] = []
    traced: list[dict] = []
    replay = None
    measured = longest = 0.0
    digests: list[str] = []
    # Traced runs alternate an untraced pass with a traced one, the first
    # traced pass also replaying greedy_for_n inputs.
    min_passes = 2 if trace else MIN_PASSES
    count = 0
    while True:
        spent = time.monotonic() - started
        if count and spent + longest > HARD_BUDGET_S:
            break
        if count >= min_passes and measured >= args.seconds:
            break
        traced_pass = trace and count % 2 == 1
        # each untraced pass, or untraced/traced pair, has its own op list
        ops = bench_workloads.build(
            args.workload, args.seed, count // 2 if trace else count
        )
        digests.append(bench_workloads.digest(ops))
        request = {"mode": "ops", "ops": ops, "trace": traced_pass,
                   "replay": traced_pass and replay is None}
        t0 = time.monotonic()
        records, summary, err = spawn(request, HARD_BUDGET_S - spent)
        took = time.monotonic() - t0
        measured += took
        longest = max(longest, took)
        count += 1
        by_index = {r["i"]: r for r in records}
        verdicts = checker.check(ops, [by_index.get(i) for i in range(len(ops))])
        attempted += len(ops)
        for why in verdicts:
            if why is not None:
                failed += 1
                reasons[why] = reasons.get(why, 0) + 1
        if summary is None or len(records) != len(ops):
            print(f"pass {count} did not complete:\n{err}", file=sys.stderr)
            continue
        setups.append(summary["setup_s"])
        done = {
            "times": [by_index[i]["t"] for i in range(len(ops))],
            "rss_kb": summary["peak_rss_kb"],
        }
        if traced_pass:
            done["layers"] = summary["layers"]
            replay = replay or summary.get("replay")
            traced.append(done)
        else:
            untraced.append(done)

    for why, n in sorted(reasons.items()):
        print(f"FAILED x{n}: {why}", file=sys.stderr)
    if not untraced or (trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_digests": digests,
        "ops_per_pass": len(ops),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "setup_samples": len(setups),
        **machine_info(),
    }
    if trace:
        metrics = per_layer(traced, untraced, replay)
        info["replay"] = replay
        info["note"] = (
            "spans are recorded in the pass process only; work in --jobs "
            "workers is not seen, so search.* and bounds.* counters come "
            "from the --jobs 1 ops"
        )
    else:
        metrics, info["op_times"] = end_to_end(untraced, setups, attempted, failed)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
