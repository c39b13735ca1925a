"""One benchmark pass, in a fresh interpreter started by run.py.

Reads a JSON request on stdin. Mode "setup" reports the set-up time only;
mode "ops" then runs the op list through dyadicrep.cli.main in-process,
capturing stdout and stderr, and streams one JSON line per op to stdout
followed by a summary line. Set-up time is measured from the parent's
clock reading just before it spawned this process (CLOCK_MONOTONIC is
system-wide on Linux) to the moment dyadicrep is imported and its parser
built, so interpreter start and import cost count once, as for a CLI user.
"""

import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

import dyadicrep.cli  # noqa: E402

dyadicrep.cli.build_parser()
READY_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def run_op(argv: list[str]) -> tuple[float, int | None, str | None, str]:
    """(seconds, exit code, exception repr or None, stdout) of one CLI call.
    cli.main is looked up on each call, so a traced pass times its wrapper."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dyadicrep.cli.main(argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    except Exception as e:  # an op that raises counts as failed, the pass goes on
        rc, exc = None, repr(e)
    return time.perf_counter() - t0, rc, exc, out.getvalue()


def replay_check(tracer) -> dict:
    """Replays the traced greedy_for_n inputs with check=True and
    check=False, alternating, through the unwrapped function."""
    fn = tracer.originals.get("greedy.greedy_for_n")
    inputs = tracer.replay_inputs() if fn else []
    on = off = 0.0
    for n, max_k in inputs:
        extra = () if max_k is None else (max_k,)
        for check in (True, False):
            t0 = time.perf_counter()
            fn(n, *extra, check=check)
            dt = time.perf_counter() - t0
            if check:
                on += dt
            else:
                off += dt
    return {"calls": len(inputs), "check_on_s": on, "check_off_s": off}


def main() -> None:
    req = json.loads(sys.stdin.read())
    setup_s = (READY_NS - req["spawn_ns"]) / 1e9
    real = sys.stdout
    if req["mode"] == "setup":
        real.write(json.dumps({"summary": {"setup_s": setup_s}}) + "\n")
        return
    tracer = None
    if req.get("trace"):
        from bench_trace import Tracer

        tracer = Tracer()
        tracer.install()
    payload_bytes = 0
    for i, argv in enumerate(req["ops"]):
        if tracer:
            tracer.op = i
        t, rc, exc, out = run_op(argv)
        payload_bytes += len(out.encode())
        real.write(json.dumps({"i": i, "t": t, "rc": rc, "exc": exc, "out": out}) + "\n")
        real.flush()
    # A forked worker's RSS counts the pages it shares with this process,
    # so a sum would count them twice, by an amount that depends on where
    # the fork falls in the op order; the peak of any one process does not.
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    summary = {"setup_s": setup_s, "peak_rss_kb": kb}
    if tracer:
        summary["layers"] = tracer.aggregate(payload_bytes)
        if req.get("replay"):
            summary["replay"] = replay_check(tracer)
    real.write(json.dumps({"summary": summary}) + "\n")


if __name__ == "__main__":
    main()
