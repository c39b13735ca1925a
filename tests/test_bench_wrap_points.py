"""The benchmark tracer's wrap points resolve, except a known set.

perfbench/bench_trace.py wraps each WRAP_POINTS attribute that exists and
skips the rest silently, so a refactor that renames or moves a wrapped
function zeroes its traced metric without any error. This test pins the
set of wrap points that name a missing attribute: a change to that set is
an explicit edit here. It goes once WRAP_POINTS is replaced.
"""

import importlib
import importlib.util
from pathlib import Path

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"

# wrap points whose attribute no library module has any more
MISSING = {
    "cli.verify_solution",
    "cli.solve_congruence",
    "greedy.term_sum",
    "chains.term_sum",
    "congruence.mult_order",
}


def test_only_the_known_wrap_points_are_missing():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    bench_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_trace)
    missing = {
        f"{mod_name.rsplit('.', 1)[1]}.{attr}"
        for mod_name, attr, _ in bench_trace.WRAP_POINTS
        if not hasattr(importlib.import_module(mod_name), attr)
    }
    assert missing == MISSING
