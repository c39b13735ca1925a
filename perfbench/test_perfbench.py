"""Tests of the benchmark itself: its seeded generator and its output checks."""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_checks  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402
from dyadicrep import cli  # noqa: E402


def _record(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return {"rc": rc, "exc": None, "out": out.getvalue()}


def _edit_json(rec, edit):
    doc = json.loads(rec["out"])
    edit(doc)
    return dict(rec, out=json.dumps(doc, indent=2) + "\n")


def _bump_last_term(doc):
    doc["terms"][-1] += 1


def _bump_nodes(doc):
    doc["nodes"] += 1


def _bump_residue(doc):
    doc["rows"][0]["residue"] += 1


# (ops small enough for a unit test, index of the op to corrupt, corruption)
CASES = {
    "enumerate": (
        [["enumerate", "5", "--jobs", "1"], ["enumerate", "5", "--jobs", "2"]],
        1,
        _bump_nodes,  # caught only by the comparison with --jobs 1
    ),
    "expand": (
        [
            ["greedy", "--n", "41"],
            ["greedy", "--x", "3/8"],
            ["sweep", "2", "60", "--jobs", "1"],
            ["chain", "8", "3", "--format", "json"],
        ],
        0,
        _bump_last_term,
    ),
    "families": (
        [["table1", "--u-max", "11"], ["multiplicity", "--subset-size", "4"]],
        1,
        _bump_residue,
    ),
}


@pytest.mark.parametrize("workload", sorted(CASES))
def test_checker_counts_one_corrupted_payload(workload):
    ops, bad, corrupt = CASES[workload]
    records = [_record(argv) for argv in ops]
    checker = bench_checks.PassChecker()
    assert checker.check(ops, records) == [None] * len(ops)

    records[bad] = _edit_json(records[bad], corrupt)
    verdicts = bench_checks.PassChecker().check(ops, records)
    assert [i for i, why in enumerate(verdicts) if why] == [bad]


def test_checker_counts_exit_codes_exceptions_and_missing_ops():
    ops = [["greedy", "--n", "41"]] * 3
    good = _record(ops[0])
    records = [dict(good, rc=3), dict(good, exc="ArithmeticError()"), None]
    verdicts = bench_checks.PassChecker().check(ops, records)
    assert all(verdicts)


def test_checker_rejects_a_wrong_csv_row():
    ops = [["table1", "--u-max", "11"]]
    rec = _record(ops[0])
    lines = rec["out"].splitlines()
    u, k0, r, status = lines[-1].split(",")
    lines[-1] = ",".join((u, k0, str(int(r) * 2), status))
    bad = dict(rec, out="\n".join(lines) + "\n")
    assert bench_checks.PassChecker().check(ops, [bad])[0]


def test_expand_ops_follow_the_seed_and_pass():
    a, b, c, d = (
        bench_workloads.expand_ops(s, i) for s, i in ((5, 0), (5, 0), (6, 0), (5, 1))
    )
    digest = bench_workloads.digest
    assert a == b and digest(a) == digest(b)
    assert a != c and digest(a) != digest(c)
    assert a != d and digest(a) != digest(d)

    ns = [int(op[2]) for op in a if op[:2] == ["greedy", "--n"]]
    xs = [op[2] for op in a if op[:2] == ["greedy", "--x"]]
    assert len(a) == 253 and len(ns) == 201 and len(xs) == 50
    assert all(2 <= n <= 4000 for n in ns)
    for x in xs:
        p, q = map(int, x.split("/"))
        e = q.bit_length() - 1
        assert q == 1 << e and 2 <= e <= 64 and p % 2 and 0 < p < 2 * q
    for op in bench_workloads.EXPAND_FIXED:
        assert a.count(list(op)) == 1


def test_fixed_workloads_ignore_the_seed():
    for w in ("enumerate", "families"):
        assert bench_workloads.build(w, 1, 0) == bench_workloads.build(w, 2, 3)


@pytest.mark.parametrize("count", [11, 12, 16, 100, 253, 1000])
def test_tail_rank_leaves_ten_ops_beyond(count):
    p, rank = run.tail_rank(count)
    assert count - rank >= 10
    next_rank = -(-(p + 1) * count // 100)
    assert count - next_rank < 10
