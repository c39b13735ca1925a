import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dyadicrep
from dyadicrep.arith import VerificationError
from dyadicrep.chains import ChainResult, expand_chain
from dyadicrep.cli import build_parser, main
from dyadicrep.congruence import (
    PROVEN_PRIME_LIMIT,
    TABLE_ROWS,
    ProgressionRow,
    log2_mod,
)
from dyadicrep.greedy import (
    SweepRow,
    _greedy_walk,
    greedy_for_n,
    greedy_representation,
    sweep,
)
from dyadicrep.search import PRUNE_RULES
from known_solutions import (
    COMBINED_MODULUS,
    COMBINED_RESIDUE,
    COMPATIBLE_4SUBSETS,
    COMPUTED_ROWS,
    GREEDY_1_32,
    GREEDY_41,
    SMALL_K,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- enumerate ------------------------------------------------------------

def test_enumerate_json(capsys):
    code, out, err = run_cli(capsys, "enumerate", "3", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "enumerate"
    assert payload["parameters"] == {"k": 3, "jobs": 1}
    assert payload["count"] == 6
    assert [(r["n"], tuple(r["a"])) for r in payload["rows"]] == SMALL_K[3]
    assert set(payload["prune_counters"]) == set(PRUNE_RULES)
    assert "tasks" not in payload and payload["nodes"] > 0
    assert f"# enumerate k=3: {payload['nodes']} nodes, 6 found\n" in err
    assert "# elapsed:" in err


def test_enumerate_csv_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "2", "--format", "csv")
    assert code == 0
    assert out == "n,a\n4,5 6\n"


def test_enumerate_jobs_invariant_payload(capsys):
    _, out1, _ = run_cli(capsys, "enumerate", "4", "--format", "csv", "--jobs", "1")
    _, out3, _ = run_cli(capsys, "enumerate", "4", "--format", "csv", "--jobs", "3")
    assert out1 == out3
    assert out1.splitlines()[1:] == [
        f"{n},{' '.join(map(str, terms))}" for n, terms in SMALL_K[4]
    ]


def test_enumerate_jobs_defaults_to_one():
    # the search runs in one process; --jobs is only validated and echoed
    assert build_parser().parse_args(["enumerate", "8"]).jobs == 1
    assert build_parser().parse_args(["enumerate", "8", "--jobs", "2"]).jobs == 2


def test_enumerate_usage_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "1")
    assert code == 2
    assert out == ""
    assert "error:" in err


# --- greedy ---------------------------------------------------------------

def test_greedy_n_json(capsys):
    code, out, _ = run_cli(capsys, "greedy", "--n", "41")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["terminated"] is True
    assert payload["k"] == 14
    assert tuple(payload["terms"]) == GREEDY_41
    assert payload["parameters"] == {"max_k": 1 << 20, "n": 41}


def test_greedy_budget_exhaustion(capsys):
    code, out, err = run_cli(capsys, "greedy", "--n", "41", "--max-k", "12")
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "budget exhausted"
    assert payload["terminated"] is False
    assert payload["k"] == 13 and tuple(payload["terms"]) == GREEDY_41[:13]
    assert "exhausted" in err and "stopped after 13 terms" in err


def test_parameters_are_the_set_inputs_in_declaration_order(capsys):
    # one rule for every command: an option left unset is not echoed, and
    # greedy declares --max-k first, so its parameters start with max_k
    def parameters(*argv):
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        return json.loads(out)["parameters"]

    defaults = [
        ("enumerate", "2"), ("greedy", "--n", "41"), ("greedy", "--x", "1/2"),
        ("sweep", "2", "10"), ("table1",), ("multiplicity",), ("chain", "8", "2"),
    ]
    for argv in defaults:
        assert None not in parameters(*argv).values(), argv
    assert list(parameters("greedy", "--n", "41")) == ["max_k", "n"]
    half = parameters("greedy", "--x", "2/4")
    assert list(half) == ["max_k", "x"] and half["x"] == "1/2"


@pytest.mark.parametrize(
    "source, max_k", [(("--n", "41"), 12), (("--x", "1/32"), 5), (("--x", "1/32"), 1)]
)
def test_greedy_exhausted_payload_is_the_walk_prefix(capsys, source, max_k):
    # as in an exhausted sweep row: the walk stops after emission max_k + 1
    _, out, _ = run_cli(capsys, "greedy", *source)
    whole = json.loads(out)
    code, out, _ = run_cli(capsys, "greedy", *source, "--max-k", str(max_k))
    assert code == 3
    payload = json.loads(out)
    assert payload["terminated"] is False
    assert payload["k"] == max_k + 1 < whole["k"]
    assert payload["terms"] == whole["terms"][: max_k + 1]


def test_greedy_x_csv_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, "greedy", "--x", "1/32", "--format", "csv")
    assert code == 0
    terms = " ".join(map(str, GREEDY_1_32))
    assert out == f"k,terminated,terms\n13,true,{terms}\n"


def test_greedy_x_exhausted_csv(capsys):
    code, out, _ = run_cli(
        capsys, "greedy", "--n", "41", "--max-k", "12", "--format", "csv"
    )
    assert code == 3
    terms = " ".join(map(str, GREEDY_41[:13]))
    assert out == f"k,terminated,terms\n13,false,{terms}\n"


def test_greedy_x_reduces_and_matches_n(capsys):
    _, out_x, _ = run_cli(capsys, "greedy", "--x", f"41/{2**41}")
    _, out_n, _ = run_cli(capsys, "greedy", "--n", "41")
    assert json.loads(out_x)["terms"] == json.loads(out_n)["terms"]
    _, out_half, _ = run_cli(capsys, "greedy", "--x", "2/4")
    payload = json.loads(out_half)
    assert payload["parameters"]["x"] == "1/2"
    assert payload["terms"] == [3, 6, 8]


@pytest.mark.parametrize(
    "argv",
    [
        ("greedy",),
        ("greedy", "--n", "5", "--x", "1/2"),
        ("greedy", "--x", "1/0"),
        ("greedy", "--x", "abc"),
        ("greedy", "--n", "1"),
        ("greedy", "--x", "3"),
        ("greedy", "--n", "5", "--max-k", "0"),
    ],
)
def test_greedy_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error:" in err


# --- sweep ----------------------------------------------------------------

def test_sweep_csv_matches_library(capsys):
    code, out, _ = run_cli(capsys, "sweep", "2", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,a_k,terminated"
    for line, n in zip(lines[1:], range(2, 11)):
        terms, _ = greedy_for_n(n)
        assert line == f"{n},{len(terms)},{terms[-1]},true"


def test_sweep_figures_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, "sweep", "4", "4", "--figures")
    assert code == 0
    assert out == "n,k,a_k,terminated,ak_ratio,k_ratio\n4,2,6,true,0.5,0.5\n"


def test_sweep_budget_exhaustion(capsys):
    code, out, err = run_cli(capsys, "sweep", "41", "41", "--max-k", "5")
    assert code == 3
    assert out == f"n,k,a_k,terminated\n41,6,{GREEDY_41[5]},false\n"
    assert "budget" in err and "stopped after 6 terms" in err


def test_sweep_jobs_invariant(capsys):
    _, out1, _ = run_cli(capsys, "sweep", "2", "40", "--jobs", "1")
    _, out3, _ = run_cli(capsys, "sweep", "2", "40", "--jobs", "3")
    assert out1 == out3


def test_sweep_jobs_defaults_to_one():
    # the payload echoes --jobs, so a default read from the machine would
    # make the bytes depend on its CPU count
    assert build_parser().parse_args(["sweep", "2", "30"]).jobs == 1


def test_sweep_json(capsys):
    code, out, _ = run_cli(capsys, "sweep", "4", "5", "--format", "json", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0] == {"n": 4, "k": 2, "a_k": 6, "terminated": True}


def test_sweep_window_violation_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(
        "dyadicrep.cli.sweep", lambda *a, **k: [SweepRow(5, 3, 100, True)]
    )
    code, out, err = run_cli(capsys, "sweep", "5", "5")
    assert code == 4
    assert "window violation: n=5 k=3 a_k=100" in err
    assert out == "n,k,a_k,terminated\n5,3,100,true\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "1", "5"),
        ("sweep", "5", "4"),
        ("sweep", "2", "5", "--jobs", "0"),
        ("sweep", "2", "5", "--max-k", "0"),
    ],
)
def test_sweep_usage_errors(capsys, argv):
    assert run_cli(capsys, *argv)[0] == 2


# --- table1 ---------------------------------------------------------------

def test_table1_small_window_csv(capsys):
    code, out, err = run_cli(capsys, "table1", "--u-max", "9", "--format", "csv")
    assert code == 0
    expect = ["u,k0,r,status"] + [
        f"{u},{k0},{r},computed"
        for u, (k0, r) in sorted(COMPUTED_ROWS.items())
        if u <= 9
    ]
    assert out.splitlines() == expect
    assert "skipped" not in err


def test_table1_json(capsys):
    code, out, _ = run_cli(capsys, "table1", "--u-max", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"] == {"u_max": 6}
    assert [r["u"] for r in payload["rows"]] == [0, 1, 2, 3, 4, 6]
    assert all(r["status"] == "computed" for r in payload["rows"])


def test_table1_full_range_with_embedded_rows(capsys):
    code, out, err = run_cli(capsys, "table1", "--u-max", "119", "--format", "csv")
    assert code == 0
    expect = ["u,k0,r,status"] + [
        f"{row.u},{row.k0},{row.r},"
        + ("computed" if row.u <= 78 else "verified-constant")
        for row in TABLE_ROWS
    ]
    assert out.splitlines() == expect
    assert "skipped, not claimed unsolvable" in err
    assert "(79..118)" in err  # 119 itself is embedded, 118 is the last skip
    # the library decides u = 80, 82 and 85; table1 just does not try them
    assert "table1 does not try them" in err and "proven-prime" not in err


def test_table1_huge_u_max_counts_its_skips(capsys):
    code, out, err = run_cli(capsys, "table1", "--u-max", "1000000000")
    assert code == 0
    assert len(out.splitlines()) == 1 + len(TABLE_ROWS)
    assert "999999919 values of u (79..1000000000)" in err


def test_table1_corrupt_embedded_row_exits_4(capsys, monkeypatch):
    by_u = {row.u: row for row in TABLE_ROWS}
    monkeypatch.setattr(
        "dyadicrep.congruence.solve_congruence", lambda u: by_u.get(u)
    )
    corrupt = ProgressionRow(99, 1, 4)  # the one embedded row up to u = 99
    monkeypatch.setattr(
        "dyadicrep.congruence.TABLE_ROWS",
        tuple(corrupt if row.u == 99 else row for row in TABLE_ROWS),
    )
    code, out, err = run_cli(capsys, "table1", "--u-max", "99")
    assert code == 4
    assert "verification failure" in err


def test_table1_corrupt_computed_row_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(
        "dyadicrep.congruence.solve_congruence", lambda u: ProgressionRow(u, 1, 4)
    )
    code, out, err = run_cli(capsys, "table1", "--u-max", "3")
    assert code == 4
    assert "verification failure" in err


def test_no_command_computes_past_the_proven_prime_policy(capsys, monkeypatch):
    # no command reaches UnsupportedModulusError, so the CLI maps it to no
    # exit code of its own; this fails once one could
    moduli = []

    def recording(c, m):
        moduli.append(m)
        return log2_mod(c, m)

    monkeypatch.setattr("dyadicrep.congruence.log2_mod", recording)
    assert run_cli(capsys, "table1", "--u-max", "1000000000")[0] == 0
    for size in range(1, 6):
        assert run_cli(capsys, "multiplicity", "--subset-size", str(size))[0] == 0
    assert moduli and max(moduli) < PROVEN_PRIME_LIMIT


def test_table1_usage_error(capsys):
    assert run_cli(capsys, "table1", "--u-max", "-1")[0] == 2


# --- multiplicity -----------------------------------------------------------

def test_multiplicity_default_json(capsys):
    code, out, _ = run_cli(capsys, "multiplicity")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 9
    assert [tuple(r["us"]) for r in payload["rows"]] == COMPATIBLE_4SUBSETS
    assert all(r["certificate"] == 5 for r in payload["rows"])
    target = next(r for r in payload["rows"] if tuple(r["us"]) == (2, 9, 55, 99))
    assert target["residue"] == COMBINED_RESIDUE
    assert target["modulus"] == COMBINED_MODULUS
    assert target["k"] == COMBINED_RESIDUE  # residue already >= 2


def test_multiplicity_empty_five_subsets(capsys):
    code, out, _ = run_cli(capsys, "multiplicity", "--subset-size", "5")
    assert code == 0
    assert json.loads(out)["count"] == 0
    code, out, _ = run_cli(
        capsys, "multiplicity", "--subset-size", "5", "--format", "csv"
    )
    assert code == 0
    assert out == "us,residue,modulus,k,certificate\n"


def test_multiplicity_corrupt_row_exits_4(capsys, monkeypatch):
    # k0 moved to the next value in [1, r]: the scan still finds its
    # classes, and the row's own check rejects it before anything prints
    shifted = tuple(
        ProgressionRow(row.u, row.k0 % row.r + 1, row.r) for row in TABLE_ROWS
    )
    monkeypatch.setattr("dyadicrep.cli.TABLE_ROWS", shifted)
    code, out, err = run_cli(capsys, "multiplicity", "--subset-size", "1")
    assert code == 4
    assert out == ""
    assert "verification failure" in err and "congruence fails" in err


def test_multiplicity_usage_errors(capsys):
    assert run_cli(capsys, "multiplicity", "--subset-size", "0")[0] == 2
    assert run_cli(capsys, "multiplicity", "--subset-size", "17")[0] == 2


# --- chain -------------------------------------------------------------------

def test_chain_csv_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, "chain", "8", "5")
    assert code == 0
    assert out == (
        "i,k_i,last_term\n"
        "1,13,32\n"
        "2,9,46\n"
        "3,169,392\n"
        "4,5919,12230\n"
        "5,71826,155942\n"
    )


def test_chain_json_with_digests(capsys):
    code, out, _ = run_cli(capsys, "chain", "8", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exhausted"] is False
    assert payload["certificate"] == 4
    assert len(payload["rows"]) == 3
    for row in payload["rows"]:
        joined = ",".join(map(str, row["terms"])).encode()
        assert row["digest"] == hashlib.sha256(joined).hexdigest()
        assert row["first_term"] == row["terms"][0]
        assert row["last_term"] == row["terms"][-1]


def test_chain_tampered_digest_exits_4(capsys, monkeypatch):
    def tampered(*args):
        chain = expand_chain(*args)
        steps = [s._replace(digest="0" * 64) for s in chain.steps]
        return ChainResult(chain.start, steps, chain.exhausted)

    monkeypatch.setattr("dyadicrep.cli.expand_chain", tampered)
    code, out, err = run_cli(capsys, "chain", "8", "2")
    assert code == 4
    assert out == ""
    assert "verification failure" in err and "digest mismatch" in err


def test_chain_budget_exhaustion(capsys):
    code, out, err = run_cli(capsys, "chain", "8", "3", "--max-k", "50")
    assert code == 3
    assert out == "i,k_i,last_term\n1,13,32\n2,9,46\n"
    assert "exhausted at step 3 of 3" in err and "stopped after 51 terms" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("chain", "2", "3"),
        ("chain", "8", "0"),
        ("chain", "8", "2", "--max-k", "0"),
    ],
)
def test_chain_usage_errors(capsys, argv):
    assert run_cli(capsys, *argv)[0] == 2


# --- exit-code mapping ---------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ("greedy", "--n", "41"),
        ("sweep", "2", "5", "--jobs", "1"),
        ("greedy", "--x", "3/8"),
        ("chain", "8", "3"),
    ],
)
def test_failed_greedy_recheck_exits_4(capsys, monkeypatch, argv):
    # every greedy walk, a chain step's included, is certified by the one
    # sums_to call in greedy._certified_blocks
    monkeypatch.setattr("dyadicrep.greedy.sums_to", lambda *a, **k: False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "verification failure" in err and "re-check" in err


def test_failed_search_post_check_exits_4(capsys, monkeypatch):
    monkeypatch.setattr("dyadicrep.search.product_bound_holds", lambda sol: False)
    code, out, err = run_cli(capsys, "enumerate", "3")
    assert code == 4
    assert out == ""
    assert "verification failure" in err and "product bound" in err


def test_failed_greedy_x_recheck_exits_4(capsys, monkeypatch):
    def drop_last_term(*args):
        emitted, i, r, q = _greedy_walk(*args)
        return emitted[:-1], i, r, q

    monkeypatch.setattr("dyadicrep.greedy._greedy_walk", drop_last_term)
    code, out, err = run_cli(capsys, "greedy", "--x", "3/8")
    assert code == 4
    assert out == ""
    assert "verification failure" in err and "re-check" in err


def drop_an_index(emitted, i, r, q):
    return emitted[1:], i, r, q


def shift_the_remainder(emitted, i, r, q):
    return emitted, i, r + 1, q


def double_the_denominator(emitted, i, r, q):
    return emitted, i, r, 2 * q


def scale_the_state(emitted, i, r, q):
    return emitted, i, 2 * r, 2 * q


@pytest.mark.parametrize(
    "corrupt", [drop_an_index, shift_the_remainder, double_the_denominator]
)
def test_sweep_certificate_catches_a_corrupt_block(capsys, monkeypatch, corrupt):
    # the walk lies about one block past the first of n = 30, a block that
    # emits terms; every other block is reported as walked
    corrupted = []

    def lying_walk(i, r, q, max_k, stop):
        got = _greedy_walk(i, r, q, max_k, stop)
        if not corrupted and i >= 128 and got[0] and got[2]:
            corrupted.append(i)
            return corrupt(*got)
        return got

    monkeypatch.setattr("dyadicrep.greedy._greedy_walk", lying_walk)
    with pytest.raises(VerificationError, match="block .* re-check"):
        sweep(30, 40)
    assert corrupted
    corrupted.clear()
    code, out, err = run_cli(capsys, "sweep", "30", "40")
    assert code == 4
    assert out == ""
    assert "verification failure" in err and "re-check" in err


def test_certificate_catches_a_wrong_state_out_of_an_empty_block(capsys, monkeypatch):
    # 5/16 + 2**-200 emits nothing in [64, 128); a walk that claims to hand
    # on r = 0 from there would end the expansion with no term missing
    def lying_walk(i, r, q, max_k, stop):
        got = _greedy_walk(i, r, q, max_k, stop)
        if i == 64 and not got[0]:
            return got[0], got[1], 0, got[3]
        return got

    monkeypatch.setattr("dyadicrep.greedy._greedy_walk", lying_walk)
    with pytest.raises(VerificationError, match=r"block \[64, 128\) .* re-check"):
        greedy_representation(Fraction(5, 16) + Fraction(1, 2**200))
    code, out, err = run_cli(capsys, "greedy", "--x", f"{5 * 2**196 + 1}/{2**200}")
    assert code == 4
    assert out == ""
    assert "verification failure" in err and "re-check" in err


def test_block_loops_resume_from_the_handed_on_state(monkeypatch):
    # a walk that hands on 2r/2q for r/q states the same remainder, so both
    # block loops must resume from it and report the rows as walked. The
    # walk of n = 105 is scaled up to its end; unscaled, it passes (128, 32),
    # and n = 116 passes (128, 64), which a join keyed on 2r at q = 2 would
    # take for the same state
    rows, x_terms = sweep(105, 116), greedy_representation(Fraction(1, 3), 300)
    scaled = []

    def scaling_walk(i, r, q, max_k, stop):
        got = _greedy_walk(i, r, q, max_k, stop)
        if not got[2]:
            scaled.append(None)  # a walk ended: scale no later block
        elif None not in scaled:
            scaled.append(i)
            return scale_the_state(*got)
        return got

    monkeypatch.setattr("dyadicrep.greedy._greedy_walk", scaling_walk)
    assert sweep(105, 116) == rows
    assert scaled[0] == 106
    scaled.clear()
    assert greedy_representation(Fraction(1, 3), 300) == x_terms
    assert len(scaled) > 1


@pytest.mark.parametrize("exc", [ZeroDivisionError, OverflowError])
def test_arithmetic_bug_is_not_a_verification_failure(capsys, monkeypatch, exc):
    def boom(*args, **kwargs):
        raise exc("bug inside a command")

    monkeypatch.setattr("dyadicrep.cli.greedy_for_n", boom)
    with pytest.raises(exc):
        main(["greedy", "--n", "41"])
    assert "verification failure" not in capsys.readouterr().err


def run_cli_quiet(*argv):
    """(exit code, stdout, stderr) of an in-process run, argparse's
    SystemExit included; a traceback propagates as a test failure."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(size=st.integers())
def test_fuzz_multiplicity_subset_size(size):
    code, _, err = run_cli_quiet("multiplicity", "--subset-size", str(size))
    assert code == (0 if 1 <= size <= len(TABLE_ROWS) else 2)
    assert "Traceback" not in err


@settings(max_examples=40, deadline=None)
@given(u_max=st.integers(min_value=-10**6, max_value=60))
def test_fuzz_table1_u_max(u_max):
    code, _, err = run_cli_quiet("table1", "--u-max", str(u_max), "--format", "csv")
    assert code == (0 if u_max >= 0 else 2)
    assert "Traceback" not in err



# The checks below live in the library (run_search, sweep, expand_chain,
# greedy_for_n), apart from enumerate's --jobs, which the search no longer
# takes; the CLI maps their ValueError to exit 2. Inputs stay small so that
# no example runs long.
@settings(max_examples=40, deadline=None)
@given(k=st.integers(max_value=6), jobs=st.integers(-3, 1))
@example(k=6, jobs=2)
def test_fuzz_enumerate(k, jobs):
    code, _, err = run_cli_quiet("enumerate", str(k), "--jobs", str(jobs))
    assert code == (0 if k >= 2 and jobs >= 1 else 2)
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(
    n_min=st.integers(-5, 300),
    width=st.integers(-5, 19),
    max_k=st.integers(-3, 64),
    jobs=st.integers(-3, 1),
)
def test_fuzz_sweep(n_min, width, max_k, jobs):
    argv = f"sweep {n_min} {n_min + width} --max-k {max_k} --jobs {jobs}"
    code, _, err = run_cli_quiet(*argv.split())
    valid = n_min >= 2 and width >= 0 and max_k >= 1 and jobs >= 1
    assert code in ((0, 3) if valid else (2,))
    assert "Traceback" not in err


@settings(max_examples=60, deadline=None)
@given(
    a_start=st.integers(-3, 64),
    depth=st.integers(-3, 3),
    max_k=st.integers(-3, 64),
)
def test_fuzz_chain(a_start, depth, max_k):
    argv = f"chain {a_start} {depth} --max-k {max_k}"
    code, _, err = run_cli_quiet(*argv.split())
    valid = a_start >= 3 and depth >= 1 and max_k >= 1
    assert code in ((0, 3) if valid else (2,))
    assert "Traceback" not in err

# P/Q strings: any signs and denominators (zero included), values past 2,
# and dyadic values p/2**e, which include the term values j/2**j.
_any_ratio = st.builds(
    "{}/{}".format, st.integers(-2 * 10**6, 4 * 10**6), st.integers(-50, 10**6)
)
_dyadic_ratio = st.builds(
    lambda p, e: f"{p}/{1 << e}",
    st.integers(-8, 1 << 41),
    st.integers(0, 40),
)


@settings(max_examples=120, deadline=None)
@given(x=st.one_of(_any_ratio, _dyadic_ratio), max_k=st.integers(1, 2000))
@example(x="1/0", max_k=5)
@example(x="-3/8", max_k=5)
@example(x="0/7", max_k=5)
@example(x="2/1", max_k=5)
@example(x="3/8", max_k=1)
@example(x="5/32", max_k=2000)
def test_fuzz_greedy_x(x, max_k):
    code, out, err = run_cli_quiet("greedy", "--x", x, "--max-k", str(max_k))
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 0:
        terms = json.loads(out)["terms"]
        assert sum(Fraction(a, 2**a) for a in terms) == Fraction(x)


# --- payload bytes -------------------------------------------------------------

# (exit code, sha256 of stdout) of each command in both formats, budget
# exhaustion included; any change to a payload's bytes shows up here
GOLDEN_PAYLOADS = {
    "enumerate 2 --jobs 1 --format json": (0, "eeabb329e97088c032150d5d4e765405e3c4def83fdb234f349a4fccc1a0d4be"),
    "enumerate 2 --jobs 1 --format csv": (0, "bed3435711042579d3e9b5ae3ff02e9413ade1afcaba6430713406307e7b92bf"),
    "enumerate 3 --jobs 1 --format json": (0, "d2c3b7579ce964841a1902456ba28d62d959ab26ed1875664bf6458c3f107a0d"),
    "enumerate 3 --jobs 1 --format csv": (0, "4d558cdbcccfc77f50c509a5b2ad4a9d59e3d42e3a6bb5f9c5f82fc76f6cd466"),
    "enumerate 4 --jobs 1 --format json": (0, "edcd70254cf5ec4a0db403cd842aae93fc5eea5c78b6d021d43dc0eead4402a7"),
    "enumerate 4 --jobs 1 --format csv": (0, "0c0442dde0bb3fa1045b9233f09c56eb311af1e09c782fca0e3a02c3db6e30c4"),
    "enumerate 5 --jobs 1 --format json": (0, "8ef5f8f5fdbc2ea84bda9b00c59396b602ae0eb773ed49419aa519425ce31859"),
    "enumerate 5 --jobs 1 --format csv": (0, "97da2a07d216754e857ea3f2e7f9f3108e8746c68ab715a5645674762234bb87"),
    "enumerate 6 --jobs 1 --format json": (0, "ce007b3660a804148a9ceda3e653d99317324b5df06854576d9723a7a570e98a"),
    "enumerate 6 --jobs 1 --format csv": (0, "a5f67445f417b4bb0469641fcb2b796ff17a238bcd282032cdd0603985a6a75d"),
    "enumerate 7 --jobs 1 --format json": (0, "8f5ce850e487f70f1d8903b6b208c0586fa6b52bcfdd685197110c58363ce0a1"),
    "enumerate 7 --jobs 1 --format csv": (0, "b166ac5414ac58bc4115c397a88b4b318863646bb0b2be6e9450146761d447cf"),
    "enumerate 8 --jobs 1 --format json": (0, "db6c621cab21930d2ef0f5d7942af8de356a4a0f7c037e2a566057fdb871c782"),
    "enumerate 8 --jobs 1 --format csv": (0, "416899a10d0bc3986950b1532ebb7e6b96f6b480819264a53b9f3646ad32c142"),
    "greedy --n 41 --format json": (0, "010ef4e8a0e61a2a4bcb1325e7ca48eeb5ec905c5c6dde2f5aa1c4df18f3ddbe"),
    "greedy --n 41 --format csv": (0, "def096b8fd9c6ee01a42f289a972e6aa925912b53e42434642cdb7952a8c30cf"),
    "greedy --n 41 --max-k 12 --format json": (3, "2560bb73a50ae27ebf7574d3a8d092354a0e24e95cbb5951d7db6475207d0846"),
    "greedy --n 41 --max-k 12 --format csv": (3, "7f1713b524858992c5448826ccf568c36f2e524ec266da9507ae1f29485f0f96"),
    "greedy --x 1/32 --format json": (0, "0ed24aff7f6cb097a35d59d60a6c8a3aeb9f1bca76cab9660898c6bf3e85d9d9"),
    "greedy --x 1/32 --format csv": (0, "e404efd362ec0e8f845ccf3909341b0674517bd717a2c94032d1f676a74f0b5a"),
    # reduced starts whose denominators keep a large power of two
    "greedy --x 18446744073709551615/18446744073709551616 --format json": (0, "7e1cfe62ef56b46865e0908f4fa0c2d2bb1aa7207e215c412ae52e9fbe2ba81f"),
    "greedy --x 18446744073709551615/18446744073709551616 --format csv": (0, "37cfe44ba3ebd9fd566855b9eb51fde0865944251bb67d8f4c85671fa581b197"),
    "greedy --x 18446744073709551625/55340232221128654848 --max-k 50 --format json": (3, "d062dad7af0fb6646ef65adef1651caf92d387bd9aa0b2c55a386417c6831a5c"),
    "greedy --x 18446744073709551625/55340232221128654848 --max-k 50 --format csv": (3, "1ad58df8e3efa3affa6c72fc022f95b738854bb9657ad97aec99530f0646411e"),
    "sweep 2 300 --jobs 1 --format json": (0, "c628fe7b190b81b73ac03f4cd26b85ae34b908924bc4c01b4a081fb945152baf"),
    "sweep 2 300 --jobs 1 --format csv": (0, "95f74c91ca0284259065ecd18429b30355f88b115ea7c16321e74fa25b978c5d"),
    "sweep 41 45 --max-k 5 --figures --jobs 1 --format json": (3, "b361f16269b01ac6ad7eda8639a6fbf86b8fca82cbc4feee5c275b979494d7b5"),
    "sweep 41 45 --max-k 5 --figures --jobs 1 --format csv": (3, "62b67791f690f30c9c809989d47f8415b40a0c271fb58cdc3560394c99d61b4d"),
    "table1 --u-max 119 --format json": (0, "afaad2b18b62f7266ffa2b2aff2449d257358b7a75342adf31c99fab0f46e8b4"),
    "table1 --u-max 119 --format csv": (0, "7010721a81aa2918ec4da5e148daf928372e5b366c35b8a160569ef821eda222"),
    "multiplicity --subset-size 1 --format json": (0, "709f2c92a1408e3c376d4d86f0bca414a8bc7cea43c4daafcfff6238e6604898"),
    "multiplicity --subset-size 1 --format csv": (0, "2fb8ee2d643c46707f506f8dccc7b0389e1d2d8978b8192c58eb3368946134b3"),
    "multiplicity --subset-size 2 --format json": (0, "6e96455124081d50bc7f7295fbe713b68d945d13f0102147f804e9f27c36cf04"),
    "multiplicity --subset-size 2 --format csv": (0, "5692298287cda956d6c2f19bc90c5cb697c655db1d69b71b153595511468d32f"),
    "multiplicity --subset-size 3 --format json": (0, "67a8dcad6c131f7a33e59af65a326bbb7f297076d8b694eec203273de5508ad0"),
    "multiplicity --subset-size 3 --format csv": (0, "74502326a2a1e570403348b1ede70587c06b2ba02fa4d65321a0c231395ee942"),
    "multiplicity --subset-size 4 --format json": (0, "783c47d3119abcc55985f81ed824d8649cf13b6fc94df4fc54773dc076367937"),
    "multiplicity --subset-size 4 --format csv": (0, "bff3906af2af207cc2a9dd71b5b67b5d33cedc262c255f3095bd2de46246a922"),
    "multiplicity --subset-size 5 --format json": (0, "4d9eafc9469f1453a64ab14ac0683480191b779da781f3089afce81a1ea59d06"),
    "multiplicity --subset-size 5 --format csv": (0, "ac98d356aa974b44ee65f643ee9bcad5718041d49b7c3b192d4df4d6174b2f61"),
    "chain 8 5 --format json": (0, "4b2909cdd7657c27b58aeb78283c3b30e42ad5c3b0b74c4b95edf9568f7fb133"),
    "chain 8 5 --format csv": (0, "ee33be46d3e64cda22f466d29b7382ee1890f40ebe93d1a2a2aef066b7ddd30a"),
}


@pytest.mark.parametrize("command", list(GOLDEN_PAYLOADS))
def test_payload_bytes_are_pinned(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_PAYLOADS[command]


# --- one parser per process ----------------------------------------------------

# pairs of in-process calls on the shared parser; each pair changes the
# format, a flag or the exit code, so state left behind by one call shows
# in the next one's bytes
REUSE_SEQUENCE = [
    ["table1", "--format", "json"],
    ["table1"],
    ["sweep", "2", "30", "--figures"],
    ["sweep", "2", "30", "--jobs", "1"],
    ["enumerate", "1"],
    ["enumerate", "5"],
    ["greedy", "--x", "3/8"],
    ["greedy", "--n", "41"],
]


def fresh_child_payload(argv):
    """(exit code, sha256 of stdout) of argv run in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "dyadicrep.cli", *argv],
        capture_output=True,
        env=child_env(),
    )
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def test_parser_is_built_once_and_reused_without_leaks(capsys):
    assert build_parser() is build_parser()
    for argv in REUSE_SEQUENCE:
        code, out, _ = run_cli(capsys, *argv)
        got = (code, hashlib.sha256(out.encode()).hexdigest())
        want = GOLDEN_PAYLOADS.get(" ".join(argv)) or fresh_child_payload(argv)
        assert got == want, argv


# --- installed entry point ----------------------------------------------------

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def child_env(path_prefix=None):
    """Environment in which a child Python imports the same dyadicrep as this
    process, not a stale copy from site-packages or the caller's PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(dyadicrep.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if path_prefix is not None:
        env["PATH"] = os.pathsep.join(filter(None, [str(path_prefix), env.get("PATH")]))
    return env


def write_console_script(directory, name, target):
    """Write into `directory` the launcher that pip (through distlib)
    installs for the console_scripts entry `name = target`."""
    ep = EntryPoint(name=name, value=target, group="console_scripts")
    shebang = f"#!{sys.executable}"
    if " " in sys.executable or len(shebang) > 127:
        # distlib's form for an interpreter path the kernel cannot take
        shebang = "#!/bin/sh\n'''exec' " + f'"{sys.executable}"' + ' "$0" "$@"\n' + "' '''"
    launcher = directory / name
    launcher.write_text(
        f"{shebang}\n"
        "# -*- coding: utf-8 -*-\n"
        "import re\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr.split('.')[0]}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({ep.attr}())\n"
    )
    launcher.chmod(0o755)


def test_library_imports_only_the_standard_library():
    # -S keeps site's .pth hooks from loading third-party helpers before
    # the check starts, so every module listed is one the package pulled in;
    # __mp_main__ is multiprocessing's alias of __main__
    script = (
        "import importlib, pkgutil, sys\n"
        "import dyadicrep\n"
        "for info in pkgutil.iter_modules(dyadicrep.__path__):\n"
        "    importlib.import_module('dyadicrep.' + info.name)\n"
        "allowed = set(sys.stdlib_module_names) | {'__main__', '__mp_main__', 'dyadicrep'}\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} - allowed))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_startup_defers_the_pool_and_hashlib():
    # a CLI call that digests no chain must not load hashlib, and no call
    # loads multiprocessing: sweep runs in one process whatever --jobs says,
    # and chain is the one command that loads hashlib. The records are
    # NamedTuples, so nothing loads dataclasses (or inspect), and only
    # greedy --x loads fractions (and decimal): the library never does
    script = (
        "import sys\n"
        "from dyadicrep.cli import build_parser, main\n"
        "from dyadicrep.greedy import greedy_representation\n"
        "build_parser()\n"
        "deferred = ('concurrent.futures', 'multiprocessing', 'hashlib',\n"
        "            'dataclasses', 'inspect', 'fractions', 'decimal')\n"
        "print(sorted(m for m in deferred if m in sys.modules))\n"
        "assert main(['sweep', '2', '300', '--jobs', '2']) == 0\n"
        "pool = sorted(m for m in deferred[:2] if m in sys.modules)\n"
        "assert main(['chain', '8', '1', '--format', 'json']) == 0\n"
        "assert greedy_representation(1, 60) == ((1, 2), True)\n"
        "assert 'fractions' not in sys.modules\n"
        "assert main(['greedy', '--x', '1/3', '--max-k', '60']) == 3\n"
        "print(pool, 'hashlib' in sys.modules, 'fractions' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "[]"
    assert proc.stdout.splitlines()[-1] == "[] True True"


def test_closed_stdout_exits_quietly():
    # the greedy --n 3113 payload (about 140 kB) overfills the pipe, so the
    # CLI is still writing when the reader goes away after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "dyadicrep.cli", "greedy", "--n", "3113"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 141
    assert "Traceback" not in err and "Exception ignored" not in err
    # `2>&1 | head -1`: the elapsed note then meets the same closed pipe;
    # a traceback there would exit 1, and a failed flush at exit 120
    proc = subprocess.Popen(
        [sys.executable, "-m", "dyadicrep.cli", "greedy", "--n", "3113"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=child_env(),
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait() == 141


def test_closed_stderr_keeps_the_payload():
    proc = subprocess.Popen(
        [sys.executable, "-m", "dyadicrep.cli", "greedy", "--n", "41"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    proc.stderr.close()
    out = proc.stdout.read()
    assert proc.wait() == 0
    assert json.loads(out)["parameters"]["n"] == 41


def test_package_exports_each_name_once():
    import importlib
    import pkgutil

    names = ("arith", "bounds", "chains", "congruence", "crt", "greedy", "search")
    library = {info.name for info in pkgutil.iter_modules(dyadicrep.__path__)}
    assert library - {"cli"} == set(names)
    modules = [importlib.import_module(f"dyadicrep.{name}") for name in names]
    union = list(dict.fromkeys(name for m in modules for name in m.__all__))
    assert dyadicrep.__all__ == union + ["__version__"]
    assert len(set(dyadicrep.__all__)) == len(dyadicrep.__all__)
    for module in modules:
        for export in module.__all__:
            assert getattr(dyadicrep, export) is getattr(module, export)
    assert isinstance(dyadicrep.__version__, str)


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dyadicrep.cli", "greedy", "--n", "5", "--format", "csv"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "k,terminated,terms\n5,true,6 7 11 13 14\n"
    assert "# elapsed:" in proc.stderr


def load_pyproject():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def test_version_is_declared_once():
    # the build reads the version from the package, so pyproject.toml holds
    # no second copy of it
    config = load_pyproject()
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    version = config["tool"]["setuptools"]["dynamic"]["version"]
    assert version == {"attr": "dyadicrep.__version__"}
    assert isinstance(dyadicrep.__version__, str)


def test_console_script_installed(tmp_path):
    # The declared [project.scripts] entry runs through the launcher an
    # install would write, so no install is needed; an installed dyadicrep
    # found on PATH runs as well and must print the same bytes.
    target = load_pyproject()["project"]["scripts"]["dyadicrep"]
    installed = shutil.which("dyadicrep")
    write_console_script(tmp_path, "dyadicrep", target)
    argv = ["enumerate", "2", "--format", "csv"]
    proc = subprocess.run(
        ["dyadicrep", *argv],
        capture_output=True,
        text=True,
        env=child_env(path_prefix=tmp_path),
    )
    assert proc.returncode == 0
    assert proc.stdout == "n,a\n4,5 6\n"
    if installed is not None:
        real = subprocess.run(
            [installed, *argv], capture_output=True, text=True, env=child_env()
        )
        assert real.returncode == 0
        assert real.stdout == proc.stdout
