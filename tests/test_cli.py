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
from dyadicrep.cli import build_parser, main
from dyadicrep.congruence import (
    TABLE_ROWS,
    ProgressionRow,
    UnsupportedModulusError,
)
from dyadicrep.greedy import SweepRow, _greedy_walk, greedy_for_n
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
    assert payload["tasks"] > 0 and payload["nodes"] > 0
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
    # a worker pool only pays off from k=14 on
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
    assert payload["k"] is None and payload["terms"] is None
    assert "exhausted" in err


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
    assert out == "k,terminated,terms\n,false,\n"


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
        k, sol = greedy_for_n(n)
        assert line == f"{n},{k},{sol.terms[-1]},true"


def test_sweep_figures_exact_bytes(capsys):
    code, out, _ = run_cli(capsys, "sweep", "4", "4", "--figures")
    assert code == 0
    assert out == "n,k,a_k,terminated,ak_ratio,k_ratio\n4,2,6,true,0.5,0.5\n"


def test_sweep_budget_exhaustion(capsys):
    code, out, err = run_cli(capsys, "sweep", "41", "41", "--max-k", "5")
    assert code == 3
    assert out == f"n,k,a_k,terminated\n41,6,{GREEDY_41[5]},false\n"
    assert "budget" in err


def test_sweep_jobs_invariant(capsys):
    _, out1, _ = run_cli(capsys, "sweep", "2", "40", "--jobs", "1")
    _, out3, _ = run_cli(capsys, "sweep", "2", "40", "--jobs", "3")
    assert out1 == out3


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


def test_table1_corrupt_embedded_row_exits_4(capsys, monkeypatch):
    by_u = {row.u: row for row in TABLE_ROWS}
    monkeypatch.setattr("dyadicrep.cli.solve_congruence", lambda u: by_u.get(u))
    monkeypatch.setattr(
        "dyadicrep.cli.table_row", lambda u: ProgressionRow(u, 1, 4)
    )
    code, out, err = run_cli(capsys, "table1", "--u-max", "99")
    assert code == 4
    assert "verification failure" in err


def test_table1_corrupt_computed_row_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(
        "dyadicrep.cli.solve_congruence", lambda u: ProgressionRow(u, 1, 4)
    )
    code, out, err = run_cli(capsys, "table1", "--u-max", "3")
    assert code == 4
    assert "verification failure" in err


def test_table1_unsupported_modulus_maps_to_exit_3(capsys, monkeypatch):
    def boom(u):
        raise UnsupportedModulusError("out of policy")

    monkeypatch.setattr("dyadicrep.cli.solve_congruence", boom)
    code, _, err = run_cli(capsys, "table1", "--u-max", "4")
    assert code == 3
    assert "unsupported:" in err


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


def test_chain_budget_exhaustion(capsys):
    code, out, err = run_cli(capsys, "chain", "8", "3", "--max-k", "50")
    assert code == 3
    assert out == "i,k_i,last_term\n1,13,32\n2,9,46\n"
    assert "exhausted at step 3 of 3" in err


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
    "argv", [("greedy", "--n", "41"), ("sweep", "2", "5", "--jobs", "1")]
)
def test_failed_greedy_recheck_exits_4(capsys, monkeypatch, argv):
    monkeypatch.setattr("dyadicrep.greedy.verify_solution", lambda sol: False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "verification failure" in err and "re-check" in err


def test_failed_greedy_x_recheck_exits_4(capsys, monkeypatch):
    def drop_last_term(*args):
        emitted, terminated = _greedy_walk(*args)
        return emitted[:-1], terminated

    monkeypatch.setattr("dyadicrep.greedy._greedy_walk", drop_last_term)
    code, out, err = run_cli(capsys, "greedy", "--x", "3/8")
    assert code == 4
    assert out == ""
    assert "verification failure" in err and "re-check" in err


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


def test_console_script_installed(tmp_path):
    # The declared [project.scripts] entry runs through the launcher an
    # install would write, so no install is needed; an installed dyadicrep
    # found on PATH runs as well and must print the same bytes.
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["dyadicrep"]
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
