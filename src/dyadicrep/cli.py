"""Command-line surface: machine-readable tables from every module.

Commands print their payload to stdout (JSON or CSV, selected by
--format) and everything else to stderr: timing, progress, warnings.
Payloads are byte-deterministic for fixed arguments: every command runs
in one process, and --jobs is only validated and echoed.
Each command hands _emit the body of its payload once. _emit puts the
one envelope in front of it: "command", then "parameters", the parsed
inputs that are set, minus those that only shape the printout (the CLI
alone parses greedy --x, and echoes it normalised). The CSV form has the
record keys for a header and one line per record of "rows", with one
rule for every cell: a list is space-joined, a bool is true/false, None
is an empty cell.

Exit codes: 0 success; 2 usage or validation error; 3 a term budget ran
out; 4 a self-check failed on something about to be emitted (exact
identity, modular identity, or the empirical window k+n <= a_k <=
2(k+n), whose violation would be a genuine discovery and is reported
loudly); 141 the reader closed stdout before the whole payload was
written, as `| head` does (128 + SIGPIPE, the status a shell shows for
a writer killed by a closed pipe).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from typing import Optional, Sequence

from .arith import VerificationError
from .chains import expand_chain, representation_count_certificate
from .congruence import TABLE_ROWS, table1
from .crt import certify_multiplicity, scan_subsets
from .greedy import DEFAULT_MAX_K, greedy_for_n, greedy_representation, sweep
from .search import run_search

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4
EXIT_PIPE = 141


def _cell(value: object) -> object:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return "" if value is None else value


# parsed arguments that only shape the printout, or are not inputs at all
_NOT_PARAMETERS = ("command", "func", "format", "figures")


def _emit(
    args: argparse.Namespace,
    body: dict,
    columns: Sequence[str],
    rows: Optional[Sequence[dict]] = None,
) -> None:
    """Print {"command", "parameters", **body} as JSON, or as CSV with the
    header columns and one line per record of rows (default: body["rows"]),
    a cell per column key. parameters are the parsed arguments, in
    declaration order, that are neither in _NOT_PARAMETERS nor None: an
    option left unset is not echoed."""
    if args.format == "json":
        parameters = {
            key: value
            for key, value in vars(args).items()
            if key not in _NOT_PARAMETERS and value is not None
        }
        payload = {"command": args.command, "parameters": parameters, **body}
        print(json.dumps(payload, indent=2))
        return
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(columns)
    for rec in body["rows"] if rows is None else rows:
        w.writerow([_cell(rec[key]) for key in columns])


def _to_devnull(stream) -> None:
    """Point stream's descriptor at devnull once its reader is gone, so that
    neither a later write nor the flush at exit raises again (the recipe in
    the signal module docs)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _note(msg: str) -> None:
    try:
        print(f"# {msg}", file=sys.stderr, flush=True)
    except BrokenPipeError:
        # a closed stderr drops the notes; stdout and the exit code stand
        _to_devnull(sys.stderr)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError("jobs must be positive")

    def progress(nodes: int, found: int) -> None:
        _note(f"enumerate k={args.k}: {nodes} nodes, {found} found")

    result = run_search(args.k, progress=progress)
    body = {
        "count": len(result.solutions),
        "rows": [{"n": s.n, "a": list(s.terms)} for s in result.solutions],
        "nodes": result.nodes,
        "prune_counters": result.prune_counters,
    }
    _emit(args, body, ("n", "a"))
    return EXIT_OK


def _cmd_greedy(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.x is None):
        raise ValueError("give exactly one of --n or --x")
    if args.n is not None:
        terms, terminated = greedy_for_n(args.n, args.max_k)
    else:
        from fractions import Fraction  # only --x needs it at start-up

        try:
            x = Fraction(args.x)
        except ZeroDivisionError:
            raise ValueError("zero denominator") from None
        args.x = str(x)  # the payload echoes x normalised
        terms, terminated = greedy_representation(x, args.max_k)
    body = {
        "status": "ok" if terminated else "budget exhausted",
        "terminated": terminated,
        "k": len(terms),
        "terms": list(terms),
    }
    _emit(args, body, ("k", "terminated", "terms"), [body])
    if not terminated:
        _note(f"budget exhausted: the walk stopped after {args.max_k + 1} terms")
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError("jobs must be positive")
    rows = sweep(args.n_min, args.n_max, args.max_k)
    violations = [
        r
        for r in rows
        if r.terminated and not r.k + r.n <= r.last_term <= 2 * (r.k + r.n)
    ]
    exhausted = [r for r in rows if not r.terminated]
    keys = ["n", "k", "a_k", "terminated"]
    if args.figures:
        keys += ["ak_ratio", "k_ratio"]
    recs = []
    for r in rows:
        rec = {"n": r.n, "k": r.k, "a_k": r.last_term, "terminated": r.terminated}
        if args.figures:
            rec["ak_ratio"] = (
                r.last_term / (2 * (r.k + r.n)) if r.terminated else None
            )
            rec["k_ratio"] = r.k / r.n if r.terminated else None
        recs.append(rec)
    _emit(args, {"rows": recs}, keys)
    for r in violations:
        _note(f"window violation: n={r.n} k={r.k} a_k={r.last_term}")
    if violations:
        return EXIT_VERIFY
    if exhausted:
        _note(
            f"budget exhausted in {len(exhausted)} rows: each walk stopped "
            f"after {args.max_k + 1} terms"
        )
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_table1(args: argparse.Namespace) -> int:
    rows, skipped = table1(args.u_max)
    recs = [
        {"u": row.u, "k0": row.k0, "r": row.r, "status": status}
        for row, status in rows
    ]
    _emit(args, {"rows": recs}, ("u", "k0", "r", "status"))
    if skipped:
        count, first, last = skipped
        _note(
            f"{count} values of u ({first}..{last}) have moduli past psi_13 "
            "and no embedded row; table1 does not try them: skipped, "
            "not claimed unsolvable"
        )
    return EXIT_OK


def _cmd_multiplicity(args: argparse.Namespace) -> int:
    found = scan_subsets(TABLE_ROWS, args.subset_size)
    certs = certify_multiplicity(found, TABLE_ROWS)
    recs = [
        {
            "us": list(us),
            "residue": cls.residue,
            "modulus": cls.modulus,
            "k": cls.least_member_at_least(2),
            "certificate": cert,
        }
        for (us, cls), cert in zip(found, certs)
    ]
    _emit(
        args,
        {"count": len(recs), "rows": recs},
        ("us", "residue", "modulus", "k", "certificate"),
    )
    return EXIT_OK


def _cmd_chain(args: argparse.Namespace) -> int:
    chain = expand_chain(args.a_start, args.depth, args.max_k)
    certificate = representation_count_certificate(chain) if chain.steps else None
    recs, source = [], chain.start
    for i, s in enumerate(chain.steps, start=1):
        fields = {key: v for key, v in s._asdict().items() if v is not None}
        recs.append({"i": i, "source": source, **fields})
        source = s.last_term
    body = {"exhausted": chain.exhausted, "certificate": certificate, "rows": recs}
    csv_rows = [{"i": r["i"], "k_i": r["k"], "last_term": r["last_term"]} for r in recs]
    _emit(args, body, ("i", "k_i", "last_term"), csv_rows)
    if chain.exhausted:
        _note(
            f"budget exhausted at step {len(chain.steps) + 1} of "
            f"{args.depth}: its walk stopped after {args.max_k + 1} terms"
        )
        return EXIT_BUDGET
    return EXIT_OK


def _add_format(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument(
        "--format",
        choices=("json", "csv"),
        default=default,
        help=f"payload format (default: {default})",
    )


def _add_jobs(p: argparse.ArgumentParser, work: str) -> None:
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=f"accepted and echoed in the payload; the {work} runs in one "
        "process (default: 1)",
    )


def _add_max_k(p: argparse.ArgumentParser) -> None:
    text = "term budget: a walk that runs out stops after MAX_K + 1 terms"
    p.add_argument("--max-k", type=int, default=DEFAULT_MAX_K, help=text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every call,
    so callers must not mutate it. Sharing is safe because parse_args
    returns a fresh namespace and each handler looks up the library
    functions it calls as module globals when it runs."""
    parser = argparse.ArgumentParser(
        prog="dyadicrep",
        description="Exact computations around n/2^n = sum of a_i/2^a_i.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "enumerate", help="all solutions with exactly k terms, sorted"
    )
    p.add_argument("k", type=int, help="number of terms (k >= 2)")
    _add_jobs(p, "search")
    _add_format(p, "json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("greedy", help="greedy expansion of n/2^n or of x")
    _add_max_k(p)
    p.add_argument("--n", type=int, help="expand n/2^n (n >= 2)")
    p.add_argument(
        "--x",
        metavar="P/Q",
        help="expand the fraction P/Q, 0 < x < 2; a non-dyadic x never "
        "terminates and exits 3 at the budget",
    )
    _add_format(p, "json")
    p.set_defaults(func=_cmd_greedy)

    p = sub.add_parser(
        "sweep", help="greedy stats for every n in [n_min, n_max]"
    )
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    _add_max_k(p)
    _add_jobs(p, "sweep")
    p.add_argument(
        "--figures",
        action="store_true",
        help="append the derived columns a_k/(2(k+n)) and k/n",
    )
    _add_format(p, "csv")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "table1", help="progression rows (u, k0, r) of the solution families"
    )
    p.add_argument(
        "--u-max",
        type=int,
        default=26,
        help="largest u to report (every u <= 78 is decided; past that, "
        "rows appear only where constants are embedded)",
    )
    _add_format(p, "csv")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser(
        "multiplicity",
        help="compatible row subsets and certified solution-count lower bounds",
    )
    p.add_argument("--subset-size", type=int, default=4)
    _add_format(p, "json")
    p.set_defaults(func=_cmd_multiplicity)

    p = sub.add_parser(
        "chain", help="iterated greedy expansion of the last term"
    )
    p.add_argument("a_start", type=int, help="starting term index (>= 3)")
    p.add_argument("depth", type=int, help="number of expansion steps")
    _add_max_k(p)
    _add_format(p, "csv")
    p.set_defaults(func=_cmd_chain)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # only stdout gets here: _note absorbs a closed stderr
        _to_devnull(sys.stdout)
        return EXIT_PIPE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        _note(f"elapsed: {time.perf_counter() - t0:.3f}s")


if __name__ == "__main__":
    sys.exit(main())
