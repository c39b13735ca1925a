"""Output checks for every benchmark op, independent of the code under test.

Nothing here imports dyadicrep. The golden data are the published results
(complete k-term solution lists for k <= 8, Table 1, the chain of 8/2^8,
the nine compatible 4-subsets); every payload is also re-derived or
re-verified with this module's own exact integer arithmetic.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from itertools import combinations
from math import gcd

# All solutions of n/2^n = sum a_i/2^a_i with exactly k terms, sorted.
KNOWN_SOLUTIONS = {
    2: [(4, (5, 6))],
    3: [
        (1, (3, 6, 8)),
        (1, (4, 5, 6)),
        (2, (3, 6, 8)),
        (2, (4, 5, 6)),
        (3, (4, 6, 8)),
        (11, (12, 13, 14)),
    ],
    4: [(9, (10, 11, 13, 14)), (26, (27, 28, 29, 30))],
    5: [
        (5, (6, 7, 11, 13, 14)),
        (6, (7, 8, 11, 13, 14)),
        (15, (16, 17, 18, 21, 22)),
        (57, (58, 59, 60, 61, 62)),
    ],
    6: [
        (4, (5, 7, 8, 11, 13, 14)),
        (12, (13, 14, 15, 20, 21, 24)),
        (13, (14, 15, 16, 20, 21, 24)),
        (21, (22, 23, 24, 26, 27, 32)),
        (120, (121, 122, 123, 124, 125, 126)),
    ],
    7: [
        (1, (4, 5, 7, 8, 11, 13, 14)),
        (2, (4, 5, 7, 8, 11, 13, 14)),
        (7, (8, 9, 11, 15, 20, 21, 24)),
        (18, (19, 20, 21, 23, 26, 27, 32)),
        (247, (248, 249, 250, 251, 252, 253, 254)),
    ],
    8: [
        (17, (18, 19, 20, 22, 26, 29, 30, 32)),
        (19, (20, 21, 22, 24, 26, 29, 30, 32)),
        (35, (36, 37, 38, 39, 42, 43, 45, 46)),
        (197, (198, 199, 200, 201, 202, 203, 205, 206)),
        (502, (503, 504, 505, 506, 507, 508, 509, 510)),
    ],
}

# Table 1: every u <= 26 with a solution family, plus u = 55, 99, 113, 119,
# as (u, k0, r): k solves the congruence for u iff k == k0 (mod r).
TABLE1 = (
    (0, 4, 4),
    (1, 5, 12),
    (2, 22, 28),
    (3, 48, 60),
    (4, 83, 100),
    (6, 221, 508),
    (9, 242, 4092),
    (11, 5531, 16380),
    (17, 66328, 1048572),
    (21, 2796185, 5592404),
    (22, 775376, 1116130),
    (26, 96489490, 536870908),
    (55, 5843993308712118, 26202761468337430),
    (99, 364550281031913286431277811782, 2535300206192230667655098198606),
    (113, 2452672773763126728478631379525174,
     83076749736557242056487941267521532),
    (119, 3303995011423016739508338720636484139,
     5316911983139663491615228241121378300),
)

# Iterated greedy expansion of 8/2^8: (k_i, last term) of steps 1..9.
CHAIN_8 = (
    (13, 32),
    (9, 46),
    (169, 392),
    (5919, 12230),
    (71826, 155942),
    (252200, 659488),
    (182973, 1025582),
    (10861, 1047128),
    (1195089, 3437088),
)

# The nine compatible 4-subsets of Table 1 (by u); no 5-subset is.
FOUR_SUBSETS = (
    (0, 3, 55, 99),
    (0, 17, 22, 99),
    (0, 17, 55, 99),
    (2, 9, 22, 99),
    (2, 9, 55, 99),
    (9, 22, 26, 99),
    (9, 26, 55, 99),
    (22, 26, 99, 113),
    (26, 55, 99, 113),
)

DEFAULT_MAX_K = 1 << 20


class CheckFailure(Exception):
    """A payload failed one of the checks."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailure(msg)


# -- exact arithmetic ---------------------------------------------------------

def _scaled_sum(terms) -> tuple[int, int]:
    """(num, e) with num/2**e == sum(a/2**a for a in terms).

    Short runs are summed directly, then the partial sums are merged
    pairwise, so k terms spanning w bits cost O(w log k) rather than the
    O(k w) of one running sum.
    """
    parts = []
    for i in range(0, len(terms), 16):
        run = terms[i:i + 16]
        e = max(run)
        parts.append((sum(a << (e - a) for a in run), e))
    while len(parts) > 1:
        merged = []
        for (nl, el), (nr, er) in zip(parts[::2], parts[1::2]):
            e = max(el, er)
            merged.append(((nl << (e - el)) + (nr << (e - er)), e))
        if len(parts) % 2:
            merged.append(parts[-1])
        parts = merged
    return parts[0]


def _sums_to(terms, p: int, e: int) -> bool:
    """Whether sum(a/2**a for a in terms) == p/2**e exactly."""
    num, a = _scaled_sum(terms)
    if a >= e:
        return num == p << (a - e)
    return num << (e - a) == p


def _terms_shape(terms, lowest: int) -> None:
    _require(
        isinstance(terms, list)
        and len(terms) >= 1
        and all(type(a) is int for a in terms),
        "terms are not a list of integers",
    )
    _require(terms[0] >= lowest, f"first term {terms[0]} below {lowest}")
    _require(
        all(b > a for a, b in zip(terms, terms[1:])),
        "terms are not strictly increasing",
    )


def greedy_walk_n(n: int, max_k: int = DEFAULT_MAX_K) -> list[int] | None:
    """Greedy expansion of n/2**n (n >= 2): the walk starts at index n+1
    with integer remainder n and doubles it once per index."""
    x, i, out = n, n + 1, []
    while x and len(out) <= max_k:
        x <<= 1
        if x >= i:
            x -= i
            out.append(i)
        i += 1
    return out if x == 0 else None


def greedy_walk_x(x: Fraction, max_k: int = DEFAULT_MAX_K) -> list[int] | None:
    """Greedy expansion of 0 < x < 2: start at the least i with i/2**i < x,
    then x_{i+1} = 2x_i - i (emitting i) or 2x_i."""
    i = 1
    while Fraction(i, 1 << i) >= x:
        i += 1
    r = x * (1 << (i - 1))
    out: list[int] = []
    while r and len(out) <= max_k:
        r *= 2
        if r >= i:
            r -= i
            out.append(i)
        i += 1
    return out if r == 0 else None


def _prime_factors(r: int) -> list[int]:
    out, q = [], 2
    while q * q <= r:
        if r % q == 0:
            out.append(q)
            while r % q == 0:
                r //= q
        q += 1 if q == 2 else 2
    if r > 1:
        out.append(r)
    return out


def _congruence_holds(u: int, k: int) -> bool:
    m = (1 << (u + 3)) - 3
    return (3 * pow(2, k - 1, m) + 3 * u + 1) % m == 0


def _compatible_subsets(m: int) -> list[tuple[int, ...]]:
    """m-subsets of Table 1 whose progressions meet, in combinations order.

    A system of congruences k == k0_i (mod r_i) is solvable iff every pair
    is (k0_i == k0_j mod gcd(r_i, r_j)); the scan tests pairs only.
    """
    rows = TABLE1
    ok = {
        (i, j): (rows[i][1] - rows[j][1]) % gcd(rows[i][2], rows[j][2]) == 0
        for i, j in combinations(range(len(rows)), 2)
    }
    return [
        tuple(rows[i][0] for i in idx)
        for idx in combinations(range(len(rows)), m)
        if all(ok[p] for p in combinations(idx, 2))
    ]


# -- per-command checks ----------------------------------------------------------

def _load_json(payload: str) -> dict:
    try:
        doc = json.loads(payload)
    except ValueError as exc:
        raise CheckFailure(f"payload is not JSON: {exc}") from None
    _require(isinstance(doc, dict), "payload is not a JSON object")
    return doc


def _load_csv(payload: str, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(payload)))
    _require(bool(rows) and rows[0] == header, f"CSV header is not {header}")
    return rows[1:]


def _opt(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def check_enumerate(argv: list[str], payload: str) -> None:
    k = int(argv[1])
    jobs = int(_opt(argv, "--jobs"))
    doc = _load_json(payload)
    _require(doc.get("command") == "enumerate", "wrong command field")
    _require(doc.get("parameters") == {"k": k, "jobs": jobs}, "wrong parameters")
    rows = doc.get("rows")
    _require(isinstance(rows, list), "rows missing")
    got = [(r.get("n"), tuple(r.get("a") or ())) for r in rows]
    _require(got == KNOWN_SOLUTIONS[k], f"rows differ from the {k}-term list")
    _require(doc.get("count") == len(rows), "count differs from the rows")
    for n, terms in got:
        _require(_sums_to(terms, n, n), f"row {n} fails the identity")


def check_enumerate_jobs(payload: str, reference: str) -> None:
    """A --jobs 2 payload equals the --jobs 1 one apart from parameters.jobs."""
    doc, ref = _load_json(payload), _load_json(reference)
    for d in (doc, ref):
        _require(isinstance(d.get("parameters"), dict), "parameters missing")
        d["parameters"].pop("jobs", None)
    _require(doc == ref, "payload differs from the --jobs 1 payload")


def check_greedy(argv: list[str], payload: str) -> None:
    doc = _load_json(payload)
    _require(doc.get("command") == "greedy", "wrong command field")
    _require(doc.get("terminated") is True and doc.get("status") == "ok",
             "expansion did not terminate")
    terms = doc.get("terms")
    n = _opt(argv, "--n")
    if n is not None:
        n = int(n)
        _terms_shape(terms, n + 1)
        _require(doc.get("parameters", {}).get("n") == n, "wrong parameters")
        _require(_sums_to(terms, n, n), f"terms do not sum to {n}/2^{n}")
        want = greedy_walk_n(n)
    else:
        x = Fraction(_opt(argv, "--x"))
        _terms_shape(terms, 1)
        _require(doc.get("parameters", {}).get("x") == str(x), "wrong parameters")
        e = x.denominator.bit_length() - 1
        _require(_sums_to(terms, x.numerator, e), f"terms do not sum to {x}")
        want = greedy_walk_x(x)
    _require(doc.get("k") == len(terms), "k differs from the term count")
    _require(terms == want, "terms are not the greedy expansion")


def check_sweep(argv: list[str], payload: str) -> None:
    lo, hi = int(argv[1]), int(argv[2])
    rows = _load_csv(payload, ["n", "k", "a_k", "terminated"])
    _require(len(rows) == hi - lo + 1, "wrong row count")
    for n, row in zip(range(lo, hi + 1), rows):
        terms = greedy_walk_n(n)
        _require(terms is not None, f"n={n} exhausts the budget")
        _require(_sums_to(terms, n, n), f"n={n}: walk fails the identity")
        want = [str(n), str(len(terms)), str(terms[-1]), "true"]
        _require(row == want, f"row {row} != {want}")


def check_chain(argv: list[str], payload: str) -> None:
    a_start, depth = int(argv[1]), int(argv[2])
    _require(a_start == 8 and depth <= len(CHAIN_8), "no published chain")
    doc = _load_json(payload)
    _require(doc.get("exhausted") is False, "chain exhausted")
    _require(doc.get("certificate") == depth + 1, "wrong certificate")
    rows = doc.get("rows")
    _require(isinstance(rows, list) and len(rows) == depth, "wrong step count")
    source = a_start
    for i, (row, (k, last)) in enumerate(zip(rows, CHAIN_8), start=1):
        _require(row.get("i") == i and row.get("source") == source,
                 f"step {i} does not expand {source}")
        _require((row.get("k"), row.get("last_term")) == (k, last),
                 f"step {i} differs from the published chain")
        _require(source < row.get("first_term", 0) <= last,
                 f"step {i} is not above its source")
        terms = row.get("terms")
        if terms is not None:
            _terms_shape(terms, source + 1)
            _require(len(terms) == k and terms[0] == row["first_term"]
                     and terms[-1] == last, f"step {i} terms mismatch")
            digest = hashlib.sha256(",".join(map(str, terms)).encode()).hexdigest()
            _require(row.get("digest") == digest, f"step {i} digest mismatch")
            _require(_sums_to(terms, source, source),
                     f"step {i} does not sum to {source}/2^{source}")
        source = last


def check_table1(argv: list[str], payload: str) -> None:
    u_max = int(_opt(argv, "--u-max", "26"))
    rows = _load_csv(payload, ["u", "k0", "r", "status"])
    want = [(u, k0, r) for u, k0, r in TABLE1 if u <= u_max]
    got = []
    for row in rows:
        _require(len(row) == 4 and row[3] == "computed", f"bad row {row}")
        got.append(tuple(int(v) for v in row[:3]))
    _require(got == want, "rows differ from Table 1")
    for u, k0, r in got:
        m = (1 << (u + 3)) - 3
        _require(1 <= k0 <= r, f"u={u}: k0 outside [1, r]")
        _require(_congruence_holds(u, k0), f"u={u}: congruence fails at k0")
        _require(pow(2, r, m) == 1, f"u={u}: 2^r != 1")
        for q in _prime_factors(r):
            _require(pow(2, r // q, m) != 1, f"u={u}: r is not minimal (q={q})")


def check_multiplicity(argv: list[str], payload: str) -> None:
    size = int(_opt(argv, "--subset-size", "4"))
    doc = _load_json(payload)
    _require(doc.get("parameters") == {"subset_size": size}, "wrong parameters")
    rows = doc.get("rows")
    _require(isinstance(rows, list) and doc.get("count") == len(rows),
             "count differs from the rows")
    want = _compatible_subsets(size)
    if size == 1:
        _require(len(want) == len(TABLE1), "golden table is inconsistent")
    if size == 4:
        _require(tuple(want) == FOUR_SUBSETS, "golden subsets are inconsistent")
    if size == 5:
        _require(want == [], "golden subsets are inconsistent")
    _require([tuple(r.get("us", ())) for r in rows] == want,
             f"subsets differ from the compatible {size}-subsets")
    by_u = {u: (k0, r) for u, k0, r in TABLE1}
    for rec in rows:
        us = rec["us"]
        mod = 1
        for u in us:
            mod = mod * by_u[u][1] // gcd(mod, by_u[u][1])
        res, k = rec.get("residue"), rec.get("k")
        _require(rec.get("modulus") == mod, f"{us}: modulus is not the lcm")
        _require(isinstance(res, int) and 0 <= res < mod, f"{us}: bad residue")
        _require(k == (res if res >= 2 else res + mod), f"{us}: k is not least")
        _require(rec.get("certificate") == 1 + len(us), f"{us}: bad certificate")
        for u in us:
            k0, r = by_u[u]
            _require(res % r == k0 % r, f"{us}: residue not in row u={u}")
            _require(_congruence_holds(u, k), f"{us}: congruence fails for u={u}")
            _require(k >= u + 3, f"{us}: family u={u} is degenerate")


CHECKS = {
    "enumerate": check_enumerate,
    "greedy": check_greedy,
    "sweep": check_sweep,
    "chain": check_chain,
    "table1": check_table1,
    "multiplicity": check_multiplicity,
}


class PassChecker:
    """Checks the ops of passes and caches verdicts by payload digest, so a
    byte-identical payload in a later pass is not re-derived."""

    def __init__(self) -> None:
        self._verdicts: dict[tuple, str | None] = {}

    def _verdict(self, key: tuple, fn, *args) -> str | None:
        if key not in self._verdicts:
            try:
                fn(*args)
                self._verdicts[key] = None
            except CheckFailure as exc:
                self._verdicts[key] = str(exc)
            except (KeyError, TypeError, ValueError, AttributeError,
                    IndexError) as exc:
                self._verdicts[key] = f"malformed payload: {exc!r}"
        return self._verdicts[key]

    def check(self, ops: list[list[str]], records: list[dict]) -> list[str | None]:
        """One verdict per op: None if it exited 0 and its payload checks
        out, else the reason it failed. records[i] holds op i's "rc",
        "exc" and "out" (stdout text)."""
        digests = [
            hashlib.sha256(r["out"].encode()).hexdigest() if r else None
            for r in records
        ]
        jobs1 = {
            argv[1]: i for i, argv in enumerate(ops)
            if argv[0] == "enumerate" and _opt(argv, "--jobs") == "1"
        }
        out: list[str | None] = []
        for i, (argv, rec) in enumerate(zip(ops, records)):
            if rec is None:
                out.append("op did not run")
                continue
            if rec.get("exc"):
                out.append(f"raised {rec['exc']}")
                continue
            if rec.get("rc") != 0:
                out.append(f"exit code {rec.get('rc')}")
                continue
            key = (tuple(argv), digests[i])
            why = self._verdict(key, CHECKS[argv[0]], argv, rec["out"])
            if why is None and argv[0] == "enumerate" and _opt(argv, "--jobs") != "1":
                j = jobs1.get(argv[1])
                if j is None or records[j] is None:
                    why = "no --jobs 1 payload to compare with"
                else:
                    why = self._verdict(
                        key + (digests[j],), check_enumerate_jobs,
                        rec["out"], records[j]["out"],
                    )
            out.append(why)
        return out
