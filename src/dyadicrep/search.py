"""Exhaustive enumeration of the k-term solutions for a fixed k.

Depth-first search over n and the terms. All remainder arithmetic is
fixed-point: for a given (n, k) every value is an integer scaled by 2**S,
S = ak_bound_thm(n, k), so a term a/2**a becomes the integer a << (S - a)
and the searched equation becomes exact integer subtraction.

Pruning is by exact window bounds. At a node with m open slots and scaled
remainder R, the next term a is viable only while R <= (best possible sum
of m terms starting at a) and R >= (a's own term plus the least possible
sum of m-1 terms below the global cap). Both windows are sums of runs of
consecutive terms with a closed form, evaluated at the nodes the search
visits. The final slot is never scanned: the remainder either is a term
value or is not, and inverting a/2**a is a constant-time scan (see
arith.invert_term).

The first two levels of the tree (n, then the first unforced term) are
planned sequentially with the same prune rules and become the work queue;
parallel runs explore exactly the node set a sequential run would, so
results and prune counters are reproducible for any --jobs.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

from .arith import (
    DyadicRational,
    Solution,
    VerificationError,
    dyadic,
    verify_solution,
)
from .bounds import ak_bound_thm, forced_prefix_len, max_n, product_bound_holds

__all__ = [
    "PRUNE_RULES",
    "SearchResult",
    "VerificationError",
    "enumerate_solutions",
    "count_solutions",
    "run_search",
    "tail_lower",
    "tail_upper",
]

PRUNE_RULES = (
    "forced_infeasible",
    "tail_high",
    "tail_low",
    "close_no_term",
    "close_order",
    "close_range",
    "close_divisibility",
    "product_bound",
)

_FORCED, _HIGH, _LOW, _NOTERM, _ORDER, _RANGE, _DIV, _PROD = range(8)

_PROGRESS_EVERY = 256


def _run_sum_num(b: int, m: int) -> int:
    """Numerator of sum((b+i)/2**(b+i) for i in range(m)) over 2**(b-1+m)."""
    return ((1 << m) - 1) * (b - 1) + (1 << (m + 1)) - m - 2


def tail_upper(b: int, m: int) -> DyadicRational:
    """Largest possible sum of m distinct terms with indices >= b: the run
    b, b+1, ..., b+m-1 (term values never increase with the index)."""
    if b < 1 or m < 1:
        raise ValueError("tail_upper needs b >= 1 and m >= 1")
    return dyadic(_run_sum_num(b, m), b - 1 + m)


def tail_lower(m: int, a_max: int) -> DyadicRational:
    """Smallest possible sum of m distinct terms with indices <= a_max: the
    top run a_max-m+1, ..., a_max. Requires a_max - m + 1 >= 3 (term values
    strictly decrease only from index 3 on)."""
    if m < 1:
        raise ValueError("tail_lower needs m >= 1")
    if a_max - m + 1 < 3:
        raise ValueError("tail_lower needs a_max - m + 1 >= 3")
    return dyadic(_run_sum_num(a_max - m + 1, m), a_max)


@dataclass
class SearchResult:
    k: int
    solutions: list[Solution]
    prune_counters: dict[str, int]
    nodes: int
    tasks: int


def _close_term(R: int, S: int) -> int:
    """The unique a with a/2**a == R/2**S, or 0 when R is not a term value.

    Writing R = p * 2**tz with p odd, a must equal p * 2**v where
    p*2**v - v == S - tz; the left side never decreases in v, so scan up.
    (The only doubly-hit value, 1/2 with a in {1, 2}, cannot matter here:
    closing terms must exceed earlier terms, which are >= 2.)
    """
    tz = (R & -R).bit_length() - 1
    p = R >> tz
    e = S - tz
    v = 0
    while True:
        val = (p << v) - v
        if val > e:
            return 0
        if val == e:
            return p << v
        v += 1


def _plan_n(k: int, n: int):
    """Candidates for the first unforced slot, with first-level pruning.

    Returns (tasks, counters, nodes): tasks are (k, n, prefix) tuples whose
    prefix is the forced terms plus one candidate (or just the forced terms
    when only the final slot is open).
    """
    counters = [0] * len(PRUNE_RULES)
    S = ak_bound_thm(n, k)
    j = forced_prefix_len(n, k)
    prefix = tuple(range(n + 1, n + 1 + j))
    R = n << (S - n)
    for a in prefix:
        R -= a << (S - a)
    if R <= 0:
        counters[_FORCED] += 1
        return [], counters, 0
    m = k - j
    if m == 1:
        return [(k, n, prefix)], counters, 0
    lo = prefix[-1] + 1 if j else n + 1
    hi = S - m + 1
    if not j:
        # the first term of any solution is at most n+3
        hi = min(hi, n + 3)
    tasks = []
    nodes = 0
    low = _run_sum_num(S - m + 2, m - 1)
    for a in range(lo, hi + 1):
        nodes += 1
        if R > _run_sum_num(a, m) << (S - a + 1 - m):
            counters[_HIGH] += 1
            break
        if R < (a << (S - a)) + low:
            counters[_LOW] += 1
            continue
        tasks.append((k, n, prefix + (a,)))
    return tasks, counters, nodes


def _explore_task(task: tuple[int, int, tuple[int, ...]]):
    """Full subtree below one frontier node. Returns (found, counters, nodes)
    with found as raw term tuples."""
    k, n, prefix = task
    S = ak_bound_thm(n, k)
    counters = [0] * len(PRUNE_RULES)
    R = n << (S - n)
    for a in prefix:
        R -= a << (S - a)
    found: list[tuple[int, ...]] = []
    nodes = 0

    def close(last: int, R: int, chosen: tuple[int, ...]) -> None:
        a = _close_term(R, S)
        if not a:
            counters[_NOTERM] += 1
        elif a <= last:
            counters[_ORDER] += 1
        elif a > S:
            counters[_RANGE] += 1
        elif a - last >= a.bit_length() or a & ((1 << (a - last)) - 1):
            counters[_DIV] += 1
        else:
            found.append(chosen + (a,))

    def rec(last: int, R: int, m: int, chosen: tuple[int, ...]) -> None:
        nonlocal nodes
        if m == 1:
            close(last, R, chosen)
            return
        # least sum of the m-1 slots after this one: the top run below S
        low = _run_sum_num(S - m + 2, m - 1)
        hi = S - m + 1
        for a in range(last + 1, hi + 1):
            nodes += 1
            if R > _run_sum_num(a, m) << (S - a + 1 - m):
                counters[_HIGH] += 1
                return
            t = a << (S - a)
            if R < t + low:
                counters[_LOW] += 1
                continue
            rec(a, R - t, m - 1, chosen + (a,))

    rec(prefix[-1], R, k - len(prefix), prefix)
    return found, counters, nodes


def run_search(
    k: int,
    *,
    jobs: int = 1,
    progress: Callable[[int, int, int], None] | None = None,
) -> SearchResult:
    """Enumerate every k-term solution, with prune counters.

    progress(done, total, found) is called every _PROGRESS_EVERY tasks and
    once at the end.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    counters = [0] * len(PRUNE_RULES)
    nodes = 0
    tasks = []
    for n in range(1, max_n(k) + 1):
        t, c, nn = _plan_n(k, n)
        tasks.extend(t)
        nodes += nn
        for i, v in enumerate(c):
            counters[i] += v

    total = len(tasks)
    raw_found: list[tuple[int, tuple[int, ...]]] = []
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext()
    with pool as ex:
        if ex is None:
            results = map(_explore_task, tasks)
        else:
            chunk = max(1, total // (jobs * 16))
            results = ex.map(_explore_task, tasks, chunksize=chunk)
        for done, (task, (found, c, nn)) in enumerate(zip(tasks, results), 1):
            raw_found.extend((task[1], terms) for terms in found)
            nodes += nn
            for i, v in enumerate(c):
                counters[i] += v
            if progress and done % _PROGRESS_EVERY == 0:
                progress(done, total, len(raw_found))

    solutions = []
    for n, terms in sorted(raw_found):
        sol = Solution(n, terms)
        if not verify_solution(sol):
            raise VerificationError(f"enumerated candidate fails the identity: {sol}")
        if not product_bound_holds(sol):
            counters[_PROD] += 1
            continue
        solutions.append(sol)

    if progress:
        progress(total, total, len(solutions))

    return SearchResult(
        k=k,
        solutions=solutions,
        prune_counters=dict(zip(PRUNE_RULES, counters)),
        nodes=nodes,
        tasks=total,
    )


def enumerate_solutions(k: int, *, jobs: int = 1) -> list[Solution]:
    """All solutions with exactly k terms, sorted by (n, terms)."""
    return run_search(k, jobs=jobs).solutions


def count_solutions(k: int, *, jobs: int = 1) -> int:
    return len(enumerate_solutions(k, jobs=jobs))
