"""Exhaustive enumeration of the k-term solutions for a fixed k.

One depth-first search over gap patterns. With a_i = n + e_i and
1 <= e_1 < ... < e_k, the equation scaled by 2**(n + e_k) reads n*Q = P,
where Q = 2**e_k - sum(2**(e_k - e_i)) and P = sum(e_i * 2**(e_k - e_i)).
So a pattern fixes n, and the search carries n as an integer interval
[lo, hi], starting from [1, max_n(k)].

At a prefix e_1..e_r with m open slots (Q_r and P_r at scale 2**e_r), the
remainder n*Q_r - P_r is the scaled sum of the open slots: a positive
integer, and at most the run e_r+1 .. e_r+m. That bounds n on both sides
(_interval; rule interval_empty when the bounds cross). A child's bounds
imply its parent's, so they need no intersecting. The children
e = e_r + g, with Q' = 2**g*Q_r - 1 and P' = 2**g*P_r + e, are tried in
increasing e up to the first whose best completion, the run e .. e+m-1,
falls short of the remainder at n = lo (rule run_too_short): no later e
and no larger n can fit. At the last slot n = P'/Q' must be an integer
(rule leaf_miss); such an n solves the equation, so it lies in [lo, hi].
Every e tried is one node.

The search uses none of the paper's bounds on a_k. Before it returns a
solution it re-checks the identity, the product bound and the Theorem's
a_k <= ak_bound_thm(n, k); a failure raises VerificationError.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .arith import Solution, VerificationError, verify_solution
from .bounds import ak_bound_thm, product_bound_holds

__all__ = [
    "PRUNE_RULES",
    "SearchResult",
    "run_search",
]

PRUNE_RULES = ("interval_empty", "run_too_short", "leaf_miss")

_PROGRESS_EVERY = 1 << 20


class SearchResult(NamedTuple):
    solutions: list[Solution]
    prune_counters: dict[str, int]
    nodes: int


def _interval(Q: int, P: int, e: int, m: int) -> tuple[int, int]:
    """The bounds [lo, hi] on n at a prefix ending at gap e, with Q and P at
    scale 2**e and m >= 1 open slots; lo > hi when no n fits."""
    lo = P // Q + 1
    hi = ((P << m) + e * ((1 << m) - 1) + (1 << (m + 1)) - m - 2) // (
        ((Q - 1) << m) + 1
    )
    return lo, hi


def _walk(k: int, progress: Callable[[int, int], None] | None):
    """The depth-first search: (found, counters, nodes), found holding
    (n, gaps) pairs. It keeps its own stack of open prefixes: recursion ran
    k = 30 twice as slow when started at some interpreter stack depths."""
    found: list[tuple[int, tuple[int, ...]]] = []
    empty = short = leaf = nodes = 0
    next_report = _PROGRESS_EVERY
    # each entry: an open prefix's state, ending with the gap its child took
    stack: list[tuple[int, ...]] = []
    e, Q, P, lo, m = 0, 1, 0, 1, k
    while True:
        # enter the prefix ending at gap er = e (m >= 1 open slots, lo <= hi);
        # R > rhs is the stop rule (lo*Q_r - P_r)*2**(g+m-1) > (lo+e)*(2**m-1)
        # + 2**m-m-1, both sides kept up to date as e grows
        er = e
        run = (1 << m) - 1
        R = (lo * Q - P) << (m - 1)
        rhs = (lo + er) * run + (1 << m) - m - 1
        while True:
            e += 1
            Q <<= 1
            P <<= 1
            R <<= 1
            rhs += run
            if R > rhs:
                short += 1
                nodes += e - er
                if progress and nodes >= next_report:
                    next_report += _PROGRESS_EVERY
                    progress(nodes, len(found))
                if not stack:
                    return found, (empty, short, leaf), nodes
                er, Q, P, lo, m, run, R, rhs, e = stack.pop()
                continue
            Qc = Q - 1
            Pc = P + e
            if m == 1:
                if Pc % Qc:
                    leaf += 1
                else:
                    gaps = tuple(entry[-1] for entry in stack) + (e,)
                    found.append((Pc // Qc, gaps))
                continue
            lo_c, hi_c = _interval(Qc, Pc, e, m - 1)
            if lo_c > hi_c:
                empty += 1
                continue
            stack.append((er, Q, P, lo, m, run, R, rhs, e))
            Q, P, lo, m = Qc, Pc, lo_c, m - 1
            break


def run_search(
    k: int, *, progress: Callable[[int, int], None] | None = None
) -> SearchResult:
    """Enumerate every k-term solution, with prune counters.

    progress(nodes, found) is called each time the node count passes a
    multiple of 2**20, and once at the end.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    found, counters, nodes = _walk(k, progress)
    solutions = []
    for n, gaps in sorted(found):
        sol = Solution(n, tuple(n + e for e in gaps))
        if not verify_solution(sol):
            raise VerificationError(f"enumerated candidate fails the identity: {sol}")
        if not product_bound_holds(sol):
            raise VerificationError(f"solution breaks the product bound: {sol}")
        if sol.terms[-1] > ak_bound_thm(n, k):
            raise VerificationError(f"solution breaks the a_k bound: {sol}")
        solutions.append(sol)
    if progress:
        progress(nodes, len(solutions))
    return SearchResult(solutions, dict(zip(PRUNE_RULES, counters)), nodes)
