"""Greedy expansion of rationals into sums of distinct terms a/2**a.

The walk doubles a remainder once per index i and emits i whenever the
doubled remainder covers it: starting from x_{k0} = x * 2**(k0 - 1) with
k0 the first index whose term value drops strictly below x,

    x_{i+1} = 2*x_i - i   and emit i,   if 2*x_i - i >= 0,
    x_{i+1} = 2*x_i                     otherwise.

The run terminates exactly when some x_i hits 0, and the emitted indices
are then a representation of x. Strictness in k0 means an x equal to some
j/2**j is never expanded as the single term j; the walk starts past j
(so 1/4 expands to {5, 6}, not {4}). The remainder is kept as integers
x_i = r/q, starting from the reduced fraction x_{k0}: doubling halves q
while q is even and doubles r once q is odd, so no fraction arithmetic
happens in the loop. For x = n/2**n the walk starts at q = 1.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, NamedTuple, Optional

from .arith import Solution, VerificationError, sums_to, verify_solution

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "DEFAULT_MAX_K",
    "SweepRow",
    "greedy_for_n",
    "greedy_representation",
    "k_zero",
    "sweep",
]

DEFAULT_MAX_K = 1 << 20

# sweeps ending below n = 200, or spanning fewer than 64 values of n, run
# in-process: on 2 cores a second worker first paid for starting the pool
# near `sweep 2 200`, and on narrow ranges starting anywhere from n = 200
# to 3000 once they held between 48 and 64 walks
_POOL_MIN_N_MAX = 200
_POOL_MIN_SPAN = 64


def _validate_x(x: Fraction) -> Fraction:
    from fractions import Fraction  # here: no other path needs it at start-up

    x = Fraction(x)
    if not 0 < x < 2:
        raise ValueError("greedy expansion needs 0 < x < 2")
    return x


def k_zero(x: Fraction) -> int:
    """Minimal k >= 1 with k/2**k strictly below x.

    Integer form of the scan: keep w = p * 2**i for x = p/q and advance
    while i/2**i >= p/q, i.e. while w <= i*q. The inequality is strict by
    construction, so x equal to a term value j/2**j scans past j.
    """
    x = _validate_x(x)
    p, q = x.numerator, x.denominator
    i = 1
    w = p << 1
    while w <= i * q:
        w <<= 1
        i += 1
    return i


def _greedy_walk(
    i: int, r: int, q: int, max_k: int, check: bool
) -> tuple[list[int], bool]:
    """Core loop from x_i = r/q; returns (emitted, terminated).

    Doubling halves q while it is even and doubles r once it is odd, so
    the power of two in q goes away one bit per step. With check=True the
    feasibility invariant x_i < i+1 is asserted before every step.

    The term budget is tested before each step (k <= max_k), so a run
    whose final, remainder-clearing emission is number max_k + 1 still
    succeeds.
    """
    emitted: list[int] = []
    k = 0
    while r and k <= max_k:
        if check and r >= (i + 1) * q:
            raise VerificationError(f"x_{i} >= {i + 1} (remainder {r}/{q})")
        if q & 1:
            r <<= 1
        else:
            q >>= 1
        t = r - i * q
        if t >= 0:
            emitted.append(i)
            k += 1
            r = t
        i += 1
    return emitted, r == 0


def greedy_representation(
    x: Fraction, max_k: int = DEFAULT_MAX_K
) -> Optional[tuple[int, ...]]:
    """Greedy expansion of x as a sum of distinct terms a/2**a.

    Returns the emitted indices once the remainder hits zero, or None when
    the term budget runs out first (the outcome is then unknown, not a
    proof that no representation exists). The walk asserts the
    feasibility invariant x_i < i+1 at every step, and the returned list
    is re-verified to sum exactly to x.
    """
    x = _validate_x(x)
    if max_k < 1:
        raise ValueError("max_k must be positive")
    i = k_zero(x)
    start = x * (1 << (i - 1))
    emitted, terminated = _greedy_walk(
        i, start.numerator, start.denominator, max_k, True
    )
    if not terminated:
        return None
    out = tuple(emitted)
    if not sums_to(out, x.numerator, x.denominator):
        raise VerificationError(
            f"greedy expansion of {x} failed its exactness re-check"
        )
    return out


def _expand_n(
    n: int, max_k: int, check: bool
) -> tuple[list[int], Optional[Solution]]:
    """The walk of n/2**n, which starts at index n+1 with integer
    remainder n: (emitted, solution), the solution None for an exhausted
    budget and re-checked exactly when check is set."""
    emitted, terminated = _greedy_walk(n + 1, n, 1, max_k, check)
    if not terminated:
        return emitted, None
    sol = Solution(n, tuple(emitted))
    if check and not verify_solution(sol):
        raise VerificationError(
            f"greedy expansion of {n}/2^{n} failed its exactness re-check"
        )
    return emitted, sol


def greedy_for_n(
    n: int, max_k: int = DEFAULT_MAX_K, *, check: bool = True
) -> Optional[tuple[int, Solution]]:
    """Greedy expansion of n/2**n for n >= 2, as (k, Solution).

    For these inputs the whole run is machine-integer arithmetic, and its
    first step always emits n+1 (2n - (n+1) = n - 1 >= 0). The walk
    invariant and the exactness of the result are re-checked unless
    check is False.
    """
    if n < 2:
        raise ValueError("greedy_for_n needs n >= 2")
    if max_k < 1:
        raise ValueError("max_k must be positive")
    sol = _expand_n(n, max_k, check)[1]
    return None if sol is None else (sol.k, sol)


class SweepRow(NamedTuple):
    """Per-n outcome of a greedy sweep. For an exhausted budget, k and
    last_term describe the partial walk and terminated is False."""

    n: int
    k: int
    last_term: int
    terminated: bool


def _sweep_range(args: tuple[int, int, int]) -> list[SweepRow]:
    lo, hi, max_k = args
    rows = []
    for n in range(lo, hi):
        emitted, sol = _expand_n(n, max_k, True)
        rows.append(SweepRow(n, len(emitted), emitted[-1], sol is not None))
    return rows


def sweep(
    n_min: int, n_max: int, max_k: int = DEFAULT_MAX_K, *, jobs: int = 1
) -> list[SweepRow]:
    """Greedy stats for every n in [n_min, n_max], in n order, each walk
    checked as in greedy_for_n.

    Results are identical for any jobs value; parallel runs split the range
    into contiguous chunks and merge them back in order. At most
    os.cpu_count() worker processes are started, and none when that
    leaves one, when n_max < 200 or when the range holds fewer than 64
    values of n, where the pool costs more than it saves.
    """
    if n_min < 2:
        raise ValueError("sweep starts at n >= 2")
    if n_max < n_min:
        raise ValueError("empty sweep range")
    if max_k < 1:
        raise ValueError("max_k must be positive")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    total = n_max - n_min + 1
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1 or n_max < _POOL_MIN_N_MAX or total < _POOL_MIN_SPAN:
        return _sweep_range((n_min, n_max + 1, max_k))
    step = max(1, total // (workers * 8))
    chunks = [
        (lo, min(lo + step, n_max + 1), max_k)
        for lo in range(n_min, n_max + 1, step)
    ]
    # imported here: the pool pulls in multiprocessing, which no other
    # path needs, so one-shot CLI calls do not pay for it at start-up
    from concurrent.futures import ProcessPoolExecutor

    rows: list[SweepRow] = []
    with ProcessPoolExecutor(max_workers=workers) as ex:
        for part in ex.map(_sweep_range, chunks):
            rows.extend(part)
    return rows
