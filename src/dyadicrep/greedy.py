"""Greedy expansion of rationals into sums of distinct terms a/2**a.

The walk doubles a remainder once per index i and emits i whenever the
doubled remainder covers it: starting from x_{k0} = x * 2**(k0 - 1) with
k0 the first index whose term value drops strictly below x,

    x_{i+1} = 2*x_i - i   and emit i,   if 2*x_i - i >= 0,
    x_{i+1} = 2*x_i                     otherwise.

The run terminates exactly when some x_i hits 0, and the emitted indices
are then a representation of x. Strictness in k0 means an x equal to some
j/2**j is never expanded as the single term j; the walk starts past j
(so 1/4 expands to {5, 6}, not {4}). All state stays integral whenever x
is n/2**n; general rationals p/q are tracked as an integer numerator over
the fixed denominator q with its power of two peeled off step by step, so
no fraction arithmetic happens in the loop either way.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import Solution, VerificationError, scaled_sum, verify_solution

__all__ = [
    "DEFAULT_MAX_K",
    "SweepRow",
    "greedy_for_n",
    "greedy_representation",
    "k_zero",
    "sweep",
]

DEFAULT_MAX_K = 1 << 20


def _validate_x(x: Fraction) -> Fraction:
    x = Fraction(x)
    if not 0 < x < 2:
        raise ValueError("greedy expansion needs 0 < x < 2")
    return x


def _k_zero_parts(p: int, q: int) -> tuple[int, int]:
    """(k0, p * 2**k0) for x = p/q: k0 is minimal with k0/2**k0 < x.

    Integer form of the scan: keep w = p * 2**i and advance while
    i/2**i >= p/q, i.e. while w <= i*q. The inequality is strict by
    construction, so x equal to a term value j/2**j scans past j.
    """
    i = 1
    w = p << 1
    while w <= i * q:
        w <<= 1
        i += 1
    return i, w


def k_zero(x: Fraction) -> int:
    """Minimal k >= 1 with k/2**k strictly below x."""
    x = _validate_x(x)
    return _k_zero_parts(x.numerator, x.denominator)[0]


def _greedy_walk(
    start_index: int,
    num: int,
    two_exp: int,
    odd_den: int,
    max_k: int,
    check: bool,
) -> tuple[list[int], bool]:
    """Core loop; returns (emitted, terminated).

    The remainder at index i is num / (odd_den * 2**two_exp); two_exp only
    ever shrinks, hitting 0 after at most its initial value steps, beyond
    which every operation is on plain integers.

    The term budget is tested before each step (k <= max_k), so a run
    whose final, remainder-clearing emission is number max_k + 1 still
    succeeds.
    """
    i = start_index
    n_loc = num
    h = two_exp
    d = odd_den
    emitted: list[int] = []
    k = 0
    while n_loc and k <= max_k:
        if check and n_loc >= ((i + 1) * d) << h:
            raise VerificationError(f"x_{i} >= {i + 1} (scaled remainder {n_loc})")
        if h:
            thr = (i * d) << (h - 1)
            if n_loc >= thr:
                emitted.append(i)
                k += 1
                n_loc -= thr
            h -= 1
        else:
            n_loc <<= 1
            t = n_loc - i * d
            if t >= 0:
                emitted.append(i)
                k += 1
                n_loc = t
        i += 1
    return emitted, n_loc == 0


def greedy_representation(
    x: Fraction, max_k: int = DEFAULT_MAX_K, *, check: bool = True
) -> Optional[tuple[int, ...]]:
    """Greedy expansion of x as a sum of distinct terms a/2**a.

    Returns the emitted indices once the remainder hits zero, or None when
    the term budget runs out first (the outcome is then unknown, not a
    proof that no representation exists). With check=True the returned
    list is re-verified to sum exactly to x, and the feasibility invariant
    x_i < i+1 is asserted at every step.
    """
    x = _validate_x(x)
    if max_k < 1:
        raise ValueError("max_k must be positive")
    p, q = x.numerator, x.denominator
    i, w = _k_zero_parts(p, q)
    vp = w >> 1  # p * 2**(k0 - 1)
    # split the denominator as odd * 2**h and strip common powers of two
    h = (q & -q).bit_length() - 1
    d = q >> h
    tz = (vp & -vp).bit_length() - 1
    g = tz if tz < h else h
    vp >>= g
    h -= g
    emitted, terminated = _greedy_walk(i, vp, h, d, max_k, check)
    if not terminated:
        return None
    out = tuple(emitted)
    # sum(out) == p/q, scaled by 2**a_k and cleared of q
    if check and scaled_sum(out) * q != p << out[-1]:
        raise VerificationError(
            f"greedy expansion of {x} failed its exactness re-check"
        )
    return out


def greedy_for_n(
    n: int, max_k: int = DEFAULT_MAX_K, *, check: bool = True
) -> Optional[tuple[int, Solution]]:
    """Greedy expansion of n/2**n for n >= 2, as (k, Solution).

    For these inputs the walk starts at index n+1 with integer remainder n,
    so the whole run is machine-integer arithmetic, and its first step
    always emits n+1 (2n - (n+1) = n - 1 >= 0).
    """
    if n < 2:
        raise ValueError("greedy_for_n needs n >= 2")
    if max_k < 1:
        raise ValueError("max_k must be positive")
    emitted, terminated = _greedy_walk(n + 1, n, 0, 1, max_k, check)
    if not terminated:
        return None
    sol = Solution(n, tuple(emitted))
    if check and not verify_solution(sol):
        raise VerificationError(
            f"greedy expansion of {n}/2^{n} failed its exactness re-check"
        )
    return len(sol.terms), sol


@dataclass(frozen=True, slots=True)
class SweepRow:
    """Per-n outcome of a greedy sweep. For an exhausted budget, k and
    last_term describe the partial walk and terminated is False."""

    n: int
    k: int
    last_term: int
    terminated: bool


def _sweep_range(args: tuple[int, int, int, bool]) -> list[SweepRow]:
    lo, hi, max_k, check = args
    rows = []
    for n in range(lo, hi):
        emitted, terminated = _greedy_walk(n + 1, n, 0, 1, max_k, check)
        if terminated:
            if check and not verify_solution(Solution(n, tuple(emitted))):
                raise VerificationError(f"sweep expansion for n={n} failed re-check")
            rows.append(SweepRow(n, len(emitted), emitted[-1], True))
        else:
            rows.append(
                SweepRow(n, len(emitted), emitted[-1] if emitted else 0, False)
            )
    return rows


def sweep(
    n_min: int,
    n_max: int,
    max_k: int = DEFAULT_MAX_K,
    *,
    jobs: int = 1,
    check: bool = True,
) -> list[SweepRow]:
    """Greedy stats for every n in [n_min, n_max], in n order.

    Results are identical for any jobs value; parallel runs split the range
    into contiguous chunks and merge them back in order.
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
    if jobs == 1 or total < 4:
        return _sweep_range((n_min, n_max + 1, max_k, check))
    step = max(1, total // (jobs * 8))
    chunks = [
        (lo, min(lo + step, n_max + 1), max_k, check)
        for lo in range(n_min, n_max + 1, step)
    ]
    rows: list[SweepRow] = []
    with ProcessPoolExecutor(max_workers=jobs) as ex:
        for part in ex.map(_sweep_range, chunks):
            rows.extend(part)
    return rows
