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
x_i = r/q from r = p << (k0-1) for x = p/q: doubling halves q while q
is even and doubles r once q is odd, so no fraction arithmetic happens
in the loop. At q = 1, as for x = n/2**n, the state is (i, r) alone.

greedy_for_n and greedy_representation return (terms, terminated), the
partial walk when the term budget runs out. Every walk asserts x_i < i+1
at each step, and _certified_blocks, the one block loop, proves each
block of it by one identity: a whole walk for greedy_for_n, each 64-aligned
block for greedy_representation and sweep. Neither check can be switched off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, NamedTuple

from .arith import VerificationError, sums_to

if TYPE_CHECKING:
    from numbers import Rational

__all__ = [
    "DEFAULT_MAX_K",
    "SweepRow",
    "greedy_for_n",
    "greedy_representation",
    "sweep",
]

DEFAULT_MAX_K = 1 << 20


def _greedy_walk(
    i: int, r: int, q: int, max_k: int, stop: int
) -> tuple[list[int], int, int, int]:
    """Core loop from x_i = r/q; returns (emitted, i, r, q) where it
    halted: r == 0 once the walk terminated, else i == stop or the budget
    ran out. A stop of 0 is never reached (i >= 1).

    Doubling halves q while it is even and doubles r once it is odd, so
    the power of two in q goes away one bit per step. The feasibility
    invariant x_i < i+1 is asserted before every step.

    The term budget is tested before each step (k <= max_k), so a run
    whose final, remainder-clearing emission is number max_k + 1 still
    succeeds.
    """
    emitted: list[int] = []
    k = 0
    while r and k <= max_k and i != stop:
        if r >= (i + 1) * q:
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
    return emitted, i, r, q


def _certified_blocks(
    i: int, r: int, q: int, max_k: int, block: int = 64
) -> Iterator[tuple[list[int], int, int, int]]:
    """Walk from x_i = r/q in blocks that end at multiples of block, a power
    of two; block 0 makes the stop (i | -1) + 1 == 0, one block to the end.
    Yields each block's (emitted, i1, r1, q1) until r1 == 0 or max_k + 1
    terms are out, once the block [i, i1) is proven against that handed-on
    state, from which the next block starts. The value not yet expanded at
    index j is x_j / 2**(j-1), so the terms must sum to
    r/(q * 2**(i-1)) - r1/(q1 * 2**(i1-1)); an empty block must remove 0.
    Raises VerificationError otherwise.
    """
    if max_k < 1:
        raise ValueError("max_k must be positive")
    while r and max_k >= 0:
        emitted, i1, r1, q1 = _greedy_walk(i, r, q, max_k, (i | block - 1) + 1)
        gone = (r * q1 << (i1 - i)) - r1 * q
        if not (sums_to(emitted, gone, q * q1, e=i1 - 1) if emitted else gone == 0):
            raise VerificationError(
                f"greedy walk block [{i}, {i1}) from {r}/{q} failed its "
                "exactness re-check"
            )
        yield emitted, i1, r1, q1
        i, r, q, max_k = i1, r1, q1, max_k - len(emitted)


def greedy_representation(
    x: Rational, max_k: int = DEFAULT_MAX_K
) -> tuple[tuple[int, ...], bool]:
    """Greedy expansion of x as a sum of distinct terms a/2**a, as
    (terms, terminated).

    x is a numbers.Rational (an int or a fractions.Fraction), read as p/q
    through x.numerator and x.denominator; the CLI is the one parser of
    text, and a str raises TypeError. The first term is k0, the least
    index with k0/2**k0 strictly below x, found by the integer test
    p << k0 > k0*q; the walk starts from x_{k0} = (p << (k0-1))/q, with
    no fraction arithmetic. terminated is True once the remainder hit
    zero; then the terms sum exactly to x. Otherwise the term budget ran
    out first, after max_k + 1 terms, and the terms are that prefix of the
    walk (the outcome is then unknown, not a proof that no representation
    exists). _certified_blocks proves each 64-aligned block in turn.
    """
    if not 0 < x < 2:
        raise ValueError("greedy expansion needs 0 < x < 2")
    p, q = x.numerator, x.denominator
    i = 1
    while p << i <= i * q:
        i += 1
    terms: list[int] = []
    for emitted, _, r, _ in _certified_blocks(i, p << (i - 1), q, max_k):
        terms += emitted
    return tuple(terms), not r


def greedy_for_n(n: int, max_k: int = DEFAULT_MAX_K) -> tuple[tuple[int, ...], bool]:
    """Greedy expansion of n/2**n for n >= 2, as (terms, terminated), with
    the budget rule of greedy_representation.

    For these inputs the whole run is machine-integer arithmetic, and its
    first step always emits n+1 (2n - (n+1) = n - 1 >= 0). The walk
    invariant and the exactness of the terms are certified by
    _certified_blocks.
    """
    if n < 2:
        raise ValueError("greedy_for_n needs n >= 2")
    terms: list[int] = []
    # one block for the whole walk until ROADMAP item 1: faster 64-index
    # blocks fit more benchmark passes, and peak_rss_mb follows the pass count
    for emitted, _, r, _ in _certified_blocks(n + 1, n, 1, max_k, 0):
        terms += emitted
    return tuple(terms), not r


class SweepRow(NamedTuple):
    """Per-n outcome of a greedy sweep. For an exhausted budget, k and
    last_term describe the partial walk and terminated is False."""

    n: int
    k: int
    last_term: int
    terminated: bool


def sweep(n_min: int, n_max: int, max_k: int = DEFAULT_MAX_K) -> list[SweepRow]:
    """Greedy stats for every n in [n_min, n_max], in n order.

    Each block resumes from the state (i, r, q) the last one handed on, and
    n/2**n keeps q = 1, where two walks that reach one state end alike. A
    walk stops at the first index i divisible by 64 whose q = 1 state an
    earlier walk of this call passed on its way to termination, and takes
    that walk's remaining term count and last term. If that total would
    break the budget, the walk goes on by itself, so an exhausted row
    reports its own partial walk.

    _certified_blocks proves each block against the state it hands on, so a
    terminated row's blocks, with those of the walks it joined, telescope
    from n/2**n to a zero remainder: it is exact without re-summing terms.
    """
    if n_min < 2:
        raise ValueError("sweep starts at n >= 2")
    if n_max < n_min:
        raise ValueError("empty sweep range")
    rest: dict[int, tuple[int, int]] = {}
    rows = []
    for n in range(n_min, n_max + 1):
        k, last = 0, 0
        passed: list[tuple[int, int]] = []  # (state key, terms before it)
        for emitted, i, r, q in _certified_blocks(n + 1, n, 1, max_k):
            last = emitted[-1] if emitted else last
            k += len(emitted)
            if r and q == 1:
                key = i * i + r  # one int per state: r <= i keeps keys apart
                tail = rest.get(key)
                if tail is None:
                    passed.append((key, k))
                # once a tail overflows, later stored tails give the same total
                elif k + tail[0] <= max_k + 1:
                    r, k, last = 0, k + tail[0], tail[1]
                    break
        if not r:
            for key, before in passed:
                rest[key] = (k - before, last)
        rows.append(SweepRow(n, k, last, not r))
    return rows
