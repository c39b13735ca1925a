"""Structural bounds on solutions, all in exact integer arithmetic.

The logarithmic bounds are integer ceilings computed by bit-length tests
(least m with 2**m >= k**(2k)), never by floating point, so they are exact
for every k. Oversized comparisons such as
2**(a_k - a_i) <= a_{i+2} * ... * a_k * a_k are decided through bit lengths
instead of materializing the power of two.
"""

from __future__ import annotations

from math import prod

from .arith import Solution

__all__ = [
    "ak_bound_cor",
    "ak_bound_thm",
    "max_n",
    "product_bound_holds",
    "trivial_solution",
]


def max_n(k: int) -> int:
    """Largest n admitting a k-term solution: 2**(k+1) - k - 2."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return (1 << (k + 1)) - k - 2


def trivial_solution(k: int) -> Solution:
    """The extremal solution at n = max_n(k): terms n+1, ..., n+k."""
    n = max_n(k)
    return Solution(n, tuple(range(n + 1, n + k + 1)))


def _ceil_2k_log2_k(k: int) -> int:
    """Least integer m with 2**m >= k**(2k), i.e. ceil(2k * log2 k). For
    k = 2**v * o with o odd, 2**v adds exactly 2k*v; only o**(2k) is built."""
    v = (k & -k).bit_length() - 1
    return 2 * k * v + ((k >> v) ** (2 * k) - 1).bit_length()


def ak_bound_thm(n: int, k: int) -> int:
    """Least integer B >= 2n + 2k*log2(k); every solution has a_k <= B."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if k < 2:
        raise ValueError("k must be at least 2")
    return 2 * n + _ceil_2k_log2_k(k)


def ak_bound_cor(k: int) -> int:
    """n-free form of the last-term bound: least integer >=
    2**(k+2) + 2k*(log2(k) - 1) - 4, which is ak_bound_thm at n = max_n(k)."""
    return 2 * max_n(k) + _ceil_2k_log2_k(k)


def product_bound_holds(sol: Solution) -> bool:
    """Necessary condition on solutions: 2**(a_k - a_{k-1}) divides a_k and
    2**(a_k - a_i) <= (a_{i+2} * ... * a_k) * a_k for every i <= k-2."""
    terms = sol.terms
    ak = terms[-1]
    d = ak - terms[-2]
    if d >= ak.bit_length() or ak & ((1 << d) - 1):
        return False
    for i in range(len(terms) - 2):
        rhs = prod(terms[i + 2 :]) * ak
        # 2**(ak - terms[i]) <= rhs, decided by bit length
        if rhs.bit_length() < ak - terms[i] + 1:
            return False
    return True
