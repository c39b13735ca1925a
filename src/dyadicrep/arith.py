"""The exactness identity and the candidate-solution record.

A term list a_1 < ... < a_k has the value sum a_i/2**a_i. Multiplied by
2**a_k it becomes the integer sum a_i * 2**(a_k - a_i), so every exact
check in this package is an integer comparison against that one scaled
sum: a solution n satisfies it against n * 2**(a_k - n), a greedy
expansion of p/q against p * 2**a_k / q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Solution",
    "VerificationError",
    "scaled_sum",
    "verify_solution",
]


class VerificationError(RuntimeError):
    """An emitted candidate failed its exactness or bound re-check."""


def scaled_sum(terms: Sequence[int]) -> int:
    """sum(a * 2**(L - a) for a in terms) with L = terms[-1]: the value of
    the term list times 2**L. The terms must be strictly increasing."""
    last = terms[-1]
    total = 0
    for a in terms:
        total += a << (last - a)
    return total


@dataclass(frozen=True, order=True, slots=True)
class Solution:
    """A pair (n, a_1 < ... < a_k) proposed for n/2**n == sum a_i/2**a_i.

    Construction enforces the shape constraints every solution provably
    satisfies (k >= 2, strictly increasing terms, a_1 >= n+1); it does not
    check the sum itself, which is :func:`verify_solution`'s job.
    """

    n: int
    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if len(self.terms) < 2:
            raise ValueError("a solution needs at least two terms")
        if any(b <= a for a, b in zip(self.terms, self.terms[1:])):
            raise ValueError("terms must be strictly increasing")
        if self.terms[0] < self.n + 1:
            raise ValueError("the first term must be at least n+1")

    @property
    def k(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return f"{self.n}/2^{self.n} = " + " + ".join(
            f"{a}/2^{a}" for a in self.terms
        )


def verify_solution(sol: Solution) -> bool:
    """Exact check of n/2**n == sum a_i/2**a_i, scaled by 2**a_k:
    n * 2**(a_k - n) == sum a_i * 2**(a_k - a_i)."""
    return scaled_sum(sol.terms) == sol.n << (sol.terms[-1] - sol.n)
