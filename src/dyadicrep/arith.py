"""The exactness identity and the candidate-solution record.

A term list a_1 < ... < a_k has the value sum a_i/2**a_i. Multiplied by
2**a_k it becomes the integer sum a_i * 2**(a_k - a_i), so every exact
check in this package is an integer comparison against that one scaled
sum, made in one place, :func:`sums_to`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

__all__ = [
    "Solution",
    "VerificationError",
    "scaled_sum",
    "sums_to",
    "verify_solution",
]


class VerificationError(RuntimeError):
    """A self-check failed on something about to be emitted: an exactness
    or bound re-check, a walk invariant, a chain or multiplicity
    certificate, or a table row's modular identities."""


def scaled_sum(terms: Sequence[int]) -> int:
    """sum(a * 2**(L - a) for a in terms) with L = terms[-1]: the value of
    the term list times 2**L. The terms must be strictly increasing."""
    last = terms[-1]
    total = 0
    for a in terms:
        total += a << (last - a)
    return total


def sums_to(terms: Sequence[int], p: int, q: int = 1, *, e: int) -> bool:
    """Exact test of sum a/2**a == p / (q * 2**e) for strictly increasing
    terms, q >= 1 and e >= 0: the scaled sum times q * 2**e against
    p * 2**a_k, both divided by 2**min(e, a_k) so that neither shift
    grows with n when e and a_k are both near n."""
    last = terms[-1]
    return (scaled_sum(terms) * q) << max(e - last, 0) == p << max(last - e, 0)


class _SolutionFields(NamedTuple):
    n: int
    terms: tuple[int, ...]


class Solution(_SolutionFields):
    """A pair (n, a_1 < ... < a_k) proposed for n/2**n == sum a_i/2**a_i.

    Construction enforces the shape constraints every solution provably
    satisfies (k >= 2, strictly increasing terms, a_1 >= n+1); it does not
    check the sum itself, which is :func:`verify_solution`'s job. Being a
    tuple (n, terms), solutions sort by n, then by terms. Build them with
    the constructor only: _replace and _make skip these checks.
    """

    __slots__ = ()

    def __new__(cls, n: int, terms: Sequence[int]) -> Solution:
        terms = tuple(terms)
        if n < 1:
            raise ValueError("n must be a positive integer")
        if len(terms) < 2:
            raise ValueError("a solution needs at least two terms")
        if any(b <= a for a, b in zip(terms, terms[1:])):
            raise ValueError("terms must be strictly increasing")
        if terms[0] < n + 1:
            raise ValueError("the first term must be at least n+1")
        return super().__new__(cls, n, terms)

    @property
    def k(self) -> int:
        return len(self.terms)

    def __str__(self) -> str:
        return f"{self.n}/2^{self.n} = " + " + ".join(
            f"{a}/2^{a}" for a in self.terms
        )


def verify_solution(sol: Solution) -> bool:
    """Exact check of n/2**n == sum a_i/2**a_i."""
    return sums_to(sol.terms, sol.n, e=sol.n)
