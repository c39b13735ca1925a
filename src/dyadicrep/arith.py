"""Exact arithmetic on dyadic rationals and candidate solutions.

Everything this package computes with is a non-negative number of the form
num/2**exp. Keeping the denominator as a bare exponent of two makes every
add, subtract and comparison a shift-and-compare on Python integers, which
is what the solution search spends most of its time doing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

__all__ = [
    "DyadicRational",
    "DyadicUnderflowError",
    "Solution",
    "VerificationError",
    "ZERO",
    "dyadic",
    "dyadic_sum",
    "invert_term",
    "invert_term_all",
    "term_sum",
    "term_value",
    "verify_solution",
]


class DyadicUnderflowError(ArithmeticError):
    """Raised when a subtraction would produce a negative dyadic value."""


class VerificationError(RuntimeError):
    """An emitted candidate failed its exactness or bound re-check."""


def _v2(n: int) -> int:
    """2-adic valuation of a positive integer."""
    return (n & -n).bit_length() - 1


@dataclass(frozen=True, slots=True)
class DyadicRational:
    """Canonical num/2**exp with num >= 0 and exp >= 0.

    Canonical means num is odd, or exp == 0 (the value is a non-negative
    integer; in particular 0 is stored as (0, 0)). The constructor rejects
    non-canonical pairs; use :func:`dyadic` to normalize an arbitrary
    numerator/exponent pair.
    """

    num: int
    exp: int = 0

    def __post_init__(self) -> None:
        if self.num < 0:
            raise ValueError("numerator must be non-negative")
        if self.exp < 0:
            raise ValueError("exponent must be non-negative")
        if self.exp and not self.num & 1:
            raise ValueError(
                f"{self.num}/2^{self.exp} is not canonical; use dyadic()"
            )

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        if not isinstance(other, DyadicRational):
            return NotImplemented
        e = self.exp if self.exp >= other.exp else other.exp
        return dyadic(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        if not isinstance(other, DyadicRational):
            return NotImplemented
        e = self.exp if self.exp >= other.exp else other.exp
        diff = (self.num << (e - self.exp)) - (other.num << (e - other.exp))
        if diff < 0:
            raise DyadicUnderflowError(f"{self} - {other} is negative")
        return dyadic(diff, e)

    # -- comparisons ----------------------------------------------------

    def _cmp(self, other: "DyadicRational") -> int:
        e = self.exp if self.exp >= other.exp else other.exp
        a = self.num << (e - self.exp)
        b = other.num << (e - other.exp)
        return (a > b) - (a < b)

    def __lt__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "DyadicRational") -> bool:
        return self._cmp(other) >= 0

    # -- conversions ----------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return float(self.as_fraction())

    def __bool__(self) -> bool:
        return self.num != 0

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}" if self.exp else str(self.num)


ZERO = DyadicRational(0, 0)


def dyadic(num: int, exp: int = 0) -> DyadicRational:
    """Normalize num/2**exp into canonical form."""
    if num < 0:
        raise ValueError("numerator must be non-negative")
    if num == 0:
        return ZERO
    if exp < 0:
        # a negative exponent is a left shift on the numerator
        return DyadicRational(num << -exp, 0)
    v = _v2(num)
    if v > exp:
        v = exp
    return DyadicRational(num >> v, exp - v)


def term_value(a: int) -> DyadicRational:
    """The term a/2**a in canonical form."""
    if a < 1:
        raise ValueError("term index must be a positive integer")
    v = _v2(a)
    return DyadicRational(a >> v, a - v)


def invert_term_all(r: DyadicRational) -> tuple[int, ...]:
    """All a >= 1 with a/2**a == r, in increasing order.

    The defining equation for a = p * 2**v (p the odd part of r's numerator)
    is p*2**v - v == r.exp. The left side never decreases as v grows and is
    strictly increasing once past v = 1, so a bounded upward scan is
    exhaustive. The only value hit twice is 1/2 == term_value(1) ==
    term_value(2), which yields (1, 2).
    """
    if not r:
        raise ValueError("invert_term requires a positive value")
    p, e = r.num, r.exp
    found = []
    v = 0
    while True:
        val = (p << v) - v
        if val > e:
            break
        if val == e:
            found.append(p << v)
        v += 1
    return tuple(found)


def invert_term(r: DyadicRational) -> Optional[int]:
    """The least a with a/2**a == r, or None if no term has value r."""
    found = invert_term_all(r)
    return found[0] if found else None


def dyadic_sum(values: Iterable[DyadicRational]) -> DyadicRational:
    """Sum by balanced pairwise reduction.

    A left-to-right fold costs O(k * width) limb operations on a k-term list
    whose exponents span `width` bits; the balanced tree costs
    O(width * log k), which is what makes re-verifying million-term greedy
    expansions affordable.
    """
    vals = list(values)
    if not vals:
        return ZERO
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) & 1:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def term_sum(terms: Iterable[int]) -> DyadicRational:
    """Exact value of sum(a/2**a for a in terms)."""
    return dyadic_sum(term_value(a) for a in terms)


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
    """Exact check of n/2**n == sum a_i/2**a_i.

    Multiplying through by 2**a_k turns the equation into an identity on
    integers: n * 2**(a_k - n) == sum a_i * 2**(a_k - a_i).
    """
    ak = sol.terms[-1]
    rhs = 0
    for a in sol.terms:
        rhs += a << (ak - a)
    return rhs == sol.n << (ak - sol.n)
