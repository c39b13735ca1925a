"""Chains of expansions and numbers with many representations.

Expanding the last (smallest-valued) term of a representation with the
greedy walk yields a new, longer representation of the same number; doing
that repeatedly certifies a growing count of distinct representations.
A second construction gives any x = 1/2 + (eventually periodic tail) three
structurally different representations at once: three distinct prefixes
summing to 1/2 wearing the same arithmetic-progression tail.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .arith import scaled_sum
from .greedy import DEFAULT_MAX_K, greedy_for_n

__all__ = [
    "ChainCertificationError",
    "ChainResult",
    "ChainStep",
    "HALF_PREFIXES",
    "TailedRepresentation",
    "expand_chain",
    "representation_count_certificate",
    "tail_sum",
    "three_representations",
]


class ChainCertificationError(RuntimeError):
    """A chain failed a structural or exactness check."""


def _term_list_value(terms: tuple[int, ...]) -> Fraction:
    """Exact value of sum(a/2**a for a in terms); 0 for an empty list."""
    if not terms:
        return Fraction(0)
    return Fraction(scaled_sum(terms), 1 << terms[-1])


def tail_sum(p: int, q: int) -> Fraction:
    """Exact value of sum_{i>=1} (p*i + q)/2**(p*i + q):
    ((q+p)*2**p - q) / (2**q * (2**p - 1)**2)."""
    if p < 1:
        raise ValueError("progression step p must be positive")
    if q < 0:
        raise ValueError("progression offset q must be non-negative")
    tp = 1 << p
    return Fraction((q + p) * tp - q, (1 << q) * (tp - 1) ** 2)


# The three prefixes over which 1/2 splits into 3, 7 and 3 terms; each is a
# complete list, so any strictly larger progression extends all three into
# representations of the same number.
HALF_PREFIXES: tuple[tuple[int, ...], ...] = (
    (3, 6, 8),
    (4, 5, 6),
    (4, 5, 7, 8, 11, 13, 14),
)


@dataclass(frozen=True, slots=True)
class TailedRepresentation:
    """A term list: finite prefix followed by the infinite progression
    p*i + q, i >= 1. Its exact value is sum(prefix terms) + tail_sum(p, q)."""

    prefix: tuple[int, ...]
    p: int
    q: int

    def value(self) -> Fraction:
        return _term_list_value(self.prefix) + tail_sum(self.p, self.q)

    def terms(self, count: int) -> tuple[int, ...]:
        """The prefix plus the first `count` progression terms."""
        return self.prefix + tuple(
            self.p * i + self.q for i in range(1, count + 1)
        )

    def partial_value(self, count: int) -> Fraction:
        return _term_list_value(self.terms(count))


def three_representations(p: int, q: int) -> list[TailedRepresentation]:
    """Three distinct representations of 1/2 + tail_sum(p, q).

    Requires p + q >= 17 so the progression starts strictly above every
    prefix element (the largest is 14; the proof behind the construction
    asks for a start past 16, which is the stricter line enforced here).
    """
    if p < 1 or q < 0:
        raise ValueError("need p >= 1 and q >= 0")
    if p + q < 17:
        raise ValueError("progression must start at p + q >= 17")
    reps = [TailedRepresentation(pref, p, q) for pref in HALF_PREFIXES]
    for rep in reps:
        # sum == 1/2 scaled by 2**a_k
        if scaled_sum(rep.prefix) != 1 << (rep.prefix[-1] - 1):
            raise ChainCertificationError(f"prefix {rep.prefix} does not sum to 1/2")
    return reps


@dataclass(frozen=True, slots=True)
class ChainStep:
    """One expansion step: the term a/2**a with a == source expanded into a
    k-term greedy representation running from first_term to last_term.
    Full terms are kept only for shallow steps; the digest (sha256 of the
    comma-joined list) always survives."""

    index: int
    source: int
    k: int
    first_term: int
    last_term: int
    digest: str
    terms: Optional[tuple[int, ...]] = None


@dataclass
class ChainResult:
    start: int
    steps: list[ChainStep]
    exhausted: bool  # True when the budget stopped the chain early

    @property
    def depth(self) -> int:
        return len(self.steps)


_DIGEST_CHUNK = 4096


def _digest(terms: Sequence[int]) -> str:
    """sha256 of the comma-joined terms, fed a chunk at a time so that a
    million-term step never holds all its decimal strings at once."""
    h = hashlib.sha256()
    for i in range(0, len(terms), _DIGEST_CHUNK):
        chunk = ",".join(map(str, terms[i : i + _DIGEST_CHUNK]))
        h.update((("," if i else "") + chunk).encode())
    return h.hexdigest()


def expand_chain(
    a_start: int,
    depth: int,
    max_k: int = DEFAULT_MAX_K,
    *,
    keep_terms_depth: int = 3,
) -> ChainResult:
    """Iterated greedy expansion: step i expands the last term of step i-1
    (step 1 expands a_start/2**a_start).

    Each step is verified on the spot: the expansion must sum exactly to
    its source term (greedy_for_n re-checks this) and start strictly above
    it. A budget exhaustion ends the chain early with exhausted=True and
    the completed steps intact.
    """
    if a_start < 3:
        # term values strictly decrease only from index 3 on (2/2^2 == 1/2^1)
        raise ValueError("a_start must be at least 3")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    source = a_start
    steps: list[ChainStep] = []
    for i in range(1, depth + 1):
        got = greedy_for_n(source, max_k, check=True)
        if got is None:
            return ChainResult(a_start, steps, True)
        k, sol = got
        terms = sol.terms
        if terms[0] <= source:
            raise ChainCertificationError(
                f"step {i}: expansion starts at {terms[0]}, not above {source}"
            )
        steps.append(
            ChainStep(
                index=i,
                source=source,
                k=k,
                first_term=terms[0],
                last_term=terms[-1],
                digest=_digest(terms),
                terms=terms if i <= keep_terms_depth else None,
            )
        )
        source = terms[-1]
    return ChainResult(a_start, steps, False)


def representation_count_certificate(chain: ChainResult) -> int:
    """Certified number of distinct representations of
    a_start/2**a_start exhibited by the chain: its depth plus one (the
    unexpanded term counts as its own one-term representation).

    Replacing the last term of representation i-1 by expansion i gives a
    strictly longer representation of the same value, so the certificate
    checks the chaining (each step expands exactly the previous last term,
    starting strictly above it, so term lists stay strictly increasing)
    and re-verifies the exactness of every step that kept its terms.
    """
    if not chain.steps:
        raise ChainCertificationError("empty chain certifies nothing")
    expect = chain.start
    for i, step in enumerate(chain.steps, start=1):
        if step.index != i:
            raise ChainCertificationError(f"step {i} mislabeled as {step.index}")
        if step.source != expect:
            raise ChainCertificationError(
                f"step {i} expands {step.source}, expected {expect}"
            )
        if not step.source < step.first_term <= step.last_term:
            raise ChainCertificationError(f"step {i} is not strictly above its source")
        if step.k < 2:
            raise ChainCertificationError(f"step {i} has fewer than two terms")
        if step.terms is not None:
            if len(step.terms) != step.k:
                raise ChainCertificationError(f"step {i} term count mismatch")
            if step.terms[0] != step.first_term or step.terms[-1] != step.last_term:
                raise ChainCertificationError(f"step {i} endpoints mismatch")
            if _digest(step.terms) != step.digest:
                raise ChainCertificationError(f"step {i} digest mismatch")
            if any(b <= a for a, b in zip(step.terms, step.terms[1:])):
                raise ChainCertificationError(f"step {i} terms are out of order")
            # scaled by 2**last_term; the order check keeps every shift >= 0
            if scaled_sum(step.terms) != step.source << (step.last_term - step.source):
                raise ChainCertificationError(f"step {i} does not sum to its source")
        expect = step.last_term
    return chain.depth + 1
