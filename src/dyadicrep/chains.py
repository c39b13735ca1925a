"""Chains of expansions and numbers with many representations.

Expanding the last (smallest-valued) term of a representation with the
greedy walk yields a new, longer representation of the same number; doing
that repeatedly certifies a growing count of distinct representations.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .arith import VerificationError, sums_to
from .greedy import DEFAULT_MAX_K, greedy_for_n

__all__ = [
    "ChainResult",
    "ChainStep",
    "expand_chain",
    "representation_count_certificate",
]


class ChainStep(NamedTuple):
    """One step: the previous step's last term a (the chain's start for
    step 1), with a/2**a expanded into a k-term greedy representation from
    first_term to last_term. Only shallow steps keep their full terms; the
    digest (sha256 of the comma-joined list) always survives."""

    k: int
    first_term: int
    last_term: int
    digest: str
    terms: Optional[tuple[int, ...]] = None


class ChainResult(NamedTuple):
    start: int
    steps: list[ChainStep]
    exhausted: bool  # True when the budget stopped the chain early


_DIGEST_CHUNK = 4096

# steps 1.._KEEP_TERMS_DEPTH keep their full term lists; deeper steps, whose
# lists run to millions of terms, keep only the digest
_KEEP_TERMS_DEPTH = 3


def _digest(terms: Sequence[int]) -> str:
    """sha256 of the comma-joined terms, fed a chunk at a time so that a
    million-term step never holds all its decimal strings at once."""
    import hashlib  # here, not at the top: only chain steps need it

    h = hashlib.sha256()
    for i in range(0, len(terms), _DIGEST_CHUNK):
        chunk = ",".join(map(str, terms[i : i + _DIGEST_CHUNK]))
        h.update((("," if i else "") + chunk).encode())
    return h.hexdigest()


def expand_chain(a_start: int, depth: int, max_k: int = DEFAULT_MAX_K) -> ChainResult:
    """Iterated greedy expansion: step i expands the last term of step i-1
    (step 1 expands a_start/2**a_start).

    Each step is verified on the spot: greedy_for_n certifies that every
    walk it returns sums exactly to its source term, and its first term,
    source + 1, lies strictly above it. A walk that exhausts the budget
    ends the chain early with exhausted=True; the completed steps stay
    intact and the partial walk is dropped.
    """
    if a_start < 3:
        # term values strictly decrease only from index 3 on (2/2^2 == 1/2^1)
        raise ValueError("a_start must be at least 3")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    source = a_start
    steps: list[ChainStep] = []
    for i in range(1, depth + 1):
        terms, terminated = greedy_for_n(source, max_k)
        if not terminated:
            return ChainResult(a_start, steps, True)
        steps.append(
            ChainStep(
                k=len(terms),
                first_term=terms[0],
                last_term=terms[-1],
                digest=_digest(terms),
                terms=terms if i <= _KEEP_TERMS_DEPTH else None,
            )
        )
        source = terms[-1]
    return ChainResult(a_start, steps, False)


def representation_count_certificate(chain: ChainResult) -> int:
    """Certified number of distinct representations of
    a_start/2**a_start exhibited by the chain: its depth plus one (the
    unexpanded term counts as its own one-term representation).

    Replacing the last term of representation i-1 by expansion i gives a
    strictly longer representation of the same value. Step i's source is
    the previous step's last term (the start for step 1), so the
    certificate checks that each step starts strictly above that source,
    which keeps term lists strictly increasing, that its endpoints leave
    room for k distinct increasing terms, and re-verifies against it the
    exactness of every step that kept its terms.
    """
    if not chain.steps:
        raise VerificationError("empty chain certifies nothing")
    source = chain.start
    for i, step in enumerate(chain.steps, start=1):
        if not source < step.first_term:
            raise VerificationError(f"step {i} is not strictly above its source")
        if step.k < 2:
            raise VerificationError(f"step {i} has fewer than two terms")
        if step.terms is not None:
            if len(step.terms) != step.k:
                raise VerificationError(f"step {i} term count mismatch")
            if step.terms[0] != step.first_term or step.terms[-1] != step.last_term:
                raise VerificationError(f"step {i} endpoints mismatch")
            if _digest(step.terms) != step.digest:
                raise VerificationError(f"step {i} digest mismatch")
            if any(b <= a for a, b in zip(step.terms, step.terms[1:])):
                raise VerificationError(f"step {i} terms are out of order")
            if not sums_to(step.terms, source, e=source):
                raise VerificationError(f"step {i} does not sum to its source")
        elif step.last_term - step.first_term < step.k - 1:
            # kept terms prove this by their count and order
            raise VerificationError(f"step {i} endpoints cannot hold {step.k} terms")
        source = step.last_term
    return len(chain.steps) + 1
