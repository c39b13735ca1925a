import hashlib
from fractions import Fraction

import pytest

from dyadicrep.arith import VerificationError, sums_to
from dyadicrep.chains import (
    _DIGEST_CHUNK,
    ChainResult,
    _digest,
    expand_chain,
    representation_count_certificate,
)
from known_solutions import CHAIN_8
from oracles import HALF_PREFIXES, tail_sum, tailed_terms


def _frac_value(terms):
    return sum((Fraction(a, 1 << a) for a in terms), Fraction(0))


def test_tail_sum_spot_values():
    assert tail_sum(1, 0) == 2
    assert tail_sum(2, 0) == Fraction(8, 9)
    assert tail_sum(1, 1) == Fraction(3, 2)


@pytest.mark.parametrize("p,q,count", [(1, 0, 40), (3, 14, 25), (7, 10, 12), (2, 5, 30)])
def test_tail_sum_splitting_identity(p, q, count):
    # chopping off the first `count` terms leaves the shifted tail exactly
    partial = _frac_value(tailed_terms((), p, q, count))
    assert tail_sum(p, q) - partial == tail_sum(p, q + p * count)
    assert tail_sum(p, q + p * count) > 0


def test_three_representations_structure():
    for prefix in HALF_PREFIXES:
        assert sums_to(prefix, 1, e=1)
        assert _frac_value(prefix) == Fraction(1, 2)
        terms = tailed_terms(prefix, 3, 14, 12)
        assert all(a < b for a, b in zip(terms, terms[1:]))
    # the term lists are pairwise distinct even though the values agree
    assert len({tailed_terms(prefix, 3, 14, 5) for prefix in HALF_PREFIXES}) == 3


def test_three_representations_converge_below_2_pow_200():
    for prefix in HALF_PREFIXES:
        partial = _frac_value(tailed_terms(prefix, 3, 14, 80))
        gap = Fraction(1, 2) + tail_sum(3, 14) - partial
        assert gap == tail_sum(3, 14 + 3 * 80)
        assert 0 < gap < Fraction(1, 1 << 200)


def test_expand_chain_depth_five_golden():
    chain = expand_chain(8, 5)
    assert not chain.exhausted
    assert len(chain.steps) == 5
    assert chain.start == 8
    assert [(s.k, s.last_term) for s in chain.steps] == list(CHAIN_8[:5])
    source = chain.start
    for i, step in enumerate(chain.steps, start=1):
        assert step.first_term == source + 1 <= step.last_term
        # terms are kept only for the first three steps
        if i <= 3:
            assert step.terms is not None and len(step.terms) == step.k
            joined = ",".join(map(str, step.terms)).encode()
            assert step.digest == hashlib.sha256(joined).hexdigest()
        else:
            assert step.terms is None
        source = step.last_term
    assert representation_count_certificate(chain) == 6


def test_expand_chain_depth_one():
    chain = expand_chain(8, 1)
    assert [(s.k, s.last_term) for s in chain.steps] == [(13, 32)]
    assert representation_count_certificate(chain) == 2


def test_expand_chain_budget_exhaustion():
    chain = expand_chain(8, 3, max_k=50)
    assert chain.exhausted
    assert len(chain.steps) == 2  # step 3 would need 169 terms
    assert [(s.k, s.last_term) for s in chain.steps] == list(CHAIN_8[:2])
    # the completed steps still certify
    assert representation_count_certificate(chain) == 3


def test_expand_chain_domain():
    with pytest.raises(ValueError):
        expand_chain(1, 3)
    with pytest.raises(ValueError):
        expand_chain(8, 0)


def test_expand_chain_starts_at_index_three():
    # 2/2^2 == 1/2^1, so index 2 is not a strictly smaller term value; the
    # library and the CLI both start at 3
    with pytest.raises(ValueError, match="at least 3"):
        expand_chain(2, 3)
    chain = expand_chain(3, 1)
    assert chain.steps[0].first_term > 3
    assert representation_count_certificate(chain) == 2


def _tampered(chain, i, **changes):
    steps = list(chain.steps)
    steps[i] = steps[i]._replace(**changes)
    return ChainResult(chain.start, steps, chain.exhausted)


def _with_terms(chain, i, terms):
    """Step i carrying `terms`, with its last term and digest made to match."""
    joined = ",".join(map(str, terms)).encode()
    return _tampered(
        chain,
        i,
        terms=terms,
        last_term=terms[-1],
        digest=hashlib.sha256(joined).hexdigest(),
    )


def test_certificate_rejects_tampering():
    chain = expand_chain(8, 3)

    with pytest.raises(VerificationError, match="certifies nothing"):
        representation_count_certificate(ChainResult(8, [], False))
    with pytest.raises(VerificationError, match="strictly above"):
        representation_count_certificate(_tampered(chain, 0, first_term=chain.start))
    with pytest.raises(VerificationError, match="fewer than two"):
        representation_count_certificate(_tampered(chain, 2, k=1))
    with pytest.raises(VerificationError, match="term count"):
        representation_count_certificate(
            _tampered(chain, 0, k=chain.steps[0].k + 1)
        )
    with pytest.raises(VerificationError, match="endpoints"):
        representation_count_certificate(
            _tampered(chain, 2, last_term=chain.steps[2].last_term + 1)
        )
    with pytest.raises(VerificationError, match="digest"):
        representation_count_certificate(_tampered(chain, 1, digest="0" * 64))

    # a digest-only step (past the depth that keeps terms) is checked by its
    # endpoints and count alone: they must leave room for k distinct terms
    deep = expand_chain(8, 4)
    step4 = deep.steps[3]
    assert step4.terms is None
    assert representation_count_certificate(deep) == 5
    room = step4.last_term - step4.first_term + 1  # the most terms that fit
    assert representation_count_certificate(_tampered(deep, 3, k=room)) == 5
    for change in ({"first_term": step4.last_term}, {"k": 10**6}, {"k": room + 1}):
        with pytest.raises(VerificationError, match="step 4 endpoints cannot hold"):
            representation_count_certificate(_tampered(deep, 3, **change))

    # a consistent-looking last step whose terms do not sum to the source
    bad_terms = chain.steps[2].terms[:-1] + (chain.steps[2].terms[-1] + 1,)
    with pytest.raises(VerificationError, match="sum to its source"):
        representation_count_certificate(_with_terms(chain, 2, bad_terms))

    # two steps swapped: each keeps its own terms, digest and endpoints,
    # but step 1 must now sum to the start, its source by position
    s1, s2, s3 = chain.steps
    with pytest.raises(VerificationError, match="step 1 does not sum to its source"):
        representation_count_certificate(ChainResult(8, [s2, s1, s3], False))

    # the same terms, two middle ones swapped: same sum, endpoints and count
    terms = list(chain.steps[2].terms)
    terms[5], terms[6] = terms[6], terms[5]
    with pytest.raises(VerificationError, match="out of order"):
        representation_count_certificate(_with_terms(chain, 2, tuple(terms)))

    # a repeated term: (5, 5, 6) from source 4 has consistent count,
    # endpoints and digest, and only the order check names what is wrong
    repeated = _tampered(_with_terms(expand_chain(4, 1), 0, (5, 5, 6)), 0, k=3)
    with pytest.raises(VerificationError, match="step 1 terms are out of order"):
        representation_count_certificate(repeated)


def test_two_term_step_is_certified():
    # 4/2^4 = 5/2^5 + 6/2^6: the shortest step a chain can take
    chain = expand_chain(4, 1)
    assert [(s.k, s.terms) for s in chain.steps] == [(2, (5, 6))]
    assert representation_count_certificate(chain) == 2


_C = _DIGEST_CHUNK


@pytest.mark.parametrize("length", [0, 1, 2, 7, _C - 1, _C, _C + 1, 2 * _C, 3 * _C + 5])
def test_streamed_digest_equals_joined_digest(length):
    # the chunked hash must equal the hash of the one-piece join, also when
    # the list ends on or just past a chunk boundary
    terms = tuple(range(3, 3 + 7 * length, 7))
    joined = ",".join(map(str, terms)).encode()
    assert _digest(terms) == hashlib.sha256(joined).hexdigest()
