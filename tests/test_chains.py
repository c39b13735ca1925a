import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from dyadicrep.chains import (
    _DIGEST_CHUNK,
    HALF_PREFIXES,
    ChainCertificationError,
    ChainResult,
    TailedRepresentation,
    _digest,
    expand_chain,
    representation_count_certificate,
    tail_sum,
    three_representations,
)
from known_solutions import CHAIN_8


def _frac_tail_partial(p, q, count):
    return sum(Fraction(p * i + q, 1 << (p * i + q)) for i in range(1, count + 1))


def test_tail_sum_spot_values():
    assert tail_sum(1, 0) == 2
    assert tail_sum(2, 0) == Fraction(8, 9)
    assert tail_sum(1, 1) == Fraction(3, 2)


@pytest.mark.parametrize("p,q,count", [(1, 0, 40), (3, 14, 25), (7, 10, 12), (2, 5, 30)])
def test_tail_sum_splitting_identity(p, q, count):
    # chopping off the first `count` terms leaves the shifted tail exactly
    partial = _frac_tail_partial(p, q, count)
    assert tail_sum(p, q) - partial == tail_sum(p, q + p * count)
    assert tail_sum(p, q + p * count) > 0


def test_tail_sum_domain():
    with pytest.raises(ValueError):
        tail_sum(0, 5)
    with pytest.raises(ValueError):
        tail_sum(1, -1)


def test_three_representations_structure():
    reps = three_representations(3, 14)
    assert tuple(r.prefix for r in reps) == HALF_PREFIXES
    vals = {r.value() for r in reps}
    assert vals == {Fraction(1, 2) + tail_sum(3, 14)}
    for rep in reps:
        terms = rep.terms(12)
        assert rep.terms(0) == rep.prefix
        assert rep.partial_value(0) == Fraction(1, 2)
        assert all(a < b for a, b in zip(terms, terms[1:]))
    # the term lists are pairwise distinct even though the values agree
    assert len({reps[i].terms(5) for i in range(3)}) == 3
    # prefixes all sum to 1/2, so partial values agree at every depth
    assert reps[0].partial_value(9) == reps[1].partial_value(9) == reps[2].partial_value(9)


def test_three_representations_converge_below_2_pow_200():
    for rep in three_representations(3, 14):
        gap = rep.value() - rep.partial_value(80)
        assert gap == tail_sum(3, 14 + 3 * 80)
        assert 0 < gap < Fraction(1, 1 << 200)


def test_three_representations_rechecks_each_prefix(monkeypatch):
    # (3, 6, 9) sums to 3/8 + 6/64 + 9/512, not 1/2
    monkeypatch.setattr(
        "dyadicrep.chains.HALF_PREFIXES", HALF_PREFIXES[:2] + ((3, 6, 9),)
    )
    with pytest.raises(ChainCertificationError, match="does not sum to 1/2"):
        three_representations(3, 14)


def test_tailed_representation_empty_prefix():
    # an empty term list sums to 0, so the value is the tail alone
    rep = TailedRepresentation((), 3, 14)
    assert rep.value() == tail_sum(3, 14)
    assert rep.partial_value(0) == 0
    assert rep.partial_value(2) == Fraction(17, 2**17) + Fraction(20, 2**20)


def test_three_representations_domain():
    with pytest.raises(ValueError):
        three_representations(3, 13)  # starts at 16: too low
    with pytest.raises(ValueError):
        three_representations(0, 20)
    with pytest.raises(ValueError):
        three_representations(3, -1)
    assert len(three_representations(1, 16)) == 3  # boundary p + q = 17


def test_expand_chain_depth_five_golden():
    chain = expand_chain(8, 5)
    assert not chain.exhausted
    assert chain.depth == 5
    assert chain.start == 8
    assert [(s.k, s.last_term) for s in chain.steps] == list(CHAIN_8[:5])
    source = 8
    for i, step in enumerate(chain.steps, start=1):
        assert step.index == i
        assert step.source == source
        assert source < step.first_term <= step.last_term
        # terms are kept only for the first three steps
        if i <= 3:
            assert step.terms is not None and len(step.terms) == step.k
            joined = ",".join(map(str, step.terms)).encode()
            assert step.digest == hashlib.sha256(joined).hexdigest()
        else:
            assert step.terms is None
        source = step.last_term
    assert representation_count_certificate(chain) == 6


def test_expand_chain_depth_one_and_keep_override():
    chain = expand_chain(8, 1)
    assert [(s.k, s.last_term) for s in chain.steps] == [(13, 32)]
    assert representation_count_certificate(chain) == 2
    bare = expand_chain(8, 2, keep_terms_depth=0)
    assert all(s.terms is None for s in bare.steps)
    assert representation_count_certificate(bare) == 3


def test_expand_chain_budget_exhaustion():
    chain = expand_chain(8, 3, max_k=50)
    assert chain.exhausted
    assert chain.depth == 2  # step 3 would need 169 terms
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
    steps[i] = replace(steps[i], **changes)
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

    with pytest.raises(ChainCertificationError, match="certifies nothing"):
        representation_count_certificate(ChainResult(8, [], False))
    with pytest.raises(ChainCertificationError, match="mislabeled"):
        representation_count_certificate(_tampered(chain, 1, index=5))
    with pytest.raises(ChainCertificationError, match="expands"):
        representation_count_certificate(_tampered(chain, 1, source=33))
    with pytest.raises(ChainCertificationError, match="strictly above"):
        representation_count_certificate(
            _tampered(chain, 0, first_term=chain.steps[0].source)
        )
    with pytest.raises(ChainCertificationError, match="fewer than two"):
        representation_count_certificate(_tampered(chain, 2, k=1))
    with pytest.raises(ChainCertificationError, match="term count"):
        representation_count_certificate(
            _tampered(chain, 0, k=chain.steps[0].k + 1)
        )
    with pytest.raises(ChainCertificationError, match="endpoints"):
        representation_count_certificate(
            _tampered(chain, 2, last_term=chain.steps[2].last_term + 1)
        )
    with pytest.raises(ChainCertificationError, match="digest"):
        representation_count_certificate(_tampered(chain, 1, digest="0" * 64))

    # a consistent-looking last step whose terms do not sum to the source
    bad_terms = chain.steps[2].terms[:-1] + (chain.steps[2].terms[-1] + 1,)
    with pytest.raises(ChainCertificationError, match="sum to its source"):
        representation_count_certificate(_with_terms(chain, 2, bad_terms))

    # the same terms, two middle ones swapped: same sum, endpoints and count
    terms = list(chain.steps[2].terms)
    terms[5], terms[6] = terms[6], terms[5]
    with pytest.raises(ChainCertificationError, match="out of order"):
        representation_count_certificate(_with_terms(chain, 2, tuple(terms)))


@pytest.mark.extended
def test_expand_chain_depth_nine_golden():
    # step 9 produces 1195089 terms, above the default budget
    chain = expand_chain(8, 9, max_k=1 << 21)
    assert not chain.exhausted
    assert [(s.k, s.last_term) for s in chain.steps] == list(CHAIN_8)
    assert representation_count_certificate(chain) == 10


_C = _DIGEST_CHUNK


@pytest.mark.parametrize("length", [0, 1, 2, 7, _C - 1, _C, _C + 1, 2 * _C, 3 * _C + 5])
def test_streamed_digest_equals_joined_digest(length):
    # the chunked hash must equal the hash of the one-piece join, also when
    # the list ends on or just past a chunk boundary
    terms = tuple(range(3, 3 + 7 * length, 7))
    joined = ",".join(map(str, terms)).encode()
    assert _digest(terms) == hashlib.sha256(joined).hexdigest()
