import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadicrep.arith import (
    Solution,
    VerificationError,
    scaled_sum,
    sums_to,
    verify_solution,
)


def test_term_value():
    # a single term a/2**a scaled by 2**a is a itself
    assert scaled_sum((6,)) == 6
    # 1/2 + 2/4 == 1, i.e. 4/2**2
    assert scaled_sum((1, 2)) == 4
    # 5/32 + 6/64 == 1/4, i.e. 16/2**6
    assert scaled_sum((5, 6)) == 16


@given(st.sets(st.integers(min_value=1, max_value=500), min_size=1, max_size=60))
@settings(deadline=None)
def test_scaled_sum_matches_fraction(indices):
    terms = tuple(sorted(indices))
    want = sum((Fraction(a, 2**a) for a in terms), Fraction(0))
    assert Fraction(scaled_sum(terms), 1 << terms[-1]) == want


# a chain step: 8/2**8 expanded by greedy_for_n(8)
CHAIN_STEP_8 = (9, 10, 12, 14, 18, 19, 21, 22, 24, 26, 29, 30, 32)


@given(
    st.sets(st.integers(min_value=1, max_value=300), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
    st.integers(min_value=0, max_value=600),
    st.integers(min_value=-1, max_value=1),
)
@settings(deadline=None)
# the call-site shapes: verify_solution (n/2**n), greedy_representation
# (p/q cleared of its denominator), representation_count_certificate
# (source/2**source) and the 1/2 prefixes of tests/oracles.py (1/2)
@example({5, 6}, 4, 1, 4, 0)
@example({5, 7}, 4, 1, 4, 1)
@example({4, 6, 8}, 3, 8, 0, 0)
@example({4, 6, 8}, 3, 7, 0, -1)
@example({3, 6, 8}, 1, 1, 1, 0)
@example({3, 6, 9}, 1, 1, 1, 1)
@example(set(CHAIN_STEP_8), 8, 1, 8, 0)
@example(set(CHAIN_STEP_8[:-1]), 8, 1, 8, -1)
# e above a_k with a non-dyadic q
@example({1, 2}, 8, 3, 3, 1)
def test_sums_to_matches_fraction(indices, p, q, e, delta):
    terms = tuple(sorted(indices))
    value = sum((Fraction(a, 2**a) for a in terms), Fraction(0))
    assert sums_to(terms, p, q, e=e) == (value == Fraction(p, q << e))
    # the same value written as p/(q * 2**e) with this q and e, then its
    # neighbours p - 1 and p + 1
    j = value.denominator.bit_length() - 1
    q_exact = q << max(j - e, 0)
    p_exact = value.numerator * q << max(e - j, 0)
    assert Fraction(p_exact, q_exact << e) == value
    assert sums_to(terms, p_exact + delta, q_exact, e=e) == (delta == 0)


def test_sums_to_with_e_and_a_k_near_a_huge_n():
    # A/2**A + (A+1)/2**(A+1) == (3A+1)/2**(A+1); the shifts must cancel the
    # common 2**min(e, a_k), since 2**A alone could not be materialised
    big = 10**15
    assert sums_to((big, big + 1), 3 * big + 1, e=big + 1)
    assert not sums_to((big, big + 1), 3 * big + 2, e=big + 1)
    assert not sums_to((big, big + 1), 3 * big + 1, e=big)


def test_solution_validation():
    Solution(4, (5, 6))
    with pytest.raises(ValueError):
        Solution(4, (5,))  # k >= 2
    with pytest.raises(ValueError):
        Solution(4, (6, 5))
    with pytest.raises(ValueError):
        Solution(4, (5, 5, 6))
    with pytest.raises(ValueError):
        Solution(4, (4, 6))  # first term must exceed n
    with pytest.raises(ValueError):
        Solution(0, (5, 6))


def test_verify_solution():
    assert verify_solution(Solution(4, (5, 6)))
    assert verify_solution(Solution(11, (12, 13, 14)))
    assert not verify_solution(Solution(4, (5, 7)))
    assert not verify_solution(Solution(5, (6, 7)))


def test_verify_matches_fraction_on_goldens():
    from known_solutions import SMALL_K

    for k, sols in SMALL_K.items():
        for n, terms in sols:
            assert len(terms) == k
            assert sum(Fraction(a, 2**a) for a in terms) == Fraction(n, 2**n)
            assert verify_solution(Solution(n, terms))


def test_verification_error_is_one_class_everywhere():
    import dyadicrep
    import dyadicrep.search

    assert dyadicrep.VerificationError is VerificationError
    assert dyadicrep.search.VerificationError is VerificationError


def test_records_are_immutable_picklable_tuples():
    from dyadicrep.chains import expand_chain
    from dyadicrep.crt import CongruenceClass
    from dyadicrep.greedy import sweep
    from dyadicrep.search import run_search
    from oracles import table_row

    chain = expand_chain(8, 1)
    rows = sweep(2, 20)
    fields = [
        (Solution(4, (5, 6)), "n"),
        (chain.steps[0], "digest"),
        (chain, "steps"),
        (table_row(1), "k0"),
        (CongruenceClass(3, 7), "residue"),
        (rows[0], "k"),
        (run_search(2), "solutions"),
    ]
    for record, field in fields:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        assert getattr(record, field) is value
    # the records pickle as the tuples they are; unpickling a Solution
    # runs its checks again
    sol = Solution(11, [12, 13, 14])
    assert pickle.loads(pickle.dumps(sol)) == sol
    assert type(pickle.loads(pickle.dumps(sol))) is Solution
    assert pickle.loads(pickle.dumps(rows)) == rows
    # solutions sort by (n, terms), as tuples do
    sols = [Solution(5, (7, 8, 9)), Solution(4, (6, 7, 8)), Solution(5, (6, 9))]
    assert sorted(sols) == [sols[1], sols[2], sols[0]]
    assert sorted(sols) == sorted(sols, key=lambda s: (s.n, s.terms))
