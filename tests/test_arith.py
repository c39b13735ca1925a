from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicrep.arith import (
    Solution,
    VerificationError,
    scaled_sum,
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
