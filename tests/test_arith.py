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
from dyadicrep.search import _close_term


def test_term_value():
    # a single term a/2**a scaled by 2**a is a itself
    assert scaled_sum((6,)) == 6
    # 1/2 + 2/4 == 1, i.e. 4/2**2
    assert scaled_sum((1, 2)) == 4
    # 5/32 + 6/64 == 1/4, i.e. 16/2**6
    assert scaled_sum((5, 6)) == 16


# _close_term(R, S) inverts R/2**S to the index a with a/2**a == R/2**S;
# it is the package's only term-inversion scan.

def test_invert_term_half_is_ambiguous():
    # 1/2 == 1/2**1 == 2/2**2; the scan reports the smaller index
    assert _close_term(1, 1) == 1
    assert _close_term(2, 2) == 1


@pytest.mark.parametrize("a", [3, 4, 5, 17, 100, 2**10, 12345])
def test_invert_unique(a):
    assert _close_term(a, a) == a
    # the same value at any finer scale
    assert _close_term(a << 7, a + 7) == a


def test_invert_term_identity_up_to_1e4():
    for a in range(1, 10**4 + 1):
        assert _close_term(a, a) == (1 if a == 2 else a)


def test_invert_non_term_values():
    assert _close_term(3, 4) == 0  # 3/16
    assert _close_term(7, 3) == 0  # 7/8


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
