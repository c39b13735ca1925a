from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicrep.arith import (
    ZERO,
    DyadicRational,
    DyadicUnderflowError,
    Solution,
    VerificationError,
    dyadic,
    dyadic_sum,
    invert_term,
    invert_term_all,
    term_sum,
    term_value,
    verify_solution,
)

dyadics = st.builds(
    dyadic,
    st.integers(min_value=0, max_value=1 << 80),
    st.integers(min_value=0, max_value=90),
)


def test_canonical_form():
    assert dyadic(4, 2) == dyadic(1, 0)
    assert dyadic(6, 4) == dyadic(3, 3)
    assert dyadic(0, 17) is not None and dyadic(0, 17) == ZERO
    assert dyadic(5, 0).as_fraction() == 5
    # negative exponent means a left shift
    assert dyadic(3, -2) == dyadic(12, 0)


def test_direct_construction_rejects_non_canonical():
    with pytest.raises(ValueError):
        DyadicRational(4, 2)
    with pytest.raises(ValueError):
        DyadicRational(0, 1)
    with pytest.raises(ValueError):
        DyadicRational(-1, 0)


@given(dyadics, dyadics)
def test_add_matches_fraction(a, b):
    assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()


@given(dyadics, dyadics)
def test_sub_roundtrip(a, b):
    s = a + b
    assert s - b == a
    assert s - a == b


@given(dyadics, dyadics)
def test_order_matches_fraction(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


def test_subtraction_underflow():
    with pytest.raises(DyadicUnderflowError):
        dyadic(1, 3) - dyadic(1, 1)


def test_term_value():
    assert term_value(1) == dyadic(1, 1)
    assert term_value(2) == dyadic(1, 1)  # 2/4 == 1/2
    assert term_value(6) == dyadic(3, 5)


def test_invert_term_half_is_ambiguous():
    assert invert_term_all(dyadic(1, 1)) == (1, 2)
    assert invert_term(dyadic(1, 1)) == 1


@pytest.mark.parametrize("a", [3, 4, 5, 17, 100, 2**10, 12345])
def test_invert_unique(a):
    assert invert_term_all(term_value(a)) == (a,)


def test_invert_term_identity_up_to_1e4():
    for a in range(3, 10**4 + 1):
        assert invert_term(term_value(a)) == a


def test_invert_non_term_values():
    assert invert_term_all(dyadic(3, 4)) == ()
    assert invert_term(dyadic(7, 3)) is None
    with pytest.raises(ValueError):
        invert_term_all(ZERO)


@given(st.lists(st.integers(min_value=1, max_value=500), max_size=60))
@settings(deadline=None)
def test_dyadic_sum_matches_fraction(indices):
    got = dyadic_sum([term_value(a) for a in indices])
    assert got.as_fraction() == sum(
        (Fraction(a, 2**a) for a in indices), Fraction(0)
    )


def test_dyadic_sum_empty():
    assert dyadic_sum([]) == ZERO
    assert term_sum(()) == ZERO


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


def test_str_forms():
    assert str(dyadic(3, 5)) == "3/2^5"
    assert str(dyadic(7, 0)) == "7"
    assert str(ZERO) == "0"


def test_verification_error_is_one_class_everywhere():
    import dyadicrep
    import dyadicrep.search

    assert dyadicrep.VerificationError is VerificationError
    assert dyadicrep.search.VerificationError is VerificationError
