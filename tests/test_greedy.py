from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicrep.arith import verify_solution
from dyadicrep.greedy import (
    DEFAULT_MAX_K,
    FeasibilityError,
    greedy_for_n,
    greedy_representation,
    k_zero,
    sweep,
)
from greedy_reference import GreedyState, advance, start_state
from known_solutions import GREEDY_1_32, GREEDY_41


def test_k_zero_values():
    assert k_zero(Fraction(7, 8)) == 1
    assert k_zero(Fraction(3, 10)) == 4
    # strictness: x equal to a term value scans past its own index
    assert k_zero(Fraction(1, 2)) == 3
    assert k_zero(Fraction(1, 4)) == 5
    assert k_zero(Fraction(3, 8)) == 4


def test_k_zero_domain():
    for bad in (Fraction(0), Fraction(2), Fraction(5, 2), Fraction(-1, 4)):
        with pytest.raises(ValueError):
            k_zero(bad)


@given(
    st.fractions(
        min_value=Fraction(1, 10**6), max_value=Fraction(2), max_denominator=10**6
    ).filter(lambda x: x < 2)
)
def test_k_zero_is_minimal(x):
    j = k_zero(x)
    assert Fraction(j, 2**j) < x
    if j > 1:
        assert Fraction(j - 1, 2 ** (j - 1)) >= x


def _state_walk(x, budget):
    """Reference expansion via the one-step Fraction recurrence."""
    s = start_state(x)
    while s.value and len(s.emitted) <= budget:
        s = advance(s)
    return s.emitted if not s.value else None


@given(
    st.fractions(
        min_value=Fraction(1, 4000), max_value=Fraction(2), max_denominator=4000
    ).filter(lambda x: x < 2)
)
@settings(deadline=None, max_examples=150)
def test_walk_matches_state_recurrence(x):
    budget = 300
    fast = greedy_representation(x, budget)
    slow = _state_walk(x, budget)
    assert fast == slow
    if fast is not None:
        assert sum(Fraction(a, 2**a) for a in fast) == x


def test_greedy_representation_known_traces():
    assert greedy_representation(Fraction(1, 32)) == GREEDY_1_32
    assert greedy_representation(Fraction(41, 2**41)) == GREEDY_41
    # 2/2^2 = 1/2 and the walk finds the shortest 1/2 expansion
    assert greedy_representation(Fraction(1, 2)) == (3, 6, 8)


def test_greedy_for_n_41_and_budget_boundary():
    got = greedy_for_n(41)
    assert got is not None
    k, sol = got
    assert k == 14
    assert sol.terms == GREEDY_41
    assert verify_solution(sol)
    # the 14th emission clears the remainder, so a budget of 13 still lands
    assert greedy_for_n(41, 13) is not None
    assert greedy_for_n(41, 12) is None


def test_greedy_for_n_agrees_with_general_expansion():
    for n in range(2, 200):
        k, sol = greedy_for_n(n)
        assert sol.terms == greedy_representation(Fraction(n, 2**n))
        assert sol.terms[0] == n + 1
        assert k == len(sol.terms)


@given(st.integers(min_value=2, max_value=3000))
@settings(deadline=None, max_examples=80)
def test_greedy_for_n_terminates_and_is_exact(n):
    got = greedy_for_n(n)
    assert got is not None
    k, sol = got
    assert k >= 2
    assert verify_solution(sol)


def test_domain_errors():
    with pytest.raises(ValueError):
        greedy_for_n(1)
    with pytest.raises(ValueError):
        greedy_for_n(5, 0)
    with pytest.raises(ValueError):
        greedy_representation(Fraction(3))
    with pytest.raises(ValueError):
        sweep(1, 5)
    with pytest.raises(ValueError):
        sweep(5, 4)
    with pytest.raises(ValueError):
        sweep(2, 5, jobs=0)


def test_advance_guards():
    with pytest.raises(ValueError):
        advance(GreedyState(5, Fraction(0)))
    with pytest.raises(FeasibilityError):
        advance(GreedyState(2, Fraction(4)))


def test_sweep_matches_single_runs():
    rows = sweep(2, 120)
    assert [r.n for r in rows] == list(range(2, 121))
    for row in rows:
        assert row.terminated
        k, sol = greedy_for_n(row.n)
        assert (row.k, row.last_term) == (k, sol.terms[-1])


def test_sweep_parallel_determinism():
    base = sweep(2, 150)
    for jobs in (2, 4, 8):
        assert sweep(2, 150, jobs=jobs) == base


def test_sweep_budget_exhaustion_row():
    (row,) = sweep(41, 41, max_k=5)
    assert not row.terminated
    # the partial walk is a prefix of the full one: emissions 1..6
    assert row.k == 6
    assert row.last_term == GREEDY_41[5]


def test_default_budget_export():
    assert DEFAULT_MAX_K == 1 << 20
