import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyadicrep.arith import Solution, VerificationError, sums_to, verify_solution
from dyadicrep.greedy import (
    DEFAULT_MAX_K,
    SweepRow,
    _certified_blocks,
    _greedy_walk,
    greedy_for_n,
    greedy_representation,
    sweep,
)
from greedy_reference import GreedyState, advance, start_state
from known_solutions import GREEDY_1_32, GREEDY_41


def _k_zero(x):
    """The paper's k0, which the walk always emits as its first term."""
    return greedy_representation(x, 1)[0][0]


def test_k_zero_values():
    assert _k_zero(Fraction(7, 8)) == 1
    assert _k_zero(Fraction(3, 10)) == 4
    # strictness: x equal to a term value starts past its own index
    assert _k_zero(Fraction(1, 2)) == 3
    assert _k_zero(Fraction(1, 4)) == 5
    assert _k_zero(Fraction(3, 8)) == 4


def test_greedy_representation_takes_a_rational():
    # x is read through numerator and denominator: an int works as it is,
    # and text is the CLI's to parse
    assert greedy_representation(1, 10) == greedy_representation(Fraction(1), 10)
    with pytest.raises(TypeError):
        greedy_representation("1/2")


def test_k_zero_domain():
    for bad in (Fraction(0), Fraction(2), Fraction(5, 2), Fraction(-1, 4)):
        with pytest.raises(ValueError):
            greedy_representation(bad, 1)


@given(
    st.fractions(
        min_value=Fraction(1, 10**6), max_value=Fraction(2), max_denominator=10**6
    ).filter(lambda x: x < 2)
)
def test_k_zero_is_minimal(x):
    j = _k_zero(x)
    assert Fraction(j, 2**j) < x
    if j > 1:
        assert Fraction(j - 1, 2 ** (j - 1)) >= x
    assert start_state(x).index == j


def _state_walk(x, budget):
    """Reference (terms, terminated) via the one-step Fraction recurrence."""
    s = start_state(x)
    while s.value and len(s.emitted) <= budget:
        s = advance(s)
    return s.emitted, not s.value


@given(
    st.fractions(
        min_value=Fraction(1, 4000), max_value=Fraction(2), max_denominator=4000
    ).filter(lambda x: x < 2),
    st.just(300),
)
# reduced starts that keep most of 2**e in their denominators, so the walk
# halves q for about e steps before q turns odd: (2**e-1)/2**e terminates,
# 1/3 + 3/2**e runs past a 3,000-term budget
@example(Fraction(2**64 - 1, 2**64), DEFAULT_MAX_K)
@example(Fraction(2**256 - 1, 2**256), DEFAULT_MAX_K)
@example(Fraction(2**1000 - 1, 2**1000), DEFAULT_MAX_K)
@example(Fraction(1, 3) + Fraction(3, 2**64), 3000)
@example(Fraction(1, 3) + Fraction(3, 2**256), 3000)
@example(Fraction(1, 3) + Fraction(3, 2**1000), 3000)
# 2**-200 is expanded only past index 192: the blocks [64, 128) and
# [128, 192) emit nothing, and each must be proven to remove 0
@example(Fraction(5, 16) + Fraction(1, 2**200), DEFAULT_MAX_K)
@settings(deadline=None, max_examples=150)
def test_walk_matches_state_recurrence(x, budget):
    terms, terminated = greedy_representation(x, budget)
    assert (terms, terminated) == _state_walk(x, budget)
    if terminated:
        assert sum(Fraction(a, 2**a) for a in terms) == x
    else:
        assert len(terms) == budget + 1


def test_certified_blocks_prove_blocks_that_halve_the_denominator():
    # 1999/1024 starts at k0 = 1 with q = 1024, so a block that ends before
    # q turns odd leaves its remainder on a halved denominator; blocks of
    # one index end at every index, and each starts where the last ended
    x = Fraction(1999, 1024)
    assert _k_zero(x) == 1
    blocks = _certified_blocks(1, 1999, 1024, DEFAULT_MAX_K, 1)
    done = Fraction(0)
    for stop, (emitted, i1, r1, q1) in zip(range(2, 30), blocks):
        assert i1 == stop and r1
        assert q1 == 1024 >> min(10, i1 - 1)
        done += sum(Fraction(a, 2**a) for a in emitted)
        assert done == x - Fraction(r1, q1 << (i1 - 1))


def test_greedy_representation_certifies_blocks_of_under_64_indices(monkeypatch):
    # a re-sum costs time quadratic in its span, so the walk proves itself
    # block by block: 1/3 runs to its budget, and 1 - 2**-1000 halves q for
    # its first 1,000 steps before it terminates
    recorded = []

    def record(terms, *args, **kwargs):
        recorded.append(list(terms))
        return sums_to(terms, *args, **kwargs)

    monkeypatch.setattr("dyadicrep.greedy.sums_to", record)
    assert not greedy_representation(Fraction(1, 3), 5000)[1]
    assert greedy_representation(Fraction(2**1000 - 1, 2**1000))[1]
    assert len(recorded) > 2
    assert all(terms[-1] - terms[0] < 64 for terms in recorded)


def test_greedy_representation_known_traces():
    assert greedy_representation(Fraction(1, 32)) == (GREEDY_1_32, True)
    assert greedy_representation(Fraction(41, 2**41)) == (GREEDY_41, True)
    # 2/2^2 = 1/2 and the walk finds the shortest 1/2 expansion
    assert greedy_representation(Fraction(1, 2)) == ((3, 6, 8), True)


def test_greedy_for_n_41_and_budget_boundary():
    terms, terminated = greedy_for_n(41)
    assert terminated
    assert len(terms) == 14
    assert terms == GREEDY_41
    assert verify_solution(Solution(41, terms))
    # the 14th emission clears the remainder, so a budget of 13 still lands
    assert greedy_for_n(41, 13) == (GREEDY_41, True)
    # a budget of 12 stops the walk after its 13th emission
    assert greedy_for_n(41, 12) == (GREEDY_41[:13], False)


def _walk_of_64_index_blocks(n, max_k):
    terms = []
    for emitted, _, r, _ in _certified_blocks(n + 1, n, 1, max_k):
        terms += emitted
    return tuple(terms), not r


def test_greedy_for_n_whole_walk_equals_its_64_index_blocks(monkeypatch):
    # greedy_for_n proves its walk as one block; walked in 64-index blocks
    # from the same start, with the budget carried from block to block,
    # it must give the same (terms, terminated) on every budget
    for n in range(2, 400):
        for max_k in (1, 5, 50, DEFAULT_MAX_K):
            assert greedy_for_n(n, max_k) == _walk_of_64_index_blocks(n, max_k)
    rng = random.Random(4000)
    for n in rng.sample(range(2, 4001), 20):
        assert greedy_for_n(n) == _walk_of_64_index_blocks(n, DEFAULT_MAX_K)
    stops = []

    def record(i, r, q, max_k, stop):
        stops.append(stop)
        return _greedy_walk(i, r, q, max_k, stop)

    monkeypatch.setattr("dyadicrep.greedy._greedy_walk", record)
    assert greedy_for_n(3113)[1]
    assert stops == [0]


def test_greedy_for_n_agrees_with_general_expansion():
    for n in range(2, 200):
        terms, terminated = greedy_for_n(n)
        assert terminated
        assert (terms, terminated) == greedy_representation(Fraction(n, 2**n))
        assert terms[0] == n + 1
        # a budget below the walk's length cuts the same walk short
        budget = len(terms) // 2
        cut = terms[: budget + 1]
        assert greedy_for_n(n, budget) == (cut, cut == terms)


@given(st.integers(min_value=2, max_value=3000))
@settings(deadline=None, max_examples=80)
def test_greedy_for_n_terminates_and_is_exact(n):
    terms, terminated = greedy_for_n(n)
    assert terminated
    assert len(terms) >= 2
    assert terms[0] == n + 1
    assert verify_solution(Solution(n, terms))


def test_domain_errors():
    with pytest.raises(ValueError):
        greedy_for_n(1)
    with pytest.raises(ValueError):
        greedy_for_n(5, 0)
    with pytest.raises(ValueError):
        greedy_representation(Fraction(3))
    with pytest.raises(ValueError):
        greedy_representation(Fraction(1, 3), 0)
    with pytest.raises(ValueError):
        sweep(1, 5)
    with pytest.raises(ValueError):
        sweep(5, 4)
    with pytest.raises(ValueError, match="max_k must be positive"):
        sweep(2, 10, 0)
    # the least budget is 1
    assert sweep(2, 40, 1) == [direct_row(n, 1) for n in range(2, 41)]


def test_advance_guards():
    with pytest.raises(ValueError):
        advance(GreedyState(5, Fraction(0)))
    with pytest.raises(VerificationError):
        advance(GreedyState(2, Fraction(4)))


def test_walk_rejects_an_infeasible_start():
    # x_3 = 4 breaks x_i < i+1; the walk stops before emitting
    with pytest.raises(VerificationError, match="x_3 >= 4"):
        _greedy_walk(3, 4, 1, 10, 0)
    # the same start over an even denominator: x_3 = 16/4
    with pytest.raises(VerificationError, match="x_3 >= 4"):
        _greedy_walk(3, 16, 4, 10, 0)


def direct_row(n, max_k):
    """The sweep row of n from its own walk, with no shared states."""
    emitted, _, r, _ = _greedy_walk(n + 1, n, 1, max_k, 0)
    return SweepRow(n, len(emitted), emitted[-1], r == 0)


def test_sweep_matches_single_runs():
    # every n up to 300, and one n from each of 40 strata of width 250 of
    # the paper's range, whose walks join those of smaller n
    rng = random.Random(2024)
    sample = [rng.randrange(max(2, 250 * s), 250 * (s + 1)) for s in range(40)]
    rows = sweep(2, 10**4)
    assert [r.n for r in rows] == list(range(2, 10**4 + 1))
    for n in sample:
        assert rows[n - 2] == direct_row(n, DEFAULT_MAX_K)
    assert sweep(2, 300) == [direct_row(n, DEFAULT_MAX_K) for n in range(2, 301)]


def test_sweep_budget_stops_joined_walks():
    # under a 50-term budget, n = 40 meets a stored state whose remaining
    # terms would take it past the budget: it walks on by itself and
    # reports its own partial walk
    rows = sweep(2, 300, 50)
    assert rows == [direct_row(n, 50) for n in range(2, 301)]
    assert not rows[40 - 2].terminated
    assert 0 < sum(not r.terminated for r in rows) < len(rows)


def test_sweep_join_at_the_budget_edge(monkeypatch):
    # row 64 reaches a stored state at i = 256 after 97 terms, and the walk
    # that stored it had 66 terms left: 163 = max_k + 1 terms is the most a
    # budget of 162 admits, so the row joins; under 161 it must not
    starts = []

    def record(i, r, q, max_k, stop):
        starts.append(i)
        return _greedy_walk(i, r, q, max_k, stop)

    monkeypatch.setattr("dyadicrep.greedy._greedy_walk", record)
    rows = sweep(56, 64, 162)
    assert rows == [direct_row(n, 162) for n in range(56, 65)]
    assert rows[-1] == SweepRow(64, 163, 392, True)
    assert starts[starts.index(65):] == [65, 128, 192]
    rows = sweep(56, 64, 161)
    assert rows == [direct_row(n, 161) for n in range(56, 65)]
    assert rows[-1].k == 162 and not rows[-1].terminated


def test_sweep_budget_exhaustion_row():
    (row,) = sweep(41, 41, max_k=5)
    assert not row.terminated
    # the partial walk is a prefix of the full one: emissions 1..6
    assert row.k == 6
    assert row.last_term == GREEDY_41[5]


def test_default_budget_export():
    assert DEFAULT_MAX_K == 1 << 20
