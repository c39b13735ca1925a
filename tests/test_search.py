from fractions import Fraction
from itertools import combinations

import pytest

from dyadicrep.arith import Solution, verify_solution
from dyadicrep.bounds import ak_bound_cor, product_bound_holds, trivial_solution
from dyadicrep.congruence import congruence_holds, family_solution
from dyadicrep.search import (
    PRUNE_RULES,
    _close_term,
    count_solutions,
    enumerate_solutions,
    run_search,
    tail_lower,
    tail_upper,
)
from known_solutions import SMALL_K


def _as_pairs(solutions):
    return [(s.n, s.terms) for s in solutions]


# --- independent brute-force oracle ------------------------------------

def _brute(k: int, cap: int):
    """Every (n, terms) with k strictly increasing terms <= cap satisfying
    the equation, found by exhaustive scaled-integer summation. No search
    heuristics: any n up to cap is a candidate for any term tuple."""
    targets: dict[int, list[int]] = {}
    for n in range(1, cap + 1):
        targets.setdefault(n << (cap - n), []).append(n)
    hits = []
    for combo in combinations(range(1, cap + 1), k):
        s = 0
        for a in combo:
            s += a << (cap - a)
        for n in targets.get(s, ()):
            hits.append((n, combo))
    return sorted(hits)


@pytest.mark.parametrize("k,cap", [(2, 40), (3, 40), (4, 68)])
def test_enumeration_matches_brute_force(k, cap):
    assert cap >= ak_bound_cor(k)  # the window provably contains everything
    assert _brute(k, cap) == _as_pairs(enumerate_solutions(k))


# --- golden solution sets ----------------------------------------------

@pytest.mark.parametrize("k", sorted(SMALL_K))
def test_enumeration_golden_sets(k):
    want = [Solution(n, terms) for n, terms in SMALL_K[k]]
    result = run_search(k, jobs=2 if k == 8 else 1)
    assert result.solutions == want


def test_counts():
    assert [count_solutions(k) for k in range(2, 8)] == [1, 6, 2, 4, 5, 5]


# --- past the published range: facts every run must reproduce -----------

@pytest.mark.parametrize(
    "k,count,family_ns", [(9, 5, []), (10, 7, []), (11, 3, []), (12, 5, [3265])]
)
def test_extended_range_cross_checks(k, count, family_ns):
    solutions = enumerate_solutions(k)
    assert len(solutions) == count
    assert trivial_solution(k) in solutions
    families = [family_solution(u, k) for u in range(40) if congruence_holds(u, k)]
    assert [sol.n for sol in families] == family_ns
    for sol in families:
        assert sol in solutions
    for sol in solutions:
        assert verify_solution(sol)
        assert product_bound_holds(sol)


# --- window bounds ------------------------------------------------------

def _frac_run(b: int, m: int) -> Fraction:
    return sum(Fraction(i, 2**i) for i in range(b, b + m))


def test_tail_upper_matches_direct_sum():
    for b in range(1, 40):
        for m in range(1, 9):
            assert tail_upper(b, m).as_fraction() == _frac_run(b, m)


def test_tail_lower_matches_direct_sum():
    for a_max in range(3, 40):
        for m in range(1, a_max - 1):
            assert tail_lower(m, a_max).as_fraction() == _frac_run(
                a_max - m + 1, m
            )


def test_tail_bound_domains():
    with pytest.raises(ValueError):
        tail_upper(0, 3)
    with pytest.raises(ValueError):
        tail_upper(5, 0)
    with pytest.raises(ValueError):
        tail_lower(0, 10)
    with pytest.raises(ValueError):
        tail_lower(9, 10)  # bottom of the run would sit below index 3


def test_tail_upper_is_maximal_over_samples():
    # no choice of m distinct indices >= b beats the leading run
    tu = tail_upper(7, 3).as_fraction()
    for combo in combinations(range(7, 20), 3):
        assert sum(Fraction(i, 2**i) for i in combo) <= tu


def test_tail_lower_is_minimal_over_samples():
    tl = tail_lower(3, 16).as_fraction()
    for combo in combinations(range(3, 17), 3):
        assert sum(Fraction(i, 2**i) for i in combo) >= tl


def test_close_term_round_trip():
    S = 80
    for a in range(3, S + 1):
        assert _close_term(a << (S - a), S) == a
    # 1/2 has the two preimages 1 and 2; the scan reports the smaller.
    # Remainders at a close are always < 1/2, so the case never arises live.
    assert _close_term(1 << (S - 1), S) == 1
    # values that are not any a/2**a
    assert _close_term(3 << (S - 4), S) == 0
    assert _close_term(7 << (S - 3), S) == 0


# --- determinism and counters -------------------------------------------

def test_parallel_runs_reproduce_sequential_results():
    base = run_search(5)
    for jobs in (2, 4):
        assert run_search(5, jobs=jobs) == base
    assert run_search(10, jobs=2) == run_search(10, jobs=1)


def test_prune_counters_structure():
    res = run_search(6)
    assert tuple(res.prune_counters) == PRUNE_RULES
    assert res.nodes > 0 and res.tasks > 0
    # exactness of the close step makes these guard counters unreachable
    assert res.prune_counters["close_order"] == 0
    assert res.prune_counters["close_divisibility"] == 0
    assert res.prune_counters["product_bound"] == 0
    assert res.prune_counters["tail_high"] > 0
    assert res.prune_counters["tail_low"] > 0


def test_k8_work_counters_are_frozen():
    # part of the enumerate payload: any change to the pruning windows or
    # the planning split moves them
    res = run_search(8)
    assert (res.tasks, res.nodes) == (413, 1424)
    assert res.prune_counters == {
        "forced_infeasible": 0,
        "tail_high": 469,
        "tail_low": 618,
        "close_no_term": 364,
        "close_order": 0,
        "close_range": 0,
        "close_divisibility": 0,
        "product_bound": 0,
    }


def test_progress_callback():
    calls = []
    res = run_search(4, progress=lambda d, t, f: calls.append((d, t, f)))
    assert calls  # called at least at the end
    done, total, found = calls[-1]
    assert done == total == res.tasks
    assert found == len(res.solutions)


def test_domain_errors():
    with pytest.raises(ValueError):
        run_search(1)
    with pytest.raises(ValueError):
        run_search(3, jobs=0)
