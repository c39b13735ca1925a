import random
from fractions import Fraction
from itertools import combinations

import pytest

import dyadicrep.search as search
from dyadicrep.arith import Solution, VerificationError, verify_solution
from dyadicrep.bounds import (
    ak_bound_cor,
    max_n,
    product_bound_holds,
    trivial_solution,
)
from dyadicrep.congruence import tail_solution
from dyadicrep.search import (
    PRUNE_RULES,
    _interval,
    run_search,
)
from known_solutions import MEDIUM_K, SMALL_K
from oracles import u_congruence_holds


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
    assert _brute(k, cap) == _as_pairs(run_search(k).solutions)


# --- golden solution sets ----------------------------------------------

@pytest.mark.parametrize("k", sorted(SMALL_K | MEDIUM_K))
def test_enumeration_golden_sets(k):
    want = [Solution(n, terms) for n, terms in (SMALL_K | MEDIUM_K)[k]]
    assert run_search(k).solutions == want


def test_counts():
    assert [len(run_search(k).solutions) for k in range(2, 8)] == [1, 6, 2, 4, 5, 5]


# --- past the published range: facts every run must reproduce -----------

def _cross_check(k, count, family_ns):
    solutions = run_search(k).solutions
    assert len(solutions) == count
    assert trivial_solution(k) in solutions
    families = [
        tail_solution((u + 2, u + 3), k - 2)
        for u in range(40)
        if u_congruence_holds(u, k)
    ]
    assert [sol.n for sol in families] == family_ns
    for sol in families:
        assert sol in solutions
    for sol in solutions:
        assert verify_solution(sol)
        assert product_bound_holds(sol)


@pytest.mark.parametrize(
    "k,count,family_ns",
    [
        (9, 5, []),
        (10, 7, []),
        (11, 3, []),
        (12, 5, [3265]),
        (2, 1, []),
        (3, 6, []),
        (4, 2, [9]),
        (5, 4, [15]),
        (6, 5, []),
        (7, 5, []),
        (8, 5, [197]),
        (13, 14, []),
        (14, 7, []),
        (15, 11, []),
        (16, 12, [52413]),
        (17, 12, [80643]),
        (18, 10, []),
        (19, 6, []),
        (20, 13, [838841]),
    ],
)
def test_extended_range_cross_checks(k, count, family_ns):
    _cross_check(k, count, family_ns)


@pytest.mark.extended
@pytest.mark.parametrize(
    "k,count,family_ns",
    [
        (21, 11, []),
        (22, 11, [2314077]),
        (23, 20, []),
        (24, 16, [13421749]),
        (25, 14, []),
        (26, 12, []),
        (27, 19, []),
        (28, 16, [214748337]),
        (29, 13, [330382071]),
        (30, 14, []),
    ],
)
def test_enumeration_up_to_k30(k, count, family_ns):
    _cross_check(k, count, family_ns)


# --- the interval [lo, hi] on n at a prefix -------------------------------
#
# Everything below is computed from the definitions with Fraction sums,
# never from the search's closed forms. For gaps e_1 < ... < e_r, the
# remainder of n is (n/2^n - sum of the terms (n+e_i)/2^(n+e_i)) scaled by
# 2^(n + e_r); an n can extend the prefix only if some choice of m more
# gaps above e_r sums, scaled the same way, to exactly that remainder.

def _prefix_qp(gaps):
    er = gaps[-1] if gaps else 0
    Q = (1 << er) - sum(1 << (er - e) for e in gaps)
    P = sum(e << (er - e) for e in gaps)
    return er, Q, P


def _remainder(n, gaps):
    er = gaps[-1] if gaps else 0
    rest = Fraction(n, 2**n) - sum(Fraction(n + e, 2 ** (n + e)) for e in gaps)
    return rest * 2 ** (n + er)


def _best_completion(n, gaps, m, cap):
    """Largest scaled sum of m more terms n+e with e_r < e and n+e <= cap,
    over every such choice."""
    er = gaps[-1] if gaps else 0
    values = [Fraction(n + e, 2 ** (e - er)) for e in range(er + 1, cap - n + 1)]
    return max(sum(choice) for choice in combinations(values, m))


def _random_prefixes():
    """Seeded gap prefixes with one or two open slots, k = 3..5: a run
    1..j, as every solution starts, then a few scattered gaps."""
    rng = random.Random(11)
    out = []
    for _ in range(24):
        k = rng.randint(3, 5)
        m = rng.choice((1, 2))
        j = rng.randint(0, k - m)
        tail = rng.sample(range(j + 2, j + 7), k - m - j)
        out.append((k, m, tuple(range(1, j + 1)) + tuple(sorted(tail))))
    return out


def test_root_interval_is_one_to_max_n():
    for k in range(2, 40):
        assert _interval(1, 0, 0, k) == (1, max_n(k))


def test_tail_lower_matches_direct_sum():
    # lo is the least n whose remainder is positive
    for k, m, gaps in _random_prefixes():
        er, Q, P = _prefix_qp(gaps)
        lo, _ = _interval(Q, P, er, m)
        assert _remainder(lo, gaps) > 0
        assert lo == 1 or _remainder(lo - 1, gaps) <= 0


def test_tail_upper_matches_direct_sum():
    # hi is the largest n whose remainder some completion can still reach
    nonempty = 0
    for k, m, gaps in _random_prefixes():
        er, Q, P = _prefix_qp(gaps)
        lo, hi = _interval(Q, P, er, m)
        cap = ak_bound_cor(k)
        assert hi + 1 + er + m <= cap  # the leading run is among the choices
        if hi >= 1:
            assert _remainder(hi, gaps) <= _best_completion(hi, gaps, m, cap)
        assert _remainder(hi + 1, gaps) > _best_completion(hi + 1, gaps, m, cap)
        nonempty += lo <= hi
    assert nonempty >= 4


def test_child_interval_lies_inside_parent():
    # the search never intersects a child's interval with its parent's
    for k, m, gaps in _random_prefixes() + [(k, k, ()) for k in range(2, 9)]:
        if m < 2:
            continue
        er, Q, P = _prefix_qp(gaps)
        lo, hi = _interval(Q, P, er, m)
        for e in range(er + 1, er + 12):
            _, Qc, Pc = _prefix_qp(gaps + (e,))
            lo_c, hi_c = _interval(Qc, Pc, e, m - 1)
            assert lo_c >= lo
            assert lo_c > hi_c or hi_c <= hi


def test_tail_upper_is_maximal_over_samples():
    # no choice of m distinct indices >= b beats the leading run, the fact
    # behind hi and behind the stop rule of the child loop
    run = sum(Fraction(i, 2**i) for i in range(7, 10))
    for combo in combinations(range(7, 20), 3):
        assert sum(Fraction(i, 2**i) for i in combo) <= run


# --- counters, progress and the post-checks -------------------------------

def test_prune_counters_structure():
    res = run_search(6)
    assert tuple(res.prune_counters) == PRUNE_RULES
    assert all(v > 0 for v in res.prune_counters.values())
    # every child tried ends as one rule, one solution or one subtree, and
    # every subtree ends with one run_too_short
    c = res.prune_counters
    subtrees = c["run_too_short"] - 1
    assert res.nodes == sum(c.values()) + len(res.solutions) + subtrees


def test_k8_work_counters_are_frozen():
    # part of the enumerate payload: any change to the interval, the stop
    # rule or the leaf check moves them
    res = run_search(8)
    assert res.nodes == 546
    assert res.prune_counters == {
        "interval_empty": 116,
        "run_too_short": 160,
        "leaf_miss": 106,
    }


def test_progress_callback(monkeypatch):
    monkeypatch.setattr(search, "_PROGRESS_EVERY", 64)
    calls = []
    res = run_search(8, progress=lambda nodes, found: calls.append((nodes, found)))
    assert calls[-1] == (res.nodes, len(res.solutions))
    reports = [nodes for nodes, _ in calls[:-1]]
    assert len(reports) == res.nodes // 64
    for i, nodes in enumerate(reports, 1):
        assert 64 * i <= nodes < 64 * (i + 1)


@pytest.mark.parametrize(
    "name,fake",
    [
        ("verify_solution", lambda sol: False),
        ("product_bound_holds", lambda sol: False),
        ("ak_bound_thm", lambda n, k: n),
    ],
)
def test_failed_post_check_raises(monkeypatch, name, fake):
    # a found solution that breaks a lemma of the paper is reported, not dropped
    monkeypatch.setattr(search, name, fake)
    with pytest.raises(VerificationError):
        run_search(3)


def test_domain_errors():
    with pytest.raises(ValueError):
        run_search(1)
    with pytest.raises(ValueError):
        run_search(-4)
