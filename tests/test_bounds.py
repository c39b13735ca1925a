import mpmath
import pytest

from dyadicrep.arith import Solution, verify_solution
from dyadicrep.bounds import (
    _ceil_2k_log2_k,
    ak_bound_cor,
    ak_bound_thm,
    max_n,
    product_bound_holds,
    trivial_solution,
)
from dyadicrep.search import run_search
from known_solutions import SMALL_K


def test_max_n_values():
    assert max_n(2) == 4
    assert max_n(3) == 11
    assert max_n(4) == 26
    assert max_n(6) == 120
    assert max_n(8) == 502


def test_trivial_solution_is_exact():
    for k in range(2, 16):
        sol = trivial_solution(k)
        assert sol.n == max_n(k)
        assert sol.terms == tuple(range(sol.n + 1, sol.n + k + 1))
        assert verify_solution(sol)


def _oracle_ceil(k: int) -> int:
    # 2k*log2(k) is irrational unless k is a power of two, so 300 bits of
    # working precision decide the ceiling unambiguously for the k tested here
    with mpmath.workprec(300):
        return int(mpmath.ceil(2 * k * mpmath.log(k, 2)))


@pytest.mark.parametrize("k", list(range(2, 65)) + [100, 677, 1000, 12345])
def test_ceil_term_against_mpmath(k):
    assert _ceil_2k_log2_k(k) == _oracle_ceil(k)


def test_ceil_term_power_of_two_is_exact():
    for e in range(1, 30):
        k = 1 << e
        assert _ceil_2k_log2_k(k) == 2 * k * e


def test_ak_bound_thm():
    assert ak_bound_thm(1, 2) == 6
    assert ak_bound_thm(4, 2) == 12
    # bound respected by every known solution
    for k, sols in SMALL_K.items():
        for n, terms in sols:
            assert terms[-1] <= ak_bound_thm(n, k)


def test_ak_bound_cor_dominates():
    for k in range(2, 12):
        assert ak_bound_cor(k) == 2 * max_n(k) + _ceil_2k_log2_k(k)
        for n in range(1, max_n(k) + 1):
            assert ak_bound_thm(n, k) <= ak_bound_cor(k)


def _forced_prefix_len(n: int, k: int) -> int:
    """Largest j <= k-1 with n >= 2**(j+1) - j, or 0 when n < 3."""
    j = 0
    while j < k - 1 and n >= (1 << (j + 2)) - (j + 1):
        j += 1
    return j


def test_forced_prefix():
    # the paper's lemma: a_i = n+i is forced for all i <= j once
    # n >= 2**(j+1) - j. The search never uses it, so it checks the search.
    assert _forced_prefix_len(1, 3) == 0
    assert _forced_prefix_len(3, 3) == 1
    assert _forced_prefix_len(9, 4) == 2
    assert _forced_prefix_len(35, 8) == 4
    assert _forced_prefix_len(120, 6) == 5  # capped at k-1
    assert _forced_prefix_len(502, 8) == 7
    for k in range(2, 21):
        for sol in run_search(k).solutions:
            j = _forced_prefix_len(sol.n, k)
            assert sol.terms[:j] == tuple(range(sol.n + 1, sol.n + 1 + j))


def _corollary_bound_holds(sol: Solution) -> bool:
    """The paper's corollary a_k**(k-1) * 2**a_1 >= 2**a_k, decided by bit
    length without building 2**a_k."""
    ak = sol.terms[-1]
    return (ak ** (len(sol.terms) - 1)).bit_length() >= ak - sol.terms[0] + 1


def test_product_and_corollary_bounds_on_solutions():
    for sols in SMALL_K.values():
        for n, terms in sols:
            sol = Solution(n, terms)
            assert product_bound_holds(sol)
            assert _corollary_bound_holds(sol)


def test_product_bound_rejects_bad_divisibility():
    # a_k = 7 is odd, so 2**(a_k - a_{k-1}) = 4 cannot divide it
    assert not product_bound_holds(Solution(1, (5, 7)))


def test_product_bound_rejects_a_product_too_small():
    # 4 divides 96, but 2**(96 - 2) exceeds the product 96 * 96
    assert not product_bound_holds(Solution(1, (2, 94, 96)))


def test_bound_domain_errors():
    with pytest.raises(ValueError):
        max_n(1)
    with pytest.raises(ValueError):
        ak_bound_thm(0, 3)
    with pytest.raises(ValueError):
        ak_bound_thm(3, 1)


def test_corollary_bound_rejects_oversized_gap():
    # 64**1 * 2**5 < 2**64, so the last term is far too large
    assert not _corollary_bound_holds(Solution(1, (5, 64)))
