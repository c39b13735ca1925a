import random
from collections import Counter
from math import prod

import pytest

from dyadicrep.arith import VerificationError, verify_solution
from dyadicrep.congruence import (
    EMBEDDED_US,
    PROVEN_PRIME_LIMIT,
    TABLE_ROWS,
    ProgressionRow,
    UnsupportedModulusError,
    bsgs_dlog,
    check_row,
    congruence_holds,
    factorize,
    family_modulus,
    family_n,
    family_solution,
    is_prime,
    log2_mod,
    solve_congruence,
    table1,
    table_row,
)
from known_solutions import COMPUTED_ROWS


def test_family_modulus():
    assert family_modulus(0) == 5
    assert family_modulus(1) == 13
    assert family_modulus(2) == 29
    assert family_modulus(55) == (1 << 58) - 3
    with pytest.raises(ValueError):
        family_modulus(-1)


def test_congruence_holds_examples():
    assert congruence_holds(0, 4)
    assert congruence_holds(0, 8)
    assert not congruence_holds(0, 5)
    assert congruence_holds(1, 5)
    with pytest.raises(ValueError):
        congruence_holds(0, 0)


def test_family_reproduces_known_solutions():
    # the u=0 and u=1 families land exactly on enumerated solutions
    sol = family_solution(0, 4)
    assert (sol.n, sol.terms) == (9, (10, 11, 13, 14))
    sol = family_solution(1, 5)
    assert (sol.n, sol.terms) == (15, (16, 17, 18, 21, 22))
    sol = family_solution(0, 8)
    assert (sol.n, sol.terms) == (197, (198, 199, 200, 201, 202, 203, 205, 206))
    assert family_solution(0, 5) is None
    assert family_n(0, 5) is None
    with pytest.raises(ValueError):
        family_n(0, 1)


def test_families_verify_along_progressions():
    # every desk-scale family instance satisfies the exact identity
    for u, (k0, r) in COMPUTED_ROWS.items():
        if u > 9:
            continue
        for t in range(3):
            k = k0 + t * r
            sol = family_solution(u, k)
            assert sol is not None
            assert sol.k == k
            assert sol.terms[-2:] == (sol.n + k + u, sol.n + k + u + 1)
            assert verify_solution(sol)
    # one larger instance: u=11 at its least k
    sol = family_solution(11, 5531)
    assert sol is not None and verify_solution(sol)


def test_progression_membership_all_rows():
    for row in TABLE_ROWS:
        assert congruence_holds(row.u, row.k0)
        assert congruence_holds(row.u, row.k0 + row.r)
        assert congruence_holds(row.u, row.k0 + 2 * row.r)
        assert not congruence_holds(row.u, row.k0 + 1)


def test_check_row_accepts_the_full_table():
    for row in TABLE_ROWS:
        check_row(row)  # raises on failure


@pytest.mark.parametrize(
    "bad",
    [
        ProgressionRow(0, 5, 4),  # congruence fails at k0
        ProgressionRow(0, 4, 5),  # 2^r != 1
        ProgressionRow(0, 9, 4),  # k0 outside [1, r]
    ],
)
def test_check_row_rejects_corrupt_rows(bad):
    with pytest.raises(VerificationError):
        check_row(bad)


def test_embedded_rows_are_the_out_of_policy_ones():
    assert EMBEDDED_US == {99, 113, 119}
    for row in TABLE_ROWS:
        if row.u in EMBEDDED_US:
            assert family_modulus(row.u) >= PROVEN_PRIME_LIMIT
        else:
            assert family_modulus(row.u) < PROVEN_PRIME_LIMIT
    # u=78 is the last modulus inside the policy
    assert family_modulus(78) < PROVEN_PRIME_LIMIT <= family_modulus(79)


@pytest.mark.parametrize(
    "u_max, skipped",
    [
        (0, None),
        (78, None),
        (79, (1, 79, 79)),
        (99, (20, 79, 98)),
        (100, (21, 79, 100)),
        (119, (38, 79, 118)),
        (10**12, (10**12 - 81, 79, 10**12)),
    ],
)
def test_table1_rows_and_skipped_range(u_max, skipped):
    rows, got = table1(u_max)
    assert got == skipped
    assert [row for row, _ in rows] == [row for row in TABLE_ROWS if row.u <= u_max]
    for row, status in rows:
        assert status == ("computed" if row.u <= 78 else "verified-constant")


def test_table_row_lookup():
    assert table_row(0) == ProgressionRow(0, 4, 4)
    assert table_row(5) is None
    assert table_row(99).r == 2535300206192230667655098198606
    assert len(TABLE_ROWS) == 16


def test_recompute_table_rows_within_policy():
    # every computed row, and the published u=55 constant, from scratch
    for u, (k0, r) in COMPUTED_ROWS.items():
        assert solve_congruence(u) == ProgressionRow(u, k0, r)
    assert solve_congruence(55) == table_row(55)


def test_no_other_u_below_23_has_a_row():
    have = set(COMPUTED_ROWS)
    for u in range(23):
        if u not in have:
            assert solve_congruence(u) is None


def test_solve_congruence_out_of_policy():
    with pytest.raises(UnsupportedModulusError):
        solve_congruence(79)


def test_inconsistent_logarithm_is_an_error(monkeypatch):
    # a Pohlig-Hellman result that fails the final check must not be
    # mistaken for "no row"
    monkeypatch.setattr(
        "dyadicrep.congruence.bsgs_dlog", lambda t, m, order, base=2: 0
    )
    with pytest.raises(VerificationError):
        solve_congruence(2)


def test_solve_congruence_never_factors_the_order(monkeypatch):
    # M and each p - 1 are factored, once each; r's primes come from
    # lambda(M)'s factorization, so r itself is never passed to factorize
    real = factorize
    seen = []

    def recording(n):
        seen.append(n)
        return real(n)

    monkeypatch.setattr("dyadicrep.congruence.factorize", recording)
    for u in range(26):
        m = family_modulus(u)
        want = Counter([m] + [p - 1 for p in real(m)])
        seen.clear()
        solve_congruence(u)
        assert Counter(seen) == want, u


# --- multiplicative order and base-2 logarithm ----------------------------

def _order(m: int) -> int:
    return log2_mod(1, m)[0]


def _order_by_pow(m: int) -> int:
    v = 1
    while pow(2, v, m) != 1:
        v += 1
    return v


def _sympy_moduli() -> list[int]:
    rng = random.Random(20201)
    return [family_modulus(u) for u in range(79)] + [
        rng.randrange(3, 1 << 64, 2) for _ in range(40)
    ]


def test_mult_order_against_pow_scan():
    for m in range(3, 1002, 2):
        assert _order(m) == _order_by_pow(m)


def test_mult_order_domain():
    with pytest.raises(ValueError):
        log2_mod(1, 10)
    with pytest.raises(ValueError):
        log2_mod(1, 1)
    with pytest.raises(UnsupportedModulusError):
        log2_mod(1, (1 << 82) - 3)
    # the embedded u=99 order is not halved: 2**(r/2) != 1 (mod M)
    u99 = table_row(99)
    assert pow(2, u99.r // 2, family_modulus(99)) != 1


def test_mult_order_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _sympy_moduli():
        assert _order(m) == sympy.n_order(2, m)


def test_log2_mod_against_brute_force():
    # every odd m up to 201, prime powers (9, 25, ..., 169) and
    # composites (15, 45, 105, ...) included, and every residue c
    for m in range(3, 202, 2):
        r = _order_by_pow(m)
        least = {}
        for e in range(r):
            least.setdefault(pow(2, e, m), e)
        for c in range(m):
            assert log2_mod(c, m) == (r, least.get(c)), (c, m)


def test_log2_of_one_runs_no_bsgs(monkeypatch):
    # every Pohlig-Hellman digit of 1 is already 1, so no baby-step/
    # giant-step runs, even where r has a large prime factor
    def refuse(*args, **kwargs):
        raise AssertionError("bsgs_dlog called for a trivial component")

    monkeypatch.setattr("dyadicrep.congruence.bsgs_dlog", refuse)
    for m in _sympy_moduli():
        r, e = log2_mod(1, m)
        assert e == 0 and pow(2, r, m) == 1


# --- primality and factoring ----------------------------------------------

@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # strong pseudoprime to the bases 2..23
        318665857834031151167461,  # psi_12: strong pseudoprime to 2..37
        43 * 43,
        ((1 << 61) - 1) * ((1 << 19) - 1),
    ],
)
def test_is_prime_rejects_composites(n):
    assert not is_prime(n)


def test_is_prime_against_trial_division():
    # past 47**2 = 2209, so a trial-division cut-off above 43**2 fails here
    primes = [n for n in range(2300) if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(2300) if is_prime(n)] == primes
    for p in ((1 << 61) - 1, (1 << 31) - 1, 26202761468337431):
        assert is_prime(p)
    with pytest.raises(UnsupportedModulusError):
        is_prime(PROVEN_PRIME_LIMIT)


def test_factorize_round_trip():
    rng = random.Random(7)
    cases = [1, 2, 97 * 97, 1000003**3, 4294967311**2, 2**10 * 3**4]
    cases += [family_modulus(67), family_modulus(72)]
    cases += [rng.randrange(1, 1 << 64) for _ in range(20)]
    for n in cases:
        got = factorize(n)
        assert list(got) == sorted(got)
        assert all(is_prime(p) and e >= 1 for p, e in got.items())
        assert prod(p**e for p, e in got.items()) == n
    with pytest.raises(ValueError):
        factorize(0)


# --- discrete logarithm ---------------------------------------------------

@pytest.mark.parametrize("m", [7, 9, 11, 13, 29, 31, 101, 8191])
def test_bsgs_matches_exhaustive_scan(m):
    order = _order(m)
    for e in range(order):
        assert bsgs_dlog(pow(2, e, m), m, order) == e


@pytest.mark.parametrize("m, base", [(101, 3), (101, 5), (8191, 3), (91, 10)])
def test_bsgs_other_base_matches_exhaustive_scan(m, base):
    order = next(v for v in range(1, m) if pow(base, v, m) == 1)
    powers = {}
    for e in range(order):
        powers.setdefault(pow(base, e, m), e)
    for target in range(m):
        assert bsgs_dlog(target, m, order, base=base) == powers.get(target)


def test_bsgs_misses():
    # 2 has order 5 mod 31: targets off the power orbit return None
    assert bsgs_dlog(3, 31, 5) is None
    assert bsgs_dlog(0, 11, 10) is None
    with pytest.raises(ValueError):
        bsgs_dlog(1, 11, 0)
