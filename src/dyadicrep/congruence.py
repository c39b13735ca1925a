"""Solution families from tails after a run, and Table 1 among them.

Every solution is a run n+1..n+j (j >= 0) then a tail n+j+d_1 < ... <
n+j+d_r with d_1 >= 2. Scaled by 2**(n+j+d_r) it reads n*M = 2**(s+j) -
2**s + T - j*M, with s = d_r + 1, M = 2**d_r - sum(2**(d_r - d_l)) odd
and T = sum(d_l * 2**(d_r - d_l)). So n is an integer (and then positive)
exactly when 2**(s+j) == 2**s - T (mod M): the solving j form a
progression j0 + t*r, r the multiplicative order of 2 mod M, and j0 is a
discrete logarithm. Table 1 is the tail d = (u+2, u+3), k = j + 2, where
M = 2**(u+3) - 3, T = 3u + 7 and the condition is the paper's
3*2**(k-1) + 3u + 1 == 0 (mod M).

Both are decided from factorizations. Pollard-Brent rho (Brent 1980)
splits composites; primality is trial division by the primes up to 41
and then strong probable-prime tests to the same bases in turn, which is
a proof once n lies below psi_t, the least strong pseudoprime to the
first t of them (Jaeschke 1993; psi_13 = 3317044064679887385961981,
Sorenson-Webster 2017), so the test stops at the first such t.
log2_mod computes both: the order is the Carmichael exponent lambda(M)
with primes stripped while 2**(v/q) == 1, so each prime q of r carries
the witness 2**(r/q) != 1 and r is never factored again. The logarithm
is Pohlig-Hellman (1978) over those primes, with baby-step/giant-step
in each prime-order subgroup, and a missing component is a proof that
u has no row.

Policy: only is_prime raises UnsupportedModulusError, at psi_13. Every
u <= 78 is decided (table1 stops there), and u = 80, 82 and 85 too (no
rows); the rows for u in {99, 113, 119} ship as constants for check_row.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt, prod
from typing import NamedTuple, Optional

from .arith import Solution, VerificationError, scaled_sum

__all__ = [
    "EMBEDDED_US",
    "PROVEN_PRIME_LIMIT",
    "TABLE_ROWS",
    "ProgressionRow",
    "UnsupportedModulusError",
    "bsgs_dlog",
    "check_row",
    "factorize",
    "is_prime",
    "log2_mod",
    "solve_congruence",
    "table1",
    "tail_solution",
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_t, t = 1..13: the least strong pseudoprime to the first t prime bases
# (OEIS A014233; Jaeschke 1993, Sorenson-Webster 2017)
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051,
    3825123056546413051, 3825123056546413051, 318665857834031151167461,
    3317044064679887385961981,
)

PROVEN_PRIME_LIMIT = _PSI[-1]


class UnsupportedModulusError(ValueError):
    """A number at or past PROVEN_PRIME_LIMIT, where primality is unproven."""


def _tail(d: tuple[int, ...]) -> tuple[int, int, int]:
    """(M, T, s) of the tail offsets 2 <= d_1 < ... < d_r: M = 2**d_r -
    sum(2**(d_r - d_l)), T = sum(d_l * 2**(d_r - d_l)) and s = d_r + 1."""
    if not d:
        raise ValueError("a tail needs at least one offset")
    last, m, prev = d[-1], 1 << d[-1], 1
    for a in d:
        if a <= prev:
            raise ValueError("tail offsets must increase from at least 2")
        m -= 1 << (last - a)
        prev = a
    return m, scaled_sum(d), last + 1


def tail_solution(d: tuple[int, ...], j: int) -> Optional[Solution]:
    """The solution (n+1, ..., n+j, n+j+d_1, ..., n+j+d_r), or None when
    n = (2**(s+j) - 2**s + T - j*M)/M is not an integer. Builds 2**(s+j),
    so keep j desk-scale."""
    if j < 0:
        raise ValueError("j must be non-negative")
    m, t, s = _tail(d)
    n, rem = divmod((1 << (s + j)) - (1 << s) + t - j * m, m)
    if rem:
        return None
    return Solution(n, tuple(range(n + 1, n + j + 1)) + tuple(n + j + a for a in d))


def is_prime(n: int) -> bool:
    """Proven primality of n < PROVEN_PRIME_LIMIT: trial division by the
    primes up to 41, which decides every n < 43**2, then strong
    probable-prime tests to those bases in turn, stopping as prime after
    the t-th once n < psi_t: no composite below psi_t passes the first t.
    Raises UnsupportedModulusError for larger n."""
    if n >= PROVEN_PRIME_LIMIT:
        raise UnsupportedModulusError(f"{n} >= psi_13: primality unproven")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:  # no prime factor up to 41 and below 43**2: prime
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    # the least t with n < psi_t: passing the first t bases proves n prime
    t = next(t for t, psi in enumerate(_PSI, 1) if n < psi)
    for a in _SMALL_PRIMES[:t]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int) -> int:
    """A proper divisor of the odd composite n with no prime factor up to
    41: Brent's cycle-finding variant of Pollard rho on y -> y*y + c, with
    gcds batched over 128 steps. Deterministic: c runs 1, 2, ... until a
    walk splits n."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r <<= 1
        if g == n:  # the batch overshot: redo its steps one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, primes ascending, each proven
    prime by trial division or by is_prime, which raises past its limit."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_split(m)
            todo += (d, m // d)
    return dict(sorted(out.items()))


def bsgs_dlog(
    target: int, modulus: int, order: int, *, base: int = 2
) -> Optional[int]:
    """Least e in [0, order) with base**e == target (mod modulus), or None.

    Baby-step/giant-step over the cyclic group generated by base: baby
    table of base**j for j < ceil(sqrt(order)) keeping the smallest j per
    value, then giant strides by base**-m. Scanning stride indices upward
    and keeping minimal j makes the first hit the least exponent.
    """
    if order < 1:
        raise ValueError("order must be positive")
    target %= modulus
    m = isqrt(order - 1) + 1
    baby: dict[int, int] = {}
    x = 1
    for j in range(m):
        if x not in baby:
            baby[x] = j
        x = x * base % modulus
    stride = pow(x, -1, modulus)  # x == base**m mod modulus after the loop
    y = target
    for i in range((order + m - 1) // m):
        j = baby.get(y)
        if j is not None:
            return i * m + j
        y = y * stride % modulus
    return None


def log2_mod(c: int, m: int) -> tuple[int, Optional[int]]:
    """(r, e): r = ord_m(2) and the least e >= 0 with 2**e == c (mod m),
    or e = None when there is none, for odd m >= 3 whose primes is_prime proves.

    m and each p - 1 are factored once; lambda(m), the lcm of
    p**(k-1) * (p-1) over the prime powers p**k of m, is stripped of each
    prime q while 2**(r/q) == 1, which leaves r with its primes, so r
    itself is never factored. e is Pohlig-Hellman (1978) over those
    primes, digit by digit with bsgs_dlog in each subgroup of order q; a
    digit without a logarithm proves there is no e.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError("modulus must be an odd integer >= 3")
    lam: dict[int, int] = {}
    for p, k in factorize(m).items():
        part = factorize(p - 1)
        if k > 1:
            part[p] = k - 1
        for q, f in part.items():
            lam[q] = max(lam.get(q, 0), f)
    r = prod(q**f for q, f in lam.items())
    for q in lam:
        while lam[q] and pow(2, r // q, m) == 1:
            r //= q
            lam[q] -= 1
    c %= m
    if pow(c, r, m) != 1:  # c lies outside the group generated by 2
        return r, None
    e, done = 0, 1
    for q, f in lam.items():
        if not f:
            continue
        qf = q**f
        g = pow(2, r // qf, m)  # order q**f
        h = pow(c, r // qf, m)
        gamma = pow(g, qf // q, m)  # order q
        g_inv = pow(g, -1, m)
        x = 0
        for i in range(f):
            t = pow(h * pow(g_inv, x, m), qf // q ** (i + 1), m)
            if t != 1:
                d = bsgs_dlog(t, m, q, base=gamma)
                if d is None:
                    return r, None
                x += d * q**i
        e += done * ((x - e) * pow(done, -1, qf) % qf)
        done *= qf
    if pow(2, e, m) != c:
        raise VerificationError(f"Pohlig-Hellman gave 2^{e} != {c} mod {m}")
    return r, e


class ProgressionRow(NamedTuple):
    """One table row: every k with k == k0 (mod r) solves the congruence
    for this u, and r is the multiplicative order of 2 mod 2**(u+3)-3."""

    u: int
    k0: int
    r: int


def check_row(row: ProgressionRow) -> None:
    """Modular identity checks on the tail d = (u+2, u+3): the congruence
    holds at k0, as 2**(s+k0-2) == 2**s - T, and 2**r == 1 (mod M).
    Raises VerificationError on failure. (Least-ness is established by
    log2_mod, not re-proved here: r is reduced from lambda(M) over proven
    primes, and k0 - 1 is the unique logarithm in [0, r).)"""
    m, t, s = _tail((row.u + 2, row.u + 3))
    if not 1 <= row.k0 <= row.r:
        raise VerificationError(f"u={row.u}: k0 must lie in [1, r]")
    if pow(2, s + row.k0 - 2, m) != ((1 << s) - t) % m:
        raise VerificationError(f"u={row.u}: congruence fails at k0={row.k0}")
    if pow(2, row.r, m) != 1:
        raise VerificationError(f"u={row.u}: 2^r != 1 mod {m}")


def solve_congruence(u: int) -> Optional[ProgressionRow]:
    """The progression row for u, or None when the tail constant 2**s - T
    of d = (u+2, u+3), whose logarithm is s + k0 - 2 mod r, is no power of
    2 mod M; log2_mod decides both outcomes. Raises UnsupportedModulusError
    where is_prime cannot prove M's primes (u = 79, 81; past 78, u <= 399
    decides only u = 80, 82 and 85)."""
    m, t, s = _tail((u + 2, u + 3))
    r, e = log2_mod((1 << s) - t, m)
    return None if e is None else ProgressionRow(u, (e - s + 1) % r + 1, r)


# Progression table of the paper: every u <= 78 admitting a row (all are
# recomputed by solve_congruence), plus the three rows past u = 78 that
# table1 does not compute, shipped as constants verified by check_row.
TABLE_ROWS: tuple[ProgressionRow, ...] = (
    ProgressionRow(0, 4, 4),
    ProgressionRow(1, 5, 12),
    ProgressionRow(2, 22, 28),
    ProgressionRow(3, 48, 60),
    ProgressionRow(4, 83, 100),
    ProgressionRow(6, 221, 508),
    ProgressionRow(9, 242, 4092),
    ProgressionRow(11, 5531, 16380),
    ProgressionRow(17, 66328, 1048572),
    ProgressionRow(21, 2796185, 5592404),
    ProgressionRow(22, 775376, 1116130),
    ProgressionRow(26, 96489490, 536870908),
    ProgressionRow(55, 5843993308712118, 26202761468337430),
    ProgressionRow(99, 364550281031913286431277811782,
                   2535300206192230667655098198606),
    ProgressionRow(113, 2452672773763126728478631379525174,
                   83076749736557242056487941267521532),
    ProgressionRow(119, 3303995011423016739508338720636484139,
                   5316911983139663491615228241121378300),
)


# the last u whose modulus 2**(u+3) - 3 lies below PROVEN_PRIME_LIMIT (78)
_COMPUTED_U_MAX = (PROVEN_PRIME_LIMIT + 2).bit_length() - 4

EMBEDDED_US = frozenset(row.u for row in TABLE_ROWS if row.u > _COMPUTED_U_MAX)


def table1(
    u_max: int,
) -> tuple[list[tuple[ProgressionRow, str]], Optional[tuple[int, int, int]]]:
    """Table 1 up to u_max: the rows, each passed by check_row, with their
    status, and (count, least, greatest) of the skipped u, or None.

    Every u <= 78 is decided by solve_congruence ("computed"); past that,
    only the embedded rows appear ("verified-constant"), and every other
    u is skipped, not claimed unsolvable.
    """
    if u_max < 0:
        raise ValueError("u_max must be non-negative")
    rows = [
        (row, "computed")
        for row in map(solve_congruence, range(min(u_max, _COMPUTED_U_MAX) + 1))
        if row is not None
    ]
    embedded = [row for row in TABLE_ROWS if _COMPUTED_U_MAX < row.u <= u_max]
    rows += [(row, "verified-constant") for row in embedded]
    for row, _ in rows:
        check_row(row)
    count = u_max - _COMPUTED_U_MAX - len(embedded)
    if count <= 0:
        return rows, None
    last = u_max
    while last in EMBEDDED_US:
        last -= 1
    return rows, (count, _COMPUTED_U_MAX + 1, last)
