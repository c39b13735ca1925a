"""Solution families from the congruence 3*2**(k-1) + 3u + 1 == 0 (mod M).

For M = 2**(u+3) - 3, any k satisfying the congruence yields the solution

    n = 2**(k-1) - k + (3*2**(k-1) + 3u + 1) / M
    terms = (n+1, ..., n+k-2, n+k+u, n+k+u+1)

and the solving k form the arithmetic progression k0 + t*r, r the
multiplicative order of 2 mod M. Solving for k0 is a discrete logarithm:
2**(k-1) == (-3u - 1) / 3 (mod M).

Both are decided from factorizations. Pollard-Brent rho (Brent 1980)
splits composites; primality is trial division by the primes up to 41
and then strong probable-prime tests to the same 13 bases, which is a
proof below psi_13 = 3317044064679887385961981 (Sorenson-Webster 2017).
log2_mod computes both: the order is the Carmichael exponent lambda(M)
with primes stripped while 2**(v/q) == 1, so each prime q of r carries
the witness 2**(r/q) != 1 and r is never factored again. The logarithm
is Pohlig-Hellman (1978) over those primes, with baby-step/giant-step
in each prime-order subgroup, and a missing component is a proof that
u has no row.

Policy: moduli at or past psi_13 raise UnsupportedModulusError. That puts
every u <= 78 in range; the rows for u in {99, 113, 119} ship as constants
verified by the modular identities 3*2**(k0-1) + 3u + 1 == 0 and
2**r == 1 (mod M). table1 applies this policy to every u up to a bound.
"""

from __future__ import annotations

from itertools import count
from math import gcd, isqrt, prod
from typing import NamedTuple, Optional

from .arith import Solution, VerificationError

__all__ = [
    "EMBEDDED_US",
    "PROVEN_PRIME_LIMIT",
    "TABLE_ROWS",
    "ProgressionRow",
    "UnsupportedModulusError",
    "bsgs_dlog",
    "check_row",
    "congruence_holds",
    "factorize",
    "family_modulus",
    "family_n",
    "family_solution",
    "is_prime",
    "log2_mod",
    "solve_congruence",
    "table1",
    "table_row",
]

# psi_13: the least strong pseudoprime to all of the 13 prime bases 2..41
PROVEN_PRIME_LIMIT = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class UnsupportedModulusError(ValueError):
    """A number at or past PROVEN_PRIME_LIMIT, where primality is unproven."""


def family_modulus(u: int) -> int:
    """M = 2**(u+3) - 3 for u >= 0."""
    if u < 0:
        raise ValueError("u must be non-negative")
    return (1 << (u + 3)) - 3


def congruence_holds(u: int, k: int) -> bool:
    """Whether 3*2**(k-1) + 3u + 1 == 0 (mod 2**(u+3) - 3). Cheap for any
    size of k via modular exponentiation."""
    if k < 1:
        raise ValueError("k must be positive")
    m = family_modulus(u)
    return (3 * pow(2, k - 1, m) + 3 * u + 1) % m == 0


def family_n(u: int, k: int) -> Optional[int]:
    """n = 2**(k-1) - k + (3*2**(k-1) + 3u + 1)/M when that quotient is a
    positive integer, else None. Builds 2**(k-1), so keep k desk-scale;
    for astronomic k test membership with congruence_holds instead."""
    if k < 2:
        raise ValueError("k must be at least 2")
    m = family_modulus(u)
    num = 3 * (1 << (k - 1)) + 3 * u + 1
    q, rem = divmod(num, m)
    if rem or q < 1:
        return None
    n = (1 << (k - 1)) - k + q
    return n if n >= 1 else None


def family_solution(u: int, k: int) -> Optional[Solution]:
    """The k-term solution (n+1, ..., n+k-2, n+k+u, n+k+u+1), or None when
    the congruence does not hold at (u, k)."""
    n = family_n(u, k)
    if n is None:
        return None
    terms = tuple(range(n + 1, n + k - 1)) + (n + k + u, n + k + u + 1)
    return Solution(n, terms)


def is_prime(n: int) -> bool:
    """Proven primality of n < PROVEN_PRIME_LIMIT: trial division by the
    primes up to 41, which decides every n < 43**2, then strong
    probable-prime tests to those 13 bases, which no composite below
    psi_13 passes. Raises UnsupportedModulusError for larger n."""
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
    for a in _SMALL_PRIMES:
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
    """Prime factorization {p: e} of 1 <= n < PROVEN_PRIME_LIMIT, primes
    ascending, each proven prime by is_prime."""
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
    or e = None when there is none, for odd 3 <= m < PROVEN_PRIME_LIMIT.

    m and each p - 1 are factored once; lambda(m), the lcm of
    p**(k-1) * (p-1) over the prime powers p**k of m, is stripped of each
    prime q while 2**(r/q) == 1, which leaves r with its primes, so r
    itself is never factored. e is Pohlig-Hellman (1978) over those
    primes, digit by digit with bsgs_dlog in each subgroup of order q; a
    digit without a logarithm proves there is no e.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError("modulus must be an odd integer >= 3")
    if m >= PROVEN_PRIME_LIMIT:
        raise UnsupportedModulusError(f"modulus {m} >= psi_13")
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
    """Modular identity checks: the congruence holds at k0 and 2**r == 1.
    Raises VerificationError on failure. (Least-ness is established by
    log2_mod, not re-proved here: r is reduced from lambda(M) over proven
    primes, and k0 - 1 is the unique logarithm in [0, r).)"""
    m = family_modulus(row.u)
    if not 1 <= row.k0 <= row.r:
        raise VerificationError(f"u={row.u}: k0 must lie in [1, r]")
    if not congruence_holds(row.u, row.k0):
        raise VerificationError(f"u={row.u}: congruence fails at k0={row.k0}")
    if pow(2, row.r, m) != 1:
        raise VerificationError(f"u={row.u}: 2^r != 1 mod {m}")


def solve_congruence(u: int) -> Optional[ProgressionRow]:
    """The progression row for u, or None when -(3u+1)/3 is not a power of
    2 mod M; both outcomes are decided by log2_mod, not searched for.
    Raises UnsupportedModulusError for M >= PROVEN_PRIME_LIMIT (u >= 79)."""
    m = family_modulus(u)
    r, e = log2_mod((-3 * u - 1) * pow(3, -1, m), m)
    return None if e is None else ProgressionRow(u, e + 1, r)


# Progression table of the paper: every u <= 78 admitting a row (all are
# recomputed by solve_congruence), plus the three rows past the proven-
# prime policy, shipped as constants verified by check_row.
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


def table_row(u: int) -> Optional[ProgressionRow]:
    for row in TABLE_ROWS:
        if row.u == u:
            return row
    return None


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
    embedded = [u for u in sorted(EMBEDDED_US) if u <= u_max]
    rows += [(table_row(u), "verified-constant") for u in embedded]
    for row, _ in rows:
        check_row(row)
    count = u_max - _COMPUTED_U_MAX - len(embedded)
    if count <= 0:
        return rows, None
    last = u_max
    while last in EMBEDDED_US:
        last -= 1
    return rows, (count, _COMPUTED_U_MAX + 1, last)
