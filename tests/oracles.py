"""Test-side references for constructions the library does not ship.

u_modulus and u_congruence_holds state Table 1's condition in the paper's
own form, 3*2**(k-1) + 3u + 1 == 0 (mod 2**(u+3) - 3), independent of the
library's tail form; one pow keeps the test cheap at any size of k.
table_row looks a row up by u in the library's TABLE_ROWS. fold_rows
intersects the progressions of table rows one row at a time, the
plain reference that crt.scan_subsets must reproduce. tail_sum and
HALF_PREFIXES give a number 1/2 + tail three distinct representations.
"""

from fractions import Fraction

from dyadicrep.congruence import TABLE_ROWS
from dyadicrep.crt import CongruenceClass, crt_pair


def u_modulus(u):
    """M = 2**(u+3) - 3, the modulus of Table 1's row u."""
    return (1 << (u + 3)) - 3


def u_congruence_holds(u, k):
    """Whether 3*2**(k-1) + 3u + 1 == 0 (mod 2**(u+3) - 3)."""
    m = u_modulus(u)
    return (3 * pow(2, k - 1, m) + 3 * u + 1) % m == 0


def table_row(u):
    """The row of TABLE_ROWS for u, or None."""
    return next((row for row in TABLE_ROWS if row.u == u), None)


def fold_rows(rows):
    """Intersection of the classes k0 mod r of one or more rows, or None."""
    acc = None
    for row in rows:
        cls = CongruenceClass(row.k0 % row.r, row.r)
        acc = cls if acc is None else crt_pair(acc, cls)
        if acc is None:
            return None
    return acc


def tail_sum(p, q):
    """Exact value of sum_{i>=1} (p*i + q)/2**(p*i + q):
    ((q+p)*2**p - q) / (2**q * (2**p - 1)**2)."""
    tp = 1 << p
    return Fraction((q + p) * tp - q, (1 << q) * (tp - 1) ** 2)


# The three prefixes over which 1/2 splits into 3, 7 and 3 terms; each is a
# complete list, so a progression p*i + q, i >= 1, starting above 14 extends
# all three into representations of 1/2 + tail_sum(p, q).
HALF_PREFIXES = ((3, 6, 8), (4, 5, 6), (4, 5, 7, 8, 11, 13, 14))


def tailed_terms(prefix, p, q, count):
    """The prefix plus the first `count` progression terms."""
    return prefix + tuple(p * i + q for i in range(1, count + 1))
