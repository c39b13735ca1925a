"""Intersection of congruence classes and multiplicity certificates.

The k-progressions of different table rows live on moduli that are far
from coprime, so combining them is general CRT: classes a mod m and
b mod n are compatible iff a == b (mod gcd(m, n)), and then intersect in
a single class mod lcm(m, n). A k lying in the intersection of several
rows' progressions admits one solution family per row, all with distinct
second-largest terms n+k+u, plus the trivial solution, giving a certified
lower bound on how many solutions that k has.

scan_subsets finds the compatible m-subsets of a row list by a depth-first
search that intersects one more row per level and never extends a prefix
whose intersection is already empty. Since intersecting more classes can
only shrink the set, no compatible subset lies below an empty prefix, so
the pruned search returns exactly what checking every subset would.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional, Sequence

from .arith import VerificationError
from .congruence import ProgressionRow, congruence_holds

__all__ = [
    "CongruenceClass",
    "certify_multiplicity",
    "crt_pair",
    "scan_subsets",
]


class _ClassFields(NamedTuple):
    residue: int
    modulus: int


class CongruenceClass(_ClassFields):
    """The residue class residue + modulus * Z, 0 <= residue < modulus.
    Build it with the constructor only: _replace and _make skip the
    checks."""

    __slots__ = ()

    def __new__(cls, residue: int, modulus: int) -> CongruenceClass:
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if not 0 <= residue < modulus:
            raise ValueError("residue must be reduced mod modulus")
        return super().__new__(cls, residue, modulus)

    def least_member_at_least(self, lo: int) -> int:
        """Smallest member of the class that is >= lo."""
        return self.residue - (self.residue - lo) // self.modulus * self.modulus


def crt_pair(a: CongruenceClass, b: CongruenceClass) -> Optional[CongruenceClass]:
    """Intersection of two classes, or None when they are incompatible.

    Non-coprime moduli are the normal case here: compatibility is agreement
    mod gcd, and the intersection lives mod lcm.
    """
    g = gcd(a.modulus, b.modulus)
    if (b.residue - a.residue) % g:
        return None
    l = a.modulus // g * b.modulus
    step = b.modulus // g
    t = (b.residue - a.residue) // g * pow(a.modulus // g, -1, step) % step
    return CongruenceClass((a.residue + a.modulus * t) % l, l)


def scan_subsets(
    rows: Sequence[ProgressionRow], m: int
) -> list[tuple[tuple[int, ...], CongruenceClass]]:
    """All m-subsets of rows whose progressions intersect, as
    (ascending u-tuple, combined class), in combinations order.

    Depth-first over row indices in ascending order: a node holds the
    intersection of the rows chosen so far and is extended by crt_pair with
    each later row, so every prefix is combined once for all the subsets
    that contain it. An empty prefix is not extended (exact: adding rows
    only shrinks an intersection). Children are visited in index order, so
    leaves appear in exactly the order itertools.combinations lists them.
    """
    if not 1 <= m <= len(rows):
        raise ValueError(f"subset size must be in 1..{len(rows)}")
    classes = [CongruenceClass(row.k0 % row.r, row.r) for row in rows]
    out = []

    def extend(start: int, us: tuple[int, ...], acc: CongruenceClass) -> None:
        if len(us) == m:
            out.append((us, acc))
            return
        # leave room for the m - len(us) - 1 rows still to come after i
        for i in range(start, len(rows) - (m - len(us)) + 1):
            nxt = crt_pair(acc, classes[i])
            if nxt is not None:
                extend(i + 1, us + (rows[i].u,), nxt)

    for i in range(len(rows) - m + 1):
        extend(i + 1, (rows[i].u,), classes[i])
    return out


def certify_multiplicity(
    k_class: CongruenceClass, rows: Sequence[ProgressionRow]
) -> int:
    """Certified count of distinct solutions for a k in k_class: one family
    per row plus the trivial solution.

    Checks, for the least class member k >= 2: the congruence identity of
    every row holds at k (modular exponentiation, cheap at any size), the
    family is nondegenerate (k >= u+3 makes the quotient in family_n
    positive), and the rows' u values are distinct (distinct u means
    distinct second-largest term n+k+u, so the families cannot collide;
    the trivial solution's terms are consecutive, which no family's are).
    Raises VerificationError on any failure; returns 1 + len(rows).
    """
    k = k_class.least_member_at_least(2)
    seen_u = set()
    for row in rows:
        if row.u in seen_u:
            raise VerificationError(f"duplicate row u={row.u}")
        seen_u.add(row.u)
        if k % row.r != row.k0 % row.r:
            raise VerificationError(
                f"k={k} is not in row u={row.u}'s progression"
            )
        if not congruence_holds(row.u, k):
            raise VerificationError(
                f"congruence fails for u={row.u} at k={k}"
            )
        if k < row.u + 3:
            raise VerificationError(
                f"k={k} too small for a nondegenerate u={row.u} family"
            )
    return 1 + len(rows)
