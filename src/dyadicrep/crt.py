"""Intersection of congruence classes and multiplicity certificates.

The k-progressions of different table rows live on moduli that are far
from coprime, so combining them is general CRT: classes a mod m and
b mod n are compatible iff a == b (mod gcd(m, n)), and then intersect in
a single class mod lcm(m, n). A k lying in the intersection of several
rows' progressions admits one solution family per row, all with distinct
second-largest terms n+k+u, plus the trivial solution, giving a certified
lower bound on how many solutions that k has.

certify_multiplicity proves those bounds for a whole scan: each row the
classes use is checked once by its modular identities (the congruence at
k0 and 2**r == 1), and each class is then shown inside every one of its
rows' progressions by remainders alone, so no power of 2 is raised to a
class member.

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
from .congruence import ProgressionRow, check_row

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
    found: Sequence[tuple[tuple[int, ...], CongruenceClass]],
    rows: Sequence[ProgressionRow],
) -> list[int]:
    """Certified solution counts for the (us, k_class) pairs of a subset
    scan over rows, in order: for every k >= 2 in k_class, one family per
    row named in us plus the trivial solution, so 1 + len(us).

    Each row that some class names is checked once by check_row: 1 <= k0
    <= r, the congruence holds at k0, and 2**r == 1 (mod M). Each class
    then takes integer checks only: its u are distinct (distinct u means
    distinct second-largest term n+k+u, so the families cannot collide;
    the trivial solution's terms are consecutive, which no family's are);
    every row's r divides the class modulus and its least member k >= 2
    has k == k0 (mod r), so the whole class from k on lies in the row's
    progression, where 2**(k-1) == 2**(k0-1) (mod M) carries the
    congruence over from k0; and k >= u+3, which makes the quotient in
    family_n positive. Raises VerificationError on any failure.
    """
    by_u = {row.u: row for row in rows}
    checked = set()
    certs = []
    for us, k_class in found:
        if len(set(us)) != len(us):
            raise VerificationError(f"duplicate row in {us}")
        k = k_class.least_member_at_least(2)
        for u in us:
            row = by_u.get(u)
            if row is None:
                raise VerificationError(f"no row u={u} among the rows scanned")
            if u not in checked:
                check_row(row)
                checked.add(u)
            if k_class.modulus % row.r or (k - row.k0) % row.r:
                raise VerificationError(
                    f"class {k_class.residue} mod {k_class.modulus} is not "
                    f"inside row u={u}'s progression"
                )
            if k < u + 3:
                raise VerificationError(
                    f"k={k} too small for a nondegenerate u={u} family"
                )
        certs.append(1 + len(us))
    return certs
