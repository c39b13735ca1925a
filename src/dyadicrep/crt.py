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

scan_subsets finds the compatible m-subsets of a row list as the m-cliques
of the rows' pairwise-compatibility graph. By the generalized CRT, finitely
many classes have a common member iff every two of them do (Ore 1952), so
the cliques are exactly the compatible subsets, and crt_pair is called only
on a prefix and a row compatible with all of it, where it cannot fail.
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

    later[i] is the bitmask of the rows j > i whose classes agree with
    row i's mod gcd(r_i, r_j). The m-cliques of that graph are enumerated
    depth-first over ascending row indices: a node holds the intersection
    of the rows chosen so far and the mask of later rows compatible with
    all of them, and a node with fewer candidates than rows still needed
    is not entered. Children are visited in index order, so leaves appear
    in exactly the order itertools.combinations lists them. Every
    pairwise-compatible set of classes intersects, so a crt_pair that
    finds no intersection is a VerificationError.
    """
    if not 1 <= m <= len(rows):
        raise ValueError(f"subset size must be in 1..{len(rows)}")
    classes = [CongruenceClass(row.k0 % row.r, row.r) for row in rows]
    if m == 1:
        return [((row.u,), c) for row, c in zip(rows, classes)]
    later = [0] * len(rows)
    for i, a in enumerate(classes):
        for j in range(i + 1, len(rows)):
            b = classes[j]
            if (b.residue - a.residue) % gcd(a.modulus, b.modulus) == 0:
                later[i] |= 1 << j
    out = []

    def extend(us: tuple[int, ...], acc: CongruenceClass, cand: int) -> None:
        need = m - len(us)
        if not need:
            out.append((us, acc))
            return
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            nxt = crt_pair(acc, classes[i])
            if nxt is None:
                raise VerificationError(
                    f"rows {us + (rows[i].u,)} agree pairwise but have no "
                    "common class"
                )
            extend(us + (rows[i].u,), nxt, cand & later[i])

    for i, row in enumerate(rows):
        extend((row.u,), classes[i], later[i])
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
    every row's r divides the class modulus and the class residue is
    == k0 (mod r), so every member agrees with k0 mod r and each k >= 2
    of the class lies in the row's progression, where 2**(k-1) ==
    2**(k0-1) (mod M) carries the congruence over from k0. No k >= 2
    needs a further bound: the family at k is the tail d = (u+2, u+3)
    after a run of j = k-2 terms, any tail has M < 2**d_r, so 2**s > 2M,
    and n = (2**s * (2**j - 1) + T - j*M)/M is then positive for every
    j >= 1 (2**j - 1 >= j), and T/M > 0 at j = 0. Raises
    VerificationError on any failure.
    """
    by_u = {row.u: row for row in rows}
    checked = set()
    certs = []
    for us, k_class in found:
        if len(set(us)) != len(us):
            raise VerificationError(f"duplicate row in {us}")
        for u in us:
            row = by_u.get(u)
            if row is None:
                raise VerificationError(f"no row u={u} among the rows scanned")
            if u not in checked:
                check_row(row)
                checked.add(u)
            if k_class.modulus % row.r or (k_class.residue - row.k0) % row.r:
                raise VerificationError(
                    f"class {k_class.residue} mod {k_class.modulus} is not "
                    f"inside row u={u}'s progression"
                )
        certs.append(1 + len(us))
    return certs
