import json
import random
from itertools import combinations
from math import comb, gcd, lcm

import pytest

import dyadicrep.crt as crt_module
from dyadicrep.congruence import (
    TABLE_ROWS,
    ProgressionRow,
    check_row,
)
from dyadicrep.arith import VerificationError
from dyadicrep.cli import main
from dyadicrep.crt import (
    CongruenceClass,
    certify_multiplicity,
    crt_pair,
    scan_subsets,
)
from known_solutions import (
    COMBINED_MODULUS,
    COMBINED_RESIDUE,
    COMPATIBLE_4SUBSETS,
)
from oracles import fold_rows, table_row, u_congruence_holds


def test_class_validation():
    with pytest.raises(ValueError):
        CongruenceClass(0, 0)
    with pytest.raises(ValueError):
        CongruenceClass(5, 5)
    with pytest.raises(ValueError):
        CongruenceClass(-1, 5)


def test_least_member_at_least():
    c = CongruenceClass(3, 10)
    assert c.least_member_at_least(0) == 3
    assert c.least_member_at_least(3) == 3
    assert c.least_member_at_least(4) == 13
    assert c.least_member_at_least(24) == 33
    assert CongruenceClass(0, 4).least_member_at_least(2) == 4
    # lo below the residue: the least member may be negative
    assert c.least_member_at_least(-10) == -7
    for cls in (c, CongruenceClass(0, 4), CongruenceClass(6, 7), CongruenceClass(0, 1)):
        for lo in range(-30, 30):
            members = range(lo, lo + cls.modulus)
            want = next(x for x in members if x % cls.modulus == cls.residue)
            assert cls.least_member_at_least(lo) == want


def test_crt_pair_examples():
    a = CongruenceClass(3, 10)
    b = CongruenceClass(5, 14)
    got = crt_pair(a, b)
    assert got == CongruenceClass(33, 70)
    assert crt_pair(CongruenceClass(0, 2), CongruenceClass(1, 4)) is None
    assert crt_pair(a, a) == a


def test_crt_pair_against_scan():
    # exhaustive cross-check on every class pair with small moduli
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            l = lcm(m1, m2)
            for r1 in range(m1):
                for r2 in range(m2):
                    want = [x for x in range(l) if x % m1 == r1 and x % m2 == r2]
                    got = crt_pair(
                        CongruenceClass(r1, m1), CongruenceClass(r2, m2)
                    )
                    if want:
                        assert got == CongruenceClass(want[0], l)
                    else:
                        assert got is None


def test_combined_class_golden():
    rows = [table_row(u) for u in (2, 9, 55, 99)]
    got = fold_rows(rows)
    assert got == CongruenceClass(COMBINED_RESIDUE, COMBINED_MODULUS)
    assert COMBINED_MODULUS == lcm(*(r.r for r in rows))
    for row in rows:
        assert COMBINED_RESIDUE % row.r == row.k0 % row.r
        assert u_congruence_holds(row.u, COMBINED_RESIDUE)


def test_four_subset_scan_matches_golden():
    found = scan_subsets(TABLE_ROWS, 4)
    assert [us for us, _ in found] == COMPATIBLE_4SUBSETS
    for us, cls in found:
        assert us == tuple(sorted(us))
        for u in us:
            row = table_row(u)
            assert cls.residue % row.r == row.k0 % row.r
        assert cls.modulus == lcm(*(table_row(u).r for u in us))


def test_no_five_subset_is_compatible():
    assert scan_subsets(TABLE_ROWS, 5) == []


def brute_force_scan(rows, m):
    """Reference scan: combine every m-subset from scratch."""
    out = []
    for subset in combinations(rows, m):
        combined = fold_rows(subset)
        if combined is not None:
            out.append((tuple(r.u for r in subset), combined))
    return out


def test_scan_subsets_matches_brute_force_on_table_rows():
    for m in range(1, len(TABLE_ROWS) + 1):
        assert scan_subsets(TABLE_ROWS, m) == brute_force_scan(TABLE_ROWS, m)


def test_scan_subsets_matches_brute_force_on_synthetic_rows():
    # small moduli dividing 24, most rows holding one hidden k: compatible
    # subsets reach depth 10 and more, while the stray rows make empty
    # prefixes that the search must prune
    rng = random.Random(20240917)
    deepest, pruned = 0, 0
    for _ in range(30):
        hidden = rng.randrange(24)
        rows = []
        for u in range(rng.randint(1, 12)):
            r = rng.choice((1, 2, 3, 4, 6, 8, 12, 24))
            res = hidden % r if rng.random() < 0.75 else rng.randrange(r)
            rows.append(ProgressionRow(u, res or r, r))
        for m in range(1, len(rows) + 1):
            got = scan_subsets(rows, m)
            assert got == brute_force_scan(rows, m)
            if got:
                deepest = max(deepest, m)
            if len(got) < comb(len(rows), m):
                pruned += 1
    assert deepest >= 10
    assert pruned


def test_subset_scan_work_is_frozen(monkeypatch):
    # crt_pair calls and compatible subsets for m = 1..5 on the table rows:
    # a clique search over the pairwise-compatibility graph calls it once
    # per prefix extended by a row compatible with all of it, so none for
    # m = 1 and none that fails. Combining every subset from scratch made
    # 7,964 calls in all, and extending every nonempty prefix 778
    calls = 0
    real = crt_module.crt_pair

    def counting(a, b):
        nonlocal calls
        calls += 1
        return real(a, b)

    monkeypatch.setattr(crt_module, "crt_pair", counting)
    work, compatible = [], []
    for m in range(1, 6):
        calls = 0
        compatible.append(len(scan_subsets(TABLE_ROWS, m)))
        work.append(calls)
    assert tuple(work) == (0, 30, 47, 28, 6)
    assert tuple(compatible) == (16, 30, 28, 9, 0)


def test_failed_intersection_of_agreeing_rows_exits_4(monkeypatch, capsys):
    # pairwise-compatible classes always intersect, so the scan treats a
    # crt_pair that finds nothing as a broken self-check, not as pruning
    monkeypatch.setattr(crt_module, "crt_pair", lambda a, b: None)
    with pytest.raises(VerificationError, match="agree pairwise"):
        scan_subsets(TABLE_ROWS, 2)
    assert main(["multiplicity", "--subset-size", "3"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "verification failure: rows (" in err
    assert "Traceback" not in err
    # m = 1 combines nothing
    assert main(["multiplicity", "--subset-size", "1"]) == 0


def test_scan_subsets_domain():
    # the message names the valid range, which the CLI reports as is
    valid = rf"subset size must be in 1\.\.{len(TABLE_ROWS)}$"
    with pytest.raises(ValueError, match=valid):
        scan_subsets(TABLE_ROWS, 0)
    with pytest.raises(ValueError, match=valid):
        scan_subsets(TABLE_ROWS, len(TABLE_ROWS) + 1)


def test_certify_each_compatible_subset():
    found = scan_subsets(TABLE_ROWS, 4)
    assert certify_multiplicity(found, TABLE_ROWS) == [5] * len(found)


def test_certify_single_and_pair():
    row = table_row(0)
    assert certify_multiplicity([((0,), CongruenceClass(0, 4))], [row]) == [2]
    pair = [table_row(2), table_row(9)]
    cls = fold_rows(pair)
    assert cls is not None
    assert certify_multiplicity([((2, 9), cls)], pair) == [3]


def test_certify_rejects_duplicate_rows():
    row = table_row(0)
    found = scan_subsets([row, row], 2)
    assert found == [((0, 0), CongruenceClass(0, 4))]
    with pytest.raises(VerificationError, match="duplicate"):
        certify_multiplicity(found, [row, row])


def test_certify_rejects_wrong_progression():
    with pytest.raises(VerificationError, match="progression"):
        certify_multiplicity([((1,), CongruenceClass(0, 4))], [table_row(1)])
    # the least member is in the progression, but the class is wider
    with pytest.raises(VerificationError, match="progression"):
        certify_multiplicity([((1,), CongruenceClass(5, 6))], [table_row(1)])
    # r = 12 divides the modulus, but the residue is off k0 = 5 (mod 12)
    with pytest.raises(VerificationError, match="progression"):
        certify_multiplicity([((1,), CongruenceClass(6, 12))], [table_row(1)])
    # a narrower class inside the progression is certified
    narrow = [((1,), CongruenceClass(17, 24))]
    assert certify_multiplicity(narrow, [table_row(1)]) == [2]


def test_certify_rejects_false_congruence():
    # a fabricated row whose progression test passes but whose congruence
    # has no solutions at all (u=5 admits none)
    fake = ProgressionRow(5, 2, 2)
    with pytest.raises(VerificationError, match="congruence"):
        certify_multiplicity([((5,), CongruenceClass(0, 2))], [fake])


def test_certify_rejects_row_without_period():
    # the congruence holds at k0 = 4 (M = 5), but 2**6 == 4 (mod 5), so
    # k0 + t*6 is not a progression of solutions
    fake = ProgressionRow(0, 4, 6)
    with pytest.raises(VerificationError, match=r"2\^r != 1"):
        certify_multiplicity([((0,), CongruenceClass(4, 6))], [fake])


def test_certify_rejects_class_without_its_row():
    with pytest.raises(VerificationError, match="no row u=2"):
        certify_multiplicity([((2,), CongruenceClass(22, 28))], [table_row(0)])


def test_certify_checks_each_used_row_once(monkeypatch, capsys):
    calls = []

    def counting(row):
        calls.append(row.u)
        return check_row(row)

    monkeypatch.setattr(crt_module, "check_row", counting)
    assert main(["multiplicity", "--subset-size", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    used = {u for rec in payload["rows"] for u in rec["us"]}
    assert payload["count"] > len(used)  # rows are shared between classes
    assert len(calls) == len(set(calls)) <= len(used)
    assert set(calls) == used
