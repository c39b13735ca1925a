"""Golden data shared by the test modules.

Every value here is independently verifiable on the spot: solution tuples
satisfy n/2^n = sum(a/2^a) exactly (re-checked by the tests that consume
them), progression rows satisfy their defining modular identities, and
the combined congruence class is certified by direct modular
exponentiation. Nothing below is trusted input; it is all frozen output
of verified computation.
"""

# All solutions with exactly k terms, sorted by (n, terms). The k=8 set
# has five members; the (35, ...) one is easy to confirm by hand:
# scaled by 2^46 the right side sums to 71680 = 35 * 2^11. The k=9 and
# k=10 sets go past the published k <= 8 lists.
SMALL_K = {
    2: [
        (4, (5, 6)),
    ],
    3: [
        (1, (3, 6, 8)),
        (1, (4, 5, 6)),
        (2, (3, 6, 8)),
        (2, (4, 5, 6)),
        (3, (4, 6, 8)),
        (11, (12, 13, 14)),
    ],
    4: [
        (9, (10, 11, 13, 14)),
        (26, (27, 28, 29, 30)),
    ],
    5: [
        (5, (6, 7, 11, 13, 14)),
        (6, (7, 8, 11, 13, 14)),
        (15, (16, 17, 18, 21, 22)),
        (57, (58, 59, 60, 61, 62)),
    ],
    6: [
        (4, (5, 7, 8, 11, 13, 14)),
        (12, (13, 14, 15, 20, 21, 24)),
        (13, (14, 15, 16, 20, 21, 24)),
        (21, (22, 23, 24, 26, 27, 32)),
        (120, (121, 122, 123, 124, 125, 126)),
    ],
    7: [
        (1, (4, 5, 7, 8, 11, 13, 14)),
        (2, (4, 5, 7, 8, 11, 13, 14)),
        (7, (8, 9, 11, 15, 20, 21, 24)),
        (18, (19, 20, 21, 23, 26, 27, 32)),
        (247, (248, 249, 250, 251, 252, 253, 254)),
    ],
    8: [
        (17, (18, 19, 20, 22, 26, 29, 30, 32)),
        (19, (20, 21, 22, 24, 26, 29, 30, 32)),
        (35, (36, 37, 38, 39, 42, 43, 45, 46)),
        (197, (198, 199, 200, 201, 202, 203, 205, 206)),
        (502, (503, 504, 505, 506, 507, 508, 509, 510)),
    ],
    9: [
        (7, (8, 9, 12, 13, 14, 15, 20, 21, 24)),
        (32, (33, 34, 35, 36, 39, 42, 43, 45, 46)),
        (73, (74, 75, 76, 77, 78, 81, 82, 85, 88)),
        (220, (221, 222, 223, 224, 225, 226, 228, 229, 230)),
        (1013, (1014, 1015, 1016, 1017, 1018, 1019, 1020, 1021, 1022)),
    ],
    10: [
        (116, (117, 118, 119, 120, 121, 123, 124, 125, 126, 128)),
        (125, (126, 127, 128, 129, 130, 131, 136, 139, 141, 142)),
        (198, (199, 200, 201, 202, 203, 204, 206, 207, 213, 214)),
        (199, (200, 201, 202, 203, 204, 205, 207, 208, 213, 214)),
        (200, (201, 202, 203, 204, 205, 206, 208, 209, 213, 216)),
        (586, (587, 588, 589, 590, 591, 592, 593, 594, 597, 600)),
        (2036, (2037, 2038, 2039, 2040, 2041, 2042, 2043, 2044, 2045, 2046)),
    ],
}

# Greedy expansion of 41/2^41 (14 terms) and of 1/32 (13 terms).
GREEDY_41 = (42, 43, 44, 45, 47, 49, 54, 55, 56, 61, 66, 68, 69, 70)
GREEDY_1_32 = (9, 10, 12, 14, 18, 19, 21, 22, 24, 26, 29, 30, 32)

# Greedy sweep peak rows: n -> (k, a_k).
SWEEP_PEAKS = {
    56: (6092, 12230),
    3113: (13370, 29752),
    3817: (76072, 155942),
    5588: (226913, 460536),
}

# Progression rows (u, k0, r) for every u <= 31 that has one, keyed by u.
# (u = 55, the only other row below the proven-prime policy bound at
# u = 78, is compared with its published constant instead.)
COMPUTED_ROWS = {
    0: (4, 4),
    1: (5, 12),
    2: (22, 28),
    3: (48, 60),
    4: (83, 100),
    6: (221, 508),
    9: (242, 4092),
    11: (5531, 16380),
    17: (66328, 1048572),
    21: (2796185, 5592404),
    22: (775376, 1116130),
    26: (96489490, 536870908),
}

# Intersection of the u in {2, 9, 55, 99} progressions: the unique class
# mod lcm of the four r values. Certified in the tests by membership in
# all four progressions and by the modular identities at the residue.
COMBINED_RESIDUE = 145385700121244085549146558858137430874445372273418
COMBINED_MODULUS = 475718596389482619032998752531841170523046301295380

# The nine 4-element row subsets (by u) whose progressions intersect,
# in lexicographic order; no 5-element subset does.
COMPATIBLE_4SUBSETS = [
    (0, 3, 55, 99),
    (0, 17, 22, 99),
    (0, 17, 55, 99),
    (2, 9, 22, 99),
    (2, 9, 55, 99),
    (9, 22, 26, 99),
    (9, 26, 55, 99),
    (22, 26, 99, 113),
    (26, 55, 99, 113),
]

# Iterated greedy expansion chain from the term 8/2^8: (k_i, last term)
# for steps 1..9. Steps past 5 are the long-run (extended) part; step 9
# needs a term budget above 2^20.
CHAIN_8 = (
    (13, 32),
    (9, 46),
    (169, 392),
    (5919, 12230),
    (71826, 155942),
    (252200, 659488),
    (182973, 1025582),
    (10861, 1047128),
    (1195089, 3437088),
)
