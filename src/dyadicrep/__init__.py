"""Exact toolkit for the Erdos-Graham equation n/2^n = sum of a_i/2^a_i.

Everything is integer arithmetic under the hood: one scaled integer
identity that checks every term list exactly, fixed-point enumeration for
a given number of terms, the greedy expansion walk, the congruences
behind the arithmetic-progression solution families, their CRT
combinations, and chains of expansions certifying representation
multiplicity.
"""

from .arith import Solution, VerificationError, scaled_sum, verify_solution
from .bounds import (
    ak_bound_cor,
    ak_bound_thm,
    corollary_bound_holds,
    forced_prefix_len,
    max_n,
    product_bound_holds,
    trivial_solution,
)
from .chains import (
    HALF_PREFIXES,
    ChainCertificationError,
    ChainResult,
    ChainStep,
    TailedRepresentation,
    expand_chain,
    representation_count_certificate,
    tail_sum,
    three_representations,
)
from .congruence import (
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
    mult_order,
    solve_congruence,
    table_row,
)
from .crt import (
    CertificationError,
    CongruenceClass,
    certify_multiplicity,
    combine_rows,
    crt_pair,
    scan_subsets,
)
from .greedy import (
    DEFAULT_MAX_K,
    FeasibilityError,
    SweepRow,
    greedy_for_n,
    greedy_representation,
    k_zero,
    sweep,
)
from .search import (
    PRUNE_RULES,
    SearchResult,
    count_solutions,
    enumerate_solutions,
    run_search,
)

__version__ = "0.1.0"

__all__ = [
    "Solution",
    "scaled_sum",
    "verify_solution",
    "ak_bound_cor",
    "ak_bound_thm",
    "corollary_bound_holds",
    "forced_prefix_len",
    "max_n",
    "product_bound_holds",
    "trivial_solution",
    "HALF_PREFIXES",
    "ChainCertificationError",
    "ChainResult",
    "ChainStep",
    "TailedRepresentation",
    "expand_chain",
    "representation_count_certificate",
    "tail_sum",
    "three_representations",
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
    "mult_order",
    "solve_congruence",
    "table_row",
    "CertificationError",
    "CongruenceClass",
    "certify_multiplicity",
    "combine_rows",
    "crt_pair",
    "scan_subsets",
    "DEFAULT_MAX_K",
    "FeasibilityError",
    "SweepRow",
    "greedy_for_n",
    "greedy_representation",
    "k_zero",
    "sweep",
    "PRUNE_RULES",
    "SearchResult",
    "VerificationError",
    "count_solutions",
    "enumerate_solutions",
    "run_search",
    "__version__",
]
