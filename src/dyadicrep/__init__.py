"""Exact toolkit for the Erdos-Graham equation n/2^n = sum of a_i/2^a_i.

Everything is integer arithmetic under the hood: one scaled integer
identity that checks every term list exactly, enumeration over gap
patterns for a given number of terms, the greedy expansion walk, the
congruences behind the arithmetic-progression solution families, their
CRT combinations, and chains of expansions certifying representation
multiplicity.

Each submodule's ``__all__`` is its one export list; the package
re-exports all of them.
"""

from . import arith, bounds, chains, congruence, crt, greedy, search
from .arith import *  # noqa: F403
from .bounds import *  # noqa: F403
from .chains import *  # noqa: F403
from .congruence import *  # noqa: F403
from .crt import *  # noqa: F403
from .greedy import *  # noqa: F403
from .search import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (arith, bounds, chains, congruence, crt, greedy, search)
    for name in module.__all__
] + ["__version__"]
