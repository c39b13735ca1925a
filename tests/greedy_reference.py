"""Reference recurrence of the greedy walk, the oracle for dyadicrep.greedy.

One step on exact Fractions, straight from the definition:

    x_{i+1} = 2*x_i - i   and emit i,   if 2*x_i - i >= 0,
    x_{i+1} = 2*x_i                     otherwise,

starting from x_{k0} = x * 2**(k0 - 1), with k0 found from its definition
rather than taken from the library. The library's integer walk must
emit exactly the indices this recurrence emits.
"""

from dataclasses import dataclass
from fractions import Fraction

from dyadicrep.arith import VerificationError


@dataclass(frozen=True, slots=True)
class GreedyState:
    """One point of the walk: the index about to be decided, the scaled
    remainder x_i, and the indices emitted so far."""

    index: int
    value: Fraction
    emitted: tuple[int, ...] = ()


def start_state(x: Fraction) -> GreedyState:
    """The state at k0, the least j >= 1 with j/2**j < x."""
    x = Fraction(x)
    if not 0 < x < 2:
        raise ValueError("the walk needs 0 < x < 2")
    i = 1
    while Fraction(i, 2**i) >= x:
        i += 1
    return GreedyState(i, x * (1 << (i - 1)), ())


def advance(state: GreedyState) -> GreedyState:
    """One step of the recurrence. Requires a live state (value > 0)."""
    if state.value <= 0:
        raise ValueError("cannot advance a terminated state")
    if state.value >= state.index + 1:
        raise VerificationError(
            f"x_{state.index} = {state.value} >= {state.index + 1}"
        )
    t = 2 * state.value - state.index
    if t >= 0:
        return GreedyState(state.index + 1, t, state.emitted + (state.index,))
    return GreedyState(state.index + 1, 2 * state.value, state.emitted)
