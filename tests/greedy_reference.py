"""Reference recurrence of the greedy walk, the oracle for dyadicrep.greedy.

One step on exact Fractions, straight from the definition:

    x_{i+1} = 2*x_i - i   and emit i,   if 2*x_i - i >= 0,
    x_{i+1} = 2*x_i                     otherwise,

starting from x_{k0} = x * 2**(k0 - 1). The library's integer walk must
emit exactly the indices this recurrence emits.
"""

from dataclasses import dataclass
from fractions import Fraction

from dyadicrep.greedy import FeasibilityError, k_zero


@dataclass(frozen=True, slots=True)
class GreedyState:
    """One point of the walk: the index about to be decided, the scaled
    remainder x_i, and the indices emitted so far."""

    index: int
    value: Fraction
    emitted: tuple[int, ...] = ()


def start_state(x: Fraction) -> GreedyState:
    x = Fraction(x)
    i = k_zero(x)
    return GreedyState(i, x * (1 << (i - 1)), ())


def advance(state: GreedyState) -> GreedyState:
    """One step of the recurrence. Requires a live state (value > 0)."""
    if state.value <= 0:
        raise ValueError("cannot advance a terminated state")
    if state.value >= state.index + 1:
        raise FeasibilityError(
            f"x_{state.index} = {state.value} >= {state.index + 1}"
        )
    t = 2 * state.value - state.index
    if t >= 0:
        return GreedyState(state.index + 1, t, state.emitted + (state.index,))
    return GreedyState(state.index + 1, 2 * state.value, state.emitted)
