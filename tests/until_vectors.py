"""Whole per-state vectors of an until problem, for the tests that read
more than the initial state's value.  They come from the pieces that
check_properties runs: the 0/1 sets, the linear system they fix and the
batched solve, here for one problem on its own."""

from cassure import SolverError
from cassure.engine import (
    _reward_system, _solved, _until_system, prob0_states, prob1_states,
)


def until_vector(space, phi, psi, reward=None):
    """(vector, stats) of P(phi U psi) in each state or, given a reward
    name, of the expected reward cumulated until psi, +inf where
    P(phi U psi) < 1 (a reward query's phi is everywhere)."""
    one = prob1_states(space, phi, psi)
    if reward is None:
        key, system = "P", _until_system(space, prob0_states(space, phi, psi), one)
    else:
        key, system = "R", _reward_system(space, space.rewards[reward], psi, one)
    [outcome] = _solved(space, {(key,): system}).values()
    assert not isinstance(outcome, SolverError), outcome
    return outcome
