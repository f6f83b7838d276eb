"""Signed switch-clock state for last-switch-dependent arms.

Every arm carries a nonzero signed clock: -r after r consecutive plays,
+r after r rounds of dormancy. Clocks saturate at +/-tau_max. All
operations are pure; states are immutable values. ``advance`` returns
shared successors from a bounded memo: a repeated transition is one lookup,
and only a state built and validated on a miss is ever handed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class LsdState:
    """Per-arm switch clocks. No entry is ever zero."""

    taus: tuple[int, ...]
    tau_max: int

    def __post_init__(self) -> None:
        if self.tau_max < 1:
            raise ValueError(f"tau_max must be >= 1, got {self.tau_max}")
        if not isinstance(self.taus, tuple) or not self.taus:
            raise ValueError("state needs a non-empty tuple of clocks")
        for i, tau in enumerate(self.taus):
            if tau == 0:
                raise ValueError(f"arm {i} has a zero clock")
            if abs(tau) > self.tau_max:
                raise ValueError(f"arm {i} clock {tau} exceeds cap {self.tau_max}")

    @property
    def n_arms(self) -> int:
        return len(self.taus)


def initial_state(k: int, tau_max: int) -> LsdState:
    """Start state: every arm fully rested at +tau_max."""
    if k < 1:
        raise ValueError(f"arm count must be >= 1, got {k}")
    return LsdState(taus=(tau_max,) * k, tau_max=tau_max)


def advance(state: LsdState, played: int) -> LsdState:
    """One round: the played arm's clock turns (or deepens) negative,
    every other arm recovers toward +tau_max. Returns a shared successor."""
    return _successor(state.taus, state.tau_max, played)


@lru_cache(maxsize=4096)  # an error is raised, never cached
def _successor(state_taus: tuple[int, ...], cap: int, played: int) -> LsdState:
    if not 0 <= played < len(state_taus):
        raise IndexError(f"arm {played} out of range for {len(state_taus)} arms")
    taus = []
    for arm, tau in enumerate(state_taus):
        if arm == played:
            taus.append(-1 if tau > 0 else max(tau - 1, -cap))
        else:
            taus.append(1 if tau < 0 else min(tau + 1, cap))
    return LsdState(taus=tuple(taus), tau_max=cap)


def reward_key(state: LsdState, arm: int) -> tuple[int, int]:
    """Project the state onto the pair (arm, clock) that fully determines
    the arm's reward. States agreeing on this pair are interchangeable
    ("ghosts" of one another) for that arm."""
    if not 0 <= arm < state.n_arms:
        raise IndexError(f"arm {arm} out of range for {state.n_arms} arms")
    return (arm, state.taus[arm])
