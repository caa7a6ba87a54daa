"""Shared plumbing: error types, the search budget, and the reproducible PRNG."""

from __future__ import annotations

import os
from dataclasses import dataclass


class FmlabError(Exception):
    """Base class for all errors raised by this package."""


class EvaluationError(FmlabError):
    """Raised when a formula cannot be evaluated (unbound variable, arity mismatch)."""


class PreconditionError(FmlabError):
    """Raised when a stated precondition of an operation is violated."""


class TooLargeError(FmlabError):
    """Raised when an exact computation would exceed the configured size guard."""


# the size guard: the most bits a value of the exact bound calculators may have
SIZE_GUARD_BITS = 4_000_000


@dataclass(frozen=True)
class BudgetExceeded:
    """Returned (never raised) by exhaustive searches that ran out of budget.

    Distinct from None: None certifies exhaustion of the search space,
    BudgetExceeded only says the search stopped early.
    """

    nodes: int


DEFAULT_BUDGET = 20_000_000
# FMLAB_BUDGET as the mapping behind os.environ stores it
_BUDGET_KEY = os.environ.encodekey("FMLAB_BUDGET")


def search_budget() -> int:
    """The node budget of every exhaustive search: the FMLAB_BUDGET
    environment variable when set, else the package default. A value that
    is not an integer, or is negative, is refused. It is read on every call
    from `os.environ._data`, which every write through `os.environ`
    updates, without `os.environ.get`'s key encoding and KeyError."""
    raw = os.environ._data.get(_BUDGET_KEY)
    if raw is None:
        return DEFAULT_BUDGET
    env = os.environ.decodevalue(raw)
    try:
        limit = int(env)
    except ValueError:
        raise FmlabError(f"FMLAB_BUDGET is not an integer: {env!r}")
    if limit < 0:
        raise FmlabError(f"FMLAB_BUDGET is negative: {env!r}")
    return limit


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 pseudorandom generator.

    The exact algorithm (documented so results are reproducible everywhere):
    state advances by the odd constant 0x9E3779B97F4A7C15 modulo 2^64; each
    output mixes the new state with two xor-shift-multiply rounds
    (constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts 30/27/31).
    Bits are taken from the top of each 64-bit output, most significant first.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        self._bitbuf = 0
        self._bitcount = 0

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def bit(self) -> int:
        if self._bitcount == 0:
            self._bitbuf = self.next_u64()
            self._bitcount = 64
        self._bitcount -= 1
        return (self._bitbuf >> self._bitcount) & 1

    def bits(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bit()
        return v

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on the top bits."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        nbits = (n - 1).bit_length() or 1
        while True:
            v = self.bits(nbits)
            if v < n:
                return v


def mix_seed(seed: int, index: int) -> int:
    """Derive a per-trial seed: one SplitMix64 output of (seed xor index).

    Stated mixing function for parallel/sequential trial equivalence.
    """
    return SplitMix64((seed ^ index) & _MASK64).next_u64()
