"""Seeded inputs for the benchmark.

The benchmark carries its own SplitMix64 so that a change to the program's
generator (`fmlab.util`) cannot change what the benchmark feeds the program.
Everything here returns plain Python data (edge lists, vertex sets); the
workloads turn it into fmlab structures.
"""

from __future__ import annotations

import functools
import itertools

MASK64 = (1 << 64) - 1


class SplitMix64:
    """State advances by 0x9E3779B97F4A7C15; each output applies two
    xorshift-multiply rounds. Bits are consumed from the top of each output."""

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._buf = 0
        self._left = 0

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def bit(self) -> int:
        if self._left == 0:
            self._buf = self.next_u64()
            self._left = 64
        self._left -= 1
        return (self._buf >> self._left) & 1

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection on the top bits."""
        nbits = (n - 1).bit_length() or 1
        while True:
            v = 0
            for _ in range(nbits):
                v = (v << 1) | self.bit()
            if v < n:
                return v


def item_seeds(seed: int):
    """One independent 64-bit seed per workload item, drawn in order from the
    stream of the run seed, so item i is the same whatever the pool size."""
    master = SplitMix64(seed)
    while True:
        yield master.next_u64()


def graph_edges(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """Fair coin per pair, row-major upper triangle; both directions listed."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.bit():
                out += [(i, j), (j, i)]
    return out


def digraph_arcs(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """Fair coin per ordered pair of distinct vertices."""
    return [(i, j) for i in range(n) for j in range(n) if i != j and rng.bit()]


def permutation(n: int, rng: SplitMix64) -> list[int]:
    """Fisher-Yates shuffle of 0..n-1."""
    p = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        p[i], p[j] = p[j], p[i]
    return p


def order_pairs(n: int, rng: SplitMix64) -> list[tuple[int, int]]:
    """A strict linear order on 0..n-1 in a random labelling."""
    p = permutation(n, rng)
    return [(p[i], p[j]) for i in range(n) for j in range(i + 1, n)]


# 3-graph families that tend to lack pairwise independence


@functools.lru_cache(maxsize=None)
def _triples(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.combinations(range(n), 3))


def sparse_triples(n: int, rng: SplitMix64, m: int = 6) -> set[tuple[int, ...]]:
    triples = _triples(n)
    return {triples[rng.below(len(triples))] for _ in range(m)}


def heavy_pair_triples(n: int, rng: SplitMix64) -> set[tuple[int, ...]]:
    """Every edge contains one fixed vertex pair."""
    c1 = rng.below(n)
    c2 = rng.below(n)
    while c2 == c1:
        c2 = rng.below(n)
    return {tuple(sorted((c1, c2, u))) for u in range(n) if u not in (c1, c2)}


def linear_pack_triples(n: int, rng: SplitMix64) -> set[tuple[int, ...]]:
    """Greedy partial Steiner packing: no two edges share a vertex pair."""
    triples = _triples(n)
    used: set[tuple[int, int]] = set()
    out = set()
    for _ in range(3 * n):
        e = triples[rng.below(len(triples))]
        pairs = list(itertools.combinations(e, 2))
        if not any(p in used for p in pairs):
            out.add(e)
            used.update(pairs)
    return out


TRIPLE_FAMILIES = (sparse_triples, heavy_pair_triples, linear_pack_triples)


def fm_text(n: int, pairs) -> str:
    """A `.fm` document for one binary relation R on 0..n-1."""
    body = " ".join(f"({a},{b})" for a, b in sorted(pairs))
    return f"signature: R/2\nuniverse: {n}\nrelation R: {body}\n"
