"""Uniform hypergraphs, coupon-collector exact probabilities, seeded random
graph experiments, monochromatic-subset extraction, and the bound comparisons
between the general Ramsey estimates and the independence-bounded ones.

Random sampling is reproducible by construction: every trial derives its own
SplitMix64 stream from (seed, trial index), and edges are drawn in a fixed
documented order, so equal seeds give bit-identical results.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Iterable, Optional, Sequence, Union

from .core import Signature, Structure
from .detect import first_shattered
from .indisc import (BoundParams, ExtractionFailure, HypergraphBoundedGrowth,
                     HypergraphWorstGrowth, _power, ceil_log2, f_star,
                     greedy_end_extraction)
from .util import (FmlabError, PreconditionError, SplitMix64, TooLargeError,
                   mix_seed)


# ---------------------------------------------------------------------------
# r-graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RGraph:
    """A set of vertices 0..n-1 with a set of r-element subsets as edges."""

    n: int
    r: int
    edges: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.r < 1 or self.n < 0:
            raise FmlabError("need r >= 1 and n >= 0")
        for e in self.edges:
            if len(e) != self.r or len(set(e)) != self.r or tuple(sorted(e)) != e:
                raise FmlabError(f"edge {e} is not a sorted {self.r}-subset")
            if not all(0 <= v < self.n for v in e):
                raise FmlabError(f"edge {e} out of range")

    @staticmethod
    def of(n: int, r: int, edges: Iterable[Iterable[int]]) -> "RGraph":
        return RGraph(n, r, frozenset(tuple(sorted(e)) for e in edges))

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return tuple(sorted(vertices)) in self.edges

    def to_structure(self) -> Structure:
        """Encode as a structure with one symmetric irreflexive r-ary relation."""
        tuples = set()
        for e in self.edges:
            tuples.update(itertools.permutations(e))
        return Structure(Signature((("R", self.r),)), self.n, {"R": tuples})

    @staticmethod
    def from_structure(M: Structure, rel: str = "R") -> "RGraph":
        r = M.signature.arity(rel)
        edges = set()
        for t in M.relations[rel]:
            if len(set(t)) != r:
                raise FmlabError(f"tuple {t} has repeated entries; not an r-graph relation")
            edges.add(tuple(sorted(t)))
        expect = set()
        for e in edges:
            expect.update(itertools.permutations(e))
        if expect != set(M.relations[rel]):
            raise FmlabError(f"relation {rel} is not closed under permutations")
        return RGraph(M.universe_size, r, frozenset(edges))


# ---------------------------------------------------------------------------
# coupon collector
# ---------------------------------------------------------------------------


# the cost of `stirling2`'s recurrence in bit-steps: n x m steps on integers
# of up to n * bit_length(m) bits. S(2359, 1024), the largest coupon value
# `independence_trend` asks for, is 2^35.9 of them and about a second on a
# 2-core x86 box; at m = 2 the guard admits n up to 131,072
_STIRLING_MAX_BIT_STEPS = 1 << 36


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind by the standard recurrence.

    S(n, m) = 0 for m > n at once; otherwise TooLargeError before the first
    step when the recurrence would take more than `_STIRLING_MAX_BIT_STEPS`
    bit-steps.
    """
    if n < 0 or m < 0:
        raise PreconditionError("stirling2 needs naturals")
    if m == 0:
        return 1 if n == 0 else 0
    if m > n:
        return 0
    if n * m * n * m.bit_length() > _STIRLING_MAX_BIT_STEPS:
        raise TooLargeError(f"the Stirling recurrence for S({n}, {m}) exceeds "
                            f"2^{_STIRLING_MAX_BIT_STEPS.bit_length() - 1} bit-steps")
    prev = [1] + [0] * m
    for _ in range(n):
        cur = [0] * (m + 1)
        for j in range(1, m + 1):
            cur[j] = j * prev[j] + prev[j - 1]
        prev = cur
    return prev[m]


def coupon_q(n: int, m: int) -> Fraction:
    """Probability that n balls thrown uniformly into m boxes leave none empty.

    With fewer balls than boxes (n < m) some box stays empty, so 0 is
    returned at once (S(n, m) = 0 agrees), and m = 1 gives 1. Otherwise
    the count of onto maps is summed by inclusion-exclusion in integers,
    checked exactly against the Stirling form m! * S(n, m), and divided by
    m^n once. `_power` refuses an m^n past the size guard and `stirling2`
    a recurrence past its cost guard, both before the sum.
    """
    if n < 0 or m < 0:
        raise PreconditionError("coupon_q needs naturals")
    if m == 0:
        return Fraction(1) if n == 0 else Fraction(0)
    if n < m:
        return Fraction(0)
    if m == 1:  # S(n, 1) = 1
        return Fraction(1)
    m_to_n = _power(m, n)
    stirling = stirling2(n, m)
    onto = sum([(-1) ** i * comb(m, i) * (m - i) ** n for i in range(m + 1)])
    if onto != factorial(m) * stirling:
        raise FmlabError("internal inconsistency between the two coupon forms")
    return Fraction(onto, m_to_n)


def lambda_nk(n: int, k: int) -> float:
    """The occupancy parameter 2^k * exp(-(n-k)/2^k)."""
    if not (n >= k >= 1):
        raise PreconditionError("need n >= k >= 1")
    return (2 ** k) * math.exp(-(n - k) / (2 ** k))


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------


def sample_graph_rows(n: int, rng: SplitMix64) -> list[int]:
    """Adjacency bitmask rows of a random graph.

    Edges are decided in row-major upper-triangle order (0,1), (0,2), ...,
    (n-2,n-1), one stream bit each.
    """
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.bit():
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def graph_has_k_independence(rows: Sequence[int], n: int, k: int) -> bool:
    """Does any k-set of vertices realize all 2^k adjacency patterns?

    Patterns may be realized by any vertex, including the chosen ones.
    """
    return first_shattered(rows, k, (1 << n) - 1) is not None


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    k: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise PreconditionError("trials must be >= 1")


def _check_float_range(k: int, log2_n: float) -> None:
    """Refuse a row whose n^k, from log2 n or a lower bound of it, is past
    the float range; its other floats are smaller (2^k < n^k as k < n)."""
    if k * log2_n >= sys.float_info.max_exp:
        raise PreconditionError(f"k={k}: n^k is past the float range")


def _estimate_row(hits: int, trials: int, n: int, k: int) -> dict:
    """The estimate, its standard error, the per-tuple coupon value
    q(n-k, 2^k) and the union bound n^k e^(-lambda) of a row."""
    p = hits / trials
    return {"estimate": p, "stderr": math.sqrt(p * (1 - p) / trials),
            "exact_per_tuple": coupon_q(n - k, 2 ** k),
            "union_bound": (n ** k) * math.exp(-lambda_nk(n, k))}


def independence_probability_mc(config: ExperimentConfig) -> dict:
    """Monte Carlo estimate of the probability that a random graph has the
    k-independence property, with the per-tuple coupon value and union bound.

    Trial t uses the stream seeded by mix_seed(seed, t); estimates with equal
    seeds are bit-identical.
    """
    n, k = config.n, config.k
    if not (n > k >= 1):
        raise PreconditionError("need n > k >= 1")
    _check_float_range(k, math.log2(n))
    hits = 0
    for t in range(config.trials):
        rng = SplitMix64(mix_seed(config.seed, t))
        rows = sample_graph_rows(n, rng)
        if graph_has_k_independence(rows, n, k):
            hits += 1
    return {"n": n, "k": k, "trials": config.trials, "seed": config.seed,
            **_estimate_row(hits, config.trials, n, k)}


def _insider_patterns(k: int, inner: Sequence[int]) -> set[int]:
    """The traces of the fixed vertices 0..k-1 on each other, given the bits
    of their inner edges in row-major order (0,1), (0,2), ..., (k-2,k-1):
    bit j of vertex i's trace is its adjacency to j, and never j = i."""
    edge = dict(zip(itertools.combinations(range(k), 2), inner))
    return {sum(1 << j for j in range(k) if j != i and edge[min(i, j), max(i, j)])
            for i in range(k)}


def fixed_witness_trial(n: int, k: int, rng: SplitMix64) -> bool:
    """One trial of the event: the fixed vertices 0..k-1 witness k-independence.

    Draw order: the inner edges among the fixed vertices in row-major order,
    then for each outer vertex its k adjacency bits to vertices 0..k-1 (bit i
    of the trace is adjacency to vertex i). Realizing tuples may be any
    vertex, so the insider traces (which exclude self-adjacency) count too.
    """
    patterns = _insider_patterns(k, [rng.bit() for _ in range(comb(k, 2))])
    for _ in range(n - k):
        t = 0
        for i in range(k):
            if rng.bit():
                t |= 1 << i
        patterns.add(t)
    return len(patterns) == (1 << k)


def exact_fixed_witness_probability(n: int, k: int) -> Fraction:
    """Exact probability of the fixed-witness event by enumerating the
    relevant edge bits (inner edges plus outer adjacency bits)."""
    inner_bits = comb(k, 2)
    outer = n - k
    npat = 1 << k
    total = Fraction(0)
    one = Fraction(1, 2 ** (k * outer))
    for mask in range(1 << inner_bits):
        insider = _insider_patterns(k, [mask >> idx & 1 for idx in range(inner_bits)])
        count = 0
        for traces in itertools.product(range(npat), repeat=outer):
            if insider.union(traces) == set(range(npat)):
                count += 1
        total += Fraction(count) * one
    return total / (1 << inner_bits)


def independence_trend(k_list: Sequence[int], trials: int, seed: int) -> list[dict]:
    """Fixed-witness-set estimates at the threshold size n = k + ceil(2^k ln k).

    For each k the row reports the Monte Carlo estimate that vertices 0..k-1
    witness k-independence in a random graph on n vertices, its standard
    error, the outside-fillers coupon value q(n-k, 2^k), and the union bound.
    """
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    rows = []
    for k in k_list:
        if k < 2:
            raise PreconditionError("trend needs k >= 2")
        _check_float_range(k, k)  # n > 2^k
        n = k + math.ceil((2 ** k) * math.log(k))
        if n > 3001:
            raise PreconditionError(f"k={k} exceeds the desk-scale guard (n={n})")
        hits = 0
        row_seed = mix_seed(seed, k)
        for t in range(trials):
            rng = SplitMix64(mix_seed(row_seed, t))
            if fixed_witness_trial(n, k, rng):
                hits += 1
        rows.append({"k": k, "n": n, "trials": trials,
                     **_estimate_row(hits, trials, n, k)})
    return rows


# ---------------------------------------------------------------------------
# length-bound specializations for r-graphs
# ---------------------------------------------------------------------------


def hypergraph_F(r: int, variant: str, i: int, n: Optional[int] = None) -> int:
    """Class-count growth for vertex types over i points of an r-graph.

    variant "worst": 2^C(i, r-1). variant "bounded" (no n-independence):
    1 below i = r, else i^((r-1)(n-1)).
    """
    if r < 2:
        raise PreconditionError("r must be >= 2")
    if i < 0:
        raise PreconditionError("i must be a natural")
    if variant == "worst":
        return HypergraphWorstGrowth(r).value(i)
    if variant == "bounded":
        if n is None or n < 1:
            raise PreconditionError("bounded variant needs n >= 1")
        return HypergraphBoundedGrowth(r, n).value(i)
    raise PreconditionError(f"unknown variant {variant!r}")


def hypergraph_fstar(r: int, variant: str, k: int, n: Optional[int] = None) -> int:
    """Multiplicative envelope G(0)=1, G(t+1) = 1 + G(t) * F(r t), evaluated at k.

    In the worst case it stays below 2^(k^r); in the bounded case below
    k^((r-1)(n-1)k). It is `f_star` at alpha = 0 and m = 1, whose k
    multiplicative stages are these, so it refuses what `f_star` refuses;
    the arguments are checked before any stage.
    """
    if k < 0:
        raise PreconditionError("k must be a natural")
    hypergraph_F(r, variant, 0, n)  # checks r, the variant and n
    F = HypergraphWorstGrowth(r) if variant == "worst" else HypergraphBoundedGrowth(r, n)
    return f_star(BoundParams(F, 0, r, 1, k + 3), k)


def E_bound(p: int, j: int, x: int) -> int:
    """The j-fold iterate at x of E(a) = (a+1)^(p(a+1)), exact."""
    if p < 1 or j < 1 or x < 0:
        raise PreconditionError("need p >= 1, j >= 1, x >= 0")
    v = x
    for _ in range(j):
        v = _power(v + 1, p * (v + 1))
    return v


# ---------------------------------------------------------------------------
# monochromatic extraction
# ---------------------------------------------------------------------------


def verify_homogeneous(G: RGraph, vertices: Iterable[int], tag: str) -> bool:
    """Do the vertices, all in 0..G.n-1, induce a complete or an empty
    sub-r-graph as `tag` says?"""
    vs = sorted(set(vertices))
    if tag not in ("complete", "empty") or (vs and not 0 <= vs[0] <= vs[-1] < G.n):
        return False
    for sub in itertools.combinations(vs, G.r):
        if (sub in G.edges) != (tag == "complete"):
            return False
    return True


def _halving_chain(G: RGraph, k: int
                   ) -> Union[tuple[frozenset[int], str], ExtractionFailure]:
    """Classical halving for 2-graphs: follow the larger adjacency side of the
    least remaining vertex, then keep the majority color along the chain.

    The remaining vertices are one int mask and `rows[v]` holds the
    neighbours of v above it, so a step splits the rest by one row. Ties
    prefer the non-edge side and the empty tag; the last chain vertex joins
    either color class.
    """
    rows = [0] * G.n
    for v, u in G.edges:
        rows[v] |= 1 << u
    S = (1 << G.n) - 1
    chain: list[tuple[int, Optional[int]]] = []
    while S:
        low = S & -S
        v = low.bit_length() - 1
        rest = S ^ low
        if not rest:
            chain.append((v, None))
            break
        nb = rest & rows[v]
        nn = rest ^ nb
        if nb.bit_count() > nn.bit_count():
            chain.append((v, 1))
            S = nb
        else:
            chain.append((v, 0))
            S = nn
    last = chain[-1][0] if chain else None
    ones = [v for v, c in chain if c == 1]
    zeros = [v for v, c in chain if c == 0]
    if len(ones) > len(zeros):
        members, tag = ones, "complete"
    else:
        members, tag = zeros, "empty"
    if last is not None:
        members = members + [last]
    if len(members) < k:
        return ExtractionFailure(2, f"halving chain supports only {len(members)} < {k}")
    return frozenset(members[:k]), tag


def extract_homogeneous(G: RGraph, n: int, k: int
                        ) -> Union[tuple[frozenset[int], str], ExtractionFailure]:
    """A k-set of vertices inducing a complete or empty sub-r-graph.

    r = 1 takes the larger vertex class (pigeonhole), r = 2 uses the halving
    chain; r >= 3 extracts an end-homogeneous vertex sequence by the
    largest-class greedy, freezes the last vertex v into the link relation
    R'(X) <=> R(X + {v}) on the rest, recurses at r-1 for k-1, and appends
    v. Every output is re-verified; a failure names the uniformity level at
    which the recursion stalled.
    """
    if k < 0:
        raise PreconditionError("k must be a natural")
    if k == 0:
        return frozenset(), "empty"
    if k <= G.r - 1:
        # no r-subsets inside: vacuously homogeneous, tagged empty by convention
        if G.n < k:
            return ExtractionFailure(G.r, f"only {G.n} vertices for target {k}")
        return frozenset(range(k)), "empty"
    if G.n < k:
        return ExtractionFailure(G.r, f"only {G.n} vertices for target {k}")
    if G.r == 1:
        # pigeonhole: the larger vertex class, ties to the empty side
        ones = sorted(v for v, in G.edges)
        zeros = [v for v in range(G.n) if (v,) not in G.edges]
        members, tag = (ones, "complete") if len(ones) > len(zeros) else (zeros, "empty")
        if len(members) < k:
            return ExtractionFailure(1, f"the larger vertex class has only {len(members)} < {k}")
        return frozenset(members[:k]), tag
    if G.r == 2:
        return _halving_chain(G, k)

    # link[h] has bit u iff h + (u,) is an edge, so the cell of a selection
    # is its link mask; positions are chosen in increasing order, so every
    # selection is sorted and ends below the pool
    link: dict[tuple[int, ...], int] = {}
    for e in G.edges:
        link[e[:-1]] = link.get(e[:-1], 0) | 1 << e[-1]

    def key_of(sels: list[tuple[int, ...]], pool: int) -> list[int]:
        # only the cells that exist: the greedy skips an empty one anyway
        return list(filter(None, map(link.get, sels)))

    chosen, _ = greedy_end_extraction(G.n, G.r, key_of, target=None)
    if len(chosen) < G.r:
        return ExtractionFailure(G.r, f"end-homogeneous stage reached only {len(chosen)}")
    v = chosen[-1]
    prefix = chosen[:-1]
    # the link graph on prefix positions: the edges that end in v, as v
    # follows the whole prefix, with every other vertex in the prefix
    at = {u: i for i, u in enumerate(prefix)}
    link_edges = [tuple(at[u] for u in e[:-1]) for e in G.edges
                  if e[-1] == v and all(u in at for u in e[:-1])]
    sub_graph = RGraph.of(len(prefix), G.r - 1, link_edges)
    rec = extract_homogeneous(sub_graph, n, k - 1)
    if isinstance(rec, ExtractionFailure):
        return rec
    core, tag = rec
    result = frozenset(prefix[i] for i in core) | {v}
    if not verify_homogeneous(G, result, tag):
        return ExtractionFailure(G.r, "result failed homogeneity re-verification")
    return result, tag


def rgraph_lacks_independence(G: RGraph, n: int) -> bool:
    """Fast symmetric-relation check that no n vertices witness n-independence
    with (r-1)-tuple realizers.

    For r >= 3 the all-negative cell is free (a parameter tuple with a repeated
    entry never satisfies the edge relation), so only the 2^n - 1 nonempty
    pattern cells constrain the search; for r = 2 it needs an actual
    non-neighbor. Verified against the generic search in the test suite.

    Realizers are numbered from the edges: each (r-1)-tuple that lies in
    some edge gets the next bit, in order of first occurrence. The tuples in
    no edge and the tuples with a repeated entry (r >= 3) lie in no vertex's
    mask, so they only ever fill the all-negative cell: one extra realizer
    stands for all of them when there are any.

    For n >= 2 only the vertices that share a realizer with another vertex
    are searched. Two members i and j of a shattered set need a realizer in
    the cell where both are positive, which lies in masks[i] & masks[j]
    (every pair inside a shattered set is shattered: Apriori's downward
    closure, Agrawal & Srikant 1994). So a vertex whose mask shares no bit
    with any other is in no witness. Its bits lie in no other mask, so
    dropping it changes no other vertex's shared realizers, and one pass
    suffices. The answer is a bool, so renumbering the kept vertices
    changes nothing a caller sees.
    """
    if G.r < 2:
        raise PreconditionError("needs r >= 2")
    index: dict[tuple[int, ...], int] = {}
    # bit of p in masks[v] iff p together with v is an edge
    masks = [0] * G.n
    for e in G.edges:
        # combinations drop e's entries from the last one back
        for v, p in zip(reversed(e), itertools.combinations(e, G.r - 1)):
            masks[v] |= 1 << index.setdefault(p, len(index))
    extra = 1 if G.r >= 3 or len(index) < comb(G.n, G.r - 1) else 0
    if n >= 2:
        once = twice = 0  # realizers in at least one, at least two masks
        for row in masks:
            twice |= once & row
            once |= row
        masks = [row for row in masks if row & twice]
    return first_shattered(masks, n, (1 << (len(index) + extra)) - 1) is None


# ---------------------------------------------------------------------------
# comparing the two upper-bound recurrences
# ---------------------------------------------------------------------------


def bound_compare(r: int, n: int, k: int) -> dict:
    """Log-level comparison of the general Ramsey bound against the bound for
    r-graphs without the n-independence property.

    The a-side value is log^(r-1) of the general bound (exactly 4k at r = 3,
    ceiling-log convention above); the b-side double log is the bit length of
    n*k*(2^(2k)+2); the coefficient c reported satisfies "bounded side is
    roughly 2^(c(n-1))"; and b_smaller is the exact crossover n*k < 2^(2k-2),
    decided as 4nk < 4^k. TooLargeError when 4^k passes the size guard.
    """
    if r < 3:
        raise PreconditionError("comparison is for r >= 3")
    if n < 1 or k < 1:
        raise PreconditionError("n and k must be positive")
    if r == 3:
        a_log = 4 * k
    elif r == 4:
        a_log = 4 * k + ceil_log2(3)
    else:
        a_log = 4 * k + ceil_log2(3) + (r - 4)
    four_k = _power(4, k)
    b_loglog = ceil_log2(n * k * (four_k + 2))
    # 2 B log2 B at B = 4^k + 1, whose floor log is 2k
    b_coefficient = 2 * (four_k + 1) * 2 * k
    return {"r": r, "n": n, "k": k,
            "a_side_log_level": r - 1, "a_side": a_log,
            "b_loglog": b_loglog,
            "b_coefficient": b_coefficient,
            "b_general_loglog": 2 * k + ceil_log2(k) + ceil_log2(n),
            "b_smaller": 4 * n * k < four_k}
