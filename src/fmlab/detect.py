"""Witness searches for independence, order, weak order, and cover patterns,
plus type splitting and the constructive order-witness builder.

All searches are exhaustive with lexicographic enumeration and earliest-witness
return. Every certificate can be re-verified by the `verify_*` functions, which
evaluate formulas directly and share no code with the searches.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from .core import (Iff, PartitionedFormula, PhiType, SatTable, Structure,
                   rename_free, tp)
from .formats import subset_key
from .util import (BudgetExceeded, PreconditionError, TooLargeError,
                   search_budget)


# ---------------------------------------------------------------------------
# witness records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceWitness:
    """Tuples a_i and b_w with phi[a_i; b_w] iff i in w."""

    a: tuple[tuple[int, ...], ...]
    b: Mapping[frozenset[int], tuple[int, ...]]

    def __post_init__(self):
        # read-only, because a memoised verdict shares its witness with every caller
        object.__setattr__(self, "b", MappingProxyType(dict(self.b)))

    def to_report(self):
        return {"a": [list(t) for t in self.a],
                "b": {subset_key(w): list(t) for w, t in self.b.items()}}


@dataclass(frozen=True)
class OrderWitness:
    """Tuples a_0..a_{n-1} with phi[a_i, a_j] iff i < j (diagonal included)."""

    a: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class WeakOrderWitness:
    """Parameters d_0..d_{m-1}; realizer x_j satisfies phi(x; d_i) iff i >= j."""

    d: tuple[tuple[int, ...], ...]
    realizers: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CoverViolation:
    """A family where every <d subfamily is satisfiable but the whole is not."""

    n: int
    b: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SplitWitness:
    formula: PartitionedFormula
    b: tuple[int, ...]
    c: tuple[int, ...]


@dataclass(frozen=True)
class SplittingChainFailure:
    """Which hypothesis of the constructive order-witness builder failed, where."""

    hypothesis: str
    i: int
    detail: str


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------


def first_shattered(rows: Sequence[int], k: int, full: int,
                    limit: Optional[int] = None
                    ) -> Union[tuple[tuple[int, ...], dict[frozenset[int], int]],
                               None, BudgetExceeded]:
    """Lexicographically first k-combination of row indices that the
    realizers shatter, or None.

    Bit j of rows[i] is set iff realizer j lies in member i, and `full` holds
    every realizer. A combination c is shattered when each of its 2^k cells is
    nonempty: the cell of w (a set of positions) is `full` intersected with
    rows[c[p]] for p in w and with its complement for every other p. The
    result pairs c with the least realizer of each cell, keyed by w. One budget
    node is one k-combination; past `limit` nodes the search returns
    BudgetExceeded (no limit when None). The search runs depth-first over
    prefixes, and a prefix with an empty cell is dropped together with all its
    extensions, which still count as nodes.

    The one search behind independence, Sauer-Shelah shattering and the
    r-graph fast paths; the `verify_*` checkers never call it.
    """
    if k < 0:
        raise PreconditionError("k must be >= 0")
    m = len(rows)
    tried = 0  # combinations passed, in lexicographic order

    def extend(start: int, chosen: tuple[int, ...], cells: list[int]):
        # cells[w] for the prefix `chosen`: bit p of w <-> inside rows[chosen[p]]
        nonlocal tried
        if len(chosen) == k:
            tried += 1
            if limit is not None and tried > limit:
                return BudgetExceeded(tried)
            return (chosen, cells) if all(cells) else None  # k = 0, empty full
        need = k - len(chosen) - 1
        for i in range(start, m - need):
            row = rows[i]
            split = [c & ~row for c in cells] + [c & row for c in cells]
            if all(split):
                got = extend(i + 1, chosen + (i,), split)
                if got is not None:
                    return got
            else:
                tried += comb(m - i - 1, need)
                if limit is not None and tried > limit:
                    return BudgetExceeded(limit + 1)
        return None

    got = extend(0, (), [full])
    if got is None or isinstance(got, BudgetExceeded):
        return got
    combo, cells = got
    return combo, {frozenset(p for p in range(k) if (w >> p) & 1):
                   (c & -c).bit_length() - 1 for w, c in enumerate(cells)}


def find_k_independence(M: Structure, phi: PartitionedFormula, k: int,
                        domain=None
                        ) -> Union[IndependenceWitness, None, BudgetExceeded]:
    """Lexicographically first independence witness of size k, or None.

    None certifies exhaustion of the whole search space. Object tuples are
    tried as k-combinations, one budget node each: any permutation of a
    witness is a witness, so the first combination is also the first ordered
    k-tuple.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if phi.r < 1 or phi.s < 1:
        raise PreconditionError("independence search needs nonempty blocks")
    objs = sorted(M.tuples(phi.r, domain=domain))
    pars = sorted(M.tuples(phi.s, domain=domain))
    got = first_shattered(SatTable(M, phi, domain).rows(objs, pars), k,
                          (1 << len(pars)) - 1, search_budget())
    if got is None or isinstance(got, BudgetExceeded):
        return got
    combo, least = got
    return IndependenceWitness(tuple(objs[i] for i in combo),
                               {w: pars[j] for w, j in least.items()})


def verify_independence(M: Structure, phi: PartitionedFormula,
                        w: IndependenceWitness) -> bool:
    k = len(w.a)
    if set(w.b) != {frozenset(s) for s in _powerset(range(k))}:
        return False
    for i in range(k):
        for wset, b in w.b.items():
            if phi.holds(M, w.a[i], b) != (i in wset):
                return False
    return True


def _powerset(items) -> Iterable[tuple]:
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def find_n_order(M: Structure, phi: PartitionedFormula, n: int, domain=None
                 ) -> Union[OrderWitness, None, BudgetExceeded]:
    """First n-tuple ordering itself under phi, by depth-first lexicographic search."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if phi.r != phi.s:
        raise PreconditionError("order search requires l(x) = l(y)")
    limit = search_budget()
    objs = sorted(M.tuples(phi.r, domain=domain))
    # memoised, since the search re-reads cells, and lazy: on the 3-block
    # formula rho (verify_order_bound) it reads far fewer cells than a table holds
    holds = functools.cache(SatTable(M, phi, domain).holds)
    nodes = 0
    chosen: list[tuple[int, ...]] = []

    def extend() -> Union[OrderWitness, None, BudgetExceeded]:
        nonlocal nodes
        if len(chosen) == n:
            return OrderWitness(tuple(chosen))
        for a in objs:
            nodes += 1
            if nodes > limit:
                return BudgetExceeded(nodes)
            if holds(a, a):
                continue
            ok = True
            for c in chosen:
                if not (holds(c, a) and not holds(a, c)):
                    ok = False
                    break
            if not ok:
                continue
            chosen.append(a)
            res = extend()
            if res is not None:
                return res
            chosen.pop()
        return None

    return extend()


def verify_order(M: Structure, phi: PartitionedFormula,
                 a: Sequence[tuple[int, ...]]) -> bool:
    for i, ai in enumerate(a):
        for j, aj in enumerate(a):
            if phi.holds(M, ai, aj) != (i < j):
                return False
    return True


def find_weak_m_order(M: Structure, phi: PartitionedFormula, m: int, domain=None
                      ) -> Union[WeakOrderWitness, None, BudgetExceeded]:
    """First d-list admitting realizers x_j with phi(x;d_i) exactly for i >= j.
    A repeated d_i would force phi and ~phi on one realizer, so only lists of
    m distinct tuples are tried, in lexicographic order: one budget node each."""
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if phi.r < 1 or phi.s < 1:
        raise PreconditionError("weak order search needs nonempty blocks")
    limit = search_budget()
    pars = sorted(M.tuples(phi.s, domain=domain))
    objs = sorted(M.tuples(phi.r, domain=domain))
    cols = dict(zip(pars, SatTable(M, phi.swapped(), domain).rows(pars, objs)))
    full = (1 << len(objs)) - 1
    nodes = 0
    for d in itertools.permutations(pars, m):
        nodes += 1
        if nodes > limit:
            return BudgetExceeded(nodes)
        realizers = []
        ok = True
        for j in range(m):
            v = full
            for i in range(m):
                v &= cols[d[i]] if i >= j else (full & ~cols[d[i]])
                if not v:
                    break
            if not v:
                ok = False
                break
            realizers.append(objs[(v & -v).bit_length() - 1])
        if ok:
            return WeakOrderWitness(tuple(d), tuple(realizers))
    return None


def verify_weak_order(M: Structure, phi: PartitionedFormula,
                      w: WeakOrderWitness) -> bool:
    m = len(w.d)
    if len(w.realizers) != m:
        return False
    for j in range(m):
        for i in range(m):
            if phi.holds(M, w.realizers[j], w.d[i]) != (i >= j):
                return False
    return True


def find_cover_violation(M: Structure, phi: PartitionedFormula, d: int, n_max: int,
                         params: Optional[Iterable[tuple[int, ...]]] = None,
                         domain=None
                         ) -> Union[CoverViolation, None, BudgetExceeded]:
    """A family b_0..b_{n-1} (d <= n <= n_max) whose proper <d subfamilies are all
    satisfiable while the whole family is not. None certifies no such family
    exists with n <= n_max over the given parameter tuples.

    Parameter lists are enumerated without repetition: a repeated b_i changes
    neither the hypothesis nor the conclusion.
    """
    if d < 1:
        raise PreconditionError("d must be >= 1")
    if n_max < d:
        raise PreconditionError("n_max must be >= d")
    limit = search_budget()
    if params is None:
        pars = sorted(M.tuples(phi.s, domain=domain))
    else:
        pars = sorted(tuple(t) for t in params)
    objs = sorted(M.tuples(phi.r, domain=domain))
    cols = dict(zip(pars, SatTable(M, phi.swapped(), domain).rows(pars, objs)))
    full = (1 << len(objs)) - 1
    nodes = 0
    cap = min(n_max, len(pars))
    for n in range(d, cap + 1):
        for combo in itertools.combinations(pars, n):
            nodes += 1
            if nodes > limit:
                return BudgetExceeded(nodes)
            whole = full
            for b in combo:
                whole &= cols[b]
            if whole:
                continue
            # smaller subfamilies are implied satisfiable by monotonicity
            good = True
            for sub in itertools.combinations(range(n), min(d - 1, n)):
                v = full
                for i in sub:
                    v &= cols[combo[i]]
                if not v:
                    good = False
                    break
            if good:
                return CoverViolation(n, combo)
    return None


def verify_cover_violation(M: Structure, phi: PartitionedFormula, d: int,
                           v: CoverViolation) -> bool:
    objs = sorted(M.tuples(phi.r))
    if v.n < d or len(v.b) != v.n:
        return False
    for w in _powerset(range(v.n)):
        if len(w) >= d:
            continue
        if not any(all(phi.holds(M, a, v.b[i]) for i in w) for a in objs):
            return False
    return not any(all(phi.holds(M, a, b) for b in v.b) for a in objs)


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def splits(p: PhiType, B: Iterable[tuple[int, ...]],
           delta0: Sequence[PartitionedFormula],
           delta1: Sequence[PartitionedFormula],
           M: Structure) -> tuple[bool, Optional[SplitWitness]]:
    """Does p (delta0, delta1)-split over B?

    True with a witness iff some formula in delta0 and tuples b, c in dom(p)
    have equal delta1-types over B while p contains the instance at b
    positively and at c negatively.
    """
    B = [tuple(t) for t in B]
    dom = sorted(p.domain())
    if not set(B) <= set(dom):
        raise PreconditionError("B must be a subset of dom(p)")
    type_cache = {b: tp(delta1, b, B, M) for b in dom}
    for f in delta0:
        for b in dom:
            if p.sign(f, b) is not True:
                continue
            for c in dom:
                if p.sign(f, c) is not False:
                    continue
                if type_cache[b] == type_cache[c]:
                    return True, SplitWitness(f, b, c)
    return False, None


# ---------------------------------------------------------------------------
# the iff-comparison formula and the constructive order witness
# ---------------------------------------------------------------------------


def build_rho(phi: PartitionedFormula) -> PartitionedFormula:
    """The comparison formula rho(x0,x1,x2; y0,y1,y2) := phi(x0;y1) <-> phi(x0;y2).

    Blocks are padded so object and parameter blocks both have length r + 2s:
    x0 is an r-block, x1/x2 are dummy s-blocks, y0 is a dummy r-block, y1/y2
    are s-blocks. The padding keeps the equal-block-length requirement of the
    order search satisfiable.
    """
    r, s = phi.r, phi.s
    width = r + 2 * s
    obj = tuple(f"x{i}" for i in range(width))
    par = tuple(f"y{i}" for i in range(width))
    x0 = obj[:r]
    y1 = par[r:r + s]
    y2 = par[r + s:r + 2 * s]
    base = phi.ast
    # avoid clashes between phi's own variable names and the new blocks
    fresh = {v: f"u{i}" for i, v in enumerate(phi.object_vars + phi.param_vars)}
    base = rename_free(base, fresh)
    ov = tuple(fresh[v] for v in phi.object_vars)
    pv = tuple(fresh[v] for v in phi.param_vars)
    left = rename_free(base, dict(zip(ov + pv, x0 + y1)))
    right = rename_free(base, dict(zip(ov + pv, x0 + y2)))
    return PartitionedFormula(Iff(left, right), obj, par)


def splitting_order_witness(M: Structure, phi: PartitionedFormula,
                            chain: Sequence[Iterable[int]], p: PhiType, n: int
                            ) -> Union[OrderWitness, SplittingChainFailure,
                                       BudgetExceeded]:
    """Constructive order witness for rho = build_rho(phi) from a splitting type.

    `chain` is an increasing chain of element sets A_0 <= ... <= A_{2n}; `p` is
    a phi-type over the parameter tuples of A_{2n} that keeps splitting along
    the chain. Both hypotheses (type realization into the next level, and
    splitting of every restriction over every small subset) are checked, and a
    failure report names the first one violated.

    On success the returned d_i = c_i + a_i + b_i sequence is re-verified as an
    n-order witness for rho before being returned.

    Each subset B examined by the two hypotheses and each candidate c_j is one
    node of `util.search_budget()`; BudgetExceeded when the budget runs out.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    sets = [frozenset(A) for A in chain]
    if len(sets) != 2 * n + 1:
        raise PreconditionError(f"chain must have 2n+1 = {2 * n + 1} levels")
    for i in range(2 * n):
        if not sets[i] <= sets[i + 1]:
            raise PreconditionError(f"chain not increasing at level {i}")
    r, s = phi.r, phi.s
    psi = phi.swapped()
    bound = 3 * s * n
    delta_phi = [phi, phi.negated()]
    delta_psi = [psi, psi.negated()]
    limit = search_budget()
    nodes = 0

    # realizer of p itself
    d_real = None
    for a in M.tuples(r):
        if tp(delta_phi, a, sorted(p.domain()), M) == p:
            d_real = a
            break
    if d_real is None:
        return SplittingChainFailure("type-realization", -1, "p is not realized in M")

    # hypothesis 1: every phi-type over every small B <= A_i realized inside A_{i+1}
    for i in range(2 * n):
        elems = sorted(sets[i])
        for size in range(0, min(bound, len(elems)) + 1):
            for B in itertools.combinations(elems, size):
                nodes += 1
                if nodes > limit:
                    return BudgetExceeded(nodes)
                pars = sorted(M.tuples(s, domain=B))
                types_M = {tp(delta_phi, a, pars, M) for a in M.tuples(r)}
                types_next = {tp(delta_phi, a, pars, M)
                              for a in M.tuples(r, domain=sets[i + 1])}
                if not types_M <= types_next:
                    return SplittingChainFailure(
                        "realization", i,
                        f"a type over B={sorted(B)} is not realized in level {i + 1}")

    # hypothesis 2: p|A_{i+1} splits over every small subset of A_i
    for i in range(2 * n):
        elems = sorted(sets[i])
        restricted = p.restrict(M.tuples(s, domain=sets[i + 1]))
        for size in range(0, min(bound, len(elems)) + 1):
            for B in itertools.combinations(elems, size):
                nodes += 1
                if nodes > limit:
                    return BudgetExceeded(nodes)
                pars_B = sorted(set(M.tuples(s, domain=B))
                                | set(M.tuples(r, domain=B)))
                ok, _ = splits(restricted, pars_B, delta_phi, delta_psi, M)
                if not ok:
                    return SplittingChainFailure(
                        "splitting", i,
                        f"p|A_{i + 1} does not split over B={sorted(B)}")

    # construction
    a_list: list[tuple[int, ...]] = []
    b_list: list[tuple[int, ...]] = []
    c_list: list[tuple[int, ...]] = []
    for j in range(n):
        B_j = sorted(set(a_list) | set(b_list) | set(c_list))
        restricted = p.restrict(M.tuples(s, domain=sets[2 * j + 1]))
        ok, wit = splits(restricted, B_j, delta_phi, delta_psi, M)
        if not ok:
            return SplittingChainFailure("splitting", j,
                                 f"no split of p|A_{2 * j + 1} over the accumulated tuples")
        a_j, b_j = wit.b, wit.c
        # c_j realizes the phi-type of the realizer of p over the sized-up base
        pars = sorted(set(B_j) | {a_j, b_j})
        pars_s = [t for t in pars if len(t) == s]
        target = tp(delta_phi, d_real, pars_s, M)
        c_j = None
        for cand in M.tuples(r, domain=sets[2 * j + 2]):
            nodes += 1
            if nodes > limit:
                return BudgetExceeded(nodes)
            if tp(delta_phi, cand, pars_s, M) == target:
                c_j = cand
                break
        if c_j is None:
            return SplittingChainFailure("realization", j,
                                 "no realization of the restricted type in the next level")
        a_list.append(a_j)
        b_list.append(b_j)
        c_list.append(c_j)

    d_seq = tuple(c_list[i] + a_list[i] + b_list[i] for i in range(n))
    rho = build_rho(phi)
    if not verify_order(M, rho, d_seq):
        return SplittingChainFailure("verification", n - 1,
                             "constructed sequence failed independent re-verification")
    return OrderWitness(d_seq)


# ---------------------------------------------------------------------------
# arrow relation and the binomial threshold
# ---------------------------------------------------------------------------


def arrow_check(x: int, y: int, a: int, b: int) -> bool:
    """Decide x -> (y)^a_b: every b-coloring of the a-subsets of an x-element
    set admits a y-subset with all its a-subsets in one color class.

    Pruned exhaustive search: the cells (a-subsets) are colored depth first,
    in `itertools.combinations` order with colors 0..b-1, so colorings come in
    `itertools.product` order. Each y-set is checked at its last cell, and a
    prefix that makes one monochromatic is not extended.
    """
    if x < 0 or y < 0 or a < 0 or b < 1:
        raise PreconditionError("arrow parameters must be naturals (b >= 1)")
    if x < y:
        return False
    if y < a:
        return True  # any y-set has no a-subsets at all
    if b == 1 or a == 0:
        return True  # every y-set is monochromatic
    ncells = comb(x, a)
    # b >= 2, so past 24 cells the power is past the guard: never build it
    if ncells > 24 or b ** ncells > (1 << 24):
        raise TooLargeError(f"{b}^{ncells} colorings exceed the exhaustive guard")
    bit = {c: 1 << i for i, c in enumerate(itertools.combinations(range(x), a))}
    # closing[i]: the cell bitmask of each y-set whose last cell is cell i
    closing: list[list[int]] = [[] for _ in range(ncells)]
    for ys in itertools.combinations(range(x), y):
        m = sum(bit[c] for c in itertools.combinations(ys, a))
        closing[m.bit_length() - 1].append(m)

    def bad_completion(i: int, colored: tuple[int, ...]) -> bool:
        """Some coloring of cells i.. leaves every y-set non-monochromatic,
        given colored[c], the bitmask of the cells colored c so far."""
        if i == ncells:
            return True
        for c in range(b):
            mc = colored[c] | 1 << i
            if not any(m & mc == m for m in closing[i]) and bad_completion(
                    i + 1, colored[:c] + (mc,) + colored[c + 1:]):
                return True
        return False

    return not bad_completion(0, (0,) * b)


_PI_30_UP = Fraction(314159265358979323846264338328, 10 ** 29)  # pi rounded up, 30 digits


def stirling_threshold(n: int, m: int) -> bool:
    """The arithmetic predicate n >= 2^(2m-1) / (pi * m), in exact rationals.

    Uses pi rounded up at 30 digits so the threshold never overstates the
    requirement. When true (and the order-witness construction applies), the
    weak m-order conclusion is available without an arrow check.
    """
    if n < 0 or m < 1:
        raise PreconditionError("need n >= 0 and m >= 1")
    return Fraction(n) >= Fraction(2 ** (2 * m - 1)) / (_PI_30_UP * m)
