"""Witness searches for independence, order, weak order, and cover patterns,
plus type splitting and the constructive order-witness builder.

All searches are exhaustive with lexicographic enumeration and earliest-witness
return, over the whole structure they are given (a submodel is passed as its
induced structure). Every certificate can be re-verified by the `verify_*`
functions, which evaluate formulas directly and share no code with the searches.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

from .core import (Iff, PartitionedFormula, PhiType, SatTable, Structure,
                   _row_shape, rename_free, tp)
from .formats import subset_key
from .util import (BudgetExceeded, FmlabError, PreconditionError,
                   TooLargeError, search_budget)


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
    BudgetExceeded(limit + 1) (no limit when None).

    The search runs depth-first over prefixes and drops a prefix by counting
    (the counting step of the Sauer-Shelah lemma): with `need` members still
    to choose, each cell of the prefix must split into 2^need nonempty cells,
    so a prefix with a cell of fewer than 2^need realizers has no shattered
    extension. When `full` holds fewer than 2^k realizers, every row is
    dropped at the first level. A dropped prefix still counts all its
    extensions as nodes, comb(m - i - 1, need) after row i, so the earliest
    combination and the budget marker are those of the plain enumeration.
    With k > m there is no combination and the search ends at once. At the last level each remaining row is one
    node, tested against the cells in one loop until a cell lies wholly
    inside or outside it; only the winning row's cells are built.

    The one search behind independence, Sauer-Shelah shattering and the
    r-graph fast paths; the `verify_*` checkers never call it.
    """
    if k < 0:
        raise PreconditionError("k must be >= 0")
    m = len(rows)
    if k == 0:  # one node, the empty combination, with `full` its one cell
        if limit is not None and limit < 1:
            return BudgetExceeded(limit + 1)
        return ((), {frozenset(): (full & -full).bit_length() - 1}) if full else None
    if k > m:  # no combination, so no node; and no 2^k is ever built
        return None
    tried = 0  # combinations passed, in lexicographic order

    def extend(start: int, chosen: tuple[int, ...], cells: list[int]):
        # cells[w] for the prefix `chosen`: bit p of w <-> inside rows[chosen[p]]
        nonlocal tried
        need = k - len(chosen) - 1
        if need == 0:
            # rows past `end` would take the count past the limit
            end = m if limit is None else min(m, start + limit - tried)
            for i in range(start, end):
                row = rows[i]
                for c in cells:
                    x = c & row
                    if not x or x == c:
                        break
                else:
                    return (chosen + (i,), [c & ~row for c in cells]
                            + [c & row for c in cells])
            if end < m:
                return BudgetExceeded(limit + 1)
            tried += m - start
            return None
        least = 1 << need  # realizers each cell of the extended prefix needs
        for i in range(start, m - need):
            row = rows[i]
            split = [c & ~row for c in cells] + [c & row for c in cells]
            if min(map(int.bit_count, split)) < least:
                tried += comb(m - i - 1, need)
                if limit is not None and tried > limit:
                    return BudgetExceeded(limit + 1)
            else:
                got = extend(i + 1, chosen + (i,), split)
                if got is not None:
                    return got
        return None

    got = extend(0, (), [full])
    if got is None or isinstance(got, BudgetExceeded):
        return got
    combo, cells = got
    return combo, {frozenset(p for p in range(k) if (w >> p) & 1):
                   (c & -c).bit_length() - 1 for w, c in enumerate(cells)}


def find_k_independence(M: Structure, phi: PartitionedFormula, k: int
                        ) -> Union[IndependenceWitness, None, BudgetExceeded]:
    """Lexicographically first independence witness of size k, or None.

    None certifies exhaustion of the search space. Object tuples are tried as
    k-combinations, one budget node each: any permutation of a witness is a
    witness, so the first combination is also the first ordered k-tuple. The
    verdict is memoised per (structure, formula, k, budget).
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if phi.r < 1 or phi.s < 1:
        raise PreconditionError("independence search needs nonempty blocks")
    try:
        limit = search_budget()
    except FmlabError:  # cells that fail raise before an invalid budget does
        SatTable(M, phi).rows(list(M.tuples(phi.r)), list(M.tuples(phi.s)))
        raise
    return _independence(M, phi, k, limit)


@functools.lru_cache(maxsize=64)
def _independence(M: Structure, phi: PartitionedFormula, k: int, limit: int
                  ) -> Union[IndependenceWitness, None, BudgetExceeded]:
    objs, pars = list(M.tuples(phi.r)), list(M.tuples(phi.s))
    got = first_shattered(SatTable(M, phi).rows(objs, pars), k,
                          (1 << len(pars)) - 1, limit)
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


def find_n_order(M: Structure, phi: PartitionedFormula, n: int
                 ) -> Union[OrderWitness, None, BudgetExceeded]:
    """First n-tuple ordering itself under phi, by depth-first lexicographic search.

    Each object tried is one budget node, rejected ones too. With r = s = 1
    and a formula that compiles to rows, the search reads the memoised
    `SatTable` rows and columns, the table the other searches of a query
    read, and takes each level as one mask (`_order_on_rows`). Otherwise
    (r = s > 1, as for rho in `verify_order_bound`, or a formula that does
    not compile) each cell is a scalar `SatTable.holds`, with its first
    error, memoised for the one search, since it re-reads cells and on rho
    reads far fewer than a table holds.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if phi.r != phi.s:
        raise PreconditionError("order search requires l(x) = l(y)")
    limit = search_budget()
    objs = list(M.tuples(phi.r))
    if phi.s == 1 and _row_shape(M, phi, objs, objs):
        table = SatTable(M, phi)
        return _order_on_rows(objs, table.rows(objs, objs),
                              table.columns(objs, objs), n, limit)
    holds = functools.cache(SatTable(M, phi).holds)
    nodes = 0
    chosen: list[tuple[int, ...]] = []

    def extend() -> Union[OrderWitness, None, BudgetExceeded]:
        nonlocal nodes
        if len(chosen) == n:
            return OrderWitness(tuple(chosen))
        for a in objs:
            nodes += 1
            if nodes > limit:
                return BudgetExceeded(limit + 1)
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


def _order_on_rows(objs: list, rows: list[int], back: list[int], n: int,
                   limit: int) -> Union[OrderWitness, None, BudgetExceeded]:
    """`find_n_order` on a bit table, one mask per level (the bitset style
    of exact clique search): rows[c] >> a & 1 and back[a] >> c & 1 are both
    holds(c, a).

    The objects that extend a chain c_1..c_t are those outside the diagonal
    and inside rows[c_i] & ~back[c_i] for every i; a level walks that mask's
    set bits in increasing order. Nodes are those of the one-by-one walk:
    descending to index i counts the i + 1 - pos objects from pos, the first
    not yet counted at this level, and a level that runs out counts the rest
    of `objs`.
    """
    off_diagonal = sum([1 << a for a, row in enumerate(rows) if not row >> a & 1])
    chosen: list[int] = []
    nodes = 0

    def extend(fits: int) -> Union[OrderWitness, None, BudgetExceeded]:
        nonlocal nodes
        if len(chosen) == n:
            return OrderWitness(tuple(objs[c] for c in chosen))
        pos, rest = 0, fits
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            nodes += i + 1 - pos
            if nodes > limit:
                return BudgetExceeded(limit + 1)
            pos = i + 1
            chosen.append(i)
            got = extend(fits & rows[i] & ~back[i])
            if got is not None:
                return got
            chosen.pop()
        nodes += len(objs) - pos
        return BudgetExceeded(limit + 1) if nodes > limit else None

    return extend(off_diagonal)


def verify_order(M: Structure, phi: PartitionedFormula,
                 a: Sequence[tuple[int, ...]]) -> bool:
    for i, ai in enumerate(a):
        for j, aj in enumerate(a):
            if phi.holds(M, ai, aj) != (i < j):
                return False
    return True


def find_weak_m_order(M: Structure, phi: PartitionedFormula, m: int
                      ) -> Union[WeakOrderWitness, None, BudgetExceeded]:
    """First d-list admitting realizers x_j with phi(x;d_i) exactly for i >= j,
    each realizer the least such object.

    A repeated d_i would force phi and ~phi on one realizer, so only lists of
    m distinct tuples are tried, in lexicographic order: one budget node
    each. The columns are `SatTable.columns`: phi's table, which the other
    searches of a query read too, transposed.

    The search runs depth-first over prefixes d_0..d_{t-1}, keeping one mask
    per realizer j < t (the objects under d_j..d_{t-1} and outside
    d_0..d_{j-1}) and one for all later realizers (outside every d_i). A
    prefix that leaves one of them empty has no completion and is dropped,
    counting its perm(|pars| - t, m - t) lists as nodes, so the earliest
    list and the budget marker are those of the plain enumeration. At the
    last level each candidate column is one node, tested against the m masks.
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if phi.r < 1 or phi.s < 1:
        raise PreconditionError("weak order search needs nonempty blocks")
    limit = search_budget()
    pars = list(M.tuples(phi.s))
    objs = list(M.tuples(phi.r))
    cols = SatTable(M, phi).columns(objs, pars)
    if m > len(pars):  # no list of m distinct tuples, so no node
        return None
    chosen: list[int] = []
    nodes = 0

    def extend(masks: list[int]) -> Union[WeakOrderWitness, None, BudgetExceeded]:
        # masks[j]: the objects that can still be realizer j; masks[-1]
        # serves every realizer from len(chosen) on
        nonlocal nodes
        last = len(chosen) == m - 1
        drop = perm(len(pars) - len(chosen) - 1, m - len(chosen) - 1)
        for i, col in enumerate(cols):
            if i in chosen:
                continue
            if last:
                nodes += 1
                if nodes > limit:
                    return BudgetExceeded(limit + 1)
                cells = [mask & col for mask in masks]
                if all(cells):
                    return WeakOrderWitness(
                        tuple(pars[c] for c in chosen) + (pars[i],),
                        tuple(objs[(v & -v).bit_length() - 1] for v in cells))
                continue
            split = [mask & col for mask in masks] + [masks[-1] & ~col]
            if all(split):
                chosen.append(i)
                got = extend(split)
                if got is not None:
                    return got
                chosen.pop()
            else:
                nodes += drop
                if nodes > limit:
                    return BudgetExceeded(limit + 1)
        return None

    return extend([(1 << len(objs)) - 1])


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
                         params: Optional[Iterable[tuple[int, ...]]] = None
                         ) -> Union[CoverViolation, None, BudgetExceeded]:
    """A family b_0..b_{n-1} (d <= n <= n_max) whose proper <d subfamilies are all
    satisfiable while the whole family is not. None certifies no such family
    exists with n <= n_max over the given parameter tuples.

    Parameters are deduplicated and sorted: a repeated b_i changes neither
    the hypothesis nor the conclusion. Families are tried level by level,
    n = d, d+1, ..., each level in `itertools.combinations` order, one
    budget node each; past the budget the search returns BudgetExceeded.
    A leaf is a violation when its whole intersection is empty and each of
    its (d-1)-subfamilies is satisfiable. The columns are
    `SatTable.columns`: phi's table, which the other searches of a query
    read too, transposed.

    Each level runs depth-first over prefixes. A prefix shorter than n is
    dropped with all its extensions, which still count as nodes
    (comb(m - i, k) for a prefix that needs k more of the m - i parameters
    from index i on), when
    (a) its intersection meets the intersection of every column from index
        i on, so no extension has an empty whole (at the root: all columns
        meet). For d >= 2 the empty columns are left out of that
        intersection: an extension without one has a whole that holds the
        prefix's intersection met with it, which is not empty, and an
        extension with one has an unsatisfiable (d-1)-subfamily, which
        holds that column. For d = 1 an empty column is itself a
        violation, so every column counts; or
    (b) its intersection is empty. Let S be a least empty subfamily of an
        extension. If |S| < d, a (d-1)-subfamily holding S is
        unsatisfiable; otherwise S is a violation of fewer members, and the
        lower level that holds it, run in full before this one, would have
        returned it.
    """
    if d < 1:
        raise PreconditionError("d must be >= 1")
    if n_max < d:
        raise PreconditionError("n_max must be >= d")
    limit = search_budget()
    if params is None:
        pars = list(M.tuples(phi.s))
    else:
        pars = sorted({tuple(t) for t in params})
    objs = list(M.tuples(phi.r))
    cols = SatTable(M, phi).columns(objs, pars)
    full = (1 << len(objs)) - 1
    m = len(pars)
    # suffix[i]: the objects under every column from i on, for d >= 2
    # every non-empty one
    suffix = [full] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] & (cols[i] if d == 1 else cols[i] or full)
    nodes = 0

    def extend(start: int, chosen: tuple[int, ...], meet: int, n: int):
        # meet: the objects under every column of the prefix `chosen`
        nonlocal nodes
        need = n - len(chosen)
        if need == 0:
            nodes += 1
            if nodes > limit:
                return BudgetExceeded(limit + 1)
            if meet:
                return None
            # smaller subfamilies are implied satisfiable by monotonicity
            for sub in itertools.combinations(chosen, d - 1):
                v = full
                for i in sub:
                    v &= cols[i]
                if not v:
                    return None
            return CoverViolation(n, tuple(pars[i] for i in chosen))
        if not meet or meet & suffix[start]:
            nodes += comb(m - start, need)
            return BudgetExceeded(limit + 1) if nodes > limit else None
        for i in range(start, m - need + 1):
            got = extend(i + 1, chosen + (i,), meet & cols[i], n)
            if got is not None:
                return got
        return None

    for n in range(d, min(n_max, m) + 1):
        got = extend(0, (), full, n)
        if got is not None:
            return got
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


def verify_split(M: Structure, p: PhiType, B: Iterable[tuple[int, ...]],
                 delta0: Sequence[PartitionedFormula],
                 delta1: Sequence[PartitionedFormula], w: SplitWitness) -> bool:
    """Re-check a split witness without `tp`: w.formula lies in delta0, p
    holds it at w.b and refutes it at w.c, and w.b and w.c, taken as object
    tuples, agree on every delta1 instance over B (at the empty parameter
    tuple for a parameter-free formula), each side evaluated by
    `PartitionedFormula.holds`."""
    b, c = w.b, w.c
    if (w.formula not in delta0 or p.sign(w.formula, b) is not True
            or p.sign(w.formula, c) is not False or len(b) != len(c)):
        return False
    B = [tuple(e) for e in B]
    for f in delta1:
        if f.r != len(b):
            continue
        for e in [()] if f.s == 0 else [e for e in B if len(e) == f.s]:
            if f.holds(M, b, e) != f.holds(M, c, e):
                return False
    return True


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
                    return BudgetExceeded(limit + 1)
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
                    return BudgetExceeded(limit + 1)
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
                return BudgetExceeded(limit + 1)
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
