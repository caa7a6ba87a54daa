"""Witness searches and their independent verifiers."""

import functools
import itertools
import time
from math import comb
import tracemalloc

import pytest

from fmlab import (BudgetExceeded, CoverViolation, IndependenceWitness,
                   SplittingChainFailure, OrderWitness, PartitionedFormula,
                   PreconditionError,
                   Signature, SplitMix64, Structure, arrow_check, build_rho,
                   find_cover_violation, find_k_independence, find_n_order,
                   find_shattered, find_weak_m_order, kappa, parse_formula,
                   SplitWitness, emit_report, splitting_order_witness,
                   splits, stirling_threshold, tp, verify_cover_violation,
                   verify_independence, verify_independence_bound,
                   verify_order, verify_split, verify_weak_order,
                   WeakOrderWitness, count_phi_types)
from fmlab import core, detect
from fmlab.core import And, Atom, Exists, Implies, Not, SatTable
from fmlab.detect import first_shattered
from fmlab.util import FmlabError, TooLargeError, search_budget

from conftest import (EDGE, LESS, all_graphs, complete_graph, cycle_graph,
                      digraph, empty_graph, graph, induced, linear_order, outcome,
                      path_graph, seeded_digraph, seeded_graph, star_graph)


# ---------------------------------------------------------------------------
# independence
# ---------------------------------------------------------------------------


def test_triangle_one_independence_witness():
    K3 = complete_graph(3)
    w = find_k_independence(K3, EDGE, 1)
    assert w.a == ((0,),)
    assert w.b[frozenset()] == (0,)
    assert w.b[frozenset({0})] == (1,)
    assert verify_independence(K3, EDGE, w)


def test_empty_graph_never_independent():
    assert find_k_independence(empty_graph(4), EDGE, 1) is None


def test_four_cycle_lacks_pairwise_independence():
    # adjacent pairs share no neighbor; antipodal pairs have no private ones
    assert find_k_independence(cycle_graph(4), EDGE, 2) is None


def test_independence_budget_marker(monkeypatch):
    monkeypatch.setenv("FMLAB_BUDGET", "5")
    M = seeded_graph(6, 1)
    res = find_k_independence(M, EDGE, 3)
    assert isinstance(res, BudgetExceeded)


def test_independence_downward_closed():
    for seed in range(30):
        M = seeded_graph(6, 1000 + seed)
        for k in (3, 2):
            w = find_k_independence(M, EDGE, k)
            if isinstance(w, IndependenceWitness):
                assert isinstance(find_k_independence(M, EDGE, k - 1),
                                  IndependenceWitness)


def _first_shattered_by_definition(rows, k, full, limit=None):
    """The kernel's contract read literally: increasing index tuples in
    lexicographic order, every cell as an explicit list of realizers."""
    realizers = [j for j in range(full.bit_length()) if (full >> j) & 1]
    combos = sorted(t for t in itertools.product(range(len(rows)), repeat=k)
                    if all(t[p] < t[p + 1] for p in range(k - 1)))
    cells = [frozenset(w) for size in range(k + 1)
             for w in itertools.combinations(range(k), size)]
    for tried, combo in enumerate(combos, 1):
        least = {}
        for w in cells:
            hits = [j for j in realizers
                    if all(bool((rows[combo[p]] >> j) & 1) == (p in w)
                           for p in range(k))]
            if not hits:
                break
            least[w] = min(hits)
        else:
            if limit is not None and tried > limit:
                return BudgetExceeded(limit + 1)
            return combo, least
    if limit is not None and len(combos) > limit:
        return BudgetExceeded(limit + 1)
    return None


def test_first_shattered_matches_its_definition():
    rng = SplitMix64(20261018)
    outcomes = set()
    for _ in range(400):
        nrows, nreal, k = rng.below(8), 1 + rng.below(10), rng.below(4)
        rows = [rng.bits(nreal) for _ in range(nrows)]
        # realizers outside `full` must never count, even when rows hold them
        full = (1 << nreal) - 1 if rng.bit() else rng.bits(nreal)
        for limit in (None, rng.below(len(list(itertools.combinations(
                range(nrows), k))) + 2)):
            want = _first_shattered_by_definition(rows, k, full, limit)
            assert first_shattered(rows, k, full, limit) == want, \
                (rows, k, full, limit)
            outcomes.add(type(want).__name__)
    assert outcomes == {"tuple", "NoneType", "BudgetExceeded"}
    with pytest.raises(PreconditionError):
        first_shattered([1], -1, 1)


def _cells_of(rows, combo, full):
    """The 2^len(combo) cells of a combination, each from its definition."""
    cells = []
    for w in range(1 << len(combo)):
        c = full
        for p, i in enumerate(combo):
            c &= rows[i] if w >> p & 1 else ~rows[i]
        cells.append(c)
    return cells


def test_first_shattered_counting_prune_matches_its_definition():
    # sparse rows and few realizers, so that cells often hold some but fewer
    # than the 2^need realizers a prefix needs to be extended
    rng = SplitMix64(20261019)
    undersized = 0  # draws with a nonempty cell below its bound
    outcomes = set()
    for _ in range(300):
        nrows, nreal, k = rng.below(9), 1 + rng.below(32), 1 + rng.below(5)
        sparse = (1 << nreal) - 1 if rng.bit() else rng.bits(nreal)
        rows = [rng.bits(nreal) & (rng.bits(nreal) | sparse) for _ in range(nrows)]
        full = (1 << nreal) - 1 if rng.bit() else rng.bits(nreal)
        if rng.bit():  # fewer than 2^k realizers: nothing is shattered
            full &= (1 << rng.below(1 << k)) - 1
        undersized += any(
            0 < c.bit_count() < 1 << (k - j)
            for j in range(min(k, nrows + 1))
            for combo in itertools.combinations(range(nrows), j)
            for c in _cells_of(rows, combo, full))
        # the nodes the plain enumeration passes; one fewer is the tightest
        # limit that stops it
        got = _first_shattered_by_definition(rows, k, full)
        nodes = (list(itertools.combinations(range(nrows), k)).index(got[0]) + 1
                 if got else comb(nrows, k))
        for limit in (None, 0, 1, rng.below(comb(nrows, k) + 2),
                      max(nodes - 1, 0), nodes):
            want = _first_shattered_by_definition(rows, k, full, limit)
            assert first_shattered(rows, k, full, limit) == want, \
                (rows, k, full, limit)
            outcomes.add(type(want).__name__)
    assert undersized > 0
    assert outcomes == {"tuple", "NoneType", "BudgetExceeded"}


def test_first_shattered_past_every_combination_is_none():
    # more members than rows: no combination and no node, whatever the limit,
    # and no 2^k is built on the way
    for limit in (None, 0, 1):
        assert first_shattered([1, 2, 3], 4, 7, limit) is None
        assert first_shattered([1, 2, 3], 10 ** 12, 7, limit) is None
    # k = 0 is the one empty combination, a witness only when a realizer exists
    assert first_shattered([1], 0, 0) is None
    assert first_shattered([1], 0, 6) == ((), {frozenset(): 1})
    assert first_shattered([1], 0, 0, 0) == BudgetExceeded(1)


def _first_ordered_witness(M, phi, k):
    """The first k-tuple in itertools.product order, each cell answered by its
    least parameter tuple, that verify_independence accepts."""
    objs = sorted(M.tuples(phi.r))
    pars = sorted(M.tuples(phi.s))
    sat = {(a, b): phi.holds(M, a, b) for a in objs for b in pars}
    cells = [frozenset(w) for size in range(k + 1)
             for w in itertools.combinations(range(k), size)]
    for a in itertools.product(objs, repeat=k):
        b = {}
        for w in cells:
            hits = [p for p in pars
                    if all(sat[a[i], p] == (i in w) for i in range(k))]
            if not hits:
                break
            b[w] = hits[0]
        else:
            wit = IndependenceWitness(a, b)
            if verify_independence(M, phi, wit):
                return wit
    return None


def test_independence_witness_is_first_in_product_order():
    sig = Signature((("R", 2),))
    formulas = [parse_formula(text, sig).formula for text in (
        "phi(x0; y0) := R(x0,y0)",
        "phi(x0; y0) := R(y0,x0) & ~R(x0,y0)",
        "phi(x0; y0,y1) := R(x0,y0) | R(y1,x0)",
        "phi(x0,x1; y0) := R(x0,y0) & ~R(x1,y0)")]
    rng = SplitMix64(7)
    found = 0
    for _ in range(40):
        n = 2 + rng.below(3)
        M = Structure(sig, n, {"R": [(i, j) for i in range(n) for j in range(n)
                                     if rng.bit()]})
        for phi in formulas:
            for k in (1, 2, 3):
                if phi.r == 2 and k == 3:
                    continue
                want = _first_ordered_witness(M, phi, k)
                assert find_k_independence(M, phi, k) == want
                found += want is not None
    assert found > 20


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------


def test_linear_order_orders_itself():
    M = linear_order(4)
    w = find_n_order(M, LESS, 4)
    assert w.a == ((0,), (1,), (2,), (3,))
    assert verify_order(M, LESS, w.a)


def test_symmetric_relation_has_no_pairwise_order():
    for seed in range(10):
        assert find_n_order(seeded_graph(5, seed), EDGE, 2) is None


def test_single_point_order_needs_no_loop():
    w = find_n_order(path_graph(3), EDGE, 1)
    assert w.a == ((0,),)


def test_order_requires_equal_blocks():
    src = build_rho(EDGE)  # 3/3 blocks are fine
    with pytest.raises(PreconditionError):
        from fmlab import atom_formula
        phi = atom_formula("R", ["x0"], ["y0", "y1"])
        find_n_order(path_graph(3), phi, 2)
    assert src.r == src.s


def _order_by_scalar_cells(M, phi, n):
    """find_n_order before it read rows, kept literally: every cell a
    memoised scalar `SatTable.holds`."""
    if n < 1:
        raise PreconditionError("n must be >= 1")
    if phi.r != phi.s:
        raise PreconditionError("order search requires l(x) = l(y)")
    limit = search_budget()
    objs = sorted(M.tuples(phi.r))
    holds = functools.cache(SatTable(M, phi).holds)
    nodes = 0
    chosen = []

    def extend():
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


def _unbound(ast):
    """EDGE's blocks over an ast that names a variable outside both; the
    constructor refuses those, so it is set in afterwards."""
    phi = PartitionedFormula(Atom("R", ("x0", "y0")), ("x0",), ("y0",))
    object.__setattr__(phi, "ast", ast)
    return phi


# formulas whose vector compile defers: each error waits for a cell whose
# first conjunct holds, so a search that meets none ends without one
DEFERRED = [
    PartitionedFormula(And(Atom("R", ("x0", "y0")), Atom("R", ("x0",))),
                       ("x0",), ("y0",)),
    _unbound(And(Atom("R", ("y0", "x0")), Atom("R", ("x0", "w0")))),
]


# pairs: x0 sees y0, and x1 has a neighbour that does not see y1
PAIR_STEP = PartitionedFormula(
    And(Atom("R", ("x0", "y0")),
        Exists("z0", And(Atom("R", ("x1", "z0")), Not(Atom("R", ("z0", "y1")))))),
    ("x0", "x1"), ("y0", "y1"))


def test_order_search_on_rows_matches_the_scalar_search(monkeypatch):
    # witness, None, BudgetExceeded.nodes and the first error agree with
    # the scalar search on graphs, digraphs and linear orders: atomic and
    # quantified formulas and their negations, build_rho(EDGE) (the path
    # verify_order_bound takes), a quantified formula on pairs, and
    # formulas that only scalar cells run
    rng = SplitMix64(20261025)
    makers = (seeded_graph, seeded_digraph, _seeded_order)
    formulas = [EDGE, EDGE.negated(), DIST2, DIST2.negated()]
    rho = build_rho(EDGE)
    seen = {"witness": 0, "none": 0, "budget": 0, "error": 0}
    for case in range(175):
        pick = case % 7
        size = 6 if pick in (4, 5) else 9  # rho's blocks have three entries
        M = makers[case % 3](rng.below(size), 9000 + case)
        phi = (formulas + [rho, PAIR_STEP] + [DEFERRED[case % 2]])[pick]
        for n in range(1, 5):
            for limit in (1, 3, 10, 40, None):
                if limit is None:
                    monkeypatch.delenv("FMLAB_BUDGET", raising=False)
                else:
                    monkeypatch.setenv("FMLAB_BUDGET", str(limit))
                want = outcome(lambda: _order_by_scalar_cells(M, phi, n))
                assert outcome(lambda: find_n_order(M, phi, n)) == want, (case, n, limit)
                seen["witness" if isinstance(want, OrderWitness) else
                     "budget" if isinstance(want, BudgetExceeded) else
                     "none" if want is None else "error"] += 1
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# weak order
# ---------------------------------------------------------------------------


def test_weak_order_on_linear_order():
    M = linear_order(3)  # universe {0,1,2}
    w = find_weak_m_order(M, LESS, 2)
    assert w.d == ((1,), (2,))
    assert w.realizers == ((0,), (1,))
    assert verify_weak_order(M, LESS, w)


def test_weak_order_needs_an_edge():
    assert find_weak_m_order(empty_graph(3), EDGE, 1) is None


def test_single_edge_gives_weak_one_order():
    K2 = graph(2, [(0, 1)])
    w = find_weak_m_order(K2, EDGE, 1)
    assert w.d == ((0,),)
    assert w.realizers == ((1,),)


def test_weak_order_downward_closed():
    M = linear_order(5)
    for m in (3, 2):
        if find_weak_m_order(M, LESS, m) is not None:
            assert find_weak_m_order(M, LESS, m - 1) is not None


def _weak_order_by_permutations(M, phi, m):
    """find_weak_m_order before it pruned by prefix, kept literally: every
    m-permutation of the parameters, one node each, over the rows of
    phi.swapped()'s table."""
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if phi.r < 1 or phi.s < 1:
        raise PreconditionError("weak order search needs nonempty blocks")
    limit = search_budget()
    pars = sorted(M.tuples(phi.s))
    objs = sorted(M.tuples(phi.r))
    cols = dict(zip(pars, SatTable(M, phi.swapped()).rows(pars, objs)))
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


def test_weak_order_search_matches_the_permutation_loop(monkeypatch):
    # witness, None, BudgetExceeded.nodes and the first error agree with the
    # unpruned permutation loop on graphs, digraphs and linear orders of 1-9
    # vertices: atomic and quantified formulas, their negations, and
    # formulas that only scalar cells run
    rng = SplitMix64(20261027)
    makers = (seeded_graph, seeded_digraph, _seeded_order)
    formulas = [EDGE, EDGE.negated(), DIST2, DIST2.negated()] + DEFERRED
    seen = {"witness": 0, "none": 0, "budget": 0, "error": 0}
    for case in range(144):
        M = makers[case % 3](1 + rng.below(9), 9500 + case)
        phi = formulas[case // 3 % 6]
        for m in (1, 2, 3):
            for limit in (1, 3, 10, 40, None):
                if limit is None:
                    monkeypatch.delenv("FMLAB_BUDGET", raising=False)
                else:
                    monkeypatch.setenv("FMLAB_BUDGET", str(limit))
                want = outcome(lambda: _weak_order_by_permutations(M, phi, m))
                assert outcome(lambda: find_weak_m_order(M, phi, m)) == want, (case, m, limit)
                seen["witness" if isinstance(want, WeakOrderWitness) else
                     "budget" if isinstance(want, BudgetExceeded) else
                     "none" if want is None else "error"] += 1
    assert min(seen.values()) >= 20, seen


def test_transposed_columns_keep_the_first_error():
    # P and Q are not in the signature, so phi's vector compile defers and
    # weak order and cover read phi.swapped()'s scalar table, column by
    # column, which meets Q first; phi's own rows, row by row, meet P first
    M = digraph(3, [(0, 1)])
    fwd, back = Atom("R", ("x0", "y0")), Atom("R", ("y0", "x0"))
    phi = PartitionedFormula(And(Implies(And(fwd, Not(back)), Atom("P", ("x0",))),
                                 Implies(And(back, Not(fwd)), Atom("Q", ("x0",)))),
                             ("x0",), ("y0",))
    objs = sorted(M.tuples(1))
    assert outcome(lambda: SatTable(M, phi).rows(objs, objs)) == \
        (FmlabError, "unknown relation: P")
    assert outcome(lambda: find_weak_m_order(M, phi, 2)) == \
        (FmlabError, "unknown relation: Q")
    assert outcome(lambda: find_cover_violation(M, phi, 2, 3)) == \
        (FmlabError, "unknown relation: Q")


# ---------------------------------------------------------------------------
# cover
# ---------------------------------------------------------------------------


def test_five_cycle_cover_violation():
    v = find_cover_violation(cycle_graph(5), EDGE, 2, 5)
    assert v.n == 2 and v.b == ((0,), (1,))
    assert verify_cover_violation(cycle_graph(5), EDGE, 2, v)


def test_triangle_cover_violation_at_three():
    v = find_cover_violation(complete_graph(3), EDGE, 2, 3)
    assert v.n == 3 and v.b == ((0,), (1,), (2,))
    assert verify_cover_violation(complete_graph(3), EDGE, 2, v)


def test_star_restricted_to_leaves_has_no_violation():
    star = star_graph(3)
    assert find_cover_violation(star, EDGE, 2, 3,
                                params=[(1,), (2,), (3,)]) is None


def _cover_by_enumeration(M, phi, d, n_max, pars, domain, limit):
    """find_cover_violation before its pruning, kept literally: every family
    of d..n_max of the distinct parameters `pars`, level by level in
    `itertools.combinations` order, one node each. The columns come from the
    reference interpreter."""
    objs = sorted(M.tuples(phi.r, domain=domain))
    cols = {b: sum(1 << i for i, a in enumerate(objs)
                   if phi.holds(M, a, b, domain=domain)) for b in pars}
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


DIST2 = PartitionedFormula(Exists("z0", And(Atom("R", ("x0", "z0")),
                                            Atom("R", ("z0", "y0")))),
                           ("x0",), ("y0",))
# two parameters: x0 sees y0 but not y1
SEES_NOT = PartitionedFormula(And(Atom("R", ("x0", "y0")),
                                  Not(Atom("R", ("x0", "y1")))),
                              ("x0",), ("y0", "y1"))


def _seeded_order(n, seed):
    rng = SplitMix64(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return digraph(n, [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)])


def test_cover_search_matches_the_enumeration(monkeypatch):
    # witness, None and BudgetExceeded.nodes agree exactly with the unpruned
    # enumeration, across structures, formulas, d, n_max, parameter lists
    # (none, with repeats, empty), domains and budgets; on a domain the
    # search runs on the induced structure, and its witness is mapped back
    rng = SplitMix64(20261018)
    makers = (seeded_graph, seeded_digraph, _seeded_order)
    formulas = (EDGE, EDGE.negated(), DIST2, SEES_NOT)
    seen = {"witness": 0, "none": 0, "budget": 0}
    for case in range(360):
        n = rng.below(9)
        M = makers[case % 3](n, 7000 + case)
        phi = formulas[rng.below(len(formulas))]
        d = 1 + rng.below(4)
        n_max = d + rng.below(6)
        domain = None
        if rng.bit():
            domain = frozenset(e for e in range(n) if rng.bit())
        every = sorted(M.tuples(phi.s, domain=domain))
        pick = rng.below(3)
        if pick == 0:
            params, pars = None, every
        elif pick == 1 and every:
            params = [every[rng.below(len(every))]
                      for _ in range(rng.below(2 * len(every) + 1))]
            params += params[:rng.below(len(params) + 1)]
            pars = sorted(set(params))
        else:
            params, pars = [], []
        sub, back = induced(M, domain)
        index = {e: i for i, e in enumerate(back)}
        sub_params = None if params is None else [
            tuple(index[e] for e in b) for b in params]
        for limit in (1, 3, 10, 40, 200):
            monkeypatch.setenv("FMLAB_BUDGET", str(limit))
            want = _cover_by_enumeration(M, phi, d, n_max, pars, domain, limit)
            got = find_cover_violation(sub, phi, d, n_max, params=sub_params)
            if isinstance(got, CoverViolation):
                got = CoverViolation(got.n, tuple(tuple(back[i] for i in b)
                                                  for b in got.b))
            assert got == want, (case, limit)
            seen["witness" if isinstance(want, CoverViolation) else
                 "budget" if isinstance(want, BudgetExceeded) else "none"] += 1
    assert min(seen.values()) >= 100, seen


def test_cover_search_sees_past_empty_columns(monkeypatch):
    # one or two isolated vertices, first, middle or last, give empty
    # columns, which the prune leaves out for d >= 2; witness, None and
    # BudgetExceeded.nodes still agree with the unpruned enumeration, over
    # whole and partial parameter lists. At d = 1 the first empty column is
    # the level-1 witness
    rng = SplitMix64(20261026)
    seen = {"witness": 0, "none": 0, "budget": 0}
    for case in range(180):
        n = 3 + rng.below(6)
        spots = [0, n // 2, n - 1]
        isolated = {spots[case % 3]}
        if case % 2:
            isolated.add(spots[(case // 3 + 1) % 3])
        base = (seeded_graph, seeded_digraph, _seeded_order)[case // 6 % 3](n, 8000 + case)
        M = digraph(n, [e for e in base.relations["R"] if not isolated & set(e)])
        phi = (EDGE, DIST2, SEES_NOT)[case // 18 % 3]
        d = 1 + case // 54 % 3
        n_max = d + rng.below(5)
        every = sorted(M.tuples(phi.s))
        params = None if rng.bit() else [b for b in every if rng.below(3)]
        pars = every if params is None else params
        for limit in (1, 2, 5, 20, 60, 200):
            monkeypatch.setenv("FMLAB_BUDGET", str(limit))
            want = _cover_by_enumeration(M, phi, d, n_max, pars, None, limit)
            got = find_cover_violation(M, phi, d, n_max, params=params)
            assert got == want, (case, limit)
            seen["witness" if isinstance(want, CoverViolation) else
                 "budget" if isinstance(want, BudgetExceeded) else "none"] += 1
        # an isolated vertex's column is empty, and so may be others
        empty = [b for b in pars if not any(phi.holds(M, a, b) for a in M.tuples(1))]
        assert {b for b in pars if b[0] in isolated} <= set(empty)
        if d == 1 and empty:
            monkeypatch.delenv("FMLAB_BUDGET")
            assert find_cover_violation(M, phi, 1, n_max, params=params) == \
                CoverViolation(1, (empty[0],)), case
    assert min(seen.values()) >= 50, seen


def test_cover_search_ignores_repeated_parameters(monkeypatch):
    M = path_graph(4)
    for limit in (1, 2, 3, 100):
        monkeypatch.setenv("FMLAB_BUDGET", str(limit))
        once = find_cover_violation(M, EDGE, 2, 4, params=[(0,), (2,), (3,)])
        twice = find_cover_violation(M, EDGE, 2, 4,
                                     params=[(0,), (0,), (2,), (3,)])
        assert twice == once, limit
    monkeypatch.setenv("FMLAB_BUDGET", "2")
    assert find_cover_violation(M, EDGE, 2, 4, params=[(3,), (0,), (2,), (0,)]) \
        == CoverViolation(2, ((0,), (3,)))
    monkeypatch.setenv("FMLAB_BUDGET", "1")
    assert find_cover_violation(M, EDGE, 2, 4, params=[(0,), (0,), (2,), (3,)]) \
        == BudgetExceeded(2)


def test_one_search_battery_compiles_one_table(monkeypatch):
    # the seven calls of one search-workload query read one memoised table
    # of phi: order takes it as rows, weak order and cover as its transposed
    # columns, and nothing compiles phi.swapped() to rows. phi's closures
    # are bound to M once, when the table is built: deciding whether it
    # compiles to rows reads the shape memo and binds nothing
    shapes, binds = [], []
    compile_shape = core._compile_shape

    def recording(sig, n, phi, vector):
        shapes.append((phi, vector))
        bind = compile_shape(sig, n, phi, vector)
        return bind and (lambda M: binds.append((phi, vector)) or bind(M))
    monkeypatch.setattr(core, "_compile_shape", recording)
    formulas = [EDGE, EDGE.negated(), DIST2, DIST2.negated()]
    for case, phi in enumerate(formulas * 3):
        M = (seeded_graph, seeded_digraph, _seeded_order)[case % 3](6 + case % 5, 9700 + case)
        A = [(b,) for b in range(M.universe_size)]
        misses = core._sat_rows.cache_info().misses
        binds.clear()
        find_k_independence(M, phi, 2)
        find_k_independence(M, phi, 3)
        find_n_order(M, phi, 3)
        find_weak_m_order(M, phi, 2)
        find_cover_violation(M, phi, 2, M.universe_size)
        count_phi_types(M, phi, A)
        verify_independence_bound(M, phi, A, 2)
        assert core._sat_rows.cache_info().misses == misses + 1, case
        assert binds == [(phi, 1)], case
    assert (EDGE, 1) in shapes
    swapped = {phi.swapped() for phi in formulas}
    assert not [(f, v) for f, v in shapes if f in swapped and v is not None]


def _independence_unmemoised(M, phi, k):
    """`find_k_independence` as it ran before its verdict was memoised: the
    table is read, then the budget, and the kernel runs on every call."""
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if phi.r < 1 or phi.s < 1:
        raise PreconditionError("independence search needs nonempty blocks")
    objs = list(M.tuples(phi.r))
    pars = list(M.tuples(phi.s))
    got = first_shattered(SatTable(M, phi).rows(objs, pars), k,
                          (1 << len(pars)) - 1, search_budget())
    if got is None or isinstance(got, BudgetExceeded):
        return got
    combo, least = got
    return IndependenceWitness(tuple(objs[i] for i in combo),
                               {w: pars[j] for w, j in least.items()})


def test_independence_verdict_memo_matches_the_unmemoised_search(monkeypatch):
    # witness, None, BudgetExceeded.nodes and the first error agree with the
    # unmemoised search at k = 1, 2, 3 on graphs and digraphs, for atomic
    # and quantified formulas and one that only scalar cells run, with the
    # budget unset, 0, small and invalid; each verdict is asked for twice,
    # so the second answer is a memo hit, and the budget changes between
    # the calls on one (structure, formula, k), so a hit served under
    # another budget would show. Under an invalid budget a formula whose
    # cells fail raises the cells' error, since the table is read first
    rng = SplitMix64(20261031)
    makers = (seeded_graph, seeded_digraph)
    formulas = [EDGE, EDGE.negated(), DIST2, DEFERRED[0]]
    seen = {"witness": 0, "none": 0, "budget": 0, "budget error": 0,
            "cell error": 0, "cell error, invalid budget": 0}
    for case in range(40):
        M = makers[case % 2](3 + rng.below(5), 31000 + case)
        phi = formulas[case // 2 % len(formulas)]
        for limit in (None, "0", "2", "7", "not-a-number", None, "-5", "2"):
            if limit is None:
                monkeypatch.delenv("FMLAB_BUDGET", raising=False)
            else:
                monkeypatch.setenv("FMLAB_BUDGET", limit)
            for k in (1, 2, 3):
                want = outcome(lambda: _independence_unmemoised(M, phi, k))
                for _ in range(2):
                    assert outcome(lambda: find_k_independence(M, phi, k)) == want, \
                        (case, limit, k)
                if isinstance(want, tuple) and "FMLAB_BUDGET" not in want[1]:
                    kind = ("cell error, invalid budget" if limit in ("-5", "not-a-number")
                            else "cell error")
                else:
                    kind = ("witness" if isinstance(want, IndependenceWitness) else
                            "budget" if isinstance(want, BudgetExceeded) else
                            "none" if want is None else "budget error")
                seen[kind] += 1
    assert min(seen.values()) >= 10, seen


def test_the_bound_reads_the_verdict_its_query_reached(monkeypatch):
    # after find_k_independence(M, phi, 2) the bound runs no search of its
    # own, and its report bytes equal those of a run with an empty memo
    kernel, ks = detect.first_shattered, []
    monkeypatch.setattr(detect, "first_shattered",
                        lambda rows, k, *rest: ks.append(k) or kernel(rows, k, *rest))
    formulas = [EDGE, EDGE.negated(), DIST2, DIST2.negated()]
    outcomes = set()
    for case, phi in enumerate(formulas * 3):
        M = (seeded_graph, seeded_digraph, _seeded_order)[case % 3](6 + case % 5, 9800 + case)
        A = [(b,) for b in range(M.universe_size)]
        detect._independence.cache_clear()
        cold = emit_report(verify_independence_bound(M, phi, A, 2))
        assert ks == [2], case
        ks.clear()
        detect._independence.cache_clear()
        wit = find_k_independence(M, phi, 2)
        warm = emit_report(verify_independence_bound(M, phi, A, 2))
        assert ks == [2] and warm == cold, case
        ks.clear()
        outcomes.add(wit is None)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_path_type_splits_over_empty_set():
    P3 = path_graph(3)
    delta = [EDGE, EDGE.negated()]
    p = tp(delta, (0,), [(1,), (2,)], P3)
    ok, wit = splits(p, [], delta, delta, P3)
    assert ok and wit.b == (1,) and wit.c == (2,)


def test_all_positive_type_never_splits():
    K3 = complete_graph(3)
    delta = [EDGE, EDGE.negated()]
    p = tp(delta, (0,), [(1,), (2,)], K3)
    ok, _ = splits(p, [], [EDGE], delta, K3)
    assert not ok


def test_no_split_when_types_distinguish_everything():
    P3 = path_graph(3)
    delta = [EDGE, EDGE.negated()]
    p = tp(delta, (0,), [(1,), (2,)], P3)
    # over the full domain, (1,) and (2,) have different types in P3
    ok, _ = splits(p, [(1,), (2,)], delta, delta, P3)
    assert not ok


def test_split_monotone_under_base_shrinking():
    # if p splits over the bigger base, it splits over any subset of it
    delta = [EDGE, EDGE.negated()]
    for M in all_graphs(4):
        dom = [(i,) for i in range(4)]
        for a in range(4):
            p = tp(delta, (a,), dom, M)
            for size in (1, 2):
                for C in itertools.combinations(dom, size):
                    ok_C, _ = splits(p, C, delta, delta, M)
                    if not ok_C:
                        continue
                    for B in itertools.combinations(C, size - 1):
                        ok_B, _ = splits(p, B, delta, delta, M)
                        assert ok_B


# ---------------------------------------------------------------------------
# the comparison formula and its constructive witness
# ---------------------------------------------------------------------------


def test_split_checker_matches_the_type_definition():
    # verify_split accepts (f, b, c) exactly when f is in delta0, p holds f
    # at b and refutes it at c, and tp(delta1, b, B) == tp(delta1, c, B);
    # delta1 mixes a quantified formula, its negation and a parameter-free
    # one, so types over the empty set still tell elements apart
    HAS_EDGE = PartitionedFormula(Exists("z0", Atom("R", ("x0", "z0"))), ("x0",), ())
    deltas = [([EDGE, EDGE.negated()], [EDGE, EDGE.negated()]),
              ([EDGE], [DIST2, DIST2.negated(), HAS_EDGE])]
    dom = [(i,) for i in range(4)]
    accepted = rejected = 0
    for g, M in enumerate(all_graphs(4)):
        delta0, delta1 = deltas[g % 2]
        p = tp([EDGE, EDGE.negated()], (g % 4,), dom, M)
        for B in [[], [(g % 3,)], [(1,), (3,)]]:
            ok, wit = splits(p, B, delta0, delta1, M)
            if ok:
                assert verify_split(M, p, B, delta0, delta1, wit)
            for f in [EDGE, EDGE.negated(), DIST2]:
                for b in dom:
                    for c in dom:
                        want = (f in delta0 and p.sign(f, b) is True
                                and p.sign(f, c) is False
                                and tp(delta1, b, B, M) == tp(delta1, c, B, M))
                        got = verify_split(M, p, B, delta0, delta1, SplitWitness(f, b, c))
                        assert got == want, (g, B, f, b, c)
                        accepted += want
                        rejected += not want
    assert accepted >= 50 and rejected >= 50, (accepted, rejected)


def test_split_checker_calls_neither_tp_nor_the_search():
    names = set(verify_split.__code__.co_names)
    assert not names & {"tp", "splits", "realized_types"}, names


def test_build_rho_pads_blocks_to_equal_length():
    rho = build_rho(EDGE)
    assert rho.r == rho.s == 3
    # evaluation only looks at x0, y1, y2
    P3 = path_graph(3)
    assert rho.holds(P3, (0, 2, 2), (1, 1, 1)) is True   # R(0,1) <-> R(0,1)
    assert rho.holds(P3, (0, 0, 0), (0, 1, 2)) is False  # R(0,1) vs R(0,2)


LEM1_CHAIN = [frozenset(), frozenset({0, 15}), frozenset({0, 3, 11, 15}),
              frozenset({0, 3, 5, 9, 11, 15}),
              frozenset({0, 3, 5, 6, 8, 9, 11, 15})]


def test_constructive_order_witness_on_large_order():
    M = linear_order(16)
    A4 = sorted(LEM1_CHAIN[4])
    p = tp([LESS, LESS.negated()], (7,), [(a,) for a in A4], M)
    res = splitting_order_witness(M, LESS, LEM1_CHAIN, p, 2)
    assert isinstance(res, OrderWitness)
    rho = build_rho(LESS)
    assert verify_order(M, rho, res.a)


def test_constructive_witness_failure_report_names_level():
    M = linear_order(16)
    flat = [frozenset({0})] * 5
    p = tp([LESS, LESS.negated()], (7,), [(0,)], M)
    res = splitting_order_witness(M, LESS, flat, p, 2)
    assert isinstance(res, SplittingChainFailure)
    assert res.hypothesis == "splitting" and res.i == 0


def test_constructive_witness_obeys_the_budget(monkeypatch):
    M = linear_order(16)
    A4 = sorted(LEM1_CHAIN[4])
    p = tp([LESS, LESS.negated()], (7,), [(a,) for a in A4], M)
    monkeypatch.setenv("FMLAB_BUDGET", "0")
    assert splitting_order_witness(M, LESS, LEM1_CHAIN, p, 2) == BudgetExceeded(1)
    # both hypotheses examine the 1 + 4 + 16 + 64 subsets of levels 0-3,
    # then the construction tries 3 candidates c_j; node 101 is in hypothesis 2
    monkeypatch.setenv("FMLAB_BUDGET", "100")
    assert splitting_order_witness(M, LESS, LEM1_CHAIN, p, 2) == BudgetExceeded(101)
    monkeypatch.setenv("FMLAB_BUDGET", "172")
    assert splitting_order_witness(M, LESS, LEM1_CHAIN, p, 2) == BudgetExceeded(173)
    monkeypatch.setenv("FMLAB_BUDGET", "173")
    assert isinstance(splitting_order_witness(M, LESS, LEM1_CHAIN, p, 2),
                      OrderWitness)


def test_constructive_witness_then_weak_order():
    # when the construction succeeds with n and the arrow relation
    # (2n) -> (m+1)^2_2 holds, the weak m-order follows for the base formula
    M = linear_order(16)
    A4 = sorted(LEM1_CHAIN[4])
    p = tp([LESS, LESS.negated()], (7,), [(a,) for a in A4], M)
    res = splitting_order_witness(M, LESS, LEM1_CHAIN, p, 2)
    assert isinstance(res, OrderWitness)
    m = 1
    assert arrow_check(2 * 2, m + 1, 2, 2)
    neg = LESS.negated()
    assert (find_weak_m_order(M, LESS, m) is not None
            or find_weak_m_order(M, neg, m) is not None)


# ---------------------------------------------------------------------------
# arrow relation
# ---------------------------------------------------------------------------


def test_arrow_six_to_three():
    assert arrow_check(6, 3, 2, 2) is True


def test_arrow_five_to_three_fails():
    assert arrow_check(5, 3, 2, 2) is False


def test_arrow_single_color_class():
    for x in (2, 3, 5):
        assert arrow_check(x, x, 2, 1) is True


def test_arrow_size_guard():
    with pytest.raises(TooLargeError):
        arrow_check(30, 4, 2, 2)


def test_arrow_size_guard_comes_before_any_allocation():
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(TooLargeError):
            arrow_check(20000, 3, 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 1 << 20


def test_arrow_with_one_color_or_no_cells_is_decided_at_once():
    start = time.perf_counter()
    assert arrow_check(300, 3, 2, 1) is True
    assert arrow_check(300, 3, 0, 5) is True
    assert time.perf_counter() - start < 1.0
    # every y-set is monochromatic, so only x >= y matters
    for x, y in itertools.product(range(5), repeat=2):
        assert arrow_check(x, y, 0, 3) is (x >= y)
        assert arrow_check(x, y, 1, 1) is (x >= y or y < 1)


def _arrow_by_definition(x, y, a, b):
    """x -> (y)^a_b read literally: every coloring of the a-subsets has a
    y-subset whose a-subsets all share one color."""
    cells = list(itertools.combinations(range(x), a))
    ysets = [list(itertools.combinations(ys, a))
             for ys in itertools.combinations(range(x), y)]
    for coloring in itertools.product(range(b), repeat=len(cells)):
        color = dict(zip(cells, coloring))
        if not any(len({color[c] for c in ys}) <= 1 for ys in ysets):
            return False
    return True


def test_arrow_matches_its_definition():
    verdicts = {b: set() for b in range(1, 5)}
    cases = 0
    for x in range(8):
        for y, a, b in itertools.product(range(x + 2), range(4), range(1, 5)):
            if b ** comb(x, a) > 4096:
                continue
            want = _arrow_by_definition(x, y, a, b)
            assert arrow_check(x, y, a, b) is want, (x, y, a, b)
            verdicts[b].add(want)
            cases += 1
    assert cases == 565
    assert all(v == {True, False} for v in verdicts.values())


def test_arrow_with_no_y_subsets_fails():
    # no 3-subset of a 2-set exists, however few cells a 3-set would have
    assert arrow_check(2, 3, 5, 2) is False
    assert arrow_check(0, 1, 2, 3) is False
    assert arrow_check(3, 3, 5, 2) is True


def test_arrow_pigeonhole_boundary():
    # x -> (y)^1_b iff x >= b(y-1) + 1
    assert arrow_check(7, 3, 1, 3) is True
    assert arrow_check(6, 3, 1, 3) is False
    assert arrow_check(9, 3, 1, 4) is True
    assert arrow_check(8, 3, 1, 4) is False


def test_stirling_threshold_matches_rational_inequality():
    from fractions import Fraction
    for m in range(1, 6):
        boundary = Fraction(2 ** (2 * m - 1))
        for n in range(0, 50):
            # rounded-up pi can only admit slightly more n than true pi
            lhs = Fraction(n)
            approx = stirling_threshold(n, m)
            exact_low = lhs >= boundary / (Fraction(3141592653589793239, 10 ** 18) * m)
            exact_high = lhs >= boundary / (Fraction(3141592653589793238, 10 ** 18) * m)
            assert exact_low <= approx <= exact_high or approx in (exact_low, exact_high)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("FMLAB_BUDGET", "3")
    M = seeded_graph(6, 2)
    assert isinstance(find_k_independence(M, EDGE, 3), BudgetExceeded)
    P = path_graph(4)
    searches = [lambda: find_k_independence(P, EDGE, 2),
                lambda: find_n_order(P, EDGE, 2),
                lambda: find_n_order(P, build_rho(EDGE), 2),
                lambda: find_weak_m_order(P, EDGE, 2),
                lambda: find_cover_violation(P, EDGE, 2, 4),
                lambda: find_shattered([frozenset({0}), frozenset()], 1),
                lambda: kappa(P, [EDGE, EDGE.negated()], 1)]
    monkeypatch.setenv("FMLAB_BUDGET", "0")
    assert [search() for search in searches] == [BudgetExceeded(1)] * len(searches)
    # under a nonzero budget each marker names the node one past it; the
    # cover search at d = 1 runs out at a leaf, not at a pruned subtree
    monkeypatch.setenv("FMLAB_BUDGET", "3")
    longer = searches[:3] + [
        lambda: find_weak_m_order(P, EDGE, 3),
        lambda: find_cover_violation(P, EDGE, 1, 4),
        lambda: find_shattered([frozenset({i}) for i in range(5)], 2),
        searches[-1]]
    assert [search() for search in longer] == [BudgetExceeded(4)] * len(longer)
    for bad in ("not-a-number", "-5"):
        monkeypatch.setenv("FMLAB_BUDGET", bad)
        for search in searches:
            with pytest.raises(FmlabError, match="FMLAB_BUDGET"):
                search()


def test_search_budget_follows_every_change_to_the_environment(monkeypatch):
    import os

    from fmlab.util import DEFAULT_BUDGET
    # record the variable's state first, so that teardown restores it
    monkeypatch.setenv("FMLAB_BUDGET", "1")
    monkeypatch.delenv("FMLAB_BUDGET")
    assert search_budget() == DEFAULT_BUDGET
    steps = [
        (lambda: os.environ.__setitem__("FMLAB_BUDGET", "7"), 7),
        (lambda: os.environ.__setitem__("FMLAB_BUDGET", "12"), 12),
        (lambda: os.environ.__delitem__("FMLAB_BUDGET"), DEFAULT_BUDGET),
        (lambda: os.environ.__setitem__("FMLAB_BUDGET", "0"), 0),
        (lambda: monkeypatch.setenv("FMLAB_BUDGET", "5"), 5),
        (lambda: monkeypatch.setenv("FMLAB_BUDGET", "6"), 6),
        (lambda: monkeypatch.delenv("FMLAB_BUDGET"), DEFAULT_BUDGET),
        (lambda: monkeypatch.setenv("FMLAB_BUDGET", "3"), 3),
        (lambda: os.environ.pop("FMLAB_BUDGET"), DEFAULT_BUDGET),
        (lambda: os.environ.update(FMLAB_BUDGET="１２"), 12),
        (lambda: os.environ.__setitem__("FMLAB_BUDGET", " 8 "), 8),
    ]
    for change, want in steps:
        change()
        assert search_budget() == want
    refusals = [("not-a-number", "FMLAB_BUDGET is not an integer: 'not-a-number'"),
                ("-5", "FMLAB_BUDGET is negative: '-5'"),
                ("é", "FMLAB_BUDGET is not an integer: 'é'")]
    for bad, message in refusals:
        for write in (os.environ.__setitem__, monkeypatch.setenv):
            write("FMLAB_BUDGET", bad)
            with pytest.raises(FmlabError) as got:
                search_budget()
            assert str(got.value) == message
        del os.environ["FMLAB_BUDGET"]
        assert search_budget() == DEFAULT_BUDGET


def test_the_environment_is_the_only_budget():
    import dataclasses
    import inspect

    import fmlab
    for name, obj in vars(fmlab).items():
        if inspect.isfunction(obj):
            assert "budget" not in inspect.signature(obj).parameters, name
    assert not inspect.signature(fmlab.search_budget).parameters
    # options that no caller set
    for fn, option in ((fmlab.check_indiscernible, "oracle"),
                       (fmlab.average_type, "check"),
                       (fmlab.is_good, "max_len"),
                       (fmlab.sample_graph_rows, "edge_probability")):
        assert option not in inspect.signature(fn).parameters, fn.__name__
    assert "edge_probability" not in {
        f.name for f in dataclasses.fields(fmlab.ExperimentConfig)}


def test_every_witness_reverifies():
    for seed in range(20):
        M = seeded_graph(5, 5000 + seed)
        w = find_k_independence(M, EDGE, 2)
        if isinstance(w, IndependenceWitness):
            assert verify_independence(M, EDGE, w)
        v = find_cover_violation(M, EDGE, 2, 5)
        if isinstance(v, CoverViolation):
            assert verify_cover_violation(M, EDGE, 2, v)
        o = find_weak_m_order(M, EDGE, 2)
        if o is not None:
            assert verify_weak_order(M, EDGE, o)
