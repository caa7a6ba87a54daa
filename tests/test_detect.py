"""Witness searches and their independent verifiers."""

import itertools
import time
from math import comb
import tracemalloc

import pytest

from fmlab import (BudgetExceeded, CoverViolation, IndependenceWitness,
                   SplittingChainFailure, OrderWitness, PreconditionError,
                   Signature, SplitMix64, Structure, arrow_check, build_rho,
                   find_cover_violation, find_k_independence, find_n_order,
                   find_weak_m_order, parse_formula, splitting_order_witness,
                   splits, stirling_threshold, tp, verify_cover_violation,
                   verify_independence, verify_order, verify_weak_order)
from fmlab.detect import first_shattered
from fmlab.util import TooLargeError

from conftest import (EDGE, LESS, all_graphs, complete_graph, cycle_graph,
                      empty_graph, graph, linear_order, path_graph,
                      seeded_graph, star_graph)


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
    # then the construction tries 3 candidates c_j
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
    monkeypatch.setenv("FMLAB_BUDGET", "not-a-number")
    with pytest.raises(Exception, match="FMLAB_BUDGET"):
        find_k_independence(M, EDGE, 3)


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
