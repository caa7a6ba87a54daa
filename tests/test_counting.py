"""Type counting, polynomial bound verification, Sauer-Shelah machinery, and
the exact big-integer arithmetic behind the headline inequality."""

import itertools
import time
from decimal import localcontext

import pytest

from fmlab import (BoundReport, PartitionedFormula, PreconditionError,
                   ShatterWitness, chained_inequality, count_phi_types,
                   exponent_dominates, find_k_independence, find_shattered,
                   no_order_exponent, realized_types, sauer_bound,
                   verify_independence_bound, verify_order_bound,
                   verify_shattered)
from fmlab.core import And, Atom, Exists, Not
from fmlab.counting import compare_powers
from fmlab.util import BudgetExceeded, SplitMix64, TooLargeError
from conftest import (EDGE, all_graphs, complete_graph, cycle_graph,
                      empty_graph, linear_order, outcome, path_graph,
                      seeded_digraph, seeded_graph)


def test_count_types_examples():
    assert count_phi_types(empty_graph(5), EDGE, [(0,), (3,)]) == 1
    assert count_phi_types(path_graph(3), EDGE, [(1,)]) == 2
    assert count_phi_types(complete_graph(4), EDGE, [(0,), (1,)]) == 3


def test_count_monotone_in_parameters():
    for seed in range(15):
        M = seeded_graph(5, seed)
        small = [(0,), (1,)]
        big = small + [(2,), (3,)]
        assert count_phi_types(M, EDGE, small) <= count_phi_types(M, EDGE, big)


def _count_formulas(rel):
    """The atomic formula, the two-step formula, an r = 2, an s = 2 and an
    s = 0 formula over the binary relation `rel`."""
    def R(u, v):
        return Atom(rel, (u, v))
    return [
        PartitionedFormula(R("x0", "y0"), ("x0",), ("y0",)),
        PartitionedFormula(Exists("z0", And(R("x0", "z0"), R("z0", "y0"))),
                           ("x0",), ("y0",)),
        PartitionedFormula(And(R("x0", "y0"), Not(R("x1", "y0"))),
                           ("x0", "x1"), ("y0",)),
        PartitionedFormula(And(R("x0", "y0"), R("y1", "x0")), ("x0",), ("y0", "y1")),
        PartitionedFormula(Exists("z0", R("x0", "z0")), ("x0",), ()),
    ]


def test_count_types_agrees_with_realized_types():
    # the compiled row count matches the reference type set, value or error,
    # with duplicates, wrong-arity tuples and out-of-range parameters in A
    rng = SplitMix64(20261020)
    for trial in range(90):
        n = 1 + rng.below(7)
        kind = trial % 3
        if kind == 0:
            M, rel = seeded_graph(n, rng.below(1 << 30)), "R"
        elif kind == 1:
            M, rel = linear_order(n), "L"
        else:
            M, rel = seeded_digraph(n, rng.below(1 << 30)), "R"
        for phi in _count_formulas(rel):
            pool = list(M.tuples(max(phi.s, 1)))
            wrong = [(n - 1,) * ar for ar in (1, 2, 3) if ar != phi.s][:2]
            A = [pool[rng.below(len(pool))] for _ in range(1 + rng.below(6))]
            A += A[:rng.below(3)] + wrong[:rng.below(3)]
            bad = [(n,) * max(phi.s, 1), (-1,) * max(phi.s, 1)]
            for params in (A, wrong, A + bad[:1 + rng.below(2)]):
                want = outcome(lambda: len(realized_types(
                    [phi, phi.negated()], params, M, phi.r)))
                assert outcome(lambda: count_phi_types(M, phi, params)) == want, \
                    (trial, phi, params)


def test_count_types_refusals_keep_their_order():
    M = seeded_graph(4, 3)
    no_objects = PartitionedFormula(Atom("R", ("y0", "y0")), (), ("y0",))
    with pytest.raises(PreconditionError, match="^A must be nonempty$"):
        count_phi_types(M, EDGE, [])
    with pytest.raises(PreconditionError, match="^A must be nonempty$"):
        count_phi_types(M, no_objects, [])
    want = outcome(lambda: realized_types([no_objects, no_objects.negated()],
                                          [(0,)], M, 0))
    assert want == (PreconditionError, "object arity must be >= 1")
    assert outcome(lambda: count_phi_types(M, no_objects, [(0,)])) == want


def test_order_bound_on_path():
    rep = verify_order_bound(path_graph(3), EDGE, [(1,), (2,)], 2)
    assert rep.hypothesis_ok
    assert rep.lhs <= 4
    assert rep.holds
    assert rep.rhs is None  # too large to materialize
    assert rep.rhs_exponent == 2 ** 36


def test_order_bound_requires_two_parameters():
    with pytest.raises(PreconditionError, match=">= 2"):
        verify_order_bound(path_graph(3), EDGE, [(1,)], 2)


def test_order_bound_small_exponent_materializes():
    rep = verify_order_bound(path_graph(3), EDGE, [(1,), (2,)], 1)
    assert rep.rhs_exponent == 512
    assert rep.rhs == 2 * 1 * (2 ** 512)
    # hypothesis may or may not hold at n=1; the arithmetic must regardless
    assert rep.holds


def test_independence_bound_on_four_cycle():
    C4 = cycle_graph(4)
    A = [(i,) for i in range(4)]
    rep = verify_independence_bound(C4, EDGE, A, 2)
    assert rep.hypothesis_ok            # no pairwise independence in a 4-cycle
    assert rep.rhs == 4                 # |A|^(s(k-1)) = 4^1
    assert rep.lhs <= 4 and rep.holds


def test_independence_bound_k1():
    M = empty_graph(4)
    A = [(0,), (1,)]
    rep = verify_independence_bound(M, EDGE, A, 1)
    assert rep.rhs == 1 and rep.lhs == 1 and rep.holds


def test_independence_bound_flags_failing_hypothesis():
    K3 = complete_graph(3)
    rep = verify_independence_bound(K3, EDGE, [(0,), (1,)], 1)
    assert not rep.hypothesis_ok
    assert rep.note == "hypothesis fails"


def test_bound_reports_note_an_exhausted_hypothesis_budget(monkeypatch):
    # one search node is too few for either hypothesis search on a 4-cycle,
    # so both reports flag the hypothesis as unchecked; every other field is
    # the bound arithmetic, which does not depend on the search
    monkeypatch.setenv("FMLAB_BUDGET", "1")
    C4 = cycle_graph(4)
    note = "hypothesis check exhausted its budget"
    assert verify_order_bound(C4, EDGE, [(2,), (1,)], 1) == BoundReport(
        lhs=2, rhs=2 * 2 ** 512, rhs_factor=2, rhs_base=2, rhs_exponent=512,
        params={"n": 1, "r": 1, "s": 1, "t": 1, "|A|": 2},
        holds=True, hypothesis_ok=False, note=note)
    assert verify_independence_bound(C4, EDGE, [(0,), (1,), (2,)], 2) == BoundReport(
        lhs=2, rhs=3, rhs_factor=1, rhs_base=3, rhs_exponent=1,
        params={"k": 2, "r": 1, "s": 1, "t": 1, "|A|": 3},
        holds=True, hypothesis_ok=False, note=note)


def test_independence_bound_on_seeded_graphs():
    for seed in range(100):
        M = seeded_graph(8, 9000 + seed)
        A = [(i,) for i in range(8)]
        for k in (1, 2, 3):
            if find_k_independence(M, EDGE, k) is None:
                rep = verify_independence_bound(M, EDGE, A, k)
                assert rep.holds, (seed, k)
                break


def test_independence_bound_boundary_at_k2():
    # one edge among three vertices: no pairwise independence, yet over a
    # two-element parameter set there are q+1 = 3 realized types against the
    # claimed bound q^(k-1) = 2 -- the binomial sum 1+q exceeds q at k = 2.
    # The verifier must report this honestly rather than force the bound.
    from conftest import graph
    M = graph(3, [(0, 1)])
    assert find_k_independence(M, EDGE, 2) is None
    rep = verify_independence_bound(M, EDGE, [(0,), (1,)], 2)
    assert rep.hypothesis_ok
    assert rep.lhs == 3 and rep.rhs == 2
    assert rep.holds is False
    # over the full vertex set the bound holds (types <= objects <= |A|^(k-1))
    rep_full = verify_independence_bound(M, EDGE, [(0,), (1,), (2,)], 2)
    assert rep_full.holds


# ---------------------------------------------------------------------------
# shattering
# ---------------------------------------------------------------------------


def test_power_set_shatters_itself():
    fam = [set(), {0}, {1}, {0, 1}]
    w = find_shattered(fam, 2, ground=[0, 1])
    assert w.alphas == (0, 1)
    assert verify_shattered(w, fam)


def test_tight_family_does_not_shatter():
    fam = [set(), {0}, {1}]
    assert len(fam) == sauer_bound(2, 2)
    assert find_shattered(fam, 2, ground=[0, 1]) is None


def test_single_point_shatter():
    fam = [set(), {0}]
    w = find_shattered(fam, 1, ground=[0])
    assert w.alphas == (0,)
    assert verify_shattered(w, fam)


def test_families_above_threshold_always_shatter_exhaustive():
    ground = [0, 1, 2]
    members = list(itertools.chain.from_iterable(
        itertools.combinations(ground, r) for r in range(4)))
    for mask in range(1 << len(members)):
        fam = [frozenset(members[i]) for i in range(len(members))
               if (mask >> i) & 1]
        for k in range(1, 4):
            if len(fam) > sauer_bound(3, k):
                w = find_shattered(fam, k, ground=ground)
                assert w is not None and verify_shattered(w, fam)


def test_verify_shattered_rejects_a_false_witness():
    # the checker once took no family, so invented selectors verified while
    # the search rightly found nothing
    fake = ShatterWitness((1, 2), {frozenset(): frozenset(),
                                   frozenset({0}): frozenset({1}),
                                   frozenset({1}): frozenset({2}),
                                   frozenset({0, 1}): frozenset({1, 2})})
    assert find_shattered([{1}], 2) is None
    assert not verify_shattered(fake, [{1}])
    assert not verify_shattered(fake, [set(), {1}, {2}])
    assert verify_shattered(fake, [set(), {1}, {2}, {1, 2}, {3}])
    twice = ShatterWitness((1, 1), {frozenset(): frozenset(),
                                    frozenset({0}): frozenset({1}),
                                    frozenset({1}): frozenset({1}),
                                    frozenset({0, 1}): frozenset({1})})
    assert not verify_shattered(twice, [set(), {1}])


def test_shatter_search_obeys_the_budget(monkeypatch):
    # the search once ran with no budget at all
    monkeypatch.setenv("FMLAB_BUDGET", "0")
    assert find_shattered([set(), {0}, {1}, {0, 1}], 2) == BudgetExceeded(1)
    assert find_shattered([{0, 1}, {1}], 10 ** 12) is None


def test_shattering_bridges_to_independence():
    # identifying each realized type with its positive-instance set, a
    # shattered k-subset of instances yields a k-independence witness
    delta = [EDGE, EDGE.negated()]
    for M in all_graphs(4):
        A = [(i,) for i in range(4)]
        traces = set()
        for a in range(4):
            traces.add(frozenset(b for b in range(4)
                                 if EDGE.holds(M, (a,), (b,))))
        for k in (1, 2):
            if find_shattered(list(traces), k, ground=range(4)) is not None:
                assert find_k_independence(M, EDGE, k) is not None


# ---------------------------------------------------------------------------
# exact bound arithmetic
# ---------------------------------------------------------------------------


def test_no_order_exponent_values():
    assert no_order_exponent(1, 1, 1) == 2 ** 9
    assert no_order_exponent(2, 1, 1) == 2 ** 36


def test_no_order_exponent_refuses_past_the_guard():
    # 2^(2100^2) has 4,410,001 bits and was built
    start = time.perf_counter()
    with pytest.raises(TooLargeError, match="size guard"):
        no_order_exponent(700, 1, 1)
    assert time.perf_counter() - start < 0.1
    assert no_order_exponent(666, 1, 1).bit_length() == 1998 ** 2 + 1


def test_chained_inequality_over_small_grid():
    for n in (1, 2):
        for s in (1, 2):
            for t in (1, 2):
                for m in (2, 3):
                    assert chained_inequality(n, s, t, m), (n, s, t, m)


def test_compare_powers_keeps_the_callers_decimal_precision():
    with localcontext() as ctx:
        ctx.prec = 28
        assert compare_powers(3, 100, 5, 70) == -1
        assert ctx.prec == 28


def test_exponent_dominates_both_readings():
    for n in (1, 2):
        for s in (1, 2):
            for t in (1, 2):
                assert exponent_dominates(n, s, t, reading="closed-early")
                assert exponent_dominates(n, s, t, reading="late")


@pytest.mark.parametrize("check", [
    lambda: exponent_dominates(10 ** 6, 1, 0),
    lambda: exponent_dominates(10 ** 6, 1, 0, reading="late"),
    lambda: chained_inequality(10 ** 6, 1, 0, 3),
])
def test_chain_past_the_guard_is_false_at_once(check):
    # (3ns)^(2n) = (3 * 10^6)^(2 * 10^6) has 43M bits and was built, though k
    # = 2^(3 * 10^6) passes the guard and is already smaller
    start = time.perf_counter()
    assert check() is False
    assert time.perf_counter() - start < 0.5
