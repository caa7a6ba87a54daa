"""Closure sets, kappa, average types, goodness, the strong-submodel relation,
amalgamation, exchange, and symmetry."""

import itertools
import re

import pytest

import fmlab.classify
from fmlab import (AmalgamConfig, BudgetExceeded, ClassContext, CoverViolation,
                   EvaluationError, GoodnessContext, GoodnessRefutation,
                   IndependenceWitness, KappaResult, PreconditionError,
                   PrecReport, Signature, Structure, TupleSequence, atom_formula,
                   average_type, check_indiscernible, delta_star,
                   emit_report, exchange_check, find_cover_violation,
                   find_k_independence, goodness_delta, is_good, kappa,
                   make_class_context, parse_formula, prec_K, stable_amalgam,
                   symmetry_test, tp, verify_independence)
from fmlab.util import SplitMix64, search_budget
from fmlab.core import SatTable, formula_text

from conftest import (EDGE, complete_graph, empty_graph, graph, induced, outcome,
                      seeded_digraph, seeded_graph, star_graph)

DELTA = [EDGE, EDGE.negated()]


# ---------------------------------------------------------------------------
# the closure set
# ---------------------------------------------------------------------------


def test_closure_width_one():
    star = delta_star(DELTA, 1)
    texts = {formula_text(f.ast) for f in star.formulas}
    assert "(exists z0. R(z0,v0))" in texts
    assert "(exists z0. ~R(z0,v0))" in texts
    assert "R(v1,v0)" in texts
    assert "~R(v1,v0)" in texts
    assert len(star.formulas) == 4


def test_closure_monotone_in_width():
    s1 = {(formula_text(f.ast), f.object_vars) for f in delta_star(DELTA, 1).formulas}
    s2 = {(formula_text(f.ast), f.object_vars) for f in delta_star(DELTA, 2).formulas}
    assert s1 <= s2


def test_closure_growth():
    sizes = [len(delta_star(DELTA, n).formulas) for n in (1, 2, 3)]
    assert sizes == sorted(sizes)
    # one realizability formula per sign pattern at full width, plus others
    assert sizes[1] >= 4 + 2


def test_closure_is_the_same_for_any_iterable_of_one_delta():
    got = [delta_star(DELTA, 2), delta_star(tuple(DELTA), 2),
           delta_star((f for f in DELTA), 2)]
    assert got[0] == got[1] == got[2]
    assert got[0].base == tuple(DELTA)


def test_closure_follows_a_mutated_delta_list():
    # the memo is keyed by the formulas, not by the caller's list object
    delta = [EDGE]
    first = delta_star(delta, 1)
    delta.append(EDGE.negated())
    second = delta_star(delta, 1)
    assert second.base == (EDGE, EDGE.negated())
    assert second == delta_star([EDGE, EDGE.negated()], 1)
    assert first.base == (EDGE,) and first != second


def test_closure_width_zero_is_rejected_on_every_call():
    for _ in range(2):
        with pytest.raises(PreconditionError):
            delta_star(DELTA, 0)


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


def test_kappa_on_empty_graph():
    assert kappa(empty_graph(5), DELTA, 1, max_len=4).value == 1


def test_kappa_on_clique():
    res = kappa(complete_graph(5), DELTA, 1, max_len=4)
    assert res.value == 2
    assert res.witness is not None


def test_kappa_requires_room():
    with pytest.raises(PreconditionError):
        kappa(empty_graph(3), DELTA, 1, max_len=1)


def test_kappa_bounded_by_width_when_independence_fails():
    for seed in range(40):
        M = seeded_graph(5, 40 + seed)
        for n in (1, 2):
            if find_k_independence(M, EDGE, n) is None:
                assert kappa(M, DELTA, n).value <= n, (seed, n)


def _kappa_by_definition(M, delta, n, max_len):
    """kappa read off its definition: every ordered sequence of distinct
    parameter tuples, closure-indiscernible by `check_indiscernible`, counted
    instance by instance with `PartitionedFormula.holds`."""
    star = delta_star(delta, n).formulas
    worst, witness = 0, None
    for s in sorted({f.s for f in delta if f.s >= 1}):
        tuples = sorted(M.tuples(s))
        for length in range(2, min(max_len, len(tuples)) + 1):
            for seq in itertools.permutations(tuples, length):
                if (length >= n and not check_indiscernible(
                        TupleSequence.of(seq, s), star, n, [], M).verified):
                    continue
                for f in (f for f in delta if f.s == s):
                    for c in sorted(M.tuples(f.r)):
                        pos = sum(1 for b in seq if f.holds(M, c, b))
                        if min(pos, length - pos) > worst:
                            worst = min(pos, length - pos)
                            witness = {"sequence": seq, "formula": f, "c": c,
                                       "pos": pos, "neg": length - pos}
    return KappaResult(worst + 1, witness)


def test_kappa_matches_its_definition():
    cases = 0
    for size in (4, 5):
        for seed in range(6):
            M = seeded_graph(size, 700 + 10 * size + seed)
            for n in (1, 2):
                for delta in (DELTA, goodness_delta(EDGE)):
                    assert kappa(M, delta, n, max_len=4) == \
                        _kappa_by_definition(M, delta, n, 4), (size, seed, n)
                    cases += 1
    # two parameter arities share one search; the unsatisfiable s = 1
    # formula leaves the witness to the second one
    never = parse_formula("phi(x0; y0) := R(x0,y0) & ~R(x0,y0)").formula
    pair = parse_formula("phi(x0; y0,y1) := R(x0,y0) & ~R(x0,y1)").formula
    delta = [never, pair, pair.negated()]
    for seed in range(4):
        M = seeded_graph(3, 800 + seed)
        assert kappa(M, delta, 1, max_len=3) == \
            _kappa_by_definition(M, delta, 1, 3), seed
        cases += 1
    assert cases == 52


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def test_average_of_leaves_is_adjacency_to_center():
    star = star_graph(4)
    I = TupleSequence.of([(1,), (2,), (3,), (4,)])
    av = average_type(I, DELTA, [(0,)], star, 1, n=1)
    assert av.sign(EDGE, (0,)) is True


def test_average_of_constant_sequence_is_its_type():
    M = seeded_graph(5, 12)
    A = [(0,), (2,)]
    for v in range(5):
        I = TupleSequence.of([(v,)] * 3)
        av = average_type(I, DELTA, A, M, 1, n=1)
        assert av == tp(DELTA, (v,), A, M)


def test_average_rejects_non_indiscernible_input():
    star = star_graph(3)
    I = TupleSequence.of([(0,), (1,), (2,), (3,)])  # center breaks it at n=2
    with pytest.raises(PreconditionError, match="counterexample"):
        average_type(I, DELTA, [(0,)], star, 1, n=2)


def test_average_completeness_on_good_structures():
    # wherever the structure is good and the sequence beats the threshold,
    # the average decides every instance
    count = 0
    structures = [(empty_graph(5), 1, 2),
                  (empty_graph(6), 1, 2),
                  (graph(5, [(0, 1)]), 1, 3),
                  (graph(6, [(0, 1)]), 2, 3)]
    for M, n, d in structures:
        got = is_good(M, EDGE, n, d)
        if isinstance(got, GoodnessRefutation):
            continue
        lam = got.lambda_value
        A = [(i,) for i in range(M.universe_size)]
        tuples = [(i,) for i in range(M.universe_size)]
        length = min(lam + 1, M.universe_size)
        if length <= lam:
            continue
        for seq in itertools.permutations(tuples, length):
            I = TupleSequence.of(seq)
            try:
                av = average_type(I, DELTA, A, M, got.kappa_value, n=n)
            except PreconditionError:
                continue
            assert av.is_complete_over(DELTA, A)
            count += 1
    assert count > 0


# ---------------------------------------------------------------------------
# goodness
# ---------------------------------------------------------------------------


def _is_good_searching_every_arrangement(M, phi, n, d, domain):
    """is_good with an independence search for all four arrangements, run
    on the test-local induced structure, with witnesses mapped back."""
    sub, back = induced(M, domain)

    def out(t):
        return tuple(back[i] for i in t)
    delta = goodness_delta(phi)
    size = sub.universe_size
    for f in delta:
        for kind, got in (
                ("independence", find_k_independence(sub, f, n)),
                ("cover", find_cover_violation(sub, f, d, max(size ** f.s, d)))):
            if isinstance(got, BudgetExceeded):
                return GoodnessRefutation("budget", f, got)
            if isinstance(got, IndependenceWitness):
                got = IndependenceWitness(tuple(map(out, got.a)),
                                          {w: out(b) for w, b in got.b.items()})
            elif got is not None:
                got = CoverViolation(got.n, tuple(map(out, got.b)))
            if got is not None:
                return GoodnessRefutation(kind, f, got)
    got = kappa(sub, delta, n)
    if isinstance(got, BudgetExceeded):
        return GoodnessRefutation("budget", phi, got)
    return GoodnessContext(phi, n, d, got.value, max(d * got.value, 2 * n))


def test_negated_arrangements_need_no_independence_search(monkeypatch):
    kinds = set()
    for budget in ("3", "20", None):
        if budget is None:
            monkeypatch.delenv("FMLAB_BUDGET", raising=False)
        else:
            monkeypatch.setenv("FMLAB_BUDGET", budget)
        for size, seed in itertools.product((4, 5), range(15)):
            M = seeded_graph(size, 7000 + seed)
            for domain in (None, frozenset({0, 1, 3})):
                sub, _ = induced(M, domain)
                for n, d in ((1, 2), (2, 2), (2, 3)):
                    for f in goodness_delta(EDGE)[:2]:
                        plain = find_k_independence(sub, f, n)
                        negated = find_k_independence(sub, f.negated(), n)
                        assert (plain is None) == (negated is None)
                        if isinstance(plain, BudgetExceeded):
                            assert negated == plain
                    got = is_good(M, EDGE, n, d, domain=domain)
                    assert got == _is_good_searching_every_arrangement(
                        M, EDGE, n, d, domain)
                    kinds.add(getattr(got, "kind", "good"))
    assert kinds == {"good", "independence", "cover", "budget"}


def test_empty_graph_is_good():
    got = is_good(empty_graph(4), EDGE, 1, 2)
    assert isinstance(got, GoodnessContext)
    assert got.kappa_value == 1
    assert got.lambda_value == 2


def test_lambda_arithmetic():
    got = is_good(empty_graph(4), EDGE, 1, 3)
    assert got.lambda_value == max(3 * got.kappa_value, 2)


def test_class_lambda_scales_by_the_larger_block():
    # lambda_K = kappa_K * |A|^s for s the largest parameter arity among the
    # four arrangements of phi, whichever block of phi is the larger
    M = Structure(Signature((("R", 3),)), 2, {"R": []})
    for obj, par in ((["x0"], ["y0", "y1"]), (["x0", "x1"], ["y0"])):
        phi = atom_formula("R", obj, par)
        ctx = make_class_context(M, [None], phi, 1, 2, 1, [(0,), (1,), (0, 1)])
        s = max(f.s for f in goodness_delta(phi))
        assert s == 2
        assert ctx.lambda_K == ctx.kappa_K * 3 ** s


def test_triangle_is_refuted():
    got = is_good(complete_graph(3), EDGE, 1, 2)
    assert isinstance(got, GoodnessRefutation)
    assert got.kind in ("independence", "cover")


def test_one_edge_graph_is_good_at_depth_three():
    # a single edge among isolated vertices: the only unsatisfiable pair of
    # positive instances is already unsatisfiable pairwise, and the negative
    # side always has an isolated realizer; width 2 because one endpoint has
    # both a neighbor and a non-neighbor
    M = graph(5, [(0, 1)])
    got = is_good(M, EDGE, 2, 3)
    assert isinstance(got, GoodnessContext)


def test_matching_is_refuted_by_negative_cover():
    # every vertex is adjacent to its partner, so no vertex avoids the whole
    # family even though every triple has a common non-neighbor
    M = graph(4, [(0, 1), (2, 3)])
    got = is_good(M, EDGE, 2, 3)
    assert isinstance(got, GoodnessRefutation)
    assert got.kind == "cover"


def test_goodness_memo_honours_a_budget_change(monkeypatch):
    M = empty_graph(4)
    for budget in ("3", None, "3", None):
        if budget is None:
            monkeypatch.delenv("FMLAB_BUDGET", raising=False)
        else:
            monkeypatch.setenv("FMLAB_BUDGET", budget)
        got = is_good(M, EDGE, 1, 2)
        if budget is None:
            assert isinstance(got, GoodnessContext)
        else:
            assert isinstance(got, GoodnessRefutation) and got.kind == "budget"
    assert fmlab.classify._is_good.cache_info().hits == 2


def test_goodness_memo_is_keyed_by_value():
    first = graph(5, [(0, 1), (1, 2)])
    second = Structure(Signature((("R", 2),)), 5,
                       {"R": [(2, 1), (1, 2), (1, 0), (0, 1), (0, 1)]})
    assert first is not second
    a = is_good(first, EDGE, 2, 3, domain=[0, 1, 2, 4])
    b = is_good(second, EDGE, 2, 3, domain=[4, 2, 1, 0])
    c = is_good(second, EDGE, 2, 3, domain={0, 1, 2, 4})
    d = is_good(second, EDGE, 2, 3, domain=frozenset({0, 1, 2, 4}))
    assert a == b == c == d
    assert emit_report(a) == emit_report(b)
    info = fmlab.classify._is_good.cache_info()
    assert (info.hits, info.misses) == (3, 1)


def test_memoised_refutation_shares_no_mutable_witness():
    M = graph(3, [(0, 1)])
    first = is_good(M, EDGE, 1, 2)
    assert first.kind == "independence"
    with pytest.raises(TypeError):
        first.witness.b[frozenset()] = (2,)
    assert is_good(M, EDGE, 1, 2) is first


def test_goodness_domain_is_checked_before_any_work():
    M = empty_graph(4)
    for domain, bad in (({0, 7}, "7"), ({-1, 0}, "-1"), ({-1, 9}, "-1")):
        with pytest.raises(EvaluationError, match=f"element out of range: {bad}$"):
            is_good(M, EDGE, 1, 2, domain=domain)
    assert fmlab.classify._is_good.cache_info().misses == 0
    got = is_good(M, EDGE, 1, 2, domain=set())
    assert isinstance(got, GoodnessContext)
    assert (got.kappa_value, got.lambda_value) == (1, 2)


def test_goodness_memo_is_shared_by_members_of_one_induced_shape():
    # a path 0-1-2 plus an isolated vertex, once inside each structure
    first = graph(5, [(0, 1), (1, 2), (3, 4)])
    second = graph(6, [(1, 3), (3, 4), (0, 5), (2, 4)])
    a = is_good(first, EDGE, 2, 3, domain={0, 1, 2, 4})
    b = is_good(second, EDGE, 2, 3, domain={1, 3, 4, 5})
    assert a == b
    info = fmlab.classify._is_good.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_a_shared_refutation_names_each_callers_own_elements():
    # each pair of members induces one shape, so the second member is served
    # the first one's verdict with the witness mapped into its own domain:
    # one edge and an isolated vertex (independence at n = 1), and a perfect
    # matching on four vertices (a cover violation at n = 2, d = 3)
    shapes = [(1, 2, "independence",
               [(graph(4, [(0, 1)]), {0, 1, 2}),
                (graph(6, [(1, 3), (4, 5), (2, 5)]), {1, 3, 4})]),
              (2, 3, "cover",
               [(graph(5, [(0, 1), (2, 3), (3, 4)]), {0, 1, 2, 3}),
                (graph(6, [(0, 2), (3, 5), (1, 2)]), {0, 2, 3, 5})])]
    for n, d, kind, members in shapes:
        for M, domain in members:
            got = is_good(M, EDGE, n, d, domain=domain)
            assert got.kind == kind
            assert got == _is_good_searching_every_arrangement(M, EDGE, n, d, domain)
            if kind == "independence":
                assert verify_independence(M, got.formula, got.witness)
                used = {e for t in got.witness.a + tuple(got.witness.b.values())
                        for e in t}
            else:
                used = {e for t in got.witness.b for e in t}
            assert used <= domain
    info = fmlab.classify._is_good.cache_info()
    assert (info.hits, info.misses) == (2, 2)


def test_goodness_on_a_domain_matches_the_restricted_searches(monkeypatch):
    # seeded graphs and loopless digraphs, a quantified formula next to the
    # atom so quantifiers must range over the domain, budget markers included
    reach = parse_formula(
        "phi(x0; y0) := exists z0. (R(x0,z0) & ~R(z0,y0))").formula
    rng = SplitMix64(9)
    cases = []
    for size, seed in itertools.product((4, 5), range(6)):
        for M in (seeded_graph(size, 9100 + seed), seeded_digraph(size, 9200 + seed)):
            domains = [None, frozenset()]
            while len(domains) < 5:
                dom = frozenset(e for e in range(size) if rng.bit())
                if len(dom) >= 2 and dom not in domains:
                    domains.append(dom)
            cases.append((M, domains))
    kinds = set()
    for budget in ("3", "20", None):
        if budget is None:
            monkeypatch.delenv("FMLAB_BUDGET", raising=False)
        else:
            monkeypatch.setenv("FMLAB_BUDGET", budget)
        for M, domains in cases:
            for domain, phi, (n, d) in itertools.product(
                    domains, (EDGE, reach), ((1, 2), (2, 3))):
                got = is_good(M, phi, n, d, domain=domain)
                assert got == _is_good_searching_every_arrangement(
                    M, phi, n, d, domain), (M, domain, phi.text(), n, d, budget)
                kinds.add(getattr(got, "kind", "good"))
    assert kinds == {"good", "independence", "cover", "budget"}


def test_refutation_on_an_identity_domain_is_the_memoised_one():
    # every domain of seeded 3-6 vertex graphs: a refutation's witness is the
    # memoised one mapped back by hand, and when sorted(domain) is
    # 0..|domain|-1 (the empty domain included) it is the memo's own object
    seen = set()
    for size, seed, (n, d) in itertools.product(range(3, 7), range(3), ((1, 2), (2, 3))):
        M = seeded_graph(size, 9300 + 10 * size + seed)
        for bits in range(1 << size):
            domain = frozenset(e for e in range(size) if bits >> e & 1)
            got = is_good(M, EDGE, n, d, domain=domain)
            sub, dom, _ = fmlab.classify._induced(M, domain)
            memo = fmlab.classify._is_good(sub, EDGE, n, d, search_budget())
            identity = dom == tuple(range(len(dom)))
            if (isinstance(memo, GoodnessContext)
                    or isinstance(memo.witness, BudgetExceeded)):
                assert got is memo
                continue

            def back(t):
                return tuple(dom[i] for i in t)

            wit = memo.witness
            if isinstance(wit, IndependenceWitness):
                wit = IndependenceWitness(tuple(map(back, wit.a)),
                                          {w: back(b) for w, b in wit.b.items()})
            else:
                wit = CoverViolation(wit.n, tuple(map(back, wit.b)))
            assert got == GoodnessRefutation(memo.kind, memo.formula, wit), (size, domain)
            if identity:
                assert got is memo, (size, domain)
            seen.add((memo.kind, identity))
    assert seen == {("independence", True), ("independence", False),
                    ("cover", True), ("cover", False)}


# ---------------------------------------------------------------------------
# the strong-submodel relation
# ---------------------------------------------------------------------------


def _empty_context(n_verts, A, n=1, d=2, k=1):
    M = empty_graph(n_verts)
    ctx = make_class_context(M, [None], EDGE, n, d, k, A)
    return M, ctx


def test_reflexive_on_good_structures():
    M, ctx = _empty_context(5, [(0,)])
    rep = prec_K(M, frozenset(range(5)), ctx)
    assert rep.holds is True


def test_subset_always_required():
    M, ctx = _empty_context(5, [(0,)])
    with pytest.raises(PreconditionError):
        prec_K(M, frozenset({0, 1}), ctx, ambient=frozenset({2, 3, 0}))


def test_condition2_failure_is_named():
    # one edge 0-1; with A = {(0,)} the instance "adjacent to 0" is realized
    # in the ambient only by vertex 1, which N omits
    M = graph(5, [(0, 1)])
    N = frozenset({0, 2, 3})
    ctx = make_class_context(M, [None, N], EDGE, 2, 3, 1, [(0,)])
    assert not isinstance(ctx, GoodnessRefutation)
    rep = prec_K(M, N, ctx)
    assert rep.cond2 is False
    assert rep.failing_condition == 2


def test_condition3_failure_is_named():
    # vertex 3 is adjacent to 0 only; inside N every vertex is adjacent to
    # both of 0,1 or to neither, so no averaged sequence in N matches
    # 3's mixed type over A, while every positive pattern over A keeps its
    # realizer (vertex 2) inside N
    M = graph(5, [(2, 0), (2, 1), (3, 0)])
    N = frozenset({0, 1, 2, 4})
    ctx = make_class_context(M, [None, N], EDGE, 2, 3, 2, [(0,), (1,)])
    assert not isinstance(ctx, GoodnessRefutation)
    rep = prec_K(M, N, ctx)
    assert rep.cond1 is True and rep.cond2 is True
    assert rep.cond3 is False
    assert rep.failing_condition == 3


def test_transitivity_and_restriction_axioms_small():
    # over all graphs on 4 vertices with A = {(0,)}: whenever the chain is
    # good, the relation composes and restricts as the axioms require
    import itertools as it
    A = [(0,)]
    span = {0}
    checked = 0
    for mask in range(64):
        pairs = list(it.combinations(range(4), 2))
        M = graph(4, [pairs[i] for i in range(6) if (mask >> i) & 1])
        subsets = [frozenset(s) | span
                   for r in range(3)
                   for s in map(frozenset, it.combinations(range(1, 4), r))]
        subsets = sorted(set(subsets), key=sorted)
        good = {}
        for dom in subsets + [frozenset(range(4))]:
            got = is_good(M, EDGE, 1, 2, domain=dom)
            if isinstance(got, GoodnessContext):
                good[dom] = got
        if frozenset(range(4)) not in good:
            continue
        ctx = make_class_context(M, list(good), EDGE, 1, 2, 1, A)
        if isinstance(ctx, GoodnessRefutation):
            continue
        rel = {}
        doms = sorted(good, key=sorted)
        for N in doms:
            for Mdom in doms:
                if N <= Mdom:
                    rep = prec_K(M, N, ctx, ambient=Mdom, check_good=False)
                    rel[(N, Mdom)] = rep.holds is True
        for N, Mdom in rel:
            if rel[(N, Mdom)]:
                assert N <= Mdom  # axiom: the relation implies inclusion
        for a in doms:
            for b in doms:
                for c in doms:
                    if a <= b <= c and rel.get((a, b)) and rel.get((b, c)):
                        assert rel.get((a, c)), (mask, a, b, c)
                    if a <= b <= c and rel.get((b, c)) and rel.get((a, c)):
                        assert rel.get((a, b)), (mask, a, b, c)
        checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# amalgamation, exchange, symmetry
# ---------------------------------------------------------------------------


def test_all_equal_amalgamation():
    M = empty_graph(4)
    ctx = make_class_context(M, [None], EDGE, 1, 2, 1, [(0,)])
    full = frozenset(range(4))
    res = stable_amalgam(AmalgamConfig(M, full, full, full, ctx))
    assert res.holds is True
    assert res.witnesses


def test_empty_graph_amalgamation_symmetric():
    M = empty_graph(6)
    ctx = make_class_context(M, [None, frozenset({0, 1, 2}),
                                 frozenset({0, 1, 2, 3}),
                                 frozenset({0, 1, 2, 4})],
                             EDGE, 1, 2, 1, [(0,)])
    cfg = AmalgamConfig(M, frozenset({0, 1, 2}), frozenset({0, 1, 2, 3}),
                        frozenset({0, 1, 2, 4}), ctx)
    got = symmetry_test(cfg)
    assert got["forward"] is True and got["backward"] is True
    assert got["symmetric"]


def test_symmetry_checks_the_preconditions_once(monkeypatch):
    M = empty_graph(6)
    ctx = make_class_context(M, [None, frozenset({0, 1, 2}),
                                 frozenset({0, 1, 2, 3}),
                                 frozenset({0, 1, 2, 4})],
                             EDGE, 1, 2, 1, [(0,)])
    cfg = AmalgamConfig(M, frozenset({0, 1, 2}), frozenset({0, 1, 2, 3}),
                        frozenset({0, 1, 2, 4}), ctx)
    calls = []

    def counting_prec_K(*args, **kwargs):
        calls.append(args[1])
        return prec_K(*args, **kwargs)

    monkeypatch.setattr(fmlab.classify, "prec_K", counting_prec_K)
    got = symmetry_test(cfg)
    assert got["symmetric"] and got["forward"] is True
    assert len(calls) == 5


def test_exchange_on_empty_graph():
    M = empty_graph(6)
    I0 = TupleSequence.of([(0,), (1,), (2,), (3,)])
    I1 = TupleSequence.of([(2,), (3,), (4,), (5,)])
    got = exchange_check(I0, I1, M, EDGE, 1, 1, lambda_delta=2, n=1)
    assert got["equivalent"]


def test_exchange_length_precondition():
    M = empty_graph(6)
    I0 = TupleSequence.of([(0,), (1,)])
    with pytest.raises(PreconditionError):
        exchange_check(I0, I0, M, EDGE, 1, 1, lambda_delta=3, n=1)


def test_amalgam_precondition_error_names_pair():
    M = star_graph(3)
    ctx = make_class_context(empty_graph(4), [None], EDGE, 1, 2, 1, [(0,)])
    cfg = AmalgamConfig(M, frozenset({0, 1}), frozenset({0, 1, 2}),
                        frozenset({0, 1, 3}), ctx)
    with pytest.raises(PreconditionError, match="M0<M"):
        stable_amalgam(cfg)


def test_average_search_obeys_the_search_budget(monkeypatch):
    M = empty_graph(4)
    ctx = make_class_context(M, [None], EDGE, 1, 2, 1, [(0,)])
    full = frozenset(range(4))
    monkeypatch.setenv("FMLAB_BUDGET", "0")
    rep = prec_K(M, full, ctx, check_good=False)
    assert rep.cond3 == "budget"
    res = stable_amalgam(AmalgamConfig(M, full, full, full, ctx),
                         check_preconditions=False)
    assert res.holds == "budget"


def test_average_search_counts_constant_and_distinct_candidates(monkeypatch):
    # the configuration of test_condition3_failure_is_named: lambda_K = 4 and
    # N has 4 vertices, so a target costs 4 constant sequences plus 4! = 24
    # permutations before its search is exhausted
    M = graph(5, [(2, 0), (2, 1), (3, 0)])
    N = frozenset({0, 1, 2, 4})
    ctx = make_class_context(M, [None, N], EDGE, 2, 3, 2, [(0,), (1,)])
    assert ctx.lambda_K == 4
    monkeypatch.setenv("FMLAB_BUDGET", "28")
    assert prec_K(M, N, ctx, check_good=False).cond3 is False
    monkeypatch.setenv("FMLAB_BUDGET", "27")
    assert prec_K(M, N, ctx, check_good=False).cond3 == "budget"


def test_kappa_obeys_the_search_budget(monkeypatch):
    # 16 parameter pairs: unbudgeted, the permutations run up to length 16
    M = Structure(Signature((("R", 3),)), 4, {"R": []})
    phi = atom_formula("R", ["x0"], ["y0", "y1"])
    monkeypatch.setenv("FMLAB_BUDGET", "1000")
    assert kappa(M, [phi, phi.negated()], 1) == BudgetExceeded(1001)
    # on the empty graph every search of is_good fits in 30 nodes; kappa's
    # 60 sequences do not
    monkeypatch.setenv("FMLAB_BUDGET", "30")
    got = is_good(empty_graph(4), EDGE, 1, 2)
    assert isinstance(got, GoodnessRefutation)
    assert (got.kind, got.formula, got.witness) == ("budget", EDGE,
                                                    BudgetExceeded(31))


def test_condition2_counts_one_node_per_parameter_multiset(monkeypatch):
    # the configuration of test_condition3_failure_is_named: k = 2 and two
    # parameters give the 3 multisets (0,0), (0,1), (1,1)
    M = graph(5, [(2, 0), (2, 1), (3, 0)])
    N = frozenset({0, 1, 2, 4})
    ctx = make_class_context(M, [None, N], EDGE, 2, 3, 2, [(0,), (1,)])
    assert not isinstance(ctx, GoodnessRefutation)
    monkeypatch.setenv("FMLAB_BUDGET", "2")
    rep = prec_K(M, N, ctx, check_good=False)
    assert rep.cond2 == "budget"
    assert rep.holds == "budget" and rep.failing_condition is None
    monkeypatch.setenv("FMLAB_BUDGET", "3")
    assert prec_K(M, N, ctx, check_good=False).cond2 is True


# ---------------------------------------------------------------------------
# the strong-submodel relation on the induced ambient, and its memo
# ---------------------------------------------------------------------------


def _prec_K_inside_M(M, N_dom, ctx, ambient=None, check_good=True):
    """prec_K with no memo, its columns read inside M itself by the
    reference interpreter, quantifiers over the ambient (over N for
    condition 1's), and condition 3 searched on the test-local induced
    ambient: the reference the relabelled, memoised relation must match."""
    phi, n, d, k = ctx.phi, ctx.n, ctx.d, ctx.k
    amb = frozenset(M.universe()) if ambient is None else frozenset(ambient)
    N_dom = frozenset(N_dom)
    if not N_dom <= amb:
        raise PreconditionError("N must be a subset of the ambient universe")
    if not {e for t in ctx.A for e in t} <= N_dom:
        raise PreconditionError("A must lie inside N")
    if check_good:
        for dom, tag in ((amb, "ambient"), (N_dom, "N")):
            got = is_good(M, phi, n, d, domain=dom)
            if isinstance(got, GoodnessRefutation):
                raise PreconditionError(f"{tag} structure is not good: {got.kind}")
    A_match = [b for b in ctx.A if len(b) == phi.s]
    objs_amb = list(M.tuples(phi.r, domain=amb))
    objs_N = list(M.tuples(phi.r, domain=N_dom))
    psi = phi.swapped()

    def columns(objs, dom):
        return [sum(1 << i for i, a in enumerate(objs) if psi.holds(M, b, a, domain=dom))
                for b in A_match]
    cols_amb = columns(objs_amb, amb)
    cols_N = columns(objs_N, amb)
    cond1 = cols_N == columns(objs_N, N_dom)
    cond2 = True
    limit = search_budget()
    multisets = itertools.combinations_with_replacement(range(len(A_match)), k)
    for tried, alist in enumerate(multisets, start=1):
        if tried > limit:
            cond2 = "budget"
            break
        sat_amb = (1 << len(objs_amb)) - 1
        sat_N = (1 << len(objs_N)) - 1
        for j in alist:
            sat_amb &= cols_amb[j]
            sat_N &= cols_N[j]
        if sat_amb and not sat_N:
            cond2 = False
            break
    sub, back = induced(M, amb)
    index = {e: i for i, e in enumerate(back)}

    def rel(ts):
        return [tuple(index[e] for e in t) for t in ts]
    cond3 = fmlab.classify._average_witnesses(
        sub, ClassContext(phi, n, d, k, tuple(rel(ctx.A)), ctx.kappa_K, ctx.lambda_K),
        rel(objs_N), cols_N, rel(objs_amb), cols_amb)[0]
    conds = (cond1, cond2, cond3)
    failing = next((i for i, c in enumerate(conds, start=1) if c is False), None)
    if failing is not None:
        holds = False
    else:
        holds = "budget" if "budget" in conds else True
    return PrecReport(cond1, cond2, cond3, holds, failing)


def test_relation_on_the_induced_ambient_matches_deciding_inside_M(monkeypatch):
    # seeded graphs and loopless digraphs, the atom and a quantified formula
    # (whose quantifiers must range over the ambient), random ambients with
    # N inside them and A inside N; contexts are built directly, so some
    # members are not good and check_good=True refuses them
    reach = parse_formula(
        "phi(x0; y0) := exists z0. (R(x0,z0) & ~R(z0,y0))").formula
    rng = SplitMix64(16)

    def subset(of):
        return frozenset(e for e in sorted(of) if rng.bit())

    cases = []
    for size, seed in itertools.product((3, 4, 5, 6), range(6)):
        for M in (seeded_graph(size, 16100 + seed), seeded_digraph(size, 16200 + seed)):
            amb = None if rng.bit() else subset(M.universe()) | {0}
            A = sorted((e,) for e in subset(amb or M.universe()) | {0})
            # two members in one ambient, so the memo holds both reports
            Ns = [subset(amb or M.universe()) | {b for b, in A} for _ in range(2)]
            for phi, n, k in itertools.product((EDGE, reach), (1, 2), (1, 2)):
                kappa_K = 1 + rng.below(2)
                ctx = ClassContext(phi, n, n + 1, k, tuple(A), kappa_K,
                                   kappa_K * len(A))
                cases += [(M, N, ctx, amb, bool(rng.bit())) for N in Ns]
    holds, refused = set(), 0
    for budget in ("3", "20", None):
        if budget is None:
            monkeypatch.delenv("FMLAB_BUDGET", raising=False)
        else:
            monkeypatch.setenv("FMLAB_BUDGET", budget)
        for M, N, ctx, amb, check_good in cases:
            for good in (check_good, not check_good):
                got = outcome(lambda: prec_K(M, N, ctx, ambient=amb, check_good=good))
                want = outcome(lambda: _prec_K_inside_M(M, N, ctx, amb, good))
                assert got == want, (M, sorted(N), amb, ctx, good, budget)
                if isinstance(got, PrecReport):
                    holds.add(got.holds)
                else:
                    refused += 1
    assert holds == {True, False, "budget"}
    assert refused
    assert fmlab.classify._decide_prec.cache_info().hits


def test_relation_memo_is_shared_by_ambients_of_one_induced_shape(monkeypatch):
    # the configuration of test_condition3_failure_is_named (its condition 3
    # searches past the constant sequences, so it reaches tp), and a copy of
    # it on the elements 1..5 of a structure whose vertex 0 is joined to 3:
    # both ambients induce one shape, so they share one entry, and the hit
    # reaches no tp
    first = graph(5, [(2, 0), (2, 1), (3, 0)])
    second = graph(6, [(3, 1), (3, 2), (4, 1), (0, 3)])
    N1, N2, amb2 = frozenset({0, 1, 2, 4}), frozenset({1, 2, 3, 5}), frozenset(range(1, 6))
    ctx1 = make_class_context(first, [None, N1], EDGE, 2, 3, 2, [(0,), (1,)])
    ctx2 = make_class_context(second, [amb2, N2], EDGE, 2, 3, 2, [(1,), (2,)])
    assert isinstance(ctx1, ClassContext) and ctx1.A != ctx2.A
    calls = []
    real_tp = fmlab.indisc.tp
    monkeypatch.setattr(fmlab.indisc, "tp",
                        lambda *args, **kw: calls.append(args) or real_tp(*args, **kw))
    a = prec_K(first, N1, ctx1)
    assert a.failing_condition == 3 and calls
    calls.clear()
    b = prec_K(second, N2, ctx2, ambient=amb2)
    assert a == b
    assert calls == []
    info = fmlab.classify._decide_prec.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # and the two relabelled ambients are one object
    induced = fmlab.classify._induced
    assert induced(first, frozenset(range(5)))[0] is induced(second, amb2)[0]
    # another N in the same ambient is an entry of its own
    c = prec_K(second, amb2, ctx2, ambient=amb2)
    assert c.holds is True
    info = fmlab.classify._decide_prec.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
    # a warm call hands out the memoised report itself
    assert prec_K(first, N1, ctx1) is a


def _relabel_and_build(M, domain):
    # the induced substructure built relation by relation, as _induced built
    # it before it looked shapes up: range check, relabel, validate
    dom = tuple(sorted(domain))
    for e in dom:
        if not 0 <= e < M.universe_size:
            raise EvaluationError(f"element out of range: {e}")
    pos = {e: i for i, e in enumerate(dom)}
    sub = Structure(M.signature, len(dom), {
        name: [tuple(map(pos.__getitem__, t)) for t in rel if domain.issuperset(t)]
        for name, rel in M.relations.items()})
    return sub, dom, pos


def test_induced_shapes_match_relabelling_and_building():
    # seeded structures over a unary, a binary (loops included) and a
    # ternary relation; empty, full and proper domains, and domains holding
    # -1 or n; each induced structure is also embedded in a second, larger
    # parent, whose structure induced on the copy must be the same object
    sig = Signature((("P", 1), ("R", 2), ("T", 3)))
    rng = SplitMix64(20261020)
    first = {}  # induced structure -> the object _induced gave for it first
    seen = set()
    for case in range(240):
        n = rng.below(7)
        rels = {"P": [(a,) for a in range(n) if rng.bit()],
                "R": [t for t in itertools.product(range(n), repeat=2)
                      if rng.below(3) == 0],
                "T": [t for t in itertools.product(range(n), repeat=3)
                      if rng.below(8) == 0]}
        M = Structure(sig, n, rels)
        kind = ("empty", "full", "proper", "bad")[case % 4]
        if kind == "empty":
            D = frozenset()
        elif kind == "full":
            D = frozenset(range(n))
        else:
            D = frozenset(e for e in range(n) if rng.bit())
            if kind == "bad":
                D |= {(-1, n)[rng.bit()]} | ({n + 2} if rng.bit() else set())
        try:
            want = _relabel_and_build(M, D)
        except EvaluationError as e:
            with pytest.raises(EvaluationError) as got:
                fmlab.classify._induced(M, D)
            assert str(got.value) == str(e)
            seen.add(("refused", min(D) < 0))
            continue
        got = fmlab.classify._induced(M, D)
        assert got == want, (M.relations, sorted(D))
        assert [got[0].relations[name] for name, _ in sig.relations] == \
            [want[0].relations[name] for name, _ in sig.relations]
        assert first.setdefault(got[0], got[0]) is got[0]
        # a second parent: the induced structure on every other element of
        # a universe twice as large, padded with random tuples that touch
        # an element outside the copy
        m = len(want[1])
        at = [2 * i + 1 for i in range(m)]
        pad = {"P": [(0,)] if rng.bit() else [],
               "R": [(0, at[-1])] if m and rng.bit() else [],
               "T": [(at[0], 0, at[0])] if m and rng.bit() else []}
        parent = Structure(sig, 2 * m + 1, {
            name: [tuple(at[e] for e in t) for t in want[0].relations[name]]
            + pad[name] for name, _ in sig.relations})
        again = fmlab.classify._induced(parent, frozenset(at))
        assert again[0] is got[0] and again[1] == tuple(at)
        seen.add(kind)
    assert seen == {"empty", "full", "proper",
                    ("refused", True), ("refused", False)}
    assert len(first) > 60


def test_relation_memo_honours_a_budget_change(monkeypatch):
    # the configuration of test_condition2_counts_one_node_per_parameter_multiset
    M = graph(5, [(2, 0), (2, 1), (3, 0)])
    N = frozenset({0, 1, 2, 4})
    ctx = make_class_context(M, [None, N], EDGE, 2, 3, 2, [(0,), (1,)])
    for budget in ("2", None, "2", None):
        if budget is None:
            monkeypatch.delenv("FMLAB_BUDGET", raising=False)
        else:
            monkeypatch.setenv("FMLAB_BUDGET", budget)
        rep = prec_K(M, N, ctx, check_good=False)
        assert rep.cond2 == ("budget" if budget else True)
    info = fmlab.classify._decide_prec.cache_info()
    assert (info.hits, info.misses) == (2, 2)


def test_relation_refusals_come_in_order_before_the_memo():
    M, ctx = _empty_context(5, [(0,)])
    cases = [
        # N outside the ambient comes first, then A outside N, then the range
        (frozenset({0, 1}), frozenset({0, 7}), PreconditionError,
         "N must be a subset of the ambient universe"),
        (frozenset({1, 7}), frozenset({1, 7}), PreconditionError,
         "A must lie inside N"),
        (frozenset({0, 1}), frozenset({0, 1, 7}), EvaluationError,
         "element out of range: 7"),
        (frozenset({0, 1}), frozenset({-1, 0, 1, 9}), EvaluationError,
         "element out of range: -1"),
    ]
    for N, amb, error, message in cases:
        for check_good in (True, False):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                prec_K(M, N, ctx, ambient=amb, check_good=check_good)
            assert outcome(lambda: _prec_K_inside_M(M, N, ctx, amb, check_good)) \
                == (error, message)
    assert fmlab.classify._decide_prec.cache_info().misses == 0
