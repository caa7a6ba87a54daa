"""Closure sets, kappa, average types, goodness, the strong-submodel relation,
amalgamation, exchange, and symmetry."""

import itertools

import pytest

import fmlab.classify
from fmlab import (AmalgamConfig, BudgetExceeded, EvaluationError,
                   GoodnessContext, GoodnessRefutation, KappaResult, PreconditionError,
                   Signature, Structure, TupleSequence, atom_formula,
                   average_type, check_indiscernible, delta_star,
                   emit_report, exchange_check, find_cover_violation,
                   find_k_independence, goodness_delta, is_good, kappa,
                   make_class_context, parse_formula, prec_K, stable_amalgam,
                   symmetry_test, tp, verify_independence)
from fmlab.util import SplitMix64
from fmlab.core import formula_text

from conftest import (EDGE, complete_graph, empty_graph, graph,
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
    """is_good with an independence search for all four arrangements."""
    delta = goodness_delta(phi)
    size = len(frozenset(M.universe() if domain is None else domain))
    for f in delta:
        for kind, got in (
                ("independence", find_k_independence(M, f, n, domain=domain)),
                ("cover", find_cover_violation(M, f, d, max(size ** f.s, d),
                                               domain=domain))):
            if isinstance(got, BudgetExceeded):
                return GoodnessRefutation("budget", f, got)
            if got is not None:
                return GoodnessRefutation(kind, f, got)
    got = kappa(M, delta, n, domain=domain)
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
                for n, d in ((1, 2), (2, 2), (2, 3)):
                    for f in goodness_delta(EDGE)[:2]:
                        plain = find_k_independence(M, f, n, domain=domain)
                        negated = find_k_independence(M, f.negated(), n,
                                                      domain=domain)
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
