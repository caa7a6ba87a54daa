"""Evaluation, satisfaction tables, types, and realized-type counting."""

import inspect
import itertools
import types

import pytest

from fmlab import (EvaluationError, FmlabError, PartitionedFormula,
                   Signature, Structure, TypeOracle, check_indiscernible,
                   closed_under_negation, count_phi_types, delta_star,
                   evaluate, kappa, realized_types, tp,
                   verify_cover_violation, verify_homogeneous,
                   verify_independence, verify_independence_bound,
                   verify_order, verify_order_bound, verify_shattered,
                   verify_split, verify_weak_order)
from fmlab.core import (And, Atom, Exists, Forall, Iff, Implies, Not, Or,
                        SatTable, _compile, _compile_shape, _sat_rows)
from fmlab.classify import _induced
from fmlab.formats import parse_formula
from fmlab.util import SplitMix64

from conftest import (EDGE, GRAPH_SIG, all_graphs, complete_graph, digraph,
                      empty_graph, graph, outcome, path_graph, seeded_graph)


def test_atomic_lookup_on_triangle():
    K3 = complete_graph(3)
    assert EDGE.holds(K3, (0,), (1,)) is True
    assert EDGE.holds(K3, (0,), (0,)) is False


def test_holds_atom_refuses_elements_outside_the_universe():
    # a row index of -1 once wrapped round to the last bit row, and a unary
    # relation answered False; every bad argument now raises, the first one
    M = Structure(Signature((("R", 2), ("P", 1))), 3, {"R": {(2, 0)}, "P": {(1,)}})
    assert M.holds_atom("R", (2, 0)) is True
    assert M.holds_atom("R", (0, 2)) is False
    assert M.holds_atom("P", (1,)) is True
    for name, args, bad in (("R", (-1, 0), -1), ("R", (3, 0), 3), ("R", (0, -1), -1),
                            ("R", (0, 3), 3), ("R", (4, -1), 4), ("P", (3,), 3),
                            ("P", (-1,), -1)):
        with pytest.raises(EvaluationError, match=f"^element out of range: {bad}$"):
            M.holds_atom(name, args)


def test_holds_atom_raises_what_evaluate_raises():
    # the wrong number of arguments once read as absent and an unknown
    # relation raised a bare KeyError; each bad atom now raises evaluate's
    # error, with the range check first
    M = Structure(Signature((("R", 2), ("P", 1))), 3, {"R": {(2, 0)}, "P": {(1,)}})
    for name, args in (("R", (2,)), ("R", (2, 0, 1)), ("P", (1, 1)), ("P", ()),
                       ("Q", (1,)), ("Q", ()), ("R", (2, 5, 1)), ("Q", (0, -1))):
        env = {f"v{i}": a for i, a in enumerate(args)}
        want = outcome(lambda: evaluate(M, Atom(name, tuple(env)), env))
        assert want[0] in (EvaluationError, FmlabError), (name, args)
        assert outcome(lambda: M.holds_atom(name, args)) == want, (name, args)
    assert outcome(lambda: M.holds_atom("R", (2,))) == \
        (EvaluationError, "arity mismatch in atom R")
    assert outcome(lambda: M.holds_atom("Q", (1,))) == \
        (FmlabError, "unknown relation: Q")
    assert outcome(lambda: M.holds_atom("Q", (4,))) == \
        (EvaluationError, "element out of range: 4")


def test_exists_on_empty_graph_is_false():
    M = empty_graph(3)
    src = parse_formula("phi(x0; y0) := exists z0. R(z0,y0)", GRAPH_SIG)
    assert src.formula.holds(M, (0,), (0,)) is False


def test_quantifier_restores_the_outer_binding():
    # the inner exists re-binds x0; the parent must see x0 = 0 again afterwards
    M = Structure(Signature((("R", 2),)), 2, {"R": [(0, 1), (1, 1)]})
    f = And(Exists("x0", Atom("R", ("x0", "x0"))), Atom("R", ("x0", "y0")))
    assert evaluate(M, f, {"x0": 0, "y0": 1}) is True
    g = And(Forall("x0", Atom("R", ("x0", "y0"))), Atom("R", ("x0", "y0")))
    assert evaluate(M, g, {"x0": 0, "y0": 1}) is True


def test_exists_witness_on_path():
    # common neighbor of the endpoints of a path 0-1-2 is the middle vertex
    P3 = path_graph(3)
    src = parse_formula("phi(x0; y0,y1) := exists z0. (R(z0,y0) & R(z0,y1))",
                        GRAPH_SIG)
    assert src.formula.holds(P3, (0,), (0, 2)) is True
    # cross-check by enumerating all three candidate witnesses
    direct = any(P3.holds_atom("R", (z, 0)) and P3.holds_atom("R", (z, 2))
                 for z in range(3))
    assert direct is True


def test_unbound_variable_raises():
    M = empty_graph(2)
    bad = PartitionedFormula(Atom("R", ("x0", "y0")), ("x0",), ("y0",))
    with pytest.raises(EvaluationError, match="unbound"):
        evaluate(M, bad, {"x0": 0})


def test_atom_arity_mismatch_raises():
    M = empty_graph(2)
    with pytest.raises(FmlabError):
        # declared arity 2, used with 1 argument
        PartitionedFormula(Atom("R", ("x0",)), ("x0",), ()).holds(M, (0,), ())


def test_tp_on_empty_graph_all_negative():
    M = empty_graph(3)
    p = tp([EDGE], (0,), [(1,), (2,)], M)
    assert all(sign is False for _, _, sign in p.entries)
    assert p.domain() == {(1,), (2,)}


def test_tp_on_triangle_positive():
    K3 = complete_graph(3)
    p = tp([EDGE], (0,), [(1,)], K3)
    assert p.sign(EDGE, (1,)) is True


def test_tp_on_path_mixed():
    P3 = path_graph(3)
    p = tp([EDGE], (0,), [(1,), (2,)], P3)
    assert p.sign(EDGE, (1,)) is True
    assert p.sign(EDGE, (2,)) is False


def test_realized_types_path_two_types():
    P3 = path_graph(3)
    assert len(realized_types([EDGE, EDGE.negated()], [(1,)], P3, 1)) == 2


def test_realized_types_empty_graph_single_type():
    M = empty_graph(4)
    assert len(realized_types([EDGE, EDGE.negated()], [(0,), (2,)], M, 1)) == 1


def test_realized_types_k4_three_types():
    K4 = complete_graph(4)
    assert len(realized_types([EDGE, EDGE.negated()], [(0,), (1,)], K4, 1)) == 3


def test_evaluation_deterministic():
    M = seeded_graph(6, 17)
    src = parse_formula(
        "phi(x0; y0) := forall z0. (R(z0,x0) -> exists z1. (R(z1,z0) & ~R(z1,y0)))",
        GRAPH_SIG)
    vals = [src.formula.holds(M, (2,), (4,)) for _ in range(5)]
    assert len(set(vals)) == 1


def test_realized_type_count_bound():
    delta = [EDGE, EDGE.negated()]
    for seed in range(20):
        M = seeded_graph(5, seed)
        A = [(0,), (1,), (3,)]
        for arity in (1, 2):
            got = len(realized_types(delta, A, M, arity))
            assert got <= min(M.universe_size ** arity,
                              2 ** (len(delta) * len(A)))


def test_tp_monotone_in_parameter_set():
    for seed in range(10):
        M = seeded_graph(5, 100 + seed)
        small = [(0,), (1,)]
        big = small + [(2,), (4,)]
        p_small = tp([EDGE], (3,), small, M)
        p_big = tp([EDGE], (3,), big, M)
        assert p_small.entries <= p_big.entries


def test_equal_types_iff_no_distinguishing_instance():
    delta = closed_under_negation([EDGE])
    for M in all_graphs(4):
        A = [(0,), (1,)]
        for a in range(4):
            for b in range(4):
                same = tp(delta, (a,), A, M) == tp(delta, (b,), A, M)
                direct = all(f.holds(M, (a,), c) == f.holds(M, (b,), c)
                             for f in delta for c in A)
                assert same == direct


def test_swapped_blocks_transpose_evaluation():
    P3 = path_graph(3)
    psi = EDGE.swapped()
    for a in range(3):
        for b in range(3):
            assert psi.holds(P3, (b,), (a,)) == EDGE.holds(P3, (a,), (b,))


def test_type_domain_restriction():
    M = seeded_graph(5, 3)
    p = tp([EDGE], (0,), [(1,), (2,), (3,)], M)
    q = p.restrict([(1,), (3,)])
    assert q.domain() == {(1,), (3,)}
    assert q.entries <= p.entries


def test_structure_rejects_bad_tuples():
    with pytest.raises(FmlabError, match="arity"):
        Structure(GRAPH_SIG, 3, {"R": [(0, 1, 2)]})
    with pytest.raises(FmlabError, match="out of range"):
        Structure(GRAPH_SIG, 3, {"R": [(0, 5)]})
    with pytest.raises(FmlabError, match="unknown relation"):
        Structure(GRAPH_SIG, 3, {"S": [(0, 1)]})


def test_structures_compare_and_hash_by_value():
    a = graph(4, [(0, 1), (2, 3)])
    b = Structure(GRAPH_SIG, 4, {"R": [(3, 2), (2, 3), (1, 0), (0, 1)]})
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != graph(4, [(0, 1), (1, 3)])
    assert a != graph(5, [(0, 1), (2, 3)])
    assert a != Structure(Signature((("E", 2),)), 4,
                          {"E": [(0, 1), (1, 0), (2, 3), (3, 2)]})
    assert a != "not a structure"


def test_evaluation_inside_induced_substructure():
    # quantifiers range over the subuniverse only
    star = graph(4, [(0, 1), (0, 2), (0, 3)])
    src = parse_formula("phi(x0; y0) := exists z0. R(z0,x0)", GRAPH_SIG)
    assert src.formula.holds(star, (1,), (0,)) is True
    assert src.formula.holds(star, (1,), (0,), domain=frozenset({1, 2, 3})) is False


# ---------------------------------------------------------------------------
# satisfaction tables against the reference interpreter
# ---------------------------------------------------------------------------

MIXED_SIG = Signature((("P", 1), ("R", 2), ("T", 3)))


def _random_structure(rng):
    n = 1 + rng.below(6)
    rels = {}
    for name, ar in MIXED_SIG.relations:
        cells = Structure(MIXED_SIG, n, {}).tuples(ar)
        rels[name] = [t for t in cells if rng.below(3) == 0]
    return Structure(MIXED_SIG, n, rels)


def _random_formula(rng, scope, depth, sig=MIXED_SIG):
    if depth == 0 or rng.below(4) == 0:
        name, ar = sig.relations[rng.below(len(sig.relations))]
        return Atom(name, tuple(scope[rng.below(len(scope))] for _ in range(ar)))
    pick = rng.below(7)
    if pick == 0:
        return Not(_random_formula(rng, scope, depth - 1, sig))
    if pick <= 4:
        op = (And, Or, Implies, Iff)[pick - 1]
        return op(_random_formula(rng, scope, depth - 1, sig),
                  _random_formula(rng, scope, depth - 1, sig))
    var = f"z{depth}"  # fresh per nesting depth, so no quantifier shadows another
    quant = Exists if pick == 5 else Forall
    return quant(var, _random_formula(rng, scope + [var], depth - 1, sig))


def test_sat_table_agrees_with_evaluate():
    rng = SplitMix64(20261018)
    for _ in range(60):
        M = _random_structure(rng)
        r = 1 + rng.below(2)
        s = rng.below(3 - r)
        ov = tuple(f"x{i}" for i in range(r))
        pv = tuple(f"y{i}" for i in range(s))
        phi = PartitionedFormula(_random_formula(rng, list(ov + pv), 4), ov, pv)
        part = None  # objects and parameters from part of the universe
        if rng.bit():
            part = frozenset(e for e in M.universe() if rng.bit()) or frozenset({0})
        for f in (phi, phi.swapped()):
            objs = list(M.tuples(f.r, domain=part))
            pars = list(M.tuples(f.s, domain=part))
            expected = [[evaluate(M, f.ast, {**dict(zip(f.object_vars, a)),
                                             **dict(zip(f.param_vars, b))})
                         for b in pars] for a in objs]
            table = SatTable(M, f)
            rows = table.rows(objs, pars)
            for i, a in enumerate(objs):
                for j, b in enumerate(pars):
                    assert bool((rows[i] >> j) & 1) == expected[i][j]
                    assert table.holds(a, b) == expected[i][j]
                    assert table.holds(a, b) == expected[i][j]


def _rebinding_formula(rng, scope, depth):
    """A random formula whose quantifiers may re-bind a free or an enclosing
    quantified variable, and whose atoms may name an unbound variable, take
    the wrong number of arguments or name a relation outside MIXED_SIG."""
    if depth == 0 or rng.below(4) == 0:
        name, ar = MIXED_SIG.relations[rng.below(len(MIXED_SIG.relations))]
        pick = rng.below(48)
        if pick == 0:
            name = "Q"
        elif pick == 1:
            ar += 1 if ar == 1 or rng.bit() else -1
        pool = scope + ["w0"] if rng.below(48) == 0 else scope
        return Atom(name, tuple(pool[rng.below(len(pool))] for _ in range(ar)))
    pick = rng.below(7)
    if pick == 0:
        return Not(_rebinding_formula(rng, scope, depth - 1))
    if pick <= 4:
        op = (And, Or, Implies, Iff)[pick - 1]
        return op(_rebinding_formula(rng, scope, depth - 1),
                  _rebinding_formula(rng, scope, depth - 1))
    names = sorted(set(scope) | {"z0", "z1"})
    var = names[rng.below(len(names))]
    quant = Exists if pick == 5 else Forall
    return quant(var, _rebinding_formula(rng, scope + [var], depth - 1))


def _partitioned(ast, ov, pv):
    """ast under the blocks ov/pv, even when it names a variable outside
    both; the constructor refuses those, so one is set in afterwards for
    evaluation to meet unbound."""
    phi = PartitionedFormula(Exists("w1", Atom("P", ("w1",))), ov, pv)
    object.__setattr__(phi, "ast", ast)
    return phi


REBINDING = [
    # the inner quantifier re-binds a free variable, which the atom after
    # it must see again
    And(Exists("x0", Atom("R", ("x0", "x0"))), Atom("R", ("x0", "y0"))),
    Or(Forall("y0", Atom("R", ("x0", "y0"))), Atom("P", ("y0",))),
    # a quantifier re-binds an enclosing quantified variable
    Exists("z0", And(Forall("z0", Atom("R", ("z0", "x0"))),
                     Atom("R", ("x0", "z0")))),
    Forall("z0", Implies(Atom("P", ("z0",)),
                         Exists("x0", Atom("T", ("x0", "z0", "y0"))))),
    # errors that only a reached atom raises
    Or(Atom("P", ("x0",)), Atom("R", ("x0",))),
    And(Atom("P", ("x0",)), Atom("Q", ("x0", "y0"))),
    Implies(Atom("P", ("y0",)), Atom("R", ("x0", "w0"))),
    Exists("z0", Atom("T", ("z0", "z0"))),
    # ill-formed nodes, whose error waits for a cell that reaches them
    Or(Atom("P", ("x0",)), "junk"),
    And(Atom("R", ("x0", "y0")), Exists("z0", 42)),
    Not("junk"),
]


def test_compiled_sat_table_agrees_with_evaluate_on_values_and_errors():
    # values, and the message of the first error, match the reference
    # interpreter cell by cell, for rows and for memoised holds, on
    # out-of-range blocks, re-bound variables, unbound variables, atom
    # arity mismatches and unknown relations
    rng = SplitMix64(20261019)
    cases = [(ast, ("x0",), ("y0",)) for ast in REBINDING]
    for _ in range(120):
        r = 1 + rng.below(2)
        s = rng.below(3 - r)
        ov = tuple(f"x{i}" for i in range(r))
        pv = tuple(f"y{i}" for i in range(s))
        cases.append((_rebinding_formula(rng, list(ov + pv), 3), ov, pv))
    for ast, ov, pv in cases:
        M = _random_structure(rng)
        n = M.universe_size
        vals = list(M.universe()) + [n, -1]
        for f in (_partitioned(ast, ov, pv), _partitioned(ast, pv, ov)):
            objs = list(itertools.product(vals, repeat=f.r))
            pars = list(itertools.product(vals, repeat=f.s))
            if rng.bit():
                objs = [a for a in objs if all(0 <= v < n for v in a)]
            table = SatTable(M, f)
            for a in objs:
                for b in pars:
                    want = outcome(lambda: evaluate(
                        M, f.ast, {**dict(zip(f.object_vars, a)),
                                   **dict(zip(f.param_vars, b))}))
                    assert outcome(lambda: table.holds(a, b)) == want, (ast, a, b)
                    assert outcome(lambda: table.holds(a, b)) == want, (ast, a, b)

            def reference_rows():
                out = []
                for a in objs:
                    v = 0
                    for j, b in enumerate(pars):
                        if f.holds(M, a, b):
                            v |= 1 << j
                    out.append(v)
                return out
            assert outcome(lambda: SatTable(M, f).rows(objs, pars)) == \
                outcome(reference_rows), ast
            for a, b in (((0,) * (f.r + 1), (0,) * f.s), ((0,) * f.r, (0,) * (f.s + 1))):
                assert outcome(lambda: table.holds(a, b)) == \
                    outcome(lambda: f.holds(M, a, b))


def _cell_rows(M, f, objs, pars, domain=None):
    """Satisfaction rows cell by cell through the reference `f.holds`, with
    quantifiers over `domain` (the whole universe when None)."""
    out = []
    for a in objs:
        v = 0
        for j, b in enumerate(pars):
            if f.holds(M, a, b, domain=domain):
                v |= 1 << j
        out.append(v)
    return out


def _vector_formulas(v):
    """Formulas reading the vector variable v of the compiler's vector mode
    (here the last parameter variable) in each way it compiles: a bit-matrix row, a
    transposed column, the diagonal, unary and ternary atoms, under Iff,
    Implies, Forall, and quantifiers that re-bind v."""
    return [
        Atom("R", ("x0", v)),
        Atom("R", (v, "x0")),
        Atom("R", (v, v)),
        Atom("P", (v,)),
        Atom("T", ("x0", "y0", v)),
        Atom("T", (v, v, v)),
        Iff(Atom("R", ("x0", v)), Atom("P", (v,))),
        Implies(Atom("P", ("x0",)), Forall("z0", Atom("T", ("x0", "z0", v)))),
        Forall("z0", Or(Atom("R", ("z0", v)), Not(Atom("P", ("z0",))))),
        Exists("z0", And(Atom("R", ("x0", "z0")), Atom("R", ("z0", v)))),
        # the quantifier re-binds v, which the atom after it sees again
        And(Exists(v, Atom("R", ("x0", v))), Atom("R", (v, "x0"))),
        Forall(v, Implies(Atom("P", (v,)),
                          Exists("z0", Atom("T", (v, "z0", "x0"))))),
        Or(Atom("P", (v,)), Exists("z0", Forall(v, Atom("R", ("z0", v))))),
    ]


def _shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def test_bit_parallel_rows_match_a_per_cell_loop():
    # rows from the vector compiler equal a per-cell `holds` loop on whole,
    # shuffled, partial and repeated object and parameter lists, s = 1 and
    # s = 2; one value outside the universe sends rows to the per-cell path,
    # with the same first error
    rng = SplitMix64(20261021)
    for case in range(240):
        M = _random_structure(rng)
        n = M.universe_size
        r, s = 1 + rng.below(2), 1 + rng.below(2)
        ov = tuple(f"x{i}" for i in range(r))
        pv = tuple(f"y{i}" for i in range(s))
        fixed = _vector_formulas(pv[-1])
        ast = (fixed[case // 2 % len(fixed)] if case % 2 else
               _random_formula(rng, list(ov + pv), 3))
        f = PartitionedFormula(ast, ov, pv)
        assert _compile(M, f, r + s - 1) is not None, ast
        objs, pars = list(M.tuples(r)), list(M.tuples(s))
        cases = [(objs, pars), (_shuffled(rng, objs), _shuffled(rng, pars)),
                 ([a for a in objs if rng.bit()], [b for b in pars if rng.bit()]),
                 (objs + objs[:2], _shuffled(rng, pars + pars[:: 2] + pars[:1]))]
        for objs_i, pars_i in cases:
            _sat_rows.cache_clear()
            calls = sum(_compile_shape.cache_info()[:2])
            assert SatTable(M, f).rows(objs_i, pars_i) == \
                _cell_rows(M, f, objs_i, pars_i), (ast, objs_i, pars_i)
            # one compile: the vector one, no scalar fallback
            assert sum(_compile_shape.cache_info()[:2]) == calls + 1
        # one value outside the universe: in an object or a parameter
        bad = (n, -1)[rng.bit()]
        objs_b, pars_b = list(objs), _shuffled(rng, pars)
        if rng.bit():
            i = rng.below(len(objs_b))
            objs_b[i] = objs_b[i][:-1] + (bad,)
        else:
            j = rng.below(len(pars_b))
            pars_b[j] = (bad,) + pars_b[j][1:]
        calls = sum(_compile_shape.cache_info()[:2])
        assert outcome(lambda: SatTable(M, f).rows(objs_b, pars_b)) == \
            outcome(lambda: _cell_rows(M, f, objs_b, pars_b)), ast
        # one compile: the scalar fallback, never the vector one
        assert sum(_compile_shape.cache_info()[:2]) == calls + 1


def test_rows_over_any_free_variable_match_a_per_cell_loop():
    # vector mode with the vector on any free variable, object or parameter,
    # s = 0 included: bit u of row(a, b) is the cell with u in the vector's
    # place and a + b on the other free variables in order, cell by cell
    # through the reference holds; some formulas re-bind the vector
    # variable under a quantifier and read it again after
    rng = SplitMix64(20261019)
    seen = set()
    for case in range(300):
        M = _random_structure(rng)
        n = M.universe_size
        r, s = 1 + rng.below(2), rng.below(3)
        ov = tuple(f"x{i}" for i in range(r))
        pv = tuple(f"y{i}" for i in range(s))
        names = ov + pv
        at = rng.below(r + s)
        v, w = names[at], names[rng.below(r + s)]
        rebind = case % 4 == 0
        ast = ((And(Exists(v, Atom("R", (w, v))), Atom("R", (v, w))),
                Forall(v, Or(Atom("P", (v,)), Atom("T", (v, w, v)))),
                Or(Atom("P", (v,)), Exists("z0", Forall(v, Atom("R", ("z0", v))))),
                )[case // 4 % 3] if rebind else _random_formula(rng, list(names), 3))
        f = PartitionedFormula(ast, ov, pv)
        row = _compile(M, f, at)
        assert row is not None, ast
        for rest in itertools.product(M.universe(), repeat=r + s - 1):
            cut = rng.below(len(rest) + 1)
            want = 0
            for u in M.universe():
                vals = rest[:at] + (u,) + rest[at:]
                if f.holds(M, vals[:r], vals[r:]):
                    want |= 1 << u
            assert row(rest[:cut], rest[cut:]) == want, (ast, at, rest)
        seen.update({("vector", "object" if at < r else "parameter"), ("s", s),
                     ("rebind", rebind), ("first", at == 0)})
    assert seen == {("vector", "object"), ("vector", "parameter"), ("s", 0),
                    ("s", 1), ("s", 2), ("rebind", True), ("rebind", False),
                    ("first", True), ("first", False)}


def test_memoised_rows_equal_a_fresh_computation():
    rng = SplitMix64(20261020)
    for _ in range(60):
        M = _random_structure(rng)
        r = 1 + rng.below(2)
        s = rng.below(3 - r)
        ov = tuple(f"x{i}" for i in range(r))
        pv = tuple(f"y{i}" for i in range(s))
        phi = PartitionedFormula(_random_formula(rng, list(ov + pv), 3), ov, pv)
        part = None  # objects from part of the universe
        if rng.bit():
            part = [e for e in M.universe() if rng.bit()]
        objs = list(M.tuples(phi.r, domain=part))
        pars = list(M.tuples(phi.s))
        first = SatTable(M, phi).rows(objs, pars)
        hits = _sat_rows.cache_info().hits
        # equal lists, built afresh, hit the memo by value
        again = SatTable(M, phi).rows(list(M.tuples(phi.r, domain=part)), list(pars))
        assert _sat_rows.cache_info().hits == hits + 1
        _sat_rows.cache_clear()
        assert again == first == SatTable(M, phi).rows(objs, pars)


def test_equal_structures_share_one_memo_entry_and_a_hit_does_not_compile():
    edges = [(0, 1), (1, 2), (2, 3)]
    M1, M2 = graph(4, edges), graph(4, edges)
    assert M1 is not M2
    objs = pars = list(M1.tuples(1))
    first = SatTable(M1, EDGE).rows(objs, pars)
    table = SatTable(M2, EDGE.swapped().swapped())
    assert table.rows(objs, pars) == first
    info = _sat_rows.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    # the first call compiled the row function once; the hit compiled nothing
    compiled = _compile_shape.cache_info()
    assert (compiled.hits, compiled.misses, compiled.currsize) == (0, 1, 1)
    # a row miss on the same (structure, formula) reuses the compiled
    # rows and compiles no scalar cells
    assert table.rows(objs[:2], pars) == first[:2]
    assert _sat_rows.cache_info().misses == 2
    compiled = _compile_shape.cache_info()
    assert (compiled.hits, compiled.misses, compiled.currsize) == (1, 1, 1)
    assert table.holds((0,), (1,)) is True
    compiled = _compile_shape.cache_info()
    assert (compiled.hits, compiled.misses, compiled.currsize) == (1, 2, 2)
    # an unequal structure of the same signature and size has its own rows
    # from the same compiled closures, in both modes
    M3 = graph(4, [(0, 2), (0, 3)])
    other = SatTable(M3, EDGE)
    assert other.rows(objs, pars) == [0b1100, 0, 0b0001, 0b0001]
    assert other.holds((0,), (2,)) is True and other.holds((0,), (1,)) is False
    assert table.rows(objs, pars) == first == [0b0010, 0b0101, 0b1010, 0b0100]
    assert _sat_rows.cache_info().currsize == 3
    compiled = _compile_shape.cache_info()
    assert (compiled.hits, compiled.misses, compiled.currsize) == (4, 2, 2)


def test_memoised_rows_keep_no_error_and_no_caller_edit():
    M = path_graph(3)
    table = SatTable(M, EDGE)
    objs = list(M.tuples(1))
    for _ in range(3):
        with pytest.raises(EvaluationError, match="element out of range: 3"):
            table.rows(objs, [(0,), (3,)])
    assert _sat_rows.cache_info().currsize == 0
    rows = table.rows(objs, objs)
    want = list(rows)
    rows[0] = 99
    rows.append(5)
    assert table.rows(objs, objs) == want
    assert _sat_rows.cache_info().hits == 1


# formulas that quantify, over R alone, so every signature here has them:
# (ast, object block, parameter block); the sentences and the formula with
# no parameter block read a different value on each kind of domain
QUANTIFIED = [
    (Exists("z0", And(Atom("R", ("x0", "z0")), Atom("R", ("z0", "y0")))),
     ("x0",), ("y0",)),
    (Forall("z0", Implies(Atom("R", ("z0", "x0")), Atom("R", ("z0", "y0")))),
     ("x0",), ("y0",)),
    (And(Forall("z0", Or(Atom("R", ("z0", "z0")), Atom("R", ("x0", "z0")))),
         Not(Atom("R", ("y1", "x0")))), ("x0",), ("y0", "y1")),
    (Exists("z0", Forall("z1", Iff(Atom("R", ("z0", "z1")), Atom("R", ("x0", "z1"))))),
     ("x0",), ()),
    (Forall("z0", Exists("z1", Atom("R", ("z0", "z1")))), (), ()),
    (Exists("z0", Not(Atom("R", ("z0", "z0")))), (), ()),
]


def test_inducing_a_submodel_gives_what_restricting_quantifiers_gives():
    # SatTable rows on the substructure classify._induced builds on D, with
    # objects and parameters relabelled by their rank in sorted(D), equal a
    # per-cell reference `holds` on M with quantifiers over D: graphs,
    # digraphs with loops and the P/R/T signature; empty, singleton, proper
    # and whole domains; fixed formulas that quantify, and random ones;
    # objects and parameters drawn inside D
    rng = SplitMix64(20261023)
    seen = set()
    for case in range(288):
        kind = ("graph", "digraph", "mixed")[case % 3]
        n = 2 + rng.below(5)
        if kind == "graph":
            M = graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.bit()])
        elif kind == "digraph":
            M = digraph(n, [(i, j) for i in range(n) for j in range(n) if rng.bit()])
        else:
            M = _random_structure(rng)
            n = M.universe_size
        shape = ("empty", "singleton", "proper", "whole")[case // 3 % 4]
        if shape == "empty":
            D = frozenset()
        elif shape == "singleton":
            D = frozenset({rng.below(n)})
        elif shape == "proper":
            drop = rng.below(n)
            D = frozenset(e for e in M.universe() if e != drop and rng.below(4))
        else:
            D = frozenset(M.universe())
        fixed = case // 12 % 2 == 0
        if fixed:
            ast, ov, pv = QUANTIFIED[rng.below(len(QUANTIFIED))]
        else:
            r = 1 + rng.below(2)
            ov = tuple(f"x{i}" for i in range(r))
            pv = tuple(f"y{i}" for i in range(rng.below(3 - r)))
            ast = _random_formula(rng, list(ov + pv), 3, M.signature)
        f = PartitionedFormula(ast, ov, pv)
        objs = [a for a in M.tuples(f.r, domain=D) if rng.below(4)]
        pars = _shuffled(rng, M.tuples(f.s, domain=D))
        rank = {e: i for i, e in enumerate(sorted(D))}

        def relabel(ts):
            return [tuple(rank[e] for e in t) for t in ts]
        sub = _induced(M, D)[0]
        assert SatTable(sub, f).rows(relabel(objs), relabel(pars)) == \
            _cell_rows(M, f, objs, pars, domain=D), (M, sorted(D), f.text())
        seen.update({kind, ("fixed", fixed), ("s", f.s),
                     "empty" if not D else "whole" if len(D) == n else
                     "singleton" if len(D) == 1 else "proper"})
    assert seen == {"graph", "digraph", "mixed", ("fixed", True), ("fixed", False),
                    ("s", 0), ("s", 1), ("s", 2),
                    "empty", "singleton", "proper", "whole"}


def test_only_the_reference_paths_restrict_quantifiers():
    # a submodel is handed to the searches, tables and types as the induced
    # structure; quantifiers range over a subset only in the reference
    # interpreter, which the tests compare against, and tuples are drawn
    # from one only by the enumerator
    from fmlab import classify, core, detect, indisc
    no_domain = [core.SatTable, core._compile, core._sat_rows, core.tp,
                 indisc.TypeOracle, classify.kappa, classify._average_witnesses,
                 detect.find_k_independence, detect.find_n_order,
                 detect.find_weak_m_order, detect.find_cover_violation]
    for fn in no_domain:
        assert "domain" not in inspect.signature(fn).parameters, fn
    for fn in (core.evaluate, core.PartitionedFormula.holds, core.Structure.tuples,
               classify.is_good):
        assert "domain" in inspect.signature(fn).parameters, fn
    assert "ambient" in inspect.signature(classify.prec_K).parameters
    assert "domains" in inspect.signature(classify.make_class_context).parameters


def _names(code):
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names(const)
    return names


def test_checkers_never_read_satisfaction_tables():
    checkers = [verify_independence, verify_order, verify_weak_order,
                verify_cover_violation, verify_homogeneous, verify_shattered,
                check_indiscernible, TypeOracle.key, TypeOracle.first_split,
                verify_split]
    for checker in checkers:
        names = _names(checker.__code__)
        assert "SatTable" not in names, checker.__qualname__
        assert "first_shattered" not in names, checker.__qualname__
        assert "_indiscernible_sequences" not in names, checker.__qualname__


def _reachable_names(fn, seen):
    """The names `fn` mentions, and those of every fmlab function it names
    as a global, transitively."""
    seen.add(fn)
    names = _names(fn.__code__)
    for name in tuple(names):
        callee = fn.__globals__.get(name)
        if (isinstance(callee, types.FunctionType) and callee not in seen
                and callee.__module__.startswith("fmlab")):
            names |= _reachable_names(callee, seen)
    return names


def test_reference_path_never_reaches_the_compiler():
    # the reference interpreter, tp and the checkers stay on evaluate, so a
    # fault in the compiled formulas cannot hide from the checks
    reference = [evaluate, PartitionedFormula.holds, tp, TypeOracle.key,
                 TypeOracle.first_split, verify_independence, verify_order,
                 verify_weak_order, verify_cover_violation, verify_homogeneous,
                 verify_shattered, check_indiscernible, verify_split]
    for fn in reference:
        names = _reachable_names(fn, set())
        assert "_compile" not in names, fn.__qualname__
        assert "_compile_shape" not in names, fn.__qualname__
        assert "_sat_rows" not in names, fn.__qualname__
        assert "SatTable" not in names, fn.__qualname__


def test_type_counting_never_reaches_the_reference_interpreter():
    # type counts are compiled rows; realized_types and tp stay the reference
    for fn in (count_phi_types, verify_independence_bound, verify_order_bound):
        names = _reachable_names(fn, set())
        assert "tp" not in names, fn.__qualname__
        assert "evaluate" not in names, fn.__qualname__
        assert "realized_types" not in names, fn.__qualname__


def test_formulas_built_from_lists_equal_those_built_from_tuples():
    # blocks and atom arguments are stored as tuples, so a formula built
    # from lists hashes, which the memoised closure set relies on
    def two_step(seq):
        ast = Exists("z0", And(Atom("R", seq(["x0", "z0"])),
                               Atom("R", seq(["z0", "y0"]))))
        return PartitionedFormula(ast, seq(["x0"]), seq(["y0"]))

    as_lists, as_tuples = two_step(list), two_step(tuple)
    assert hash(as_lists) == hash(as_tuples)
    assert as_lists == as_tuples
    assert as_lists.object_vars == ("x0",) and as_lists.param_vars == ("y0",)
    assert as_lists.ast.body.left.args == ("x0", "z0")
    lists, tuples = [as_lists, as_lists.negated()], [as_tuples, as_tuples.negated()]
    for n in (1, 2):
        assert delta_star(lists, n) == delta_star(tuples, n)
    M = seeded_graph(4, 17)
    assert kappa(M, lists, 1) == kappa(M, tuples, 1)
