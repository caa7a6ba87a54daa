"""Structure/formula parsing, serialization round trips, report emission."""

import sys
import time
from fractions import Fraction

import pytest

from fmlab import (ParseError, coupon_q, emit_report, find_k_independence,
                   parse_formula, parse_structure, serialize_formula,
                   serialize_structure)
from fmlab import formats
from fmlab.core import (And, Atom, Exists, Forall, Iff, Implies, Not, Or,
                        PartitionedFormula)
from fmlab.formats import (MAX_BINARY_ROWS, MAX_FORMULA_DEPTH, MAX_UNIVERSE,
                           FormulaSource)
from fmlab.util import SplitMix64, TooLargeError

from conftest import GRAPH_SIG, complete_graph

P3_TEXT = """signature: R/2
universe: 3
relation R: (0,1) (1,0) (1,2) (2,1)
"""


def test_parse_path_graph():
    doc = parse_structure(P3_TEXT)
    M = doc.structure
    assert M.universe_size == 3
    assert M.relations["R"] == frozenset({(0, 1), (1, 0), (1, 2), (2, 1)})


def test_missing_signature_is_an_error():
    with pytest.raises(ParseError, match="missing signature"):
        parse_structure("universe: 2\n")


def test_named_set_section():
    doc = parse_structure(P3_TEXT + "set A: (1) (2)\n")
    assert doc.sets["A"] == frozenset({(1,), (2,)})


def test_seq_and_submodel_sections():
    doc = parse_structure(P3_TEXT + "seq I: (0) (2) (1)\nsubmodel M0: 2 0\n")
    assert list(doc.seqs["I"]) == [(0,), (2,), (1,)]
    assert doc.submodels["M0"] == (0, 2)


def test_duplicate_tuples_warn_and_dedup():
    doc = parse_structure("signature: R/2\nuniverse: 2\nrelation R: (0,1) (0,1)\n")
    assert doc.structure.relations["R"] == frozenset({(0, 1)})
    assert doc.warnings


def test_out_of_range_element_rejected():
    with pytest.raises(ParseError, match="out of range"):
        parse_structure("signature: R/2\nuniverse: 2\nrelation R: (0,5)\n")


def test_unknown_relation_rejected():
    with pytest.raises(ParseError, match="unknown relation"):
        parse_structure("signature: R/2\nuniverse: 2\nrelation S: (0,1)\n")


def test_comments_and_blank_lines_ignored():
    doc = parse_structure("# header\nsignature: R/2  # trailing\n\nuniverse: 2\n")
    assert doc.structure.universe_size == 2


def test_structure_round_trip():
    doc = parse_structure(P3_TEXT + "set A: (2) (1)\nseq I: (0) (1)\nsubmodel N: 0 1\n")
    text = serialize_structure(doc)
    again = parse_structure(text)
    assert again == doc
    # serializing the reparse is a fixed point
    assert serialize_structure(again) == text


def test_parse_atomic_formula():
    src = parse_formula("phi(x0; y0) := R(x0,y0)", GRAPH_SIG)
    assert src.name == "phi"
    assert src.formula.r == 1 and src.formula.s == 1


def test_parse_comparison_formula():
    src = parse_formula("rho(x0,x1,x2; y0,y1,y2) := R(x0,y1) <-> R(x0,y2)",
                        GRAPH_SIG)
    assert type(src.formula.ast) is Iff
    assert src.formula.r == 3 and src.formula.s == 3


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_formula("phi(x0; y0) := R(y0,x0", GRAPH_SIG)
    assert err.value.line == 1
    assert err.value.col == 23


def test_undeclared_variable_rejected():
    with pytest.raises(ParseError, match="undeclared"):
        parse_formula("phi(x0; y0) := R(x0,y1)", GRAPH_SIG)


def test_arity_mismatch_rejected():
    with pytest.raises(ParseError, match="arity"):
        parse_formula("phi(x0; y0) := R(x0,y0,x0)", GRAPH_SIG)


def test_head_variable_naming_enforced():
    with pytest.raises(ParseError, match="object variables"):
        parse_formula("phi(a0; y0) := R(a0,y0)", GRAPH_SIG)


def test_negation_binds_tighter_than_conjunction():
    src = parse_formula("p(x0; y0) := ~R(x0,y0) & R(y0,x0)", GRAPH_SIG)
    assert type(src.formula.ast) is And
    assert type(src.formula.ast.left) is Not


def test_implication_right_associative():
    src = parse_formula("p(x0; y0) := R(x0,y0) -> R(y0,x0) -> R(x0,x0)", GRAPH_SIG)
    ast = src.formula.ast
    assert type(ast) is Implies
    assert type(ast.right) is Implies


def test_or_binds_tighter_than_implication():
    src = parse_formula("p(x0; y0) := R(x0,y0) | R(y0,x0) -> R(x0,x0)", GRAPH_SIG)
    assert type(src.formula.ast) is Implies
    assert type(src.formula.ast.left) is Or


def test_formula_round_trip():
    texts = [
        "phi(x0; y0) := R(x0,y0)",
        "phi(x0; y0,y1) := exists z0. (R(z0,y0) & ~R(z0,y1))",
        "phi(x0,x1; y0) := forall z0. (R(z0,x0) -> R(z0,y0) <-> R(x1,y0))",
    ]
    for text in texts:
        src = parse_formula(text, GRAPH_SIG)
        again = parse_formula(serialize_formula(src), GRAPH_SIG)
        assert again.formula == src.formula


def test_parser_never_crashes_on_fuzz():
    rng = SplitMix64(2024)
    alphabet = "Rxyz01(),;&|<->~ . :=existforal"
    for _ in range(400):
        text = "".join(alphabet[rng.below(len(alphabet))]
                       for _ in range(rng.below(40)))
        try:
            parse_formula(text, GRAPH_SIG)
        except ParseError:
            pass
    for _ in range(400):
        text = "".join(alphabet[rng.below(len(alphabet))]
                       for _ in range(rng.below(60)))
        try:
            parse_structure(text)
        except ParseError:
            pass


def _parse_error_at(text):
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    return err.value.message, err.value.line, err.value.col


def test_sequence_continued_with_another_arity_is_a_positioned_error():
    text = P3_TEXT + "seq I: (0) (1)\n# more\nseq I: (0,1)\n"
    assert _parse_error_at(text) == ("sequence entries must share one arity", 6, 7)
    # as on one line
    assert _parse_error_at(P3_TEXT + "seq I: (0) (0,1)\n") == (
        "sequence entries must share one arity", 4, 7)
    # an empty line of the sequence fixes no arity
    doc = parse_structure(P3_TEXT + "seq I:\nseq I: (0,1) (1,2)\n")
    assert list(doc.seqs["I"]) == [(0, 1), (1, 2)]


def test_repeated_universe_is_a_positioned_error():
    # before any relation line the second universe used to win silently,
    # leaving the set and the submodel naming elements past it
    text = "universe: 5\nset A: (4)\nsubmodel M0: 3 4\nuniverse: 3\nsignature: R/2\n"
    assert _parse_error_at(text) == ("repeated universe line", 4, 1)
    text = "signature: R/2\nuniverse: 5\nrelation R: (3,4)\n  universe: 5\n"
    assert _parse_error_at(text) == ("repeated universe line", 4, 1)


def test_repeated_signature_is_a_positioned_error():
    text = "signature: R/2\nuniverse: 2\nrelation R: (0,1)\nsignature: S/1\n"
    assert _parse_error_at(text) == ("repeated signature line", 4, 1)
    assert _parse_error_at("signature: R/2\n\nsignature: R/3\nuniverse: 2\n") == (
        "repeated signature line", 3, 1)


def test_element_too_long_to_convert_is_a_positioned_error():
    text = "signature: R/2\nuniverse: 2\nrelation R: (0,1) (1," + "9" * 5000 + ")\n"
    message, line, col = _parse_error_at(text)
    assert message.startswith("element out of range") and (line, col) == (3, 12)


def test_signature_declaration_errors_point_at_the_declaration():
    # each column is its declaration's own, not where the same text first occurs
    assert _parse_error_at("signature: R/2 R/\n") == ("bad arity ''", 1, 16)
    assert _parse_error_at("signature: s/1 s\n") == (
        "bad relation declaration 's', expected name/arity", 1, 16)


def _long_formula_error(lines):
    text = "phi(x0;) := R(" + "x0,\n" * lines + "x0) $"
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == f"{lines + 1}:5: unexpected character '$'"


def _long_relation_line(count):
    body = " ".join(f"({i % 1000},{i // 1000})" for i in range(count))
    text = f"signature: R/2\nuniverse: 1000\nrelation R: {body}\n"
    assert len(parse_structure(text).structure.relations["R"]) == count
    assert _parse_error_at(text[:-1] + " (0,1000)\n") == (
        "element out of range: 1000", 3, 12)


def test_positions_stay_linear_on_long_inputs():
    # a position found by walking the text from its start at each token, or
    # a walk per tuple that grows with the line, makes four times the input
    # cost about sixteen times the time; a linear reader takes about four
    for read, size in ((_long_formula_error, 300000), (_long_relation_line, 200000)):
        seconds = []
        for n in (size // 4, size):
            start = time.perf_counter()
            read(n)
            seconds.append(time.perf_counter() - start)
        assert seconds[1] < 10 * seconds[0], read.__name__


def test_universe_past_the_ceiling_is_refused_before_any_structure(monkeypatch):
    built = []
    real = formats.Structure
    monkeypatch.setattr(formats, "Structure",
                        lambda *a: built.append(a) or real(*a))
    text = f"signature: R/2\nuniverse: {MAX_UNIVERSE + 1}\nrelation R: (0,1)\n"
    assert _parse_error_at(text) == (f"universe must be at most {MAX_UNIVERSE}", 2, 10)
    assert built == []
    # the ceiling itself is a universe
    doc = parse_structure(f"signature: R/2\nuniverse: {MAX_UNIVERSE}\n")
    assert doc.structure.universe_size == MAX_UNIVERSE and len(built) == 1


def test_many_binary_relations_are_refused_before_any_structure(monkeypatch):
    # a structure keeps one row per element for each binary relation, so a
    # long signature line at a large universe once asked for gigabytes
    built = []
    real = formats.Structure
    monkeypatch.setattr(formats, "Structure",
                        lambda *a: built.append(a) or real(*a))
    sig = "signature: R/2 " + " ".join(f"R{i}/2" for i in range(1, 2000))
    message = (f"2000 binary relations over a universe of {MAX_UNIVERSE} keep "
               f"more than {MAX_BINARY_ROWS} rows")
    # refused at the later of the two lines, whichever comes first
    assert _parse_error_at(f"{sig}\nuniverse: {MAX_UNIVERSE}\n") == (message, 2, 10)
    assert _parse_error_at(f"universe: {MAX_UNIVERSE}\n{sig}\n") == (message, 2, 11)
    assert built == []
    # the product at the limit parses, and other arities keep no rows
    limit = MAX_BINARY_ROWS // MAX_UNIVERSE
    sig = " ".join([f"R{i}/2" for i in range(limit)] + [f"S{i}/1" for i in range(2000)])
    doc = parse_structure(f"signature: {sig} T/3\nuniverse: {MAX_UNIVERSE}\n")
    assert len(doc.structure.signature.relations) == limit + 2001 and len(built) == 1
    with pytest.raises(ParseError, match=f"^2:10: {limit + 1} binary relations"):
        parse_structure(f"signature: {sig} R/2\nuniverse: {MAX_UNIVERSE}\n")


def _formula_error_at(body):
    with pytest.raises(ParseError) as err:
        parse_formula("phi(x0; y0) :=\n" + body, GRAPH_SIG)
    return err.value.message, err.value.line, err.value.col


def test_nesting_past_the_limit_is_a_positioned_error():
    atom = "R(x0,y0)"
    deep = f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"
    parens = f"parentheses nested deeper than {MAX_FORMULA_DEPTH} levels"
    # 150 negations, then the 51st of the next line opens level 201
    negs = "~" * 150 + "\n"
    assert _formula_error_at(negs + "~" * 51 + atom) == (deep, 3, 51)
    # parentheses add no level, and have a limit of their own
    parse_formula("phi(x0; y0) := " + negs + "~" * 50 + "(" * MAX_FORMULA_DEPTH
                  + atom + ")" * MAX_FORMULA_DEPTH, GRAPH_SIG)
    wrapped = negs + "(" * (MAX_FORMULA_DEPTH + 1) + atom
    assert _formula_error_at(wrapped) == (parens, 3, MAX_FORMULA_DEPTH + 1)
    # a left-associative chain nests one level per connective: the 201st &
    chain = " & ".join([atom] * (MAX_FORMULA_DEPTH + 2))
    assert _formula_error_at(chain) == (deep, 2, 10 + 11 * MAX_FORMULA_DEPTH)
    ast = parse_formula("phi(x0; y0) := " + chain[:chain.rindex(" &")],
                        GRAPH_SIG).formula.ast
    assert type(ast) is And and type(ast.left) is And
    # quantifier chains are read in a loop; each quantifier is a level
    quants = "".join(f"exists z{i}. " for i in range(MAX_FORMULA_DEPTH + 1))
    assert _formula_error_at(quants + atom) == (deep, 2, quants.rindex("exists") + 1)
    # nesting that used to overflow Python's stack
    for body, message in (("(" * 600 + atom + ")" * 600, parens),
                          ("~" * 600 + atom, deep),
                          (" -> ".join([atom] * 600), deep)):
        assert _formula_error_at(body)[0] == message


def _deepest(shape, depth):
    """A formula with `depth` levels, `shape` choosing the node of each."""
    f = Atom("R", ("x0", "y0"))
    for i in range(depth):
        f = shape(i, f)
    return f


@pytest.mark.parametrize("shape", [
    lambda i, f: And(Atom("R", ("x0", "y0")), f),
    lambda i, f: And(f, Atom("R", ("y0", "x0"))),
    lambda i, f: Implies(Atom("R", ("x0", "y0")), f),
    lambda i, f: (Exists if i % 2 else Forall)(f"z{i}", f),
    lambda i, f: [Not(f), Or(Atom("R", ("y0", "x0")), f),
                  Iff(f, Atom("R", ("x0", "y0")))][i % 3],
], ids=["right-and", "left-and", "implies", "quantifiers", "mixed"])
def test_text_of_a_formula_at_the_limit_parses_back(shape):
    # formula_text parenthesises every connective and quantifier, so its text
    # nests as many parentheses as the formula has levels
    at_limit = PartitionedFormula(_deepest(shape, MAX_FORMULA_DEPTH), ("x0",), ("y0",))
    src = FormulaSource("phi", at_limit)
    assert parse_formula(serialize_formula(src), GRAPH_SIG) == src
    past = PartitionedFormula(_deepest(shape, MAX_FORMULA_DEPTH + 1), ("x0",), ("y0",))
    with pytest.raises(ParseError, match="nested deeper than"):
        parse_formula(serialize_formula(FormulaSource("phi", past)), GRAPH_SIG)


def test_prefix_runs_keep_their_scopes():
    # ~ takes the next unary formula, a quantifier the rest of the formula
    ast = parse_formula("p(x0; y0) := exists z0. ~ R(x0,z0) & R(z0,y0)",
                        GRAPH_SIG).formula.ast
    assert type(ast) is Exists and type(ast.body) is And
    assert type(ast.body.left) is Not
    ast = parse_formula("p(x0; y0) := ~ exists z0. R(x0,z0) & R(z0,y0)",
                        GRAPH_SIG).formula.ast
    assert type(ast) is Not and type(ast.sub.body) is And
    ast = parse_formula("p(x0; y0) := ~~(R(x0,y0)) | forall z0. ~R(z0,y0)",
                        GRAPH_SIG).formula.ast
    assert type(ast) is Or and ast.left == Not(Not(ast.left.sub.sub))
    assert type(ast.right) is Forall and type(ast.right.body) is Not
    with pytest.raises(ParseError, match="shadows"):
        parse_formula("p(x0; y0) := exists z0. ~forall z0. R(z0,y0)", GRAPH_SIG)


def test_parser_never_crashes_on_section_lines():
    # 1-6 lines drawn from templates of every section kind, half the time
    # after a valid header, so sections repeat, sequences change arity
    # between lines, and lines come before what they need; only ParseError
    # may escape
    templates = [
        "signature: R/2 S/1", "signature: S/3", "signature:", "signature: R/0",
        "signature: R/2 R/1", "signature: R", "universe: 3", "universe: 5",
        "universe: -1", "universe: x", "universe: 10000000000", "relation R: (0,1) (1,0)",
        "relation R: (0,1) (0,1)", "relation R: (0,1,2)", "relation S: (1) (4)",
        "relation R: (4,0)", "relation R:", "relation R: (0,1) x", "relation: (0,1)",
        "relation T: (0)", "set A: (1) (2)", "set A: (1) (1,2)", "set A: (4)",
        "set A: (0 (1)", "set B:  ( 1 , 2 )  (0,0)", "seq I: (0) (1)", "seq I: (0,1)",
        "seq I: (0) (0,1)", "seq I:", "seq I: (2) (2) (4)", "submodel M0: 3 4",
        "submodel M0: 0 1", "submodel M0: a", "submodel M0: 9 -1", "foo: 1", ": x",
        "no colon", "# comment", "",
    ]
    rng = SplitMix64(2020)
    seen = {"parsed": 0}
    for _ in range(3000):
        lines = [templates[rng.below(len(templates))] for _ in range(1 + rng.below(6))]
        if rng.bit():
            lines = ["signature: R/2 S/1", "universe: 5"] + lines
        try:
            parse_structure("\n".join(lines))
            seen["parsed"] += 1
        except ParseError as e:
            seen[e.message] = seen.get(e.message, 0) + 1
    assert seen["parsed"] >= 100
    for message in ("repeated signature line", "repeated universe line",
                    "sequence entries must share one arity", "expected a tuple like (0,1)",
                    f"universe must be at most {MAX_UNIVERSE}"):
        assert seen.get(message, 0) >= 20, message


def test_relation_listed_twice_keeps_one_copy_and_warns_per_repeat():
    pairs = [(i, j) for i in range(60) for j in range(60) if i != j]
    body = " ".join(f"({i},{j})" for i, j in pairs)
    doc = parse_structure(f"signature: R/2\nuniverse: 60\nrelation R: {body}\n"
                          f"relation R: {body}\n")
    assert doc.structure.relations["R"] == frozenset(pairs)
    assert doc.warnings == [f"4: duplicate tuple {t} in relation R" for t in pairs]


def test_report_is_deterministic_and_sorted():
    value = {"b": 2, "a": Fraction(1, 3), "c": [3, 1], "d": 0.123456789012345}
    out = emit_report(value)
    assert out == '{"a":"1/3","b":2,"c":[3,1],"d":0.123456789012}'
    assert emit_report(value) == out


def test_independence_witness_report_shape():
    K3 = complete_graph(3)
    from conftest import EDGE
    w = find_k_independence(K3, EDGE, 1)
    assert emit_report(w) == '{"a":[[0]],"b":{"{0}":[1],"{}":[0]}}'


def test_empty_report():
    assert emit_report({}) == "{}"


def test_rational_report():
    assert emit_report({"q": coupon_q(2, 2)}) == '{"q":"1/2"}'


def test_report_bytes_of_every_result_record():
    from fmlab import (AmalgamResult, BoundReport, BudgetExceeded,
                       ClassContext, CoverViolation, ExtractionFailure,
                       ExtractionTrace, GoodnessContext, GoodnessRefutation,
                       IndependenceWitness, IndiscernibilityCertificate,
                       KappaResult, OrderWitness, PrecReport, ShatterWitness,
                       SplittingChainFailure, SplitWitness, TupleSequence,
                       WeakOrderWitness)
    from conftest import EDGE, EDGE_PAIR
    cover = CoverViolation(3, ((0,), (1,), (2,)))
    formula = '"formula":"phi(x0; y0) := R(x0,y0)"'
    cases = [
        (OrderWitness(((0,), (1,), (2,))), '{"a":[[0],[1],[2]]}'),
        (WeakOrderWitness(((1,), (2,)), ((0,), (3,))),
         '{"d":[[1],[2]],"realizers":[[0],[3]]}'),
        (cover, '{"b":[[0],[1],[2]],"n":3}'),
        (SplitWitness(EDGE, (0,), (2,)), '{"b":[0],"c":[2],' + formula + '}'),
        (SplittingChainFailure("splitting", 1, "p|A_2 does not split over B=[0]"),
         '{"detail":"p|A_2 does not split over B=[0]","hypothesis":"splitting","i":1}'),
        (ExtractionFailure(2, "stalled at length 1 < 3"),
         '{"level":2,"reason":"stalled at length 1 < 3"}'),
        (BoundReport(lhs=5, rhs=None, rhs_factor=2, rhs_base=4, rhs_exponent=256,
                     params={"n": 1, "r": 1, "s": 1, "t": 0, "|A|": 4},
                     holds=True, hypothesis_ok=False, note="hypothesis fails"),
         '{"holds":true,"hypothesis_ok":false,"lhs":5,"note":"hypothesis fails",'
         '"params":{"n":1,"r":1,"s":1,"t":0,"|A|":4},"rhs":null,"rhs_base":4,'
         '"rhs_exponent":256,"rhs_factor":2}'),
        (PrecReport(True, "budget", False, False, 3),
         '{"cond1":true,"cond2":"budget","cond3":false,"detail":"",'
         '"failing_condition":3,"holds":false}'),
        (GoodnessRefutation("independence", EDGE, None),
         '{' + formula + ',"good":false,"kind":"independence","witness":null}'),
        (GoodnessRefutation("budget", EDGE.swapped(), BudgetExceeded(1001)),
         '{"formula":"phi(y0; x0) := R(x0,y0)","good":false,"kind":"budget",'
         '"witness":{"nodes":1001}}'),
        (GoodnessRefutation("cover", EDGE.negated(), cover),
         '{"formula":"phi(x0; y0) := ~R(x0,y0)","good":false,"kind":"cover",'
         '"witness":{"b":[[0],[1],[2]],"n":3}}'),
        (IndependenceWitness(((0,), (1,)),
                             {frozenset(): (2,), frozenset({0}): (1,),
                              frozenset({1}): (0,), frozenset({0, 1}): (3,)}),
         '{"a":[[0],[1]],"b":{"{0,1}":[3],"{0}":[1],"{1}":[0],"{}":[2]}}'),
        (ShatterWitness((0, 2), {frozenset(): frozenset(),
                                 frozenset({0}): frozenset({0, 1}),
                                 frozenset({1}): frozenset({2}),
                                 frozenset({0, 1}): frozenset({0, 2})}),
         '{"alphas":[0,2],"selectors":{"{0,1}":[0,2],"{0}":[0,1],"{1}":[2],"{}":[]}}'),
        (KappaResult(1, None), '{"kappa":1,"witness":null}'),
        (KappaResult(2, {"sequence": ((0,), (1,), (2,)), "formula": EDGE,
                         "c": (3,), "pos": 2, "neg": 1}),
         '{"kappa":2,"witness":{"c":[3],' + formula
         + ',"neg":1,"pos":2,"sequence":[[0],[1],[2]]}}'),
        (GoodnessContext(EDGE, 1, 2, 1, 2),
         '{"d":2,"good":true,"kappa":1,"lambda":2,"n":1}'),
        (ClassContext(EDGE, 1, 2, 1, ((0,), (1,)), 1, 2),
         '{"A":[[0],[1]],"d":2,"k":1,"kappa_K":1,"lambda_K":2,"n":1}'),
        (AmalgamResult("budget", {(0,): TupleSequence.of([(1,), (1,)], 1)}, (2,)),
         '{"holds":"budget","offender":[2],"witnesses":{"[0]":[[1],[1]]}}'),
        (IndiscernibilityCertificate(TupleSequence.of([(0,), (1,), (2,)], 1),
                                     "set", (EDGE_PAIR,), 2, (), False,
                                     ((0, 1), (1, 0))),
         '{"counterexample":[[0,1],[1,0]],"length":3,"m":2,"mode":"set",'
         '"verified":false}'),
        (ExtractionTrace((0, 1, 3), ((0, 2, 3), (1, 1, 2))),
         '{"chosen":[0,1,3],"steps":[{"classes":2,"j":0,"kept":3},'
         '{"classes":1,"j":1,"kept":2}]}'),
    ]
    for value, want in cases:
        assert emit_report(value) == want, type(value).__name__


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python prints integers of any length")
def test_report_integers_past_the_digit_limit_are_refused():
    limit = sys.get_int_max_str_digits()
    longest = 10 ** limit - 1
    assert emit_report([longest, -longest]) == f"[{longest},-{longest}]"
    assert emit_report(Fraction(1, longest)) == f'"1/{longest}"'
    for value in (10 ** limit, -10 ** limit, Fraction(10 ** limit, 3),
                  Fraction(1, 10 ** limit), {"nested": [10 ** limit]}):
        with pytest.raises(TooLargeError):
            emit_report(value)
