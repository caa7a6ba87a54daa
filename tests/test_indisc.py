"""Indiscernibility predicates, greedy extraction, and the length bounds."""

import itertools
import time

import pytest

from fmlab import (BoundParams, ConstantGrowth, ExtractionFailure,
                   ExtractionTrace,
                   HypergraphBoundedGrowth, HypergraphWorstGrowth,
                   PolynomialGrowth, PreconditionError, TupleSequence,
                   WorstCaseGrowth, beth, check_indiscernible, extraction_length_estimates,
                   extract_end_indiscernible, extract_indiscernible, f_star,
                   g_func)
from fmlab import indisc
from fmlab.indisc import (_EVAL_GUARD, _end_need, _formula_key, bound_step,
                          greedy_end_extraction)
from fmlab.util import (SIZE_GUARD_BITS, EvaluationError, SplitMix64,
                        TooLargeError, mix_seed)

from conftest import (EDGE, EDGE_PAIR, complete_graph, digraph,
                      empty_graph, graph, outcome, per_candidate_greedy,
                      seeded_digraph, seeded_graph, star_graph)
from fmlab import (PartitionedFormula, RGraph, Signature, Structure,
                   atom_formula, extract_homogeneous, find_n_order,
                   verify_homogeneous)
from fmlab.core import And, Atom, Exists, Not, Or, SatTable


def vertex_seq(n):
    return TupleSequence.of([(i,) for i in range(n)])


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def test_clique_is_a_pairwise_indiscernible_set():
    K5 = complete_graph(5)
    cert = check_indiscernible(vertex_seq(5), [EDGE_PAIR], 2, [], K5, mode="set")
    assert cert.verified


def test_independent_set_is_indiscernible():
    M = empty_graph(4)
    cert = check_indiscernible(vertex_seq(4), [EDGE_PAIR], 2, [], M, mode="set")
    assert cert.verified


def test_monochromatic_tuples_under_a_coloring():
    # 3-uniform coloring relation: increasing enumerations of a monochromatic
    # set are 1-indiscernible for the color formulas
    sig = Signature((("C", 3),))
    n = 6
    mono = {0, 2, 4}
    triples = {t for t in itertools.permutations(range(n), 3)}
    colored = {t for t in triples if set(t) <= mono}
    M = Structure(sig, n, {"C": colored})
    color = atom_formula("C", ["x0", "x1", "x2"], [])
    I = TupleSequence.of([(0, 2, 4), (0, 2, 4)])
    cert = check_indiscernible(I, [color, color.negated()], 1, [], M,
                               mode="sequence")
    assert cert.verified


def test_star_order_end_but_not_fully_indiscernible():
    star = star_graph(3)
    I = vertex_seq(4)  # center first, then the leaves
    assert check_indiscernible(I, [EDGE_PAIR], 2, [], star, mode="end").verified
    cert = check_indiscernible(I, [EDGE_PAIR], 2, [], star, mode="sequence")
    assert not cert.verified
    first, bad = cert.counterexample
    assert first == (0, 1)  # the center-leaf prefix is what distinguishes


def test_counterexample_is_lexicographically_first():
    # build a graph where exactly one later pair disagrees
    M = graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    cert = check_indiscernible(vertex_seq(4), [EDGE_PAIR], 2, [], M,
                               mode="sequence")
    assert not cert.verified
    assert cert.counterexample[0] == (0, 1)


def test_mode_and_length_preconditions():
    with pytest.raises(PreconditionError):
        check_indiscernible(vertex_seq(2), [EDGE_PAIR], 3, [], empty_graph(2))
    with pytest.raises(PreconditionError):
        check_indiscernible(vertex_seq(2), [EDGE_PAIR], 2, [], empty_graph(2),
                            mode="weird")


# ---------------------------------------------------------------------------
# bound functions
# ---------------------------------------------------------------------------


def test_staged_recursion_base_and_tail():
    params = BoundParams(PolynomialGrowth(2), 0, 1, 1, 5)
    assert f_star(params, 0) == 1
    assert f_star(params, 1) == 1          # 1 + 1 * F(0) with F(0) = 0
    assert f_star(params, 2) == 2          # 1 + 1 * F(1)
    # the additive tail: consecutive values differ by one
    tail = BoundParams(WorstCaseGrowth(1), 0, 1, 3, 6)
    vals = [f_star(tail, j) for j in range(0, 5)]
    for j in range(tail.k - 2 - tail.m, tail.k - 2):
        assert vals[j + 1] - vals[j] == 1


def test_staged_recursion_domain():
    params = BoundParams(PolynomialGrowth(2), 0, 1, 1, 5)
    with pytest.raises(PreconditionError):
        f_star(params, 4)
    with pytest.raises(PreconditionError):
        f_star(params, -1)


def test_beth_values():
    assert beth(0, 5) == 5
    assert beth(1, 10) == 1024
    assert beth(2, 2) == 16
    with pytest.raises(TooLargeError):
        beth(3, 64)
    # strictly increasing in both arguments once x >= 2
    for x in (2, 3, 5):
        assert beth(1, x) < beth(2, x)
        assert beth(2, x) < beth(2, x + 1)


def test_beth_obeys_the_size_guard():
    with pytest.raises(TooLargeError):
        beth(1, SIZE_GUARD_BITS)
    assert beth(1, SIZE_GUARD_BITS - 1).bit_length() == SIZE_GUARD_BITS


def test_g_identity_and_monotone():
    params = BoundParams(WorstCaseGrowth(1), 0, 1, 1, 5)
    assert g_func(params, 0, 7) == 7
    vals = [g_func(params, 1, x) for x in range(1, 6)]
    assert vals == sorted(vals)
    with pytest.raises(PreconditionError, match="underflow"):
        g_func(params, 1, -1)


def test_growth_functions_refuse_a_negative_parameter():
    # each is refused when built, before any bound reads it; zero is a
    # natural parameter and still answers
    for growth in (WorstCaseGrowth, PolynomialGrowth, ConstantGrowth):
        for bad in (-1, -3):
            with pytest.raises(PreconditionError, match=f"got {bad}"):
                growth(bad)
        F = growth(0)
        assert g_func(BoundParams(F, 0, 1, 1, 8), 1, 4) >= 4
        assert f_star(BoundParams(F, 0, 1, 1, 8), 5) >= 1


def test_f_star_refuses_too_many_stages_at_once():
    params = BoundParams(ConstantGrowth(1), 0, 1, 1, 10 ** 9)
    start = time.perf_counter()
    with pytest.raises(TooLargeError, match="stages"):
        f_star(params, 10 ** 9 - 2)
    assert time.perf_counter() - start < 1.0
    # the final additive stages come in closed form
    small = BoundParams(ConstantGrowth(1), 0, 1, 3, 12)
    assert [f_star(small, j) for j in range(11)] == list(range(1, 9)) + [9, 10, 11]


def test_constant_growth_end_need_is_the_loop_in_closed_form():
    # the step loop req = 1 + req * max(c, 1), once per j = K-2 .. m-1
    for c in range(6):
        for m in (1, 2, 3):
            for K in range(201):
                req = 1
                for _ in range(K - m):
                    req = 1 + req * max(c, 1)
                want = max(K, 0) if K <= m else (m - 1) + req
                assert _end_need(ConstantGrowth(c), 2, 1, m, K, 3) == want
    # refused exactly where the loop's value passes the guard: at c = 4 the
    # value after s steps has 2s + 1 bits
    F = ConstantGrowth(4)
    steps = (SIZE_GUARD_BITS - 1) // 2
    assert _end_need(F, 0, 1, 1, steps + 1).bit_length() == SIZE_GUARD_BITS - 1
    with pytest.raises(TooLargeError, match="length bound exceeds the size guard"):
        _end_need(F, 0, 1, 1, steps + 2)


def test_constant_growth_end_need_answers_at_once():
    # a million doubling steps, which the loop summed with quadratic
    # big-integer work
    start = time.perf_counter()
    got = _end_need(ConstantGrowth(2), 0, 1, 1, 10 ** 6 + 1)
    assert got == 2 ** (10 ** 6 + 1) - 1
    with pytest.raises(TooLargeError, match="size guard"):
        _end_need(ConstantGrowth(5), 0, 1, 1, _EVAL_GUARD + 2)
    assert time.perf_counter() - start < 1.0


def _g_by_recursion(params, i, x):
    """`g_func` as it was written, one recursive call per level."""
    if x < 0:
        raise PreconditionError("bound underflow")
    if i < 0:
        raise PreconditionError("level must be a natural")
    if i == 0:
        return x

    def go(level, x):
        if x == 0:
            return 1
        if level == 1:
            K = x + 1
        else:
            inner = go(level - 1, x - 1)
            if inner > _EVAL_GUARD:
                raise TooLargeError("length bound too large to compose")
            K = inner + 1
        offset = i * params.r * (i - level)
        return _end_need(params.F, params.alpha, params.r, level, K, offset)

    return go(i, x)


def test_g_func_loop_matches_the_recursion():
    # 768 cases; larger targets at the faster-growing functions take seconds
    # of million-bit arithmetic each, in either version
    growths = [PolynomialGrowth(1), PolynomialGrowth(2), ConstantGrowth(1),
               ConstantGrowth(3), HypergraphBoundedGrowth(3, 2),
               WorstCaseGrowth(1), WorstCaseGrowth(2)]
    seen = set()
    for F in growths:
        xs = range(-1, 5) if isinstance(F, ConstantGrowth) else range(-1, 3)
        for alpha, r, i, x in itertools.product((0, 2), (1, 2), range(-1, 5), xs):
            params = BoundParams(F, alpha, r, 1, 9)
            got = outcome(lambda: g_func(params, i, x))
            assert got == outcome(lambda: _g_by_recursion(params, i, x)), (F, alpha, r, i, x)
            seen.add(got[1] if isinstance(got, tuple) else int)
    assert seen == {int, "bound underflow", "level must be a natural",
                    "length bound too large to compose",
                    "exact power exceeds the size guard"}


def test_g_func_composes_thousands_of_levels():
    # the recursion ran out of stack frames here
    start = time.perf_counter()
    with pytest.raises(TooLargeError, match="size guard"):
        g_func(BoundParams(WorstCaseGrowth(1), 0, 1, 1, 10), 5000, 5000)
    # F = 1: each level above the first needs one more element
    assert g_func(BoundParams(ConstantGrowth(1), 0, 1, 1, 10), 5000, 5000) == 5001
    assert g_func(BoundParams(ConstantGrowth(1), 0, 1, 1, 10), 5000, 20) == 21
    assert time.perf_counter() - start < 1.0


def test_staged_bounds_answer_long_stage_counts_at_once():
    # each ran for minutes: F* multiplied stage by stage past the guard with
    # no bit-count check, and a constant divisor at r = 0 was summed one
    # stage at a time
    start = time.perf_counter()
    with pytest.raises(TooLargeError, match=r"^F\* exceeds the size guard$"):
        f_star(BoundParams(PolynomialGrowth(1), 0, 1, 1, 10 ** 6), 999_990)
    assert time.perf_counter() - start < 1.0
    want = (3 ** 1_500_001 - 1) // 2
    start = time.perf_counter()
    assert _end_need(PolynomialGrowth(1), 3, 0, 1, 1_500_001) == want
    assert time.perf_counter() - start < 1.0


def _f_star_by_loop(params, j):
    """`f_star` as it was written, one `bound_step` per multiplicative stage."""
    k, m = params.k, params.m
    if not (0 <= j <= k - 2):
        raise PreconditionError(f"j must satisfy 0 <= j <= k-2 = {k - 2}")
    stages = min(j, max(k - 2 - m, 0))
    if stages > _EVAL_GUARD:
        raise TooLargeError("F* has too many stages to evaluate")
    v = 1
    for jj in range(stages):
        v = bound_step(v, params.F.value(params.alpha + m * params.r * jj), "F*")
    return v + (j - stages)


def _end_need_by_loop(F, alpha, r, m, K, offset):
    """`_end_need` as it was written: a pass summing the divisors' bit counts,
    then one `bound_step` per refinement step j = K-2 down to m-1."""
    if K <= m:
        return max(K, 0)
    if K - 2 > _EVAL_GUARD:
        raise TooLargeError("length bound has too many stages to evaluate")
    steps = range(K - 2, m - 2, -1)

    def divisor(j):
        return max(F.value(alpha + offset + m * r * j), 1)

    bits = 0
    for j in steps:
        bits += divisor(j).bit_length() - 1
        if bits >= SIZE_GUARD_BITS:
            raise TooLargeError("length bound exceeds the size guard")
    req = 1
    for j in steps:
        req = bound_step(req, divisor(j), "length bound")
    return (m - 1) + req


def test_staged_bounds_match_the_stage_loops(monkeypatch):
    # seeded stage counts over every growth class. Under PolynomialGrowth(G-1)
    # F(2) = 2^(G-1) stays under the bit sum but is refused by bound_step,
    # and F(3) is refused by _power
    growths = [WorstCaseGrowth(1), WorstCaseGrowth(3), PolynomialGrowth(1),
               PolynomialGrowth(2), PolynomialGrowth(SIZE_GUARD_BITS - 1),
               HypergraphWorstGrowth(3), HypergraphBoundedGrowth(3, 2),
               ConstantGrowth(0), ConstantGrowth(1), ConstantGrowth(3)]
    stepped = []

    def spied_step(v, factor, what):
        try:
            return bound_step(v, factor, what)
        except TooLargeError:
            stepped.append(what)
            raise

    monkeypatch.setattr(indisc, "bound_step", spied_step)
    rng = SplitMix64(2424)
    seen, cases = set(), 0

    def compare(new, ref, case):
        nonlocal cases
        stepped.clear()
        got = outcome(new)
        assert got == outcome(ref), case
        cases += 1
        if isinstance(got, tuple) and got[1].endswith("exceeds the size guard"):
            seen.add("_power" if got[1].startswith("exact power")
                     else "bound_step" if stepped else "bit sum")

    for F, alpha, r, m in itertools.product(growths, (0, 3), (0, 1, 2), (0, 1, 2, 3)):
        for _ in range(2):
            k = rng.below(30)
            j = rng.below(k + 1) - 1
            params = BoundParams(F, alpha, r, m, k)
            compare(lambda: f_star(params, j), lambda: _f_star_by_loop(params, j),
                    (params, j))
            if 0 < min(j, k - 2 - m):
                if alpha == 0 and F.value(0) == 0:
                    seen.add("zero factor")
                if not isinstance(F, ConstantGrowth) and m * r == 0:
                    seen.add("m*r = 0")
            for offset in (0, 5):
                K = rng.below(30) - 1
                compare(lambda: _end_need(F, alpha, r, m, K, offset),
                        lambda: _end_need_by_loop(F, alpha, r, m, K, offset),
                        (F, alpha, r, m, K, offset))
    assert cases == 1440
    assert seen == {"zero factor", "m*r = 0", "_power", "bound_step", "bit sum"}


def test_size_guard_keeps_every_value_below_it():
    # sha256 of the hex values (or "too large") of the exact recurrences on a
    # fixed grid; values up to 1.25M bits, two of them past the guard
    import hashlib
    from fmlab import E_bound, hypergraph_fstar

    def outcome(fn, *args):
        try:
            return hex(fn(*args))
        except TooLargeError:
            return "too large"

    growths = [WorstCaseGrowth(1), WorstCaseGrowth(2), PolynomialGrowth(3),
               ConstantGrowth(2), HypergraphWorstGrowth(3),
               HypergraphBoundedGrowth(3, 2)]
    vals = []
    for F in growths:
        for alpha, r, m in itertools.product((0, 2), (1, 2), (1, 2)):
            params = BoundParams(F, alpha, r, m, 9)
            vals += [outcome(f_star, params, j) for j in range(8)]
            vals += [outcome(g_func, params, 1, x) for x in range(5)]
            vals.append(outcome(g_func, params, 2, 1))
            if F in growths[:3] and alpha == 2 and r == 1:
                vals.append(outcome(g_func, params, 2, 3))
    vals += [outcome(f_star, BoundParams(WorstCaseGrowth(2), 3, 2, 1, 100), j)
             for j in (20, 60, 98)]
    vals += [outcome(hypergraph_fstar, r, "worst", k)
             for r in (2, 3) for k in range(16)]
    vals += [outcome(hypergraph_fstar, 3, "bounded", k, 2) for k in range(7)]
    vals += [outcome(E_bound, p, j, x)
             for p in (1, 2) for j in (1, 2) for x in range(3)]
    assert len(vals) == 732 and vals.count("too large") == 2
    assert hashlib.sha256(repr(vals).encode()).hexdigest() == \
        "53164a16e2d2ea4397a654d2f4f5d19e06fe8e8301d75915c3ab23fc1026eb36"


def test_estimate_cases():
    assert extraction_length_estimates(1, 1, 3)["bound"] == 12
    assert extraction_length_estimates(2, 1, 4, 2)["bound"] == 11
    got = extraction_length_estimates(4, 1, 3, 1, 1, 1)
    assert got["inner"] == 2 * 3 + 2 + 9 == 17
    got2 = extraction_length_estimates(3, 2, 3, 2)
    assert got2["inner"] == 6 + 2 + 1 + 1
    assert got2["bound"] == beth(2, got2["inner"])


def test_estimate_case_four_refuses_out_of_range_parameters():
    # a negative t once gave a fractional inner value, and a negative n an
    # inner value of (3ns)^(t+1) with the sign of n
    for n, s, t in ((0, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1), (1, 1, -2)):
        with pytest.raises(PreconditionError,
                           match="^case 4 needs n >= 1, s >= 0 and t >= 0$"):
            extraction_length_estimates(4, 1, 1, n, s, t)
    assert extraction_length_estimates(4, 1, 1, 1, 0, 0)["inner"] == 2


def test_estimate_case_four_refuses_a_huge_power_at_once():
    # (3ns)^(t+1) = 300^(10^6 + 1) was built before beth refused the bound
    start = time.perf_counter()
    with pytest.raises(TooLargeError, match="size guard"):
        extraction_length_estimates(4, 1, 1, 10, 10, 10 ** 6)
    assert time.perf_counter() - start < 0.1


def test_growth_variants():
    assert WorstCaseGrowth(2).value(3) == 2 ** 9
    assert PolynomialGrowth(3).value(2) == 8
    assert HypergraphWorstGrowth(2).value(3) == 8
    assert HypergraphBoundedGrowth(3, 2).value(2) == 1
    assert HypergraphBoundedGrowth(3, 2).value(4) == 16
    assert ConstantGrowth(2).value(100) == 2


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def test_constant_sequence_extracts_to_itself():
    M = empty_graph(3)
    I = TupleSequence.of([(1,)] * 5)
    got = extract_end_indiscernible(I, EDGE_PAIR, 2, [], M)
    seq, trace = got
    assert list(seq) == [(1,)] * 5
    assert all(classes == 1 for _, classes, _ in trace.steps)


def test_star_extraction_keeps_leaves():
    star = star_graph(5)
    I = TupleSequence.of([(1,), (0,), (2,), (3,), (4,), (5,)])
    seq, trace = extract_end_indiscernible(I, EDGE_PAIR, 2, [], star)
    cert = check_indiscernible(seq, [EDGE_PAIR], 2, [], star, mode="end")
    assert cert.verified
    # the tail is leaves only
    assert all(t != (0,) for t in list(seq)[2:])


def test_extraction_trace_invariants():
    M = seeded_graph(30, 71)
    seq, trace = extract_end_indiscernible(vertex_seq(30), EDGE_PAIR, 2, [], M)
    kept = [s for _, _, s in trace.steps]
    assert kept == sorted(kept, reverse=True)
    assert all(kept[i] > kept[i + 1] for i in range(len(kept) - 1))


def _greedy_with_full_keys(length, m, colour, target):
    """The greedy extraction as defined: every step keys each candidate by its
    colour on every increasing (m-1)-selection of all chosen positions."""
    upto = length if target is None else min(target, length)
    chosen = list(range(min(m - 1, upto)))
    pool = list(range(m - 1, length))
    steps = []
    while pool and len(chosen) < (length if target is None else target):
        classes = {}
        for cand in pool:
            key = tuple(colour[sel + (cand,)]
                        for sel in itertools.combinations(chosen, m - 1))
            classes.setdefault(key, []).append(cand)
        best = max(classes.values(), key=lambda c: (len(c), -c[0]))
        steps.append((len(chosen), len(classes), len(best)))
        chosen.append(best[0])
        pool = best[1:]
    return chosen, ExtractionTrace(tuple(chosen), tuple(steps))


def test_incremental_greedy_matches_full_keys():
    # seeded colourings of increasing position m-tuples; the greedy passes
    # only the selections that can split the surviving pool. Each colour
    # 0..2 is two cells, its two bits, so equal cells mean equal colours
    rng = SplitMix64(5150)
    cases = 0
    for m in (1, 2, 3, 4):
        for _ in range(40):
            length = rng.below(15)
            colours = 1 + rng.below(3)
            colour = {t: rng.below(colours)
                      for t in itertools.combinations(range(length), m)}
            target = None if rng.bit() else rng.below(length + 2)

            def key_of(sels, pool):
                return [sum(1 << c for c in range(length)
                            if pool >> c & 1 and colour[sel + (c,)] & bit)
                        for sel in sels for bit in (1, 2)]

            assert greedy_end_extraction(length, m, key_of, target) == \
                _greedy_with_full_keys(length, m, colour, target), (m, length, target)
            cases += 1
    assert cases == 160


def test_complete_graph_full_extraction():
    K8 = complete_graph(8)
    got = extract_indiscernible(vertex_seq(8), EDGE_PAIR, 2, [], K8, 4)
    assert not isinstance(got, ExtractionFailure)
    assert len(got) >= 4


def test_two_coloring_extraction_with_oracle_crosscheck():
    # seeded 2-colorings of a complete graph on 40 vertices: extraction at
    # k=3 must agree with the brute-force search for a verified 3-sequence
    for seed in range(8):
        M = seeded_graph(40, mix_seed(4242, seed))
        got = extract_indiscernible(vertex_seq(40), EDGE_PAIR, 2, [], M, 3)
        assert not isinstance(got, ExtractionFailure)
        cert = check_indiscernible(got, [EDGE_PAIR], 2, [], M, mode="sequence")
        assert cert.verified
        brute = False
        for combo in itertools.combinations(range(40), 3):
            I = TupleSequence.of([(v,) for v in combo])
            if check_indiscernible(I, [EDGE_PAIR], 2, [], M,
                                   mode="sequence").verified:
                brute = True
                break
        assert brute


def test_hypergraph_extraction_m1():
    sig = Signature((("H", 3),))
    rng = SplitMix64(909)
    n = 30
    tuples = set()
    for e in itertools.combinations(range(n), 3):
        if rng.bit():
            tuples.update(itertools.permutations(e))
    M = Structure(sig, n, {"H": tuples})
    phi = atom_formula("H", ["x0"], ["y0", "y1"])
    A = [(0, 1), (2, 3)]
    got = extract_indiscernible(TupleSequence.of([(i,) for i in range(4, n)]),
                                phi, 1, A, M, 5)
    assert not isinstance(got, ExtractionFailure)
    cert = check_indiscernible(got, [phi, phi.negated()], 1, A, M,
                               mode="sequence")
    assert cert.verified


def test_extraction_failure_reports_level():
    M = seeded_graph(6, 3)
    got = extract_indiscernible(vertex_seq(6), EDGE_PAIR, 2, [], M, 6)
    if isinstance(got, ExtractionFailure):
        assert got.level in (1, 2)


def test_sequence_to_set_transfer_boundary_on_digraphs():
    # On symmetric relations, a pairwise-indiscernible sequence without an
    # order pattern is automatically a set. On an asymmetric relation the
    # transfer fails with a formula-local hypothesis: take all arcs on four
    # vertices except 2->1. No sign/orientation of the atom has a 3-order
    # witness (that needs three missing arcs), yet the identity sequence is
    # pairwise sequence-indiscernible and not a set: increasing selections
    # never constrain reversed pairs.
    arcs = {(i, j) for i in range(4) for j in range(4) if i != j}
    arcs.discard((2, 1))
    M = digraph(4, arcs)
    reverse = PartitionedFormula(Atom("R", ("y0", "x0")), ("x0",), ("y0",))
    for f in (EDGE, EDGE.negated(), reverse, reverse.negated()):
        assert find_n_order(M, f, 3) is None
    I = TupleSequence.of([(0,), (1,), (2,), (3,)])
    assert check_indiscernible(I, [EDGE_PAIR], 2, [], M, mode="sequence").verified
    assert not check_indiscernible(I, [EDGE_PAIR], 2, [], M, mode="set").verified


def test_sufficient_length_never_fails():
    # worst-case growth cell at m = 1 with one parameter
    params = BoundParams(WorstCaseGrowth(1), 1, 1, 1, 4)
    for k in (2, 3, 4):
        need = g_func(params, 1, k - 1)
        assert need <= 10 ** 4
        for seed in range(5):
            M = seeded_graph(need, mix_seed(888, 100 * k + seed))
            got = extract_indiscernible(vertex_seq(need), EDGE, 1, [(0,)], M, k)
            assert not isinstance(got, ExtractionFailure), (k, seed)


def test_negative_lengths_are_refused():
    M = seeded_graph(6, 3)
    with pytest.raises(PreconditionError, match="k must be >= 0"):
        extract_end_indiscernible(vertex_seq(6), EDGE_PAIR, 2, [], M, k=-1)
    with pytest.raises(PreconditionError, match="target must be >= 0"):
        greedy_end_extraction(6, 2, lambda sels, pool: [], target=-1)
    # k = 0 still asks for the empty sequence
    seq, trace = extract_end_indiscernible(vertex_seq(6), EDGE_PAIR, 2, [], M, k=0)
    assert len(seq) == 0 and trace == ExtractionTrace((), ())


# ---------------------------------------------------------------------------
# bitmask greedy keys against the tuple keys they replaced
# ---------------------------------------------------------------------------


def _tuple_formula_key(seq, table, pars, suffix=()):
    """The tuple-valued `_formula_key` the greedy was keyed by before its keys
    became bitmasks, kept as the reference."""
    holds = table.holds
    concat = seq.concat

    def key_of(sels, cand):
        return tuple(tuple(holds(concat(sel + (cand,)) + suffix, b) for b in pars)
                     for sel in sels)

    return key_of


def _list_halving_chain(G, vertices, k, ties=None):
    """The halving chain for 2-graphs as it was written on lists, one edge
    lookup per remaining vertex, kept as the reference. `ties`, when given,
    gets one entry per step whose two sides tie and one when the two colours
    tie along the chain."""
    S = sorted(vertices)
    chain = []
    while S:
        v = S[0]
        rest = S[1:]
        if not rest:
            chain.append((v, None))
            break
        nb = [u for u in rest if (v, u) in G.edges]
        nn = [u for u in rest if (v, u) not in G.edges]
        if ties is not None and len(nb) == len(nn):
            ties.append("side")
        if len(nb) > len(nn):
            chain.append((v, 1))
            S = nb
        else:
            chain.append((v, 0))
            S = nn
    last = chain[-1][0] if chain else None
    ones = [v for v, c in chain if c == 1]
    zeros = [v for v, c in chain if c == 0]
    if ties is not None and len(ones) == len(zeros):
        ties.append("colour")
    if len(ones) > len(zeros):
        members, tag = ones, "complete"
    else:
        members, tag = zeros, "empty"
    if last is not None:
        members = members + [last]
    if len(members) < k:
        return ExtractionFailure(2, f"halving chain supports only {len(members)} < {k}")
    return frozenset(members[:k]), tag


def _tuple_key_homogeneous(G, n, k):
    """`extract_homogeneous` with the tuple key, the `has_edge` link graph
    and the list-based halving chain it had before its keys and its chain
    became bitmasks, kept as the reference."""
    if k < 0:
        raise PreconditionError("k must be a natural")
    if k == 0:
        return frozenset(), "empty"
    if k <= G.r - 1:
        if G.n < k:
            return ExtractionFailure(G.r, f"only {G.n} vertices for target {k}")
        return frozenset(range(k)), "empty"
    if G.n < k:
        return ExtractionFailure(G.r, f"only {G.n} vertices for target {k}")
    if G.r == 2:
        return _list_halving_chain(G, range(G.n), k)

    edges = G.edges

    def key_of(sels, cand):
        return tuple(sel + (cand,) in edges for sel in sels)

    chosen, _ = per_candidate_greedy(G.n, G.r, key_of, target=None)
    if len(chosen) < G.r:
        return ExtractionFailure(G.r, f"end-homogeneous stage reached only {len(chosen)}")
    v = chosen[-1]
    prefix = chosen[:-1]
    back = {i: u for i, u in enumerate(prefix)}
    link_edges = set()
    for sub in itertools.combinations(range(len(prefix)), G.r - 1):
        orig = tuple(sorted(back[i] for i in sub)) + (v,)
        if G.has_edge(orig):
            link_edges.add(sub)
    sub_graph = RGraph.of(len(prefix), G.r - 1, link_edges)
    rec = _tuple_key_homogeneous(sub_graph, n, k - 1)
    if isinstance(rec, ExtractionFailure):
        return rec
    core, tag = rec
    result = frozenset(back[i] for i in core) | {v}
    if not verify_homogeneous(G, result, tag):
        return ExtractionFailure(G.r, "result failed homogeneity re-verification")
    return result, tag


def _seeded_formula(rng, r, s):
    """A formula over one binary relation R with object block x0..x(r-1) and
    parameter block y0..y(s-1): one to three atoms joined by conjunction or
    disjunction, some negated, sometimes under one existential quantifier."""
    xs = [f"x{i}" for i in range(r)]
    ys = [f"y{i}" for i in range(s)]
    names = xs + ys + (["z"] if rng.bit() else [])

    def atom():
        return Atom("R", (names[rng.below(len(names))], names[rng.below(len(names))]))

    f = atom()
    for _ in range(rng.below(3)):
        g = Not(atom()) if rng.bit() else atom()
        f = And(f, g) if rng.bit() else Or(f, g)
    if "z" in names:
        f = Exists("z", f)
    return PartitionedFormula(f, xs, ys)


def _seeded_key_case(rng, trial, out_of_range=False):
    """(length, m, seq, phi, table, pars, suffix, target) for one greedy run on a
    seeded graph or digraph. With `out_of_range`, some sequence entries and
    parameters name elements past the universe."""
    n = 3 + rng.below(5)
    seed = mix_seed(1414, trial)
    M = seeded_graph(n, seed) if rng.bit() else seeded_digraph(n, seed)
    m = 1 + trial % 3
    arity = 1 + rng.below(2)
    suffix = tuple(rng.below(n) for _ in range(arity * rng.below(2)))
    s = rng.below(3)
    phi = _seeded_formula(rng, m * arity + len(suffix), s)
    top = n + 3 if out_of_range else n
    if s == 0:
        pars = [()]
    elif rng.below(4) == 0:
        pars = []  # a parameter set with no tuple of arity s
    else:
        pars = sorted({tuple(rng.below(top) for _ in range(s))
                       for _ in range(1 + rng.below(3))})
    length = rng.below(12)
    seq = TupleSequence.of([tuple(rng.below(top) for _ in range(arity))
                            for _ in range(length)], arity)
    target = (None, 0, rng.below(length + 1), length + 1 + rng.below(2))[trial % 4]
    return length, m, seq, phi, SatTable(M, phi), pars, suffix, target


class _CellLog:
    """A stand-in table: `holds` answers from a real `SatTable` and logs each
    cell it is asked for, in order; the row path reads the table's key and
    logs nothing."""

    def __init__(self, table):
        self.cells = []
        self._key = table._key
        self._holds = table.holds

    def holds(self, obj, par):
        self.cells.append((obj, par))
        return self._holds(obj, par)


def test_bitmask_formula_key_matches_the_tuple_key():
    # same (chosen, trace) from the cell-mask keys as from the tuple keys on
    # the per-candidate greedy, for m = 1..3, s = 0..2, empty parameter
    # lists, suffixes and every kind of target; on the scalar path (entries
    # of arity 2) the same cells are evaluated in the same order, and the
    # row path (arity 1, all in range) evaluates none; the keys must split
    # some pools, or nothing is compared
    rng = SplitMix64(1414)
    seen = set()
    for trial in range(600):
        length, m, seq, phi, table, pars, suffix, target = _seeded_key_case(rng, trial)
        new, old = _CellLog(table), _CellLog(table)
        got = greedy_end_extraction(length, m, _formula_key(seq, new, pars, suffix),
                                    target)
        want = per_candidate_greedy(length, m,
                                    _tuple_formula_key(seq, old, pars, suffix),
                                    target)
        assert got == want, trial
        rows = seq.tuple_arity == 1
        assert new.cells == ([] if rows else old.cells), trial
        split = any(classes > 1 for _, classes, _ in want[1].steps)
        seen.update({("m", m), ("s", phi.s), ("pars", len(pars) > 0),
                     ("rows", rows), ("cells", len(old.cells) > 0),
                     ("suffix", len(suffix) > 0), ("split", split),
                     ("target", "none" if target is None else
                      "past" if target > length else "zero" if target == 0
                      else "within")})
    assert seen == {("m", 1), ("m", 2), ("m", 3), ("s", 0), ("s", 1), ("s", 2),
                    ("pars", True), ("pars", False), ("rows", True),
                    ("rows", False), ("cells", True), ("cells", False),
                    ("suffix", True),
                    ("suffix", False), ("split", True), ("split", False),
                    ("target", "none"), ("target", "past"), ("target", "zero"),
                    ("target", "within")}


def test_bitmask_formula_key_raises_the_tuple_keys_first_error():
    # entries and parameters past the universe: both keys meet the same cell
    # first, so the same EvaluationError message comes out, or the same
    # result when no evaluated cell touches a bad element
    rng = SplitMix64(1415)
    errors = 0
    for trial in range(400):
        length, m, seq, _, table, pars, suffix, target = _seeded_key_case(
            rng, trial, out_of_range=True)
        got = outcome(lambda: greedy_end_extraction(
            length, m, _formula_key(seq, table, pars, suffix), target))
        want = outcome(lambda: per_candidate_greedy(
            length, m, _tuple_formula_key(seq, table, pars, suffix), target))
        assert got == want, trial
        if want[0] is EvaluationError:
            assert want[1].startswith("element out of range: ")
            errors += 1
    assert errors >= 50


def test_row_formula_key_matches_the_scalar_fallback(monkeypatch):
    # entries of arity 1 inside the universe: rows over the candidate's
    # variable give the same cell masks, call by call, and the same
    # (chosen, trace) as the scalar cells the key falls back to when the
    # formula does not compile to rows; sequences are permutations of part
    # of the universe, or repeat elements
    rng = SplitMix64(1418)
    seen = set()
    for trial in range(400):
        n = 2 + rng.below(7)
        seed = mix_seed(1418, trial)
        M = seeded_graph(n, seed) if rng.bit() else seeded_digraph(n, seed)
        m = 1 + trial % 3
        suffix = tuple(rng.below(n) for _ in range(rng.below(2)))
        s = rng.below(3)
        phi = _seeded_formula(rng, m + len(suffix), s)
        pars = ([()] if s == 0 else
                sorted({tuple(rng.below(n) for _ in range(s)) for _ in range(1 + rng.below(3))}))
        if trial % 2:
            elems = [e for e in range(n) if rng.below(4)]
            seq = TupleSequence.of([(e,) for e in _shuffled(rng, elems)], 1)
        else:
            seq = TupleSequence.of([(rng.below(n),) for _ in range(rng.below(13))], 1)
        target = (None, rng.below(len(seq) + 1))[trial % 4 == 3]
        runs = []
        for path in ("rows", "cells"):
            with monkeypatch.context() as patch:
                if path == "cells":
                    patch.setattr(indisc, "_compile", lambda *args: None)
                key = _formula_key(seq, SatTable(M, phi), pars, suffix)
            assert key.__name__ == path + "_key", trial
            calls = []

            def logged(sels, pool, key=key, calls=calls):
                cells = key(sels, pool)
                calls.append((list(sels), pool, list(cells)))
                return cells

            runs.append((greedy_end_extraction(len(seq), m, logged, target), calls))
        assert runs[0] == runs[1], trial
        (_, trace), calls = runs[0]
        repeated = len(set(seq)) < len(seq)
        seen.update({("m", m), ("s", s), ("repeated", repeated),
                     ("split", any(c > 1 for _, c, _ in trace.steps)),
                     ("cells", any(cells for _, _, cells in calls))})
    assert seen == {("m", 1), ("m", 2), ("m", 3), ("s", 0), ("s", 1), ("s", 2),
                    ("repeated", True), ("repeated", False), ("split", True),
                    ("split", False), ("cells", True), ("cells", False)}


def test_row_formula_key_matches_the_scalar_fallback_past_one_byte(monkeypatch):
    # universes of 9..40 elements, so rows span two to five bytes and each
    # row becomes a position mask through several byte tables; the
    # sequences draw from some of the bytes only (the lowest one skipped,
    # or one in the middle), distinct or repeated, and the cells must
    # match the scalar fallback call by call
    rng = SplitMix64(1426)
    seen = set()
    for trial in range(240):
        n = 9 + rng.below(32)
        seed = mix_seed(1426, trial)
        M = seeded_graph(n, seed) if rng.bit() else seeded_digraph(n, seed)
        m = 1 + trial % 3
        suffix = tuple(rng.below(n) for _ in range(rng.below(2)))
        s = rng.below(3)
        phi = _seeded_formula(rng, m + len(suffix), s)
        pars = ([()] if s == 0 else
                sorted({tuple(rng.below(n) for _ in range(s)) for _ in range(1 + rng.below(3))}))
        spans = range((n + 7) // 8)
        used = [b for b in spans if rng.below(3)] or [rng.below(len(spans))]
        elems = [e for e in range(n) if e >> 3 in used]
        if trial % 2:
            elems = [e for e in _shuffled(rng, elems) if rng.below(4)][:16]
            seq = TupleSequence.of([(e,) for e in elems], 1)
        else:
            seq = TupleSequence.of([(elems[rng.below(len(elems))],)
                                    for _ in range(rng.below(17))], 1)
        target = (None, rng.below(len(seq) + 1))[trial % 4 == 3]
        runs = []
        for path in ("rows", "cells"):
            with monkeypatch.context() as patch:
                if path == "cells":
                    patch.setattr(indisc, "_compile", lambda *args: None)
                key = _formula_key(seq, SatTable(M, phi), pars, suffix)
            assert key.__name__ == path + "_key", trial
            calls = []

            def logged(sels, pool, key=key, calls=calls):
                cells = key(sels, pool)
                calls.append((list(sels), pool, list(cells)))
                return cells

            runs.append((greedy_end_extraction(len(seq), m, logged, target), calls))
        assert runs[0] == runs[1], trial
        (_, trace), calls = runs[0]
        touched = {e >> 3 for e, in seq}
        seen.update({("m", m), ("s", s), ("suffix", len(suffix) > 0),
                     ("repeated", len(set(seq)) < len(seq)),
                     ("low byte unused", bool(touched) and 0 not in touched),
                     ("gap", any(b not in touched
                                 for b in range(min(touched, default=0),
                                                max(touched, default=0)))),
                     ("bytes", min(len(touched), 3)),
                     ("split", any(c > 1 for _, c, _ in trace.steps))})
    assert seen == {("m", 1), ("m", 2), ("m", 3), ("s", 0), ("s", 1), ("s", 2),
                    ("suffix", True), ("suffix", False), ("repeated", True),
                    ("repeated", False), ("low byte unused", True),
                    ("low byte unused", False), ("gap", True), ("gap", False),
                    ("bytes", 0), ("bytes", 1), ("bytes", 2), ("bytes", 3),
                    ("split", True), ("split", False)}


def _separated_before_the_last_cell(pool, cells):
    """Whether a proper prefix of `cells` already tells every candidate in
    `pool` apart, so the refinement may stop before the last cell."""
    cands = [p for p in range(pool.bit_length()) if pool >> p & 1]
    return any(len({tuple(c >> p & 1 for c in cells[:i]) for p in cands}) == len(cands)
               for i in range(1, len(cells)))


def test_greedy_skips_dead_cells_and_stops_at_singletons():
    # seeded colourings keyed by cell masks that carry bits outside the
    # pool, past the sequence too, mixed with cells that are empty or the
    # whole pool once restricted to it; none of these may change a class,
    # and refining may stop once every candidate is apart
    rng = SplitMix64(1427)
    seen = set()
    for trial in range(300):
        m = 1 + trial % 3
        length = rng.below(14)
        colours = 1 + rng.below(8)
        colour = {t: rng.below(colours)
                  for t in itertools.combinations(range(length), m)}
        target = None if rng.bit() else rng.below(length + 2)
        stops = []

        def key_of(sels, pool):
            cells = []
            for sel in sels:
                for bit in (1, 2, 4):
                    cell = sum(1 << c for c in range(length)
                               if pool >> c & 1 and colour[sel + (c,)] & bit)
                    junk = rng.bits(length + 4) & ~pool
                    cells += [cell | junk] + [(0, pool, junk, pool | junk)[rng.below(4)]
                                              for _ in range(rng.below(2))]
            stops.append(_separated_before_the_last_cell(pool, [c & pool for c in cells]))
            return cells

        def reference_key(sels, cand):
            return tuple(colour[sel + (cand,)] for sel in sels)

        got = greedy_end_extraction(length, m, key_of, target)
        assert got == per_candidate_greedy(length, m, reference_key, target), trial
        seen.update({("m", m), ("stop", any(stops)),
                     ("split", any(c > 1 for _, c, _ in got[1].steps))})
    assert seen == {("m", 1), ("m", 2), ("m", 3), ("stop", True), ("stop", False),
                    ("split", True), ("split", False)}


def _shuffled(rng, items):
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


def test_bitmask_homogeneous_key_matches_the_tuple_key():
    # seeded 3-graphs and 4-graphs of every density, every target size
    rng = SplitMix64(1416)
    found = failed = 0
    for trial in range(120):
        r = 3 + trial % 2
        n = r + rng.below(12 if r == 3 else 8)
        density = 1 + rng.below(7)
        edges = [e for e in itertools.combinations(range(n), r)
                 if rng.below(8) < density]
        G = RGraph.of(n, r, edges)
        for k in range(n + 2):
            got = extract_homogeneous(G, 2, k)
            assert got == _tuple_key_homogeneous(G, 2, k), (trial, k)
            if isinstance(got, ExtractionFailure):
                failed += 1
            else:
                found += 1
    assert found > 100 and failed > 100


def test_bitmask_halving_chain_matches_the_list_chain():
    # seeded 2-graphs of every density, every target size; some get a first
    # vertex adjacent to exactly half of the others, so its sides tie
    rng = SplitMix64(1433)
    ties = []
    found = failed = 0
    for trial in range(240):
        n = rng.below(24)
        density = trial % 9  # 0/8 .. 8/8
        edges = {e for e in itertools.combinations(range(n), 2)
                 if rng.below(8) < density}
        if trial % 3 == 0 and n % 2:
            edges = {e for e in edges if e[0]} | {(0, u) for u in range(1, n, 2)}
        G = RGraph.of(n, 2, edges)
        _list_halving_chain(G, range(n), 0, ties)
        for k in range(n + 2):
            got = extract_homogeneous(G, 2, k)
            assert got == _tuple_key_homogeneous(G, 2, k), (trial, k)
            if isinstance(got, ExtractionFailure):
                failed += 1
            else:
                found += 1
                assert verify_homogeneous(G, *got), (trial, k)
    assert found > 500 and failed > 200
    assert ties.count("side") > 50 and ties.count("colour") > 20


def _full_and_sparse_link_keys(G):
    """The greedy key of `extract_homogeneous` in two forms: one link mask
    per selection, 0 for a selection in no edge, and only the masks that
    exist."""
    link = {}
    for e in G.edges:
        link[e[:-1]] = link.get(e[:-1], 0) | 1 << e[-1]

    def full(sels, pool):
        return [link.get(s, 0) for s in sels]

    def sparse(sels, pool):
        return list(filter(None, map(link.get, sels)))

    return full, sparse


def test_greedy_with_empty_cells_left_out_matches_the_full_cell_key():
    # seeded 3-graphs and 4-graphs of every density and target: leaving the
    # empty cells out changes neither the choices nor the trace, on steps
    # that end in one block and on steps that split
    rng = SplitMix64(1434)
    blocks = set()
    for trial in range(200):
        r = 3 + trial % 2
        n = rng.below(16 if r == 3 else 11)
        density = rng.below(9)
        G = RGraph.of(n, r, [e for e in itertools.combinations(range(n), r)
                             if rng.below(8) < density])
        target = None if rng.bit() else rng.below(n + 2)
        full, sparse = _full_and_sparse_link_keys(G)
        got = greedy_end_extraction(n, r, sparse, target)
        assert got == greedy_end_extraction(n, r, full, target), (trial, target)
        blocks.update(min(c, 2) for _, c, _ in got[1].steps)
    assert blocks == {1, 2}
