"""Coupon-collector arithmetic, seeded graph experiments, hypergraph bounds,
homogeneous extraction, and the log-level bound comparison."""

import itertools
import math
import time
from fractions import Fraction

import pytest

from fmlab import (E_bound, ExperimentConfig, ExtractionFailure,
                   PreconditionError, RGraph, bound_compare, coupon_q,
                   exact_fixed_witness_probability, extract_homogeneous,
                   find_k_independence, fixed_witness_trial,
                   graph_has_k_independence, hypergraph_F, hypergraph_fstar,
                   independence_probability_mc, lambda_nk,
                   rgraph_lacks_independence, sample_graph_rows, stirling2,
                   independence_trend, verify_homogeneous)
from fmlab import no_order_exponent, ramsey
from fmlab.core import Signature, Structure, atom_formula
from fmlab.indisc import _EVAL_GUARD, bound_step, ceil_log2
from fmlab.util import SIZE_GUARD_BITS, SplitMix64, TooLargeError, mix_seed

from conftest import (heavy_pair_3graph, linear_pack_3graph, outcome,
                      per_candidate_greedy, seeded_3graphs_lacking_independence,
                      sparse_3graph)


# ---------------------------------------------------------------------------
# coupon collector
# ---------------------------------------------------------------------------


def test_coupon_base_cases():
    assert coupon_q(0, 0) == 1
    assert coupon_q(3, 0) == 0
    for n in range(1, 8):
        assert coupon_q(n, 1) == 1


def test_coupon_small_values_by_enumeration():
    # every placement of n balls into m boxes, counted directly
    def brute(n, m):
        hits = sum(1 for placing in itertools.product(range(m), repeat=n)
                   if set(placing) == set(range(m)))
        return Fraction(hits, m ** n)
    assert coupon_q(2, 2) == brute(2, 2) == Fraction(1, 2)
    assert coupon_q(3, 2) == brute(3, 2) == Fraction(3, 4)
    for n in range(0, 6):
        for m in range(1, 4):
            assert coupon_q(n, m) == brute(n, m)


def test_coupon_with_fewer_balls_than_boxes_is_zero_without_summing(monkeypatch):
    # n < m leaves a box empty: answered before the inclusion-exclusion sum,
    # whose m + 1 terms made coupon_q(5, 16384) take most of a minute
    def no_comb(*args):
        raise AssertionError("the inclusion-exclusion sum ran")
    monkeypatch.setattr(ramsey, "comb", no_comb)
    assert coupon_q(5, 16384) == 0
    assert coupon_q(0, 3) == 0


def test_coupon_with_one_box_is_one_at_once():
    # S(n, 1) = 1; the Stirling cross-check once took n steps to agree
    start = time.perf_counter()
    assert coupon_q(10 ** 12, 1) == 1
    assert time.perf_counter() - start < 0.1


def test_stirling_cross_check_past_its_cost_guard_is_refused_before_summing(monkeypatch):
    # the n x m recurrence is quadratic in n: coupon_q(400000, 2) took 4 s,
    # and n up to about 4M passes the size guard of 2^n
    def no_sum(*args):
        raise AssertionError("the inclusion-exclusion sum ran")
    monkeypatch.setattr(ramsey, "comb", no_sum)
    for n in (131073, 400000, 3000000):
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match=f"^the Stirling recurrence for S\\({n}, 2\\)"):
            coupon_q(n, 2)
        assert time.perf_counter() - start < 0.5
    # 131072^2 * 2 * bit_length(2) is the guard itself
    with pytest.raises(TooLargeError):
        stirling2(131073, 2)
    with pytest.raises(TooLargeError):
        stirling2(10 ** 6, 10 ** 5)


def test_stirling_with_more_boxes_than_balls_is_zero_at_once():
    # the recurrence once built a row of m + 1 zeros first
    start = time.perf_counter()
    assert stirling2(5, 10 ** 12) == 0
    assert stirling2(0, 10 ** 12) == 0
    assert time.perf_counter() - start < 0.1


def test_stirling_recurrence_values():
    assert stirling2(0, 0) == 1
    assert stirling2(4, 2) == 7
    assert stirling2(9, 8) == 36


def test_coupon_matches_occupancy_asymptotics():
    for k in range(1, 6):
        m = 2 ** k
        for n in (4 * m, 5 * m, 6 * m):
            lam = m * math.exp(-n / m)
            assert abs(float(coupon_q(n, m)) - math.exp(-lam)) < 0.05


def test_lambda_values():
    assert lambda_nk(3, 3) == 8.0
    assert abs(lambda_nk(11, 3) - 8 * math.exp(-1)) < 1e-12
    # at n = k + 2^k ln k the value collapses to 2^k / k
    for k in (2, 3, 5):
        n = k + (2 ** k) * math.log(k)
        # non-integer n: evaluate the formula directly
        lam = (2 ** k) * math.exp(-(n - k) / 2 ** k)
        assert abs(lam - (2 ** k) / k) < 1e-9


# ---------------------------------------------------------------------------
# sampling and experiments
# ---------------------------------------------------------------------------


def test_sampling_is_reproducible():
    a = sample_graph_rows(12, SplitMix64(5))
    b = sample_graph_rows(12, SplitMix64(5))
    assert a == b
    c = sample_graph_rows(12, SplitMix64(6))
    assert a != c


def test_global_independence_check_against_generic_search():
    sig = Signature((("R", 2),))
    phi = atom_formula("R", ["x0"], ["y0"])
    for seed in range(25):
        rows = sample_graph_rows(6, SplitMix64(seed))
        edges = {(i, j) for i in range(6) for j in range(6)
                 if (rows[i] >> j) & 1}
        M = Structure(sig, 6, {"R": edges})
        for k in (1, 2):
            fast = graph_has_k_independence(rows, 6, k)
            generic = find_k_independence(M, phi, k) is not None
            assert fast == generic


def test_mc_is_bit_reproducible():
    cfg = ExperimentConfig(8, 2, 50, 99)
    assert independence_probability_mc(cfg) == independence_probability_mc(cfg)


def test_mc_finds_independence_at_generous_size():
    # at n = k + k*2^k the fixed k vertices witness almost surely, so the
    # whole-graph event is nearly certain
    k = 3
    n = k + k * 2 ** k
    got = independence_probability_mc(ExperimentConfig(n, k, 300, 2))
    assert got["estimate"] > 0.9


def test_mc_exhaustive_crosscheck_tiny():
    # all graphs on 4 vertices: exact probability of pairwise independence
    count = 0
    pairs = list(itertools.combinations(range(4), 2))
    for mask in range(1 << 6):
        rows = [0] * 4
        for idx, (u, v) in enumerate(pairs):
            if (mask >> idx) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        if graph_has_k_independence(rows, 4, 2):
            count += 1
    exact = count / 64
    got = independence_probability_mc(ExperimentConfig(4, 2, 4000, 7))
    se = max(got["stderr"], 1 / 4000)
    assert abs(got["estimate"] - exact) <= 3 * se


def test_fixed_witness_exact_value():
    assert exact_fixed_witness_probability(5, 2) == Fraction(192, 1024)


def test_fixed_witness_trial_matches_exact():
    hits = 0
    trials = 4000
    for t in range(trials):
        if fixed_witness_trial(5, 2, SplitMix64(mix_seed(31337, t))):
            hits += 1
    p = hits / trials
    exact = float(exact_fixed_witness_probability(5, 2))
    assert abs(p - exact) <= 3 * math.sqrt(exact * (1 - exact) / trials)


def test_trend_rows_and_reproducibility():
    rows = independence_trend([2, 3], 300, 4)
    assert [r["k"] for r in rows] == [2, 3]
    assert rows[0]["n"] == 5 and rows[1]["n"] == 12
    assert rows == independence_trend([2, 3], 300, 4)


def test_trend_estimate_grows_with_more_fillers():
    # more vertices make the fixed witness set easier to complete
    k = 3
    lo = independence_trend([k], 1500, 11)[0]["estimate"]
    # double the vertex count by hand
    n2 = 2 * (k + math.ceil((2 ** k) * math.log(k)))
    hits = 0
    for t in range(1500):
        if fixed_witness_trial(n2, k, SplitMix64(mix_seed(777, t))):
            hits += 1
    hi = hits / 1500
    assert hi + 3 * 0.02 >= lo


def test_trend_guard():
    with pytest.raises(PreconditionError):
        independence_trend([12], 10, 0)


def test_rows_keep_their_values():
    # sha256 of the rows' repr, taken before the two experiments shared one
    # row builder and the fixed-witness draws one insider-pattern helper
    import hashlib
    rows = independence_trend([2, 3, 4, 5, 6], 40, 7)
    rows += [independence_probability_mc(ExperimentConfig(n, k, 25, 3))
             for n, k in ((9, 3), (14, 4), (256, 127))]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "fddae352b218d9611515532470e83b1474b14e226dc4040f01dd103919dc22d4"


def test_rows_past_the_float_range_are_refused_before_sampling(monkeypatch):
    # n^k and 2^k ln k once overflowed a float after every trial had run
    def no_sampling(*args):
        raise AssertionError("a trial ran")
    for name in ("sample_graph_rows", "fixed_witness_trial"):
        monkeypatch.setattr(ramsey, name, no_sampling)
    # 256^128 = 2^1024 is past the float range and 256^127 = 2^1016 is not;
    # the row at 256^127 keeps its value in test_rows_keep_their_values
    for n, k in ((200, 150), (256, 128), (10 ** 6, 10 ** 5)):
        with pytest.raises(PreconditionError,
                           match=f"^k={k}: n\\^k is past the float range$"):
            independence_probability_mc(ExperimentConfig(n, k, 1, 0))
    # n > 2^k at the threshold size, so n^k passes the float range at k = 32
    for k in (32, 2000, 10 ** 12):
        with pytest.raises(PreconditionError, match=f"^k={k}: n\\^k is past"):
            independence_trend([k], 1, 0)
    with pytest.raises(PreconditionError, match="^k=31 exceeds the desk-scale guard"):
        independence_trend([31], 1, 0)


def test_trend_refuses_fewer_than_one_trial():
    # zero trials once divided by zero, and a negative count reported an
    # estimate of -0.0 from no trial at all
    for trials in (0, -3):
        with pytest.raises(PreconditionError, match="^trials must be >= 1$"):
            independence_trend([2], trials, 0)
    assert independence_trend([2], 1, 0)[0]["trials"] == 1


# ---------------------------------------------------------------------------
# r-graphs and their bounds
# ---------------------------------------------------------------------------


def test_rgraph_structure_round_trip():
    G = sparse_3graph(12, 5)
    M = G.to_structure()
    assert RGraph.from_structure(M) == G


def test_hypergraph_growth_values():
    assert hypergraph_F(2, "worst", 3) == 8
    assert hypergraph_F(3, "bounded", 2, n=2) == 1
    assert hypergraph_F(3, "bounded", 5, n=2) == 25


def test_hypergraph_envelopes():
    # k >= 3 is where the monochromatic-extraction statement applies; below
    # that the staged product overshoots the k^((r-1)(n-1)k) envelope
    for k in range(3, 7):
        assert hypergraph_fstar(3, "bounded", k, n=2) <= k ** (2 * k)
    for k in range(1, 5):
        assert hypergraph_fstar(2, "worst", k) <= 2 ** (k ** 2)


def test_hypergraph_envelope_refuses_too_many_stages_at_once():
    # F = 1 at every stage, so only a stage guard can stop the loop
    start = time.perf_counter()
    with pytest.raises(TooLargeError, match="stages"):
        hypergraph_fstar(3, "bounded", 10 ** 9, n=1)
    assert time.perf_counter() - start < 1.0


def test_hypergraph_envelope_checks_its_arguments_before_any_stage():
    # k = 0 runs no stage, yet r = 1 once returned 1
    for args, message in (((1, "worst", 0), "r must be >= 2"),
                          ((3, "other", 0), "unknown variant 'other'"),
                          ((3, "bounded", 0), "bounded variant needs n >= 1"),
                          ((3, "worst", -1), "k must be a natural")):
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            hypergraph_fstar(*args)
    assert hypergraph_fstar(3, "worst", 0) == 1


def test_E_iterates():
    assert E_bound(2, 1, 1) == 16
    assert E_bound(5, 1, 0) == 1
    assert E_bound(1, 2, 1) == 3125
    with pytest.raises(TooLargeError):
        E_bound(3, 3, 10)


# ---------------------------------------------------------------------------
# homogeneous extraction
# ---------------------------------------------------------------------------


def test_empty_3graph_extraction():
    G = RGraph.of(10, 3, [])
    vs, tag = extract_homogeneous(G, 2, 4)
    assert tag == "empty" and len(vs) == 4
    assert verify_homogeneous(G, vs, tag)


def test_complete_graph_extraction():
    G = RGraph.of(16, 2, itertools.combinations(range(16), 2))
    vs, tag = extract_homogeneous(G, 2, 4)
    assert tag == "complete" and len(vs) == 4
    assert verify_homogeneous(G, vs, tag)


def test_structured_3graphs_extract_verified_triples():
    for idx, G in seeded_3graphs_lacking_independence(20, 555):
        got = extract_homogeneous(G, 2, 3)
        assert not isinstance(got, ExtractionFailure), idx
        vs, tag = got
        assert verify_homogeneous(G, vs, tag)
        # brute-force confirmation that a homogeneous triple exists
        assert any(verify_homogeneous(G, c, "complete")
                   or verify_homogeneous(G, c, "empty")
                   for c in itertools.combinations(range(G.n), 3))


def test_lacks_independence_fast_path_matches_generic():
    for r in (2, 3, 4):
        phi = atom_formula("R", ["x0"], [f"y{i}" for i in range(r - 1)])
        for seed in range(25):
            rng = SplitMix64(100 * r + seed)
            edges = [e for e in itertools.combinations(range(5), r) if rng.bit()]
            G = RGraph.of(5, r, edges)
            for k in (1, 2, 3):
                generic = find_k_independence(G.to_structure(), phi, k) is None
                assert rgraph_lacks_independence(G, k) == generic, (r, seed, k)


def test_lacks_independence_edge_numbered_realizers_match_generic():
    # the fast path numbers only the (r-1)-tuples that lie in an edge, and
    # one extra realizer stands for the rest when there is a rest or r >= 3:
    # cover graphs with isolated vertices, graphs whose edges hold every
    # (r-1)-tuple, and the empty graph, at every r
    seen = set()
    for r in (2, 3, 4):
        phi = atom_formula("R", ["x0"], [f"y{i}" for i in range(r - 1)])
        for seed in range(24):
            rng = SplitMix64(mix_seed(2026, 100 * r + seed))
            n = r + rng.below(7 - r)
            full = list(itertools.combinations(range(n), r))
            if seed == 0:
                edges = []
            elif seed < 8:  # dense: usually every (r-1)-tuple is covered
                edges = [e for e in full if rng.below(4)]
            else:  # sparse, with one vertex cut off
                cut = rng.below(n)
                edges = [e for e in full if cut not in e and not rng.below(3)]
            G = RGraph.of(n, r, edges)
            covered = {e[:i] + e[i + 1:] for e in edges for i in range(r)}
            seen.add((r == 2, len(covered) == math.comb(n, r - 1)))
            for k in (1, 2, 3):
                generic = find_k_independence(G.to_structure(), phi, k) is None
                assert rgraph_lacks_independence(G, k) == generic, (r, seed, k)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _unfiltered_masks(G):
    """The realizer masks and the full mask `rgraph_lacks_independence` built
    before it searched only the vertices that share a realizer."""
    index = {}
    masks = [0] * G.n
    for e in G.edges:
        for i, v in enumerate(e):
            masks[v] |= 1 << index.setdefault(e[:i] + e[i + 1:], len(index))
    extra = 1 if G.r >= 3 or len(index) < math.comb(G.n, G.r - 1) else 0
    return masks, (1 << (len(index) + extra)) - 1


def _unfiltered_lacks_independence(G, n):
    """`rgraph_lacks_independence` as it was, searching every vertex."""
    masks, full = _unfiltered_masks(G)
    return ramsey.first_shattered(masks, n, full) is None


def _shared_rows(G):
    """The unfiltered masks of the vertices whose mask shares a bit with
    another vertex's."""
    masks, _ = _unfiltered_masks(G)
    return [a for i, a in enumerate(masks)
            if any(a & b for j, b in enumerate(masks) if j != i)]


def _overlaps(rows):
    """The realizer counts of every pair of rows, diagonal included: the
    rows up to a renumbering of the realizers."""
    return [[(a & b).bit_count() for b in rows] for a in rows]


def _spy_first_shattered(monkeypatch):
    calls = []
    real = ramsey.first_shattered

    def spy(rows, k, full, limit=None):
        calls.append((list(rows), k, full))
        return real(rows, k, full, limit)

    monkeypatch.setattr(ramsey, "first_shattered", spy)
    return calls


def test_shared_realizer_filter_matches_the_unfiltered_check(monkeypatch):
    # seeded r = 2, 3, 4 graphs, the three structured 3-graph families at
    # n = 30-40, and graphs where the filter leaves no row, fewer than k
    # rows and exactly k rows: the verdict is the unfiltered check's, and
    # the kernel sees the shared vertices' rows and the unfiltered `full`
    calls = _spy_first_shattered(monkeypatch)
    rng = SplitMix64(1436)
    graphs = [RGraph.of(7, 3, []), RGraph.of(7, 3, [(0, 1, 2)]),
              RGraph.of(7, 3, [(0, 1, 2), (0, 1, 3)]),
              RGraph.of(7, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
              RGraph.of(6, 2, [(0, 1), (2, 3)]), RGraph.of(6, 2, [(0, 1), (1, 2)])]
    for trial in range(180):
        r = 2 + trial % 3
        n = r + rng.below(9 - r)
        density = rng.below(9)
        graphs.append(RGraph.of(n, r, [e for e in itertools.combinations(range(n), r)
                                       if rng.below(8) < density]))
    for i, family in enumerate((sparse_3graph, heavy_pair_3graph, linear_pack_3graph)):
        for j in range(12):
            graphs.append(family(30 + (5 * i + j) % 11, mix_seed(1436, 12 * i + j)))
    kept = set()
    for G in graphs:
        for k in (1, 2, 3):
            calls.clear()
            got = rgraph_lacks_independence(G, k)
            assert got == _unfiltered_lacks_independence(G, k), (G, k)
            (rows, _, full), _ = calls  # the library's search, then the copy's
            masks, want_full = _unfiltered_masks(G)
            assert full == want_full, (G, k)
            want = masks if k == 1 else _shared_rows(G)
            assert _overlaps(rows) == _overlaps(want), (G, k)
            if k >= 2:
                left = ("none" if not rows else "fewer" if len(rows) < k else
                        "k" if len(rows) == k else "more")
                kept.add((G.r, k, left, got))
    assert kept >= ({(r, k, "none", True) for r in (2, 3, 4) for k in (2, 3)}
                    | {(r, 3, "fewer", True) for r in (2, 3, 4)}
                    | {(r, 2, "k", v) for r in (3, 4) for v in (True, False)}
                    | {(r, 2, "more", v) for r in (2, 3, 4) for v in (True, False)})


def test_shattering_search_sees_only_the_vertices_that_share_a_realizer(monkeypatch):
    # a linear 3-graph (no two edges share a pair) hands the kernel no row;
    # a heavy-pair 3-graph hands it the n - 2 vertices outside the pair,
    # whose one realizer each is the pair
    calls = _spy_first_shattered(monkeypatch)
    for seed in range(4):
        G = linear_pack_3graph(30 + seed, mix_seed(1437, seed))
        assert G.edges
        assert rgraph_lacks_independence(G, 2)
        assert calls == [([], 2, (1 << (3 * len(G.edges) + 1)) - 1)], seed
        calls.clear()
        H = heavy_pair_3graph(30 + seed, mix_seed(1438, seed))
        pair = set.intersection(*map(set, H.edges))
        assert rgraph_lacks_independence(H, 2)
        ((rows, k, _),) = calls
        assert k == 2 and len(rows) == H.n - 2 and set(rows) == {rows[0]}, seed
        assert rows[0].bit_count() == 1 and len(pair) == 2, seed
        calls.clear()


def test_homogeneous_check_refuses_vertices_outside_the_universe():
    G = RGraph.of(5, 3, [(0, 1, 2)])
    assert verify_homogeneous(G, [0, 3, 4], "empty")
    assert verify_homogeneous(G, [0, 1, 2], "complete")
    for vs in ([7, 8, 9], [-3, 0, 4], [0, 1, 5], [-1], [5]):
        assert not verify_homogeneous(G, vs, "empty"), vs
        assert not verify_homogeneous(G, vs, "complete"), vs
    assert verify_homogeneous(G, [4], "complete") and verify_homogeneous(G, [], "empty")


def test_unary_extraction_takes_the_larger_vertex_class():
    # r = 1 once recursed into a 0-graph and raised; a set is homogeneous
    # iff it lies in one class, so the brute-force largest set is the larger
    # class, ties to the empty side, and its first k vertices come back
    rng = SplitMix64(1435)
    seen = set()
    for trial in range(120):
        n = rng.below(10)
        density = trial % 9
        G = RGraph.of(n, 1, [(v,) for v in range(n) if rng.below(8) < density])
        ones = sorted(v for v, in G.edges)
        zeros = [v for v in range(n) if (v,) not in G.edges]
        for k in range(n + 2):
            got = extract_homogeneous(G, 2, k)
            exists = {tag for c in itertools.combinations(range(n), k)
                      for tag in ("complete", "empty") if verify_homogeneous(G, c, tag)}
            if isinstance(got, ExtractionFailure):
                assert got.level == 1 and not exists, (trial, k)
                seen.add("failure")
                continue
            vs, tag = got
            assert len(vs) == k and tag in exists, (trial, k)
            if k:
                side = ones if len(ones) > len(zeros) else zeros
                assert (sorted(vs), tag) == (side[:k], "complete" if side is ones else "empty")
                seen.add((tag, len(ones) == len(zeros)))
    assert seen == {"failure", ("complete", False), ("empty", False), ("empty", True)}


def test_extraction_failure_is_reported_not_faked():
    # two vertices cannot supply a 3-set
    G = RGraph.of(2, 3, [])
    got = extract_homogeneous(G, 2, 3)
    assert isinstance(got, ExtractionFailure)


def _has_edge_link_graph(G):
    """The link graph of G's end-homogeneous sequence as it was built with
    `has_edge`: the (r-1)-sets of prefix positions whose vertices, sorted,
    form an edge with the last vertex v."""
    chosen, _ = per_candidate_greedy(
        G.n, G.r, lambda sels, cand: tuple(G.has_edge(sel + (cand,)) for sel in sels))
    v, prefix = chosen[-1], chosen[:-1]
    return RGraph.of(len(prefix), G.r - 1, [
        sub for sub in itertools.combinations(range(len(prefix)), G.r - 1)
        if G.has_edge(tuple(sorted(prefix[i] for i in sub)) + (v,))])


def test_link_graph_matches_the_has_edge_construction(monkeypatch):
    # every graph extract_homogeneous recurses on is the link graph of the
    # one above it, on seeded 3-graphs and 4-graphs of every density
    real = ramsey.extract_homogeneous
    rng = SplitMix64(1417)
    links = []
    for trial in range(120):
        r = 3 + trial % 2
        n = r + 1 + rng.below(12 if r == 3 else 8)
        density = 1 + rng.below(7)
        G = RGraph.of(n, r, [e for e in itertools.combinations(range(n), r)
                             if rng.below(8) < density])
        seen = []

        def spy(H, n, k):
            seen.append(H)
            return real(H, n, k)

        monkeypatch.setattr(ramsey, "extract_homogeneous", spy)
        real(G, 2, n)
        monkeypatch.undo()
        for above, link in zip([G] + seen, seen):
            assert link == _has_edge_link_graph(above), (trial, above.r)
            links.append(above.r)
    assert links.count(3) > 50 and links.count(4) > 50


# ---------------------------------------------------------------------------
# bound comparison
# ---------------------------------------------------------------------------


def test_three_uniform_comparison_at_k10():
    got = bound_compare(3, 2, 10)
    assert got["a_side"] == 40
    coeff = got["b_coefficient"]
    assert abs(math.log10(coeff) - math.log10(4e7)) < 1.0


def test_crossover_exact():
    for k in range(2, 17):
        boundary = 2 ** (2 * k - 2)
        for n in (1, boundary // k - 1, boundary // k, boundary // k + 1):
            if n < 1:
                continue
            got = bound_compare(3, n, k)
            assert got["b_smaller"] == (n * k < boundary)


def test_crossover_boundary_is_false():
    # n exactly at the threshold: not smaller
    k = 4
    n = 2 ** (2 * k - 2) // k  # 64 = 256/4 exactly
    assert n * k == 2 ** (2 * k - 2)
    assert bound_compare(3, n, k)["b_smaller"] is False


def test_a_side_grows_slowly_with_uniformity():
    k = 5
    vals = [bound_compare(r, 2, k)["a_side"] for r in (3, 4, 5, 6)]
    assert vals[0] == 4 * k
    assert all(b - a <= 2 for a, b in zip(vals, vals[1:]))


def test_bound_compare_refuses_past_the_guard():
    # 4^k has 2k + 1 bits; 4^(2,000,001) was built three times before
    start = time.perf_counter()
    with pytest.raises(TooLargeError, match="size guard"):
        bound_compare(3, 1, 2_000_001)
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# the exact bounds against their earlier bodies
# ---------------------------------------------------------------------------


def _envelope_before(r, variant, k, n=None):
    if k < 0:
        raise PreconditionError("k must be a natural")
    if k > _EVAL_GUARD:
        raise TooLargeError("the envelope has too many stages to evaluate")
    v = 1
    for t in range(k):
        v = bound_step(v, hypergraph_F(r, variant, r * t, n=n), "envelope")
    return v


def _E_before(p, j, x):
    if p < 1 or j < 1 or x < 0:
        raise PreconditionError("need p >= 1, j >= 1, x >= 0")
    v = x
    for _ in range(j):
        if (v + 1).bit_length() * p * (v + 1) > SIZE_GUARD_BITS:
            raise TooLargeError("iterate exceeds the size guard")
        v = (v + 1) ** (p * (v + 1))
    return v


def _compare_before(r, n, k):
    if r == 3:
        a_log = 4 * k
    elif r == 4:
        a_log = 4 * k + ceil_log2(3)
    else:
        a_log = 4 * k + ceil_log2(3) + (r - 4)
    b_loglog = ceil_log2(n * k * (2 ** (2 * k) + 2))
    base = 2 ** (2 * k) + 1
    return {"r": r, "n": n, "k": k,
            "a_side_log_level": r - 1, "a_side": a_log,
            "b_loglog": b_loglog,
            "b_coefficient": 2 * base * (base.bit_length() - 1),
            "b_general_loglog": 2 * k + ceil_log2(k) + ceil_log2(n),
            "b_smaller": n * k < 2 ** (2 * k - 2)}


def test_exact_bounds_match_their_earlier_bodies():
    def same(fn, before, *args):
        got = outcome(lambda: fn(*args))
        want = outcome(lambda: before(*args))
        # past the guard both refuse, each in its own words
        if isinstance(want, tuple) and want[0] is TooLargeError:
            assert got[0] is TooLargeError, args
        else:
            assert got == want, args
        return got

    got = [same(hypergraph_fstar, _envelope_before, r, "worst", k)
           for r, k in itertools.product((2, 3), range(16))]
    got += [same(hypergraph_fstar, _envelope_before, 3, "bounded", k, n)
            for n, k in ((2, 0), (2, 3), (2, 6), (1, 5), (1, _EVAL_GUARD + 1))]
    got += [same(E_bound, _E_before, p, j, x)
            for p, j, x in itertools.product((1, 2, 3), (1, 2, 3), (0, 1, 2, 10))]
    got += [same(bound_compare, _compare_before, r, n, k)
            for r, n, k in itertools.product(range(3, 7), (1, 2, 1000), range(1, 40))]
    got += [same(no_order_exponent, lambda n, s, t: 2 ** ((3 * n * s) ** (t + 1)), n, s, t)
            for n, s, t in itertools.product((1, 2, 3), (0, 1, 2), range(4))]
    assert sum(isinstance(g, tuple) for g in got) == 12
