"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import itertools
import math
import time
from fractions import Fraction
from math import comb

import pytest

from fmlab import (AmalgamConfig, BoundParams, ClassContext, ConstantGrowth,
                   ExtractionFailure, GoodnessContext, GoodnessRefutation,
                   PolynomialGrowth, PreconditionError, TupleSequence,
                   WorstCaseGrowth,
                   average_type, bound_compare, check_indiscernible, coupon_q,
                   delta_star, exact_fixed_witness_probability, exchange_check,
                   extract_homogeneous, extract_indiscernible,
                   find_k_independence, find_n_order, find_shattered,
                   g_func, is_good, kappa, make_class_context, prec_K,
                   sauer_bound, stirling2, symmetry_test, independence_trend,
                   verify_homogeneous, verify_independence_bound,
                   verify_shattered)
from fmlab.cli import main as cli_main
from fmlab.util import SplitMix64, TooLargeError, mix_seed

from conftest import (EDGE, EDGE_PAIR, LESS, all_graphs, complete_graph,
                      empty_graph, graph, linear_order,
                      seeded_3graphs_lacking_independence, seeded_graph)

DELTA = [EDGE, EDGE.negated()]


def report(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}", flush=True)
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. coupon-collector exactness
# ---------------------------------------------------------------------------


def test_a01_coupon_exactness():
    t0 = time.time()
    for n in range(0, 31):
        for m in range(1, 11):
            incl = sum((Fraction(m - i, m) ** n) * comb(m, i) * (-1) ** i
                       for i in range(m + 1))
            stir = Fraction(math.factorial(m) * stirling2(n, m), m ** n)
            assert incl == stir == coupon_q(n, m), (n, m)

    def brute(n, m):
        hits = sum(1 for p in itertools.product(range(m), repeat=n)
                   if set(p) == set(range(m)))
        return Fraction(hits, m ** n)

    assert coupon_q(2, 2) == brute(2, 2) == Fraction(1, 2)
    assert coupon_q(3, 2) == brute(3, 2) == Fraction(3, 4)
    dt = time.time() - t0
    report(1, dt < 1.0, f"both forms agree on 0<=n<=30, 1<=m<=10 ({dt:.2f}s)")


# ---------------------------------------------------------------------------
# 2. occupancy asymptotics
# ---------------------------------------------------------------------------


def test_a02_occupancy_asymptotics():
    t0 = time.time()
    worst = 0.0
    for k in range(1, 6):
        m = 2 ** k
        for n in (k + 4 * m, k + 5 * m, k + 6 * m):
            lam = m * math.exp(-n / m)
            diff = abs(float(coupon_q(n, m)) - math.exp(-lam))
            worst = max(worst, diff)
            assert diff < 0.05, (k, n, diff)
    dt = time.time() - t0
    report(2, dt < 1.0, f"max |q - e^-lambda| = {worst:.4f} ({dt:.2f}s)")


# ---------------------------------------------------------------------------
# 3. fixed-witness trend
# ---------------------------------------------------------------------------


def test_a03_independence_trend():
    t0 = time.time()
    rows = independence_trend([2, 3, 4, 5, 6], 2000, 20260808)
    for a, b in zip(rows, rows[1:]):
        slack = 3 * math.sqrt(max(a["stderr"], 1 / 2000) ** 2
                              + max(b["stderr"], 1 / 2000) ** 2)
        assert b["estimate"] <= a["estimate"] + slack, (a, b)
    # exhaustive check at k = 2: every graph on 5 vertices
    pairs = list(itertools.combinations(range(5), 2))
    hits = 0
    for mask in range(1 << len(pairs)):
        adj = [[False] * 5 for _ in range(5)]
        for idx, (u, v) in enumerate(pairs):
            if (mask >> idx) & 1:
                adj[u][v] = adj[v][u] = True
        patterns = {sum((1 << i) for i in range(2) if x != i and adj[x][i])
                    for x in range(5)}
        if len(patterns) == 4:
            hits += 1
    exact = hits / (1 << len(pairs))
    assert exact == float(exact_fixed_witness_probability(5, 2))
    se = max(rows[0]["stderr"], 1 / 2000)
    assert abs(rows[0]["estimate"] - exact) <= 3 * se
    dt = time.time() - t0
    est = [round(r["estimate"], 4) for r in rows]
    report(3, dt < 120, f"estimates {est}, exact(k=2) = {exact} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 4. shattering completeness
# ---------------------------------------------------------------------------


def test_a04_shattering_completeness():
    t0 = time.time()
    failures = 0
    # exhaustive over all families on grounds of size <= 4
    for g in range(1, 5):
        members = [frozenset(s) for r in range(g + 1)
                   for s in itertools.combinations(range(g), r)]
        thresholds = {k: sauer_bound(g, k) for k in range(1, g + 2)}
        for mask in range(1 << len(members)):
            fam = [members[i] for i in range(len(members)) if (mask >> i) & 1]
            size = len(fam)
            for k in range(1, g + 1):
                if size > thresholds[k]:
                    w = find_shattered(fam, k, ground=range(g))
                    if w is None or not verify_shattered(w, fam):
                        failures += 1
    # seeded families with grounds up to 12
    rng = SplitMix64(314)
    for _ in range(1000):
        g = 5 + rng.below(8)
        count = 2 + rng.below(min(2 ** g, 300))
        fam = list({frozenset(i for i in range(g) if (v >> i) & 1)
                    for v in (rng.bits(g) for _ in range(count))})
        for k in range(1, g + 1):
            if len(fam) > sauer_bound(g, k):
                w = find_shattered(fam, k, ground=range(g))
                if w is None or not verify_shattered(w, fam):
                    failures += 1
    dt = time.time() - t0
    report(4, failures == 0 and dt < 120, f"{failures} failures ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 5. the no-independence type bound
# ---------------------------------------------------------------------------


def _check_bound_everywhere(M, failures):
    # A is the full vertex set (the hypothesis |A| >= 2 rules out degenerate
    # structures); proper subsets are additionally checked at k >= 3, where
    # the binomial-sum arithmetic behind the bound actually closes -- at k = 2
    # the displayed bound is off by one on size-2 subsets (see the unit test
    # on the boundary case)
    n = M.universe_size
    if n < 2:
        return
    singles = [(i,) for i in range(n)]
    for k in (1, 2, 3):
        if find_k_independence(M, EDGE, k) is not None:
            continue
        rep = verify_independence_bound(M, EDGE, singles, k)
        if not rep.holds:
            failures.append((M, k, "full"))
        if k >= 3:
            for A in itertools.combinations(singles, 2):
                rep = verify_independence_bound(M, EDGE, list(A), k)
                if not rep.holds:
                    failures.append((M, k, A))
        break  # the least k without a witness gives the sharpest bound


def test_a05_no_independence_bound():
    t0 = time.time()
    failures = []
    for size in (1, 2, 3, 4, 5):
        for M in all_graphs(size):
            _check_bound_everywhere(M, failures)
    for seed in range(100):
        _check_bound_everywhere(seeded_graph(8, mix_seed(505, seed)), failures)
    dt = time.time() - t0
    report(5, not failures and dt < 300, f"{len(failures)} violations ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 6. extraction soundness and sufficiency
# ---------------------------------------------------------------------------


def test_a06_extraction_soundness_sufficiency():
    t0 = time.time()
    failures = []
    ran = 0

    def run_cell(M, phi, m, A, k, glen, delta):
        nonlocal ran
        ran += 1
        I = TupleSequence.of([(i,) for i in range(glen)])
        got = extract_indiscernible(I, phi, m, A, M, k)
        if isinstance(got, ExtractionFailure):
            failures.append((m, k, glen, got))
            return
        cert = check_indiscernible(got, delta, m, A, M, mode="sequence")
        if not cert.verified or len(got) < k:
            failures.append((m, k, glen, "unsound"))

    # worst-case growth, m = 1, one parameter: 40 seeded graphs per k
    params = BoundParams(WorstCaseGrowth(1), 1, 1, 1, 4)
    for k in (2, 3, 4):
        glen = g_func(params, 1, k - 1)
        assert glen <= 10 ** 4
        for seed in range(40):
            M = seeded_graph(glen, mix_seed(606, 100 * k + seed))
            run_cell(M, EDGE, 1, [(0,)], k, glen, DELTA)

    # polynomial growth, m = 1, linear orders with two parameters
    params = BoundParams(PolynomialGrowth(2), 2, 1, 1, 4)
    glen = g_func(params, 1, 3)
    assert glen <= 10 ** 4
    for seed in range(20):
        M = linear_order(glen + seed)
        run_cell(M, LESS, 1, [(0,), (1,)], 4, glen + seed,
                 [LESS, LESS.negated()])

    # constant growth, m = 2, homogeneous graphs
    params = BoundParams(ConstantGrowth(2), 0, 1, 2, 4)
    for k in (3, 4):
        glen = g_func(params, 2, k - 1)
        assert glen <= 10 ** 4
        for seed in range(30):
            rng = SplitMix64(mix_seed(707, 100 * k + seed))
            M = complete_graph(glen) if rng.bit() else empty_graph(glen)
            run_cell(M, EDGE_PAIR, 2, [], k, glen, [EDGE_PAIR])

    # the worst-case m = 2 bound exceeds the testable scale by design
    with pytest.raises(TooLargeError):
        g_func(BoundParams(WorstCaseGrowth(2), 0, 1, 2, 4), 2, 3)

    dt = time.time() - t0
    report(6, ran == 200 and not failures and dt < 300,
           f"{ran} structures, {len(failures)} failures ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 7. sequence-to-set transfer without order patterns
# ---------------------------------------------------------------------------


def _rows_of(M):
    rows = [0] * M.universe_size
    for (i, j) in M.relations["R"]:
        rows[i] |= 1 << j
    return rows


def test_a07_sequences_are_sets_without_order():
    # exhaustive over all simple graphs on up to 6 vertices; the transfer is
    # false on asymmetric relations with a formula-local hypothesis (see the
    # documented digraph boundary case in test_indisc.py), so the declared
    # family is the symmetric one the claim is about. Each (n+1)-subset is
    # read once into a pair mask, bit i*(n+1) + j set iff its i-th vertex
    # relates to its j-th; an ordering of the subset is
    # sequence-indiscernible iff its forward pairs are all set or all clear,
    # and set-indiscernible iff all the subset's pairs are
    t0 = time.time()
    counterexamples = 0
    structures = 0
    spot_checked = 0
    forward = {}  # n -> (orderings of the places with their forward-pair masks, all pairs)
    for n in (2, 3):
        k = n + 1
        forward[n] = ([(order, sum(1 << order[a] * k + order[b]
                                   for a, b in itertools.combinations(range(k), 2)))
                       for order in itertools.permutations(range(k))],
                      sum(1 << i * k + j for i in range(k) for j in range(k) if i != j))

    def scan(M, n):
        nonlocal counterexamples, spot_checked
        if find_n_order(M, EDGE, n) is not None:
            return
        rows = _rows_of(M)
        k = n + 1
        orders, every = forward[n]
        for sub in itertools.combinations(range(M.universe_size), k):
            pairs = sum(1 << i * k + j for i, u in enumerate(sub)
                        for j, v in enumerate(sub) if i != j and rows[u] >> v & 1)
            uniform = pairs in (0, every)
            for order, fwd in orders:
                if pairs & fwd not in (0, fwd):
                    continue  # not even sequence-indiscernible
                if not uniform:
                    counterexamples += 1
                if spot_checked < 40:
                    # tie the pair masks to the public checker
                    I = TupleSequence.of([(sub[i],) for i in order])
                    cert = check_indiscernible(I, [EDGE_PAIR], 2, [], M,
                                               mode="sequence")
                    certset = check_indiscernible(I, [EDGE_PAIR], 2, [], M,
                                                  mode="set")
                    assert cert.verified
                    assert certset.verified == uniform
                    spot_checked += 1

    for size in (3, 4, 5, 6):
        for M in all_graphs(size):
            structures += 1
            for n in (2, 3):
                if size >= n + 1:
                    scan(M, n)
    dt = time.time() - t0
    report(7, counterexamples == 0 and dt < 600,
           f"{structures} graphs, {counterexamples} counterexamples ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 8. homogeneous triple extraction on filtered 3-graphs
# ---------------------------------------------------------------------------


def test_a08_homogeneous_extraction():
    t0 = time.time()
    bad = 0
    for idx, G in seeded_3graphs_lacking_independence(100, 20260809):
        brute = any(verify_homogeneous(G, c, "complete")
                    or verify_homogeneous(G, c, "empty")
                    for c in itertools.combinations(range(G.n), 3))
        got = extract_homogeneous(G, 2, 3)
        if isinstance(got, ExtractionFailure):
            if brute:
                bad += 1
            continue
        vs, tag = got
        if not verify_homogeneous(G, vs, tag) or len(vs) != 3:
            bad += 1
    dt = time.time() - t0
    report(8, bad == 0 and dt < 300, f"100 filtered 3-graphs, {bad} bad ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 9. bound comparison values
# ---------------------------------------------------------------------------


def test_a09_bound_comparison():
    t0 = time.time()
    got = bound_compare(3, 2, 10)
    assert got["a_side"] == 40
    coeff = got["b_coefficient"]
    assert abs(math.log10(coeff) - math.log10(4e7)) < 1.0
    for k in range(2, 17):
        boundary = 2 ** (2 * k - 2)
        for n in sorted({1, max(1, boundary // k - 1), boundary // k,
                         boundary // k + 1, 2 * boundary}):
            assert bound_compare(3, n, k)["b_smaller"] == (n * k < boundary)
    dt = time.time() - t0
    report(9, dt < 1.0,
           f"a-side 40, coefficient {coeff}, crossover exact to k=16 ({dt:.2f}s)")


# ---------------------------------------------------------------------------
# 10. classification suite
# ---------------------------------------------------------------------------


def test_a10a_kappa_bounded_by_width():
    t0 = time.time()
    bad = 0
    for size in (2, 3, 4, 5):
        for M in all_graphs(size):
            for n in (1, 2):
                if find_k_independence(M, EDGE, n) is None:
                    if kappa(M, DELTA, n).value > n:
                        bad += 1
    dt = time.time() - t0
    report("10a", bad == 0, f"kappa <= n on all <=5-vertex graphs ({dt:.1f}s)")


def test_a10b_average_completeness():
    t0 = time.time()
    checked = 0
    bad = 0
    structures = [empty_graph(s) for s in (4, 5, 6)]
    structures += [graph(s, [(0, 1)]) for s in (5, 6)]
    structures += [seeded_graph(5, mix_seed(3, s)) for s in range(30)]
    structures += [seeded_graph(6, mix_seed(4, s)) for s in range(30)]
    for M in structures:
        for (n, d) in ((1, 2), (2, 2), (1, 3), (2, 3)):
            got = is_good(M, EDGE, n, d)
            if isinstance(got, GoodnessRefutation):
                continue
            lam = got.lambda_value
            length = lam + 1
            if length > M.universe_size:
                continue
            A = [(i,) for i in range(M.universe_size)]
            star = delta_star(DELTA, n)
            for seq in itertools.permutations(A, length):
                I = TupleSequence.of(seq)
                cert = check_indiscernible(I, star.formulas, n, [], M,
                                           mode="set")
                if not cert.verified:
                    continue
                av = average_type(I, DELTA, A, M, got.kappa_value, n=n)
                checked += 1
                if not av.is_complete_over(DELTA, A):
                    bad += 1
    dt = time.time() - t0
    report("10b", bad == 0 and checked > 0,
           f"{checked} long indiscernible sets all gave complete averages ({dt:.1f}s)")


def test_a10c_strong_submodel_axioms():
    t0 = time.time()
    checked_chains = 0
    bad = 0
    for size in (3, 4, 5):
        for M in all_graphs(size):
            full = frozenset(range(size))
            domains = [frozenset(s) | {0}
                       for r in range(size)
                       for s in itertools.combinations(range(1, size), r)]
            domains = sorted(set(domains), key=sorted)
            for (n, d) in ((1, 2), (2, 3)):
                good = {}
                for dom in domains:
                    got = is_good(M, EDGE, n, d, domain=dom)
                    if isinstance(got, GoodnessContext):
                        good[dom] = got
                if len(good) < 2:
                    continue
                ctx = make_class_context(M, list(good), EDGE, n, d, 1, [(0,)])
                if isinstance(ctx, GoodnessRefutation):
                    continue
                doms = sorted(good, key=sorted)
                rel = {}
                for N in doms:
                    for amb in doms:
                        if N <= amb:
                            rep = prec_K(M, N, ctx, ambient=amb,
                                         check_good=False)
                            rel[(N, amb)] = rep.holds is True
                # (I) inclusion is already structural; reflexivity:
                for dom in doms:
                    if not rel[(dom, dom)]:
                        bad += 1
                # (II) transitivity and (V) restriction
                for a in doms:
                    for b in doms:
                        if not a <= b:
                            continue
                        for c in doms:
                            if not b <= c:
                                continue
                            checked_chains += 1
                            if rel[(a, b)] and rel[(b, c)] and not rel[(a, c)]:
                                bad += 1
                            if rel[(b, c)] and rel[(a, c)] and not rel[(a, b)]:
                                bad += 1
    dt = time.time() - t0
    report("10c", bad == 0 and checked_chains > 0,
           f"{checked_chains} chains, {bad} axiom violations ({dt:.1f}s)")


def test_a10d_exchange_equivalence():
    # goodness per structure is verified once and reused; the seeded variety
    # lives in the sampled sequences and sizes
    t0 = time.time()
    rng = SplitMix64(11)
    contexts = {}
    for size in (5, 6, 7, 8):
        got = is_good(empty_graph(size), EDGE, 1, 2)
        assert isinstance(got, GoodnessContext)
        contexts[size] = got
    bad = 0
    done = 0
    while done < 500:
        size = 5 + rng.below(4)
        M = empty_graph(size)
        got = contexts[size]
        kv = got.kappa_value
        lam = max(got.lambda_value, kv + kv + kv * kv)
        length = lam + 1 + rng.below(size - lam)
        verts = list(range(size))

        def sample_seq():
            chosen = []
            pool = verts[:]
            for _ in range(length):
                chosen.append(pool.pop(rng.below(len(pool))))
            return TupleSequence.of([(v,) for v in chosen])

        I0, I1 = sample_seq(), sample_seq()
        try:
            res = exchange_check(I0, I1, M, EDGE, kv, kv,
                                 lambda_delta=got.lambda_value, n=1)
        except PreconditionError:
            continue
        done += 1
        if not res["equivalent"]:
            bad += 1
    dt = time.time() - t0
    report("10d", bad == 0, f"500 exchange configs, {bad} inequivalent ({dt:.1f}s)")


def test_a10e_symmetry():
    t0 = time.time()
    rng = SplitMix64(20260810)
    # goodness of an induced subgraph of an empty graph depends only on its
    # size; verify each size once and certify the rest
    good_sizes = {}
    for size in range(1, 7):
        got = is_good(empty_graph(size), EDGE, 1, 2)
        assert isinstance(got, GoodnessContext)
        good_sizes[size] = got
    bad = 0
    done = 0
    while done < 500:
        size = 4 + rng.below(3)
        M = empty_graph(size)
        a_vertex = rng.below(size)
        A = [(a_vertex,)]
        rest = [v for v in range(size) if v != a_vertex]

        m0 = frozenset({a_vertex} | {v for v in rest if rng.bit()})
        m1 = m0 | {v for v in rest if rng.bit()}
        m2 = m0 | {v for v in rest if rng.bit()}
        if min(len(m0), len(m1), len(m2)) < 2:
            continue
        kmax = max(good_sizes[len(dom)].kappa_value
                   for dom in (m0, m1, m2, frozenset(range(size))))
        ctx = ClassContext(EDGE, 1, 2, 1, tuple(A), kmax, kmax * len(A))
        got = symmetry_test(AmalgamConfig(M, m0, m1, m2, ctx), check_good=False)
        done += 1
        if not got["symmetric"]:
            bad += 1
    dt = time.time() - t0
    report("10e", bad == 0 and dt < 900,
           f"500 amalgamation configs, {bad} asymmetric ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 11. CLI determinism
# ---------------------------------------------------------------------------


def test_a11_cli_determinism(tmp_path, capsys):
    t0 = time.time()
    s = tmp_path / "g.fm"
    s.write_text("signature: R/2\nuniverse: 5\nrelation R: (0,1) (1,0)\n"
                 "set A: (0)\nseq I: (1) (2) (3)\n"
                 "submodel M0: 0 1\nsubmodel M1: 0 1 2\nsubmodel M2: 0 1 3\n")
    f = tmp_path / "e.fml"
    f.write_text("phi(x0; y0) := R(x0,y0)")
    argvs = [
        ["detect", "--structure", str(s), "--formula", str(f),
         "--property", "cover", "--d", "2"],
        ["experiment", "thmg1", "--k-list", "2,3", "--trials", "100",
         "--seed", "17"],
        ["experiment", "independence-mc", "--n", "7", "--k", "2",
         "--trials", "60", "--seed", "23", "--format", "csv"],
        ["types", "count", "--structure", str(s), "--formula", str(f),
         "--set", "A"],
        ["classify", "kappa", "--structure", str(s), "--formula", str(f),
         "--n", "1", "--max-len", "3"],
    ]
    ok = True
    for argv in argvs:
        cli_main(argv)
        first = capsys.readouterr().out
        cli_main(argv)
        second = capsys.readouterr().out
        cli_main(argv + ["--threads", "7"])
        third = capsys.readouterr().out
        if first != second:
            ok = False
        if argv[-1] != "csv":
            import json
            a, b = json.loads(first), json.loads(third)
            a["config"].pop("threads")
            b["config"].pop("threads")
            if a != b:
                ok = False
    dt = time.time() - t0
    report(11, ok, f"byte-identical reports across reruns and thread counts ({dt:.1f}s)")
