"""The three workloads. Each one generates seeded items at set-up, runs one
timed query per item through fmlab's public API, and re-checks every result
with checkers that do not share the search code.

All fmlab calls go through module attributes (`fm.is_good`, ...) at call time,
so the tracer's rebinding sees them.

- classify: the strong-submodel axiom body on graphs with 3-5 vertices, plus
  amalgamation-symmetry configurations on empty graphs. `delta_star` is
  rebuilt for a handful of distinct keys thousands of times, so caching shows.
- extract: greedy indiscernible extraction at the exact `g_func` lengths
  (worst-case growth m=1, constant growth m=2 up to length 128) and
  homogeneous-set extraction on 3-graphs. The two greedy key functions differ:
  a memoised formula key versus an edge-set lookup.
- search: independence/order/weak-order/cover searches and type counting on
  graphs, linear orders and digraphs with 6-12 vertices, one atomic and one
  quantified formula; every sixteenth query goes through `cli.main` on files
  written at set-up. Little reuse, no `delta_star`, no greedy.

Sizes, kinds, families and complete-versus-empty choices rotate in a fixed
order; the seed draws the edges, labellings and vertex sets within them. Every
seed thus gives the same mix of query costs, and runs on different seeds
agree closely.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os

import fmlab as fm
import fmlab.cli

from inputs import (SplitMix64, TRIPLE_FAMILIES, digraph_arcs, fm_text,
                    graph_edges, item_seeds, order_pairs, permutation)

R2 = fm.Signature((("R", 2),))
EDGE = fm.atom_formula("R", ["x0"], ["y0"])
EDGE_PAIR = fm.atom_formula("R", ["x0", "x1"], [])
DIST2 = fm.PartitionedFormula(
    fm.Exists("z0", fm.And(fm.Atom("R", ("x0", "z0")), fm.Atom("R", ("z0", "y0")))),
    ("x0",), ("y0",))
FORMULA_TEXT = {"atom": "phi(x0; y0) := R(x0,y0)",
                "dist2": "phi(x0; y0) := exists z0. R(x0,z0) & R(z0,y0)"}
FORMULAS = {"atom": EDGE, "dist2": DIST2}


def structure(n, pairs):
    return fm.Structure(R2, n, {"R": pairs})


def induced(M, dom):
    """The induced substructure on `dom`, relabelled to 0..|dom|-1."""
    index = {e: i for i, e in enumerate(sorted(dom))}
    pairs = [(index[a], index[b]) for a, b in M.relations["R"]
             if a in index and b in index]
    return structure(len(index), pairs), index


def sat_masks(M, phi):
    """rows[x] has bit b iff M |= phi[x; b], by the reference interpreter."""
    n = M.universe_size
    rows = []
    for x in range(n):
        v = 0
        for b in range(n):
            if phi.holds(M, (x,), (b,)):
                v |= 1 << b
        rows.append(v)
    return rows


def columns(rows, n):
    return [sum(1 << x for x in range(n) if (rows[x] >> b) & 1) for b in range(n)]


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def _check_verdict(M, dom, v, n, d):
    if isinstance(v, fm.GoodnessContext):
        if v.kappa_value < 1 or v.lambda_value != max(d * v.kappa_value, 2 * n):
            return ["goodness context with inconsistent kappa/lambda"]
        return []
    if not isinstance(v, fm.GoodnessRefutation) or v.kind == "budget":
        return [f"goodness gave up or returned {type(v).__name__}"]
    sub, index = induced(M, dom)
    relabel = lambda t: tuple(index[e] for e in t)
    w = v.witness
    if v.kind == "independence":
        w = fm.IndependenceWitness(tuple(map(relabel, w.a)),
                                   {k: relabel(b) for k, b in w.b.items()})
        ok = fm.verify_independence(sub, v.formula, w)
    else:
        w = fm.CoverViolation(w.n, tuple(map(relabel, w.b)))
        ok = fm.verify_cover_violation(sub, v.formula, d, w)
    return [] if ok else [f"{v.kind} refutation failed re-verification"]


class Classify:
    name = "classify"
    pool = 512
    cycle = (3, 4, 5, 5, "amalgam")  # graph sizes of the axiom queries

    def build(self, seed, count, workdir):
        items = []
        for i, s in zip(range(count), item_seeds(seed)):
            rng = SplitMix64(s)
            kind = self.cycle[i % len(self.cycle)]
            if kind == "amalgam":
                size = 4 + (i // len(self.cycle)) % 3
                items.append(("amalgam",) + self._amalgam_config(rng, size))
            else:
                items.append(("axioms", structure(kind, graph_edges(kind, rng))))
        return items

    @staticmethod
    def _amalgam_config(rng, size):
        while True:
            a = rng.below(size)
            rest = [v for v in range(size) if v != a]
            m0 = frozenset({a} | {v for v in rest if rng.bit()})
            m1 = m0 | {v for v in rest if rng.bit()}
            m2 = m0 | {v for v in rest if rng.bit()}
            if min(len(m0), len(m1), len(m2)) >= 2:
                return structure(size, []), a, m0, m1, m2

    def run(self, item):
        if item[0] == "amalgam":
            return self._run_amalgam(*item[1:])
        M = item[1]
        size = M.universe_size
        domains = sorted({frozenset(s) | {0} for r in range(size)
                          for s in itertools.combinations(range(1, size), r)},
                         key=sorted)
        runs = []
        for n, d in ((1, 2), (2, 3)):
            verdicts = [(dom, fm.is_good(M, EDGE, n, d, domain=dom)) for dom in domains]
            good = [dom for dom, v in verdicts if isinstance(v, fm.GoodnessContext)]
            run = {"n": n, "d": d, "verdicts": verdicts, "ctx": None, "rel": []}
            if len(good) >= 2:
                ctx = fm.make_class_context(M, good, EDGE, n, d, 1, [(0,)])
                run["ctx"] = ctx
                if isinstance(ctx, fm.ClassContext):
                    run["rel"] = [(N, amb, fm.prec_K(M, N, ctx, ambient=amb,
                                                     check_good=False))
                                  for N in good for amb in good if N <= amb]
            runs.append(run)
        return runs

    @staticmethod
    def _run_amalgam(M, a, m0, m1, m2):
        ctx = fm.make_class_context(M, [m0, m1, m2, None], EDGE, 1, 2, 1, [(a,)])
        if not isinstance(ctx, fm.ClassContext):
            return {"ctx": ctx}
        got = fm.symmetry_test(fm.AmalgamConfig(M, m0, m1, m2, ctx), check_good=False)
        return {"ctx": ctx, "forward": got["forward_result"],
                "backward": got["backward_result"], "symmetric": got["symmetric"]}

    def check(self, item, result):
        if item[0] == "amalgam":
            return self._check_amalgam(*item[1:], result)
        M = item[1]
        return [p for run in result for p in self._check_axioms(M, run)]

    @staticmethod
    def _check_axioms(M, run):
        n, d = run["n"], run["d"]
        problems = []
        for dom, v in run["verdicts"]:
            problems += _check_verdict(M, dom, v, n, d)
        ctx = run["ctx"]
        if ctx is None:
            return problems
        if not isinstance(ctx, fm.ClassContext):
            return problems + ["class context refuted on certified-good members"]
        kappas = [v.kappa_value for _, v in run["verdicts"]
                  if isinstance(v, fm.GoodnessContext)]
        if ctx.kappa_K != max(kappas) or ctx.lambda_K != ctx.kappa_K:
            problems.append("class kappa/lambda differ from the members'")
        rel = {}
        for N, amb, rep in run["rel"]:
            if rep.holds not in (True, False):
                problems.append(f"prec_K gave up: {rep.holds!r}")
            rel[(N, amb)] = rep.holds is True
        doms = sorted({N for N, _ in rel}, key=sorted)
        problems += [f"reflexivity fails at {sorted(x)}" for x in doms if not rel[(x, x)]]
        for a, b, c in itertools.product(doms, repeat=3):
            if a <= b <= c:
                if rel[(a, b)] and rel[(b, c)] and not rel[(a, c)]:
                    problems.append("transitivity fails")
                if rel[(b, c)] and rel[(a, c)] and not rel[(a, b)]:
                    problems.append("restriction fails")
        return problems

    @staticmethod
    def _check_amalgam(M, a, m0, m1, m2, result):
        ctx = result["ctx"]
        if not isinstance(ctx, fm.ClassContext):
            return ["an empty graph was refuted as not good"]
        problems = []
        if not result["symmetric"]:
            problems.append("amalgamation is not symmetric")
        psi = EDGE.swapped()
        star = fm.delta_star([psi, psi.negated()], 1).formulas
        for res, params, targets in ((result["forward"], m1, m2),
                                     (result["backward"], m2, m1)):
            if res.holds not in (True, False):
                problems.append(f"amalgamation gave up: {res.holds!r}")
            if res.holds is True and len(res.witnesses) != len(targets):
                problems.append("amalgamation holds without a witness per tuple")
            for c, seq in res.witnesses.items():
                if len(seq) < ctx.lambda_K or not {t[0] for t in seq} <= m0:
                    problems.append("average witness too short or outside M0")
                    continue
                if not fm.check_indiscernible(seq, star, 1, [], M).verified:
                    problems.append("average witness is not indiscernible")
                for b in sorted(params):
                    pos = sum(1 for x in seq if EDGE.holds(M, x, (b,)))
                    if (pos >= ctx.kappa_K) != EDGE.holds(M, c, (b,)):
                        problems.append("average witness has the wrong average")
        return problems

    def report(self, item, result):
        if item[0] == "amalgam":
            return result
        return [{"n": r["n"], "d": r["d"], "ctx": r["ctx"],
                 "verdicts": [[sorted(dom), v] for dom, v in r["verdicts"]],
                 "rel": [[sorted(N), sorted(amb), rep] for N, amb, rep in r["rel"]]}
                for r in result]


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------


class Extract:
    name = "extract"
    pool = 512
    cycle_len = 8  # slot 0 greedy formula-keyed extraction, the rest 3-graphs

    def build(self, seed, count, workdir):
        worst = fm.BoundParams(fm.WorstCaseGrowth(1), 1, 1, 1, 4)
        const = fm.BoundParams(fm.ConstantGrowth(2), 0, 1, 2, 4)
        worst_len = {k: fm.g_func(worst, 1, k - 1) for k in (2, 3, 4)}
        const_len = {k: fm.g_func(const, 2, k - 1) for k in (3, 4)}
        # complete or empty graphs; immutable, so items share them
        homogeneous = {(n, full): structure(n, [(a, b) for a in range(n)
                                                for b in range(n) if full and a != b])
                       for n in const_len.values() for full in (False, True)}
        items = []
        for i, s in zip(range(count), item_seeds(seed)):
            rng = SplitMix64(s)
            j, slot = divmod(i, self.cycle_len)
            if slot:
                h = j * (self.cycle_len - 1) + slot - 1
                family = TRIPLE_FAMILIES[h % len(TRIPLE_FAMILIES)]
                n = 30 + h % 11
                items.append(("homogeneous", fm.RGraph.of(n, 3, family(n, rng))))
                continue
            cells = [(EDGE_PAIR, 2, (), k, homogeneous[(n, bool(j >> e & 1))],
                      self._sequence(n, rng))
                     for e, (k, n) in enumerate(const_len.items())]
            for k, n in worst_len.items():
                M = structure(n, graph_edges(n, rng))
                cells.append((EDGE, 1, ((0,),), k, M, self._sequence(n, rng)))
            items.append(("indisc", cells))
        return items

    @staticmethod
    def _sequence(n, rng):
        return fm.TupleSequence.of([(v,) for v in permutation(n, rng)])

    def run(self, item):
        if item[0] == "homogeneous":
            G = item[1]
            return (fm.rgraph_lacks_independence(G, 2), fm.extract_homogeneous(G, 2, 3))
        return [fm.extract_indiscernible(I, phi, m, A, M, k)
                for phi, m, A, k, M, I in item[1]]

    def check(self, item, result):
        if item[0] == "homogeneous":
            got = result[1]
            if isinstance(got, fm.ExtractionFailure):
                return [f"homogeneous extraction failed: {got.reason}"]
            vs, tag = got
            if len(vs) != 3 or not fm.verify_homogeneous(item[1], vs, tag):
                return ["homogeneous set failed re-verification"]
            return []
        problems = []
        for (phi, m, A, k, M, I), got in zip(item[1], result):
            if isinstance(got, fm.ExtractionFailure):
                problems.append(f"extraction failed at a sufficient length: {got.reason}")
                continue
            pos = {t: j for j, t in enumerate(I)}
            idx = [pos.get(t, -1) for t in got]
            if len(got) < k or min(idx) < 0 or idx != sorted(set(idx)):
                problems.append("extraction is not a long enough subsequence")
                continue
            delta = [phi, phi.negated()] if m == 1 else [phi]
            if not fm.check_indiscernible(got, delta, m, A, M, mode="sequence").verified:
                problems.append("extracted sequence is not indiscernible")
        return problems

    def report(self, item, result):
        return list(result)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

SEARCH_ORDER = ("independence_2", "independence_3", "order_3", "weak_order_2", "cover_2")


def _has_independence(rows, n, k):
    full = (1 << n) - 1
    for combo in itertools.combinations(range(n), k):
        if all(_cell(rows, combo, w, full) for w in range(1 << k)):
            return True
    return False


def _cell(rows, combo, w, full):
    v = full
    for i, a in enumerate(combo):
        v &= rows[a] if (w >> i) & 1 else full & ~rows[a]
    return v


def _has_order3(rows, n):
    sat = lambda a, b: (rows[a] >> b) & 1
    for a0 in range(n):
        if sat(a0, a0):
            continue
        for a1 in range(n):
            if sat(a1, a1) or not sat(a0, a1) or sat(a1, a0):
                continue
            for a2 in range(n):
                if (not sat(a2, a2) and sat(a0, a2) and sat(a1, a2)
                        and not sat(a2, a0) and not sat(a2, a1)):
                    return True
    return False


def _has_weak_order2(cols, n):
    full = (1 << n) - 1
    return any(cols[d0] & cols[d1] and (full & ~cols[d0]) & cols[d1]
               for d0 in range(n) for d1 in range(n) if d0 != d1)


def _has_cover_violation2(cols):
    nonempty = [c for c in cols if c]
    meet = -1
    for c in nonempty:
        meet &= c
    return len(nonempty) >= 2 and meet == 0


def _witness_ok(M, phi, key, w):
    if key.startswith("independence"):
        return fm.verify_independence(M, phi, w)
    if key == "order_3":
        return fm.verify_order(M, phi, w.a)
    if key == "weak_order_2":
        return fm.verify_weak_order(M, phi, w)
    return fm.verify_cover_violation(M, phi, 2, w)


def check_search(M, phi, outcomes, count, bound):
    """`outcomes` maps each search to None, a BudgetExceeded or a witness.
    Witnesses go through fmlab's verifiers; None certificates and the counts
    are recomputed by brute force from the reference interpreter."""
    n = M.universe_size
    rows = sat_masks(M, phi)
    cols = columns(rows, n)
    exists = {"independence_2": _has_independence(rows, n, 2),
              "independence_3": _has_independence(rows, n, 3),
              "order_3": _has_order3(rows, n),
              "weak_order_2": _has_weak_order2(cols, n),
              "cover_2": _has_cover_violation2(cols)}
    problems = []
    for key in SEARCH_ORDER:
        got = outcomes[key]
        if isinstance(got, fm.BudgetExceeded):
            problems.append(f"{key} ran out of budget")
        elif got is None:
            if exists[key]:
                problems.append(f"{key} returned None but a witness exists")
        elif not _witness_ok(M, phi, key, got):
            problems.append(f"{key} witness failed re-verification")
    types = len(set(rows))
    if count != types:
        problems.append(f"type count {count} != {types}")
    if (bound.lhs != types or bound.hypothesis_ok == exists["independence_2"]
            or bound.rhs_exponent != 1 or bound.holds != (types <= n)
            or (bound.hypothesis_ok and not bound.holds)):
        problems.append("independence bound report is inconsistent")
    return problems


def _subset(key):
    return frozenset(int(x) for x in key.strip("{}").split(",") if x)


def _tuples(rows):
    return tuple(tuple(t) for t in rows)


def _cli_witness(key, rep):
    """Rebuild the witness object a CLI detect report describes."""
    if rep["outcome"] == "none":
        return None
    if rep["outcome"] == "budget":
        return fm.BudgetExceeded(0)
    w = rep["witness"]
    if key.startswith("independence"):
        return fm.IndependenceWitness(_tuples(w["a"]),
                                      {_subset(k): tuple(b) for k, b in w["b"].items()})
    if key == "order_3":
        return fm.OrderWitness(_tuples(w["a"]))
    if key == "weak_order_2":
        return fm.WeakOrderWitness(_tuples(w["d"]), _tuples(w["realizers"]))
    return fm.CoverViolation(w["n"], _tuples(w["b"]))


CLI_ARGS = {"independence_2": ["detect", "--property", "independence", "--k", "2"],
            "independence_3": ["detect", "--property", "independence", "--k", "3"],
            "order_3": ["detect", "--property", "order", "--n", "3"],
            "weak_order_2": ["detect", "--property", "weak-order", "--m", "2"],
            "cover_2": ["detect", "--property", "cover", "--d", "2"],
            "count": ["types", "count"],
            "bound": ["types", "verify-independence-bound", "--k", "2"]}


class Search:
    name = "search"
    pool = 4096
    kinds = ("graph", "order", "digraph")
    cli_every = 16

    def build(self, seed, count, workdir):
        formula_paths = {}
        for key, text in FORMULA_TEXT.items():
            path = os.path.join(workdir, f"{key}.fml")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            if fm.parse_formula(text, R2).formula != FORMULAS[key]:
                raise RuntimeError(f"formula file {key} does not parse back")
            formula_paths[key] = path
        makers = {"graph": graph_edges, "order": order_pairs, "digraph": digraph_arcs}
        items = []
        for i, s in zip(range(count), item_seeds(seed)):
            rng = SplitMix64(s)
            kind = self.kinds[i % len(self.kinds)]
            key = ("atom", "dist2")[(i // len(self.kinds)) % 2]
            n = 6 + (i // 6) % 7
            pairs = makers[kind](n, rng)
            M = structure(n, pairs)
            paths = None
            if i % self.cli_every == self.cli_every - 1:
                text = fm_text(n, pairs)
                path = os.path.join(workdir, f"q{i}.fm")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                if fm.parse_structure(text).structure.relations["R"] != M.relations["R"]:
                    raise RuntimeError(f"structure file {path} does not parse back")
                paths = ["--structure", path, "--formula", formula_paths[key]]
            items.append((M, FORMULAS[key], paths))
        return items

    def run(self, item):
        M, phi, paths = item
        if paths is not None:
            return self._run_cli(paths)
        A = [(b,) for b in range(M.universe_size)]
        return {"independence_2": fm.find_k_independence(M, phi, 2),
                "independence_3": fm.find_k_independence(M, phi, 3),
                "order_3": fm.find_n_order(M, phi, 3),
                "weak_order_2": fm.find_weak_m_order(M, phi, 2),
                "cover_2": fm.find_cover_violation(M, phi, 2, M.universe_size),
                "count": fm.count_phi_types(M, phi, A),
                "bound": fm.verify_independence_bound(M, phi, A, 2)}

    @staticmethod
    def _run_cli(paths):
        out = {}
        for key, args in CLI_ARGS.items():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = fmlab.cli.main(args + paths)
            rep = json.loads(buf.getvalue())
            rep.pop("config")
            out[key] = {"exit": code, "report": rep}
        return out

    def check(self, item, result):
        M, phi, paths = item
        if paths is None:
            return check_search(M, phi, result, result["count"], result["bound"])
        problems = []
        outcomes = {}
        for key in SEARCH_ORDER:
            rep = result[key]["report"]
            if result[key]["exit"] != 0:
                problems.append(f"cli {key} exited {result[key]['exit']}")
            if rep["outcome"] == "witness" and key != "cover_2" and rep["verified"] is not True:
                problems.append(f"cli {key} reports an unverified witness")
            outcomes[key] = _cli_witness(key, rep)
        b = result["bound"]["report"]["report"]
        bound = fm.BoundReport(b["lhs"], b["rhs"], b["rhs_factor"], b["rhs_base"],
                               b["rhs_exponent"], b["params"], b["holds"],
                               b["hypothesis_ok"], b["note"])
        want_exit = 0 if (bound.holds and bound.hypothesis_ok) else 1
        if result["count"]["exit"] != 0 or result["bound"]["exit"] != want_exit:
            problems.append("cli types exit codes are wrong")
        return problems + check_search(M, phi, outcomes,
                                       result["count"]["report"]["count"], bound)

    def report(self, item, result):
        return result


WORKLOADS = {w.name: w for w in (Classify(), Extract(), Search())}
