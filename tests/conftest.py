"""Shared builders for the test suite: small graphs, digraphs, linear orders,
and the seeded 3-graph families used by the extraction tests."""

import itertools

from fmlab import (ExtractionTrace, FmlabError, PreconditionError, RGraph,
                   Signature, Structure, atom_formula)
from fmlab.util import SplitMix64, mix_seed

GRAPH_SIG = Signature((("R", 2),))
ORDER_SIG = Signature((("L", 2),))


def graph(n, edges):
    """Simple graph: symmetric closure of the given edge pairs."""
    full = set()
    for (u, v) in edges:
        full.add((u, v))
        full.add((v, u))
    return Structure(GRAPH_SIG, n, {"R": full})


def digraph(n, arcs):
    return Structure(GRAPH_SIG, n, {"R": set(arcs)})


def linear_order(n):
    return Structure(ORDER_SIG, n, {"L": [(i, j) for i in range(n)
                                          for j in range(n) if i < j]})


def complete_graph(n):
    return graph(n, itertools.combinations(range(n), 2))


def empty_graph(n):
    return graph(n, [])


def path_graph(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves):
    return graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def all_graphs(n):
    """Every simple graph on n vertices, by edge mask."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield graph(n, [pairs[i] for i in range(len(pairs))
                        if (mask >> i) & 1])


def all_digraphs(n):
    """Every loopless digraph on n vertices."""
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(arcs)):
        yield digraph(n, [arcs[i] for i in range(len(arcs)) if (mask >> i) & 1])


def seeded_graph(n, seed):
    rng = SplitMix64(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.bit()]
    return graph(n, edges)


def seeded_digraph(n, seed):
    """Loopless digraph with each arc present by one SplitMix64 bit."""
    rng = SplitMix64(seed)
    return digraph(n, [(i, j) for i in range(n) for j in range(n)
                       if i != j and rng.bit()])


def induced(M, dom=None):
    """(sub, back): the substructure of M induced on `dom` (the whole
    universe when None), relabelled onto 0..|dom|-1 in increasing order, and
    back, the sorted domain, so element i of sub is back[i] of M. Built
    apart from the package's own relabelling, so tests can check against it."""
    back = sorted(M.universe() if dom is None else dom)
    index = {e: i for i, e in enumerate(back)}
    return Structure(M.signature, len(back), {
        name: [tuple(index[e] for e in t) for t in rel if all(e in index for e in t)]
        for name, rel in M.relations.items()}), back


def outcome(thunk):
    """The value a call returns, or the type and message of what it raises."""
    try:
        return thunk()
    except FmlabError as e:
        return type(e), str(e)


def per_candidate_greedy(length, m, key_of, target=None):
    """The largest-class greedy as it ran before it refined the pool by cell
    masks: `key_of(sels, cand)` keys one candidate at a time, and candidates
    with equal keys form a class. Kept as the reference for
    `greedy_end_extraction`."""
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if target is not None and target < 0:
        raise PreconditionError("target must be >= 0")
    upto = length if target is None else min(target, length)
    chosen = list(range(min(m - 1, upto)))
    pool = list(range(m - 1, length))
    steps = []
    sels = list(itertools.combinations(chosen, m - 1))
    while pool and len(chosen) < (length if target is None else target):
        classes = {}
        for cand in pool:
            classes.setdefault(key_of(sels, cand), []).append(cand)
        best = max(classes.values(), key=lambda c: (len(c), -c[0]))
        steps.append((len(chosen), len(classes), len(best)))
        new = best[0]
        sels = ([s + (new,) for s in itertools.combinations(chosen, m - 2)]
                if m >= 2 else [])
        chosen.append(new)
        pool = best[1:]
    return chosen, ExtractionTrace(tuple(chosen), tuple(steps))


EDGE = atom_formula("R", ["x0"], ["y0"])
EDGE_PAIR = atom_formula("R", ["x0", "x1"], [])
LESS = atom_formula("L", ["x0"], ["y0"])


# seeded 3-graph families that tend to lack pairwise independence

def sparse_3graph(n, seed, m=6):
    rng = SplitMix64(seed)
    all_e = list(itertools.combinations(range(n), 3))
    edges = {all_e[rng.below(len(all_e))] for _ in range(m)}
    return RGraph.of(n, 3, edges)


def heavy_pair_3graph(n, seed):
    rng = SplitMix64(seed)
    c1 = rng.below(n)
    c2 = rng.below(n)
    while c2 == c1:
        c2 = rng.below(n)
    edges = [tuple(sorted({c1, c2, u})) for u in range(n) if u not in (c1, c2)]
    return RGraph.of(n, 3, edges)


def linear_pack_3graph(n, seed):
    """Greedy partial Steiner packing: no two edges share a vertex pair."""
    rng = SplitMix64(seed)
    used_pairs = set()
    edges = []
    all_e = list(itertools.combinations(range(n), 3))
    for _ in range(3 * n):
        e = all_e[rng.below(len(all_e))]
        prs = list(itertools.combinations(e, 2))
        if all(p not in used_pairs for p in prs):
            edges.append(e)
            used_pairs.update(prs)
    return RGraph.of(n, 3, edges)


def seeded_3graphs_lacking_independence(count, base_seed):
    """Yield (index, RGraph) pairs from the structured families, filtered to
    lack pairwise independence, until `count` are produced."""
    from fmlab import rgraph_lacks_independence
    families = [lambda n, s: sparse_3graph(n, s),
                heavy_pair_3graph,
                linear_pack_3graph]
    produced = 0
    attempt = 0
    while produced < count:
        fam = families[attempt % len(families)]
        n = 30 + (attempt % 11)
        G = fam(n, mix_seed(base_seed, attempt))
        attempt += 1
        if attempt > 20 * count:
            raise RuntimeError("generator stalled")
        if rgraph_lacks_independence(G, 2):
            produced += 1
            yield produced, G
