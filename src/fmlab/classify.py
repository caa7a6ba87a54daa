"""Classification machinery for classes of finite structures: the closure set
of pattern formulas, the minority bound kappa, average types over indiscernible
sequences, goodness, the strong-submodel relation, and stable amalgamation with
its symmetry test.

Submodels are given as universe subsets, and every result names elements of
the whole structure, so parameter tuples keep their meaning across a whole
configuration. A submodel is always decided as the induced, relabelled
structure `_induced` looks up by shape (one object per shape, so the memos
keyed on it hit by identity), and goodness witnesses are mapped back.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence, Union

from .core import (And, Exists, Not, PartitionedFormula, PhiType, SatTable,
                   Structure, TupleSequence, bound_vars, formula_text,
                   free_vars, rename_free, subformulas)
from .detect import (CoverViolation, IndependenceWitness, find_cover_violation,
                     find_k_independence)
from .indisc import TypeOracle, check_indiscernible
from .util import (BudgetExceeded, EvaluationError, PreconditionError,
                   search_budget)


# ---------------------------------------------------------------------------
# the closure set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaStar:
    base: tuple[PartitionedFormula, ...]
    n: int
    formulas: tuple[PartitionedFormula, ...]


_VAR_KEY = re.compile(r"([a-z]+)(\d+)$")


def _var_key(v: str):
    m = _VAR_KEY.match(v)
    if not m:
        return (v, -1)
    return (m.group(1), int(m.group(2)))


def _canonical(g) -> PartitionedFormula:
    fv = sorted(free_vars(g), key=_var_key)
    mapping = {v: f"v{i}" for i, v in enumerate(fv)}
    return PartitionedFormula(rename_free(g, mapping),
                              tuple(f"v{i}" for i in range(len(fv))), ())


# distinct (delta, n) closure sets kept by delta_star
_DELTA_STAR_CACHE = 128


def delta_star(delta: Iterable[PartitionedFormula], n: int) -> DeltaStar:
    """The closure set: for each formula, each width up to n and each sign
    pattern, the realizability formula "some object shows exactly this pattern
    on these parameter blocks", together with all subformulas.

    Closure formulas carry the fresh parameter blocks as their object block
    with no parameter block, which is what lets them compare concatenated
    selections over the empty parameter set. Subformulas are canonicalized by
    renaming free variables in sorted order, so duplicates collapse.

    The closure set is pure syntax in (delta, n), so results are memoised per
    (tuple(delta), n), keyed by value, and one immutable DeltaStar is shared
    by every caller that asks for the same key.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    return _delta_star(tuple(delta), n)


@functools.lru_cache(maxsize=_DELTA_STAR_CACHE)
def _delta_star(delta: tuple[PartitionedFormula, ...], n: int) -> DeltaStar:
    out: dict[PartitionedFormula, None] = {}  # first-seen order
    for phi in delta:
        r, s = phi.r, phi.s
        used = {int(m.group(2)) for v in bound_vars(phi.ast)
                for m in [_VAR_KEY.match(v)] if m and m.group(1) == "z"}
        z0 = max(used, default=-1) + 1
        zblock = tuple(f"z{z0 + i}" for i in range(r))
        for k in range(1, n + 1):
            blocks = [tuple(f"y{i * s + j}" for j in range(s)) for i in range(k)]
            for w_mask in range(1 << k):
                lits = []
                for i in range(k):
                    inst = rename_free(
                        phi.ast, dict(zip(phi.object_vars + phi.param_vars,
                                          zblock + blocks[i])))
                    if (w_mask >> i) & 1:
                        lits.append(inst)
                    else:
                        lits.append(inst.sub if type(inst) is Not else Not(inst))
                body = lits[0]
                for lit in lits[1:]:
                    body = And(body, lit)
                closure = body
                for v in reversed(zblock):
                    closure = Exists(v, closure)
                out.update(dict.fromkeys(map(_canonical, subformulas(closure))))

    formulas = tuple(sorted(out, key=lambda f: (f.r, f.s, formula_text(f.ast))))
    return DeltaStar(delta, n, formulas)


# ---------------------------------------------------------------------------
# kappa
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaResult:
    value: int
    witness: Optional[dict]

    def to_report(self):
        if self.witness is None:
            return {"kappa": self.value, "witness": None}
        w = dict(self.witness)
        w["sequence"] = [list(t) for t in w["sequence"]]
        w["formula"] = w["formula"].text()
        w["c"] = list(w["c"])
        return {"kappa": self.value, "witness": w}


def _indiscernible_sequences(runs, oracle: TypeOracle, n: int, limit: int):
    """For each (source, lengths) in `runs`, the ordered sequences of distinct
    members of source with a length from `lengths`, in lexicographic order of
    source positions, whose increasing n-selections all have the same type
    under `oracle`; each comes as (seq, mask), bit i of mask set iff source[i]
    is in seq. A member set comes once per source, at its first indiscernible
    ordering: its later orderings are not checked, because both callers
    decide on the mask alone. Every candidate tried, checked or not, counts
    against `limit`; once more than `limit` have been tried, the last item
    yielded is BudgetExceeded."""
    tried = 0
    for source, lengths in runs:
        bit = {c: 1 << i for i, c in enumerate(source)}
        yielded = set()  # masks of the member sets yielded from this source
        for length in lengths:
            sels = list(itertools.combinations(range(length), n))
            for seq in itertools.permutations(source, length):
                tried += 1
                if tried > limit:
                    yield BudgetExceeded(limit + 1)
                    return
                mask = sum(bit[c] for c in seq)
                if mask not in yielded and oracle.first_split(seq, sels) is None:
                    yielded.add(mask)
                    yield seq, mask


def kappa(M: Structure, delta: Sequence[PartitionedFormula], n: int,
          max_len: Optional[int] = None
          ) -> Union[KappaResult, BudgetExceeded]:
    """Least kappa >= 1 such that along every closure-indiscernible sequence of
    distinct parameter tuples (length up to max_len), every formula instance
    splits the sequence with minority side below kappa.

    Exhaustive over ordered sequences of distinct tuples; max_len defaults to
    the number of distinct tuples of the relevant arity. Each candidate
    sequence is one node of `util.search_budget()`; BudgetExceeded when the
    budget runs out. The split counts depend only on the set of members, so
    each set is counted once per parameter arity, at its first indiscernible
    ordering (`_indiscernible_sequences` yields no other): a later ordering
    has the same counts and cannot beat the worst side found so far, so the
    value and the witness are those of counting every ordering. A submodel
    is passed as its induced structure.
    """
    if max_len is not None and max_len < 2:
        raise PreconditionError("max_len must be >= 2")
    oracle = TypeOracle(M, delta_star(list(delta), n).formulas, [])
    runs = []
    tables = {}  # parameter arity -> (formula, object tuples, satisfaction rows)
    for s in sorted({f.s for f in delta if f.s >= 1}):
        tuples = list(M.tuples(s))
        cap = len(tuples) if max_len is None else min(max_len, len(tuples))
        runs.append((tuples, range(2, cap + 1)))
        tables[s] = []
        for f in delta:
            if f.s == s:
                objs = list(M.tuples(f.r))
                tables[s].append((f, objs, SatTable(M, f).rows(objs, tuples)))
    worst = 0
    witness = None
    for got in _indiscernible_sequences(runs, oracle, n, search_budget()):
        if isinstance(got, BudgetExceeded):
            return got
        seq, mask = got
        for f, objs, rows in tables[len(seq[0])]:
            for c, row in zip(objs, rows):
                pos = (row & mask).bit_count()
                side = min(pos, len(seq) - pos)
                if side > worst:
                    worst = side
                    witness = {"sequence": seq, "formula": f,
                               "c": c, "pos": pos, "neg": len(seq) - pos}
    return KappaResult(worst + 1, witness)


# ---------------------------------------------------------------------------
# average types
# ---------------------------------------------------------------------------


def average_type(I, delta: Sequence[PartitionedFormula],
                 A: Iterable[tuple[int, ...]], M: Structure, kappa_value: int,
                 n: Optional[int] = None) -> PhiType:
    """The average: instance (f, b) is in the type iff f holds on at least
    kappa_value members of I.

    With n given, I is first verified to be indiscernible for the closure set
    of delta over the empty set; the error carries the counterexample.
    """
    seq = I if isinstance(I, TupleSequence) else TupleSequence.of(I)
    if kappa_value < 1:
        raise PreconditionError("kappa must be >= 1")
    if n is not None and len(seq) >= n:
        star = delta_star(list(delta), n)
        cert = check_indiscernible(seq, star.formulas, n, [], M, mode="sequence")
        if not cert.verified:
            raise PreconditionError(
                f"sequence is not closure-indiscernible; counterexample "
                f"{cert.counterexample}")
    A = sorted(tuple(b) for b in A)
    entries = []
    for f in delta:
        if f.r != seq.tuple_arity:
            continue
        pars = [()] if f.s == 0 else [b for b in A if len(b) == f.s]
        for b in pars:
            count = sum(1 for c in seq if f.holds(M, c, b))
            entries.append((f, b, count >= kappa_value))
    return PhiType(frozenset(entries), seq.tuple_arity)


# ---------------------------------------------------------------------------
# goodness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodnessContext:
    phi: PartitionedFormula
    n: int
    d: int
    kappa_value: int
    lambda_value: int

    def to_report(self):
        return {"good": True, "n": self.n, "d": self.d,
                "kappa": self.kappa_value, "lambda": self.lambda_value}


@dataclass(frozen=True)
class GoodnessRefutation:
    kind: str                     # "independence" | "cover" | "budget"
    formula: PartitionedFormula
    witness: object

    def to_report(self):
        return {"good": False, "kind": self.kind, "formula": self.formula,
                "witness": self.witness}


def goodness_delta(phi: PartitionedFormula) -> list[PartitionedFormula]:
    psi = phi.swapped()
    return [phi, psi, phi.negated(), psi.negated()]


# distinct (structure, phi, n, d, budget) goodness verdicts kept by is_good
_IS_GOOD_CACHE = 1024
# distinct (structure, domain) relabellings kept by _induced: the goodness
# and strong-submodel checks of one class relabel each member dozens of times
_INDUCED_CACHE = 32
# distinct induced shapes that _shaped keeps one structure for
_SHAPE_CACHE = 512


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _shaped(signature, size: int, shape: tuple) -> Structure:
    """The structure whose relations have the shapes `_induced` computes,
    built and validated once per shape: equal induced substructures are one
    object, so a memo hit keyed on one compares it by identity."""
    return Structure(signature, size, {
        name: rel if ar != 2 else [(i, j) for i, row in enumerate(rel)
                                   for j in range(size) if row >> j & 1]
        for (name, ar), rel in zip(signature.relations, shape)})


@functools.lru_cache(maxsize=_INDUCED_CACHE)
def _induced(M: Structure, domain: frozenset
             ) -> tuple[Structure, tuple[int, ...], dict[int, int]]:
    """(sub, dom, pos): the substructure induced on the domain, relabelled by
    the order-preserving map from 0..|domain|-1 onto dom = sorted(domain),
    and pos, that map's inverse. A domain element outside the universe
    raises EvaluationError, the least one first. sub is looked up by its
    shape before it is built (`_shaped`): a binary relation's bit rows
    compressed onto dom, any other relation's relabelled tuples."""
    dom = tuple(sorted(domain))
    for e in dom:
        if not 0 <= e < M.universe_size:
            raise EvaluationError(f"element out of range: {e}")
    pos = {e: i for i, e in enumerate(dom)}
    runs = {}  # e - pos[e] -> the positions of its run of consecutive elements
    for i, e in enumerate(dom):
        runs[e - i] = runs.get(e - i, 0) | 1 << i
    shape = []
    for name, ar in M.signature.relations:
        if ar != 2:
            shape.append(frozenset(tuple(map(pos.__getitem__, t)) for t in
                                   M.relations[name] if domain.issuperset(t)))
            continue
        rows = []
        for e in dom:
            row, sub_row = M._bitrows[name][e], 0
            for shift, mask in runs.items():
                sub_row |= row >> shift & mask
            rows.append(sub_row)
        shape.append(tuple(rows))
    return _shaped(M.signature, len(dom), tuple(shape)), dom, pos


def is_good(M: Structure, phi: PartitionedFormula, n: int, d: int,
            domain=None) -> Union[GoodnessContext, GoodnessRefutation]:
    """Run the independence searches at width n and the cover searches at depth
    d for all four block-arrangements of phi; when every search is empty,
    compute kappa and the threshold lambda = max(d * kappa, 2n). A search or
    kappa that runs out of budget gives a "budget" refutation.

    The negated arrangements get no independence search: a set is independent
    for ~f exactly when it is for f (each pattern complemented), at the same
    node count, so after the searches for phi and psi theirs find nothing.

    With a domain, goodness is decided on the substructure induced on it,
    relabelled by the order-preserving map from 0..|domain|-1 onto
    sorted(domain) (`_induced`), and a refutation's witness tuples are
    mapped back; when sorted(domain) is 0..|domain|-1 that map is the
    identity, and the memoised refutation itself is returned. Quantifiers
    then range over the domain alone, and the map keeps the lexicographic
    order of tuples that every search walks, so the earliest witness
    mapped back is the earliest over the domain.

    The verdict is pure in the structure it is decided on and the budget, so
    it is memoised by value per (induced substructure, phi, n, d,
    `util.search_budget()`): members of a class whose induced substructures
    are the same up to that relabelling share one entry, and a changed
    FMLAB_BUDGET is never served a verdict reached under another budget. A
    memoised verdict is shared by every caller and holds no mutable object."""
    if n < 1 or d < 1:
        raise PreconditionError("n and d must be >= 1")
    if domain is None:
        return _is_good(M, phi, n, d, search_budget())
    sub, dom, _ = _induced(M, frozenset(domain))
    got = _is_good(sub, phi, n, d, search_budget())
    if (isinstance(got, GoodnessContext) or isinstance(got.witness, BudgetExceeded)
            or not dom or dom[-1] == len(dom) - 1):  # dom is 0..|dom|-1: no relabelling
        return got

    def back(t):
        return tuple(dom[i] for i in t)

    wit = got.witness
    if isinstance(wit, IndependenceWitness):
        wit = IndependenceWitness(tuple(map(back, wit.a)),
                                  {w: back(b) for w, b in wit.b.items()})
    else:
        wit = CoverViolation(wit.n, tuple(map(back, wit.b)))
    return GoodnessRefutation(got.kind, got.formula, wit)


@functools.lru_cache(maxsize=_IS_GOOD_CACHE)
def _is_good(M: Structure, phi: PartitionedFormula, n: int, d: int, budget: int
             ) -> Union[GoodnessContext, GoodnessRefutation]:
    # `budget` only keys the memo; the searches read the same value themselves
    delta = goodness_delta(phi)
    for i, f in enumerate(delta):
        wit = find_k_independence(M, f, n) if i < 2 else None
        if isinstance(wit, BudgetExceeded):
            return GoodnessRefutation("budget", f, wit)
        if wit is not None:
            return GoodnessRefutation("independence", f, wit)
        vio = find_cover_violation(M, f, d, max(M.universe_size ** f.s, d))
        if isinstance(vio, BudgetExceeded):
            return GoodnessRefutation("budget", f, vio)
        if vio is not None:
            return GoodnessRefutation("cover", f, vio)
    got = kappa(M, delta, n)
    if isinstance(got, BudgetExceeded):
        return GoodnessRefutation("budget", phi, got)
    return GoodnessContext(phi, n, d, got.value, max(d * got.value, 2 * n))


# ---------------------------------------------------------------------------
# class context and the strong-submodel relation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassContext:
    """The suppressed parameters of the relation: phi, n, d, the saturation
    width k, the common parameter set A, and the class-level kappa/lambda."""

    phi: PartitionedFormula
    n: int
    d: int
    k: int
    A: tuple[tuple[int, ...], ...]
    kappa_K: int
    lambda_K: int

    def to_report(self):
        return {"n": self.n, "d": self.d, "k": self.k,
                "A": [list(t) for t in self.A],
                "kappa_K": self.kappa_K, "lambda_K": self.lambda_K}


def make_class_context(M: Structure, domains: Sequence[Optional[frozenset]],
                       phi: PartitionedFormula, n: int, d: int, k: int,
                       A: Iterable[tuple[int, ...]]
                       ) -> Union[ClassContext, GoodnessRefutation]:
    """Check goodness of every member (None = the full structure) and take the
    class kappa as the max over members; lambda scales it by |A|^s, s the
    largest parameter arity in goodness_delta(phi), which is phi.t."""
    A = tuple(sorted(tuple(b) for b in A))
    kmax = 0
    for dom in domains:
        got = is_good(M, phi, n, d, domain=dom)
        if isinstance(got, GoodnessRefutation):
            return got
        kmax = max(kmax, got.kappa_value)
    return ClassContext(phi, n, d, k, A, kmax, kmax * len(A) ** phi.t)


@dataclass(frozen=True)
class PrecReport:
    cond1: bool
    cond2: Union[bool, str]
    cond3: Union[bool, str]
    holds: Union[bool, str]
    failing_condition: Optional[int]
    detail: str = ""


def _average_matches(pos_counts: Iterable[int], length: int, kappa_value: int,
                     target: Sequence[bool]) -> bool:
    for pos, want in zip(pos_counts, target):
        if (pos >= kappa_value) != want or ((length - pos) >= kappa_value) == want:
            return False
    return True


def _search_average_witness(ctx: ClassContext, oracle: TypeOracle, source: list,
                            cols: list[int], target: list[bool], limit: int
                            ) -> Union[TupleSequence, None, BudgetExceeded]:
    """A sequence of distinct tuples from the source (or a constant sequence)
    of length at least lambda_K that is closure-indiscernible over the empty
    set and averages (at kappa_K) to the target. `cols[j]` has bit i set iff
    phi holds on source[i] at the j-th parameter tuple, whose wanted sign is
    target[j]. Each candidate is one node of the budget `limit`."""
    min_len = max(ctx.lambda_K, 1)
    # constant sequences first: they are indiscernible outright
    for i, c in enumerate(source):
        if i >= limit:
            return BudgetExceeded(limit + 1)
        if _average_matches((min_len * ((col >> i) & 1) for col in cols),
                            min_len, ctx.kappa_K, target):
            return TupleSequence.of([c] * min_len, ctx.phi.r)
    runs = [(source, range(min_len, min_len + 3))]
    for got in _indiscernible_sequences(runs, oracle, ctx.n, limit - len(source)):
        if isinstance(got, BudgetExceeded):
            return BudgetExceeded(limit + 1)
        seq, mask = got
        if _average_matches(((col & mask).bit_count() for col in cols),
                            len(seq), ctx.kappa_K, target):
            return TupleSequence.of(seq, ctx.phi.r)
    return None


def _average_witnesses(M: Structure, ctx: ClassContext,
                       source: list, source_cols: list[int],
                       targets: list, target_cols: list[int]):
    """(holds, witnesses, offender): for each target tuple in turn, an average
    witness from `source` for its type over the parameter tuples of the
    satisfaction columns (laid out as in `_search_average_witness`). holds is
    True when every target has one; otherwise the first target without one is
    the offender, and holds is False, or "budget" when its search ran out.
    Each target's search gets the whole of `util.search_budget()`."""
    psi = ctx.phi.swapped()
    oracle = TypeOracle(M, delta_star([psi, psi.negated()], ctx.n).formulas, [])
    limit = search_budget()
    witnesses = {}
    for i, c in enumerate(targets):
        target = [bool((col >> i) & 1) for col in target_cols]
        got = _search_average_witness(ctx, oracle, source, source_cols, target, limit)
        if got is None:
            return False, witnesses, c
        if isinstance(got, BudgetExceeded):
            return "budget", witnesses, c
        witnesses[c] = got
    return True, witnesses, None


# distinct (induced ambient, N mask, context, budget) reports kept by prec_K:
# a 512-item classify bench pool decides up to 1,397 of them
_PREC_CACHE = 4096


def prec_K(M: Structure, N_dom: frozenset, ctx: ClassContext,
           ambient: Optional[frozenset] = None, check_good: bool = True
           ) -> PrecReport:
    """The strong-submodel check between the induced substructure on N_dom and
    the (induced) ambient structure.

    Condition 1: the formula agrees between the two on parameters from A.
    Condition 2: any pattern over at most k parameters realized in the ambient
    is realized by a tuple from N. Condition 3: every ambient tuple's type over
    A is the average of a long closure-indiscernible sequence inside N
    (indiscernible over the empty set).

    Conditions 2 and 3 obey `util.search_budget()` (condition 2 counts one
    node per multiset of k parameter indices, condition 3 one per candidate
    sequence) and read "budget" when it runs out. `holds` is False when some
    condition is False, which `failing_condition` names; otherwise it is
    "budget" when a condition ran out, else True.

    The conditions are decided on the substructure induced on the ambient,
    relabelled 0..m-1 in increasing order, with A and N relabelled alike.
    Every object list, parameter list and candidate sequence keeps its order
    under that map, so the report and the budget's node counts are those of
    deciding inside M. A report names no element, so it is memoised by value
    per (induced ambient, mask of the relabelled N, relabelled context,
    `util.search_budget()`): pairs that induce the same ordered shape share
    one entry, and a changed FMLAB_BUDGET is never served a report reached
    under another budget. The argument checks and the goodness checks run
    on every call, before the memo, and a memoised report is shared by
    every caller.
    """
    phi, n, d = ctx.phi, ctx.n, ctx.d
    amb = frozenset(M.universe()) if ambient is None else frozenset(ambient)
    N_dom = frozenset(N_dom)
    if not N_dom <= amb:
        raise PreconditionError("N must be a subset of the ambient universe")
    span = {e for t in ctx.A for e in t}
    if not span <= N_dom:
        raise PreconditionError("A must lie inside N")
    if check_good:
        for dom, tag in ((amb, "ambient"), (N_dom, "N")):
            got = is_good(M, phi, n, d, domain=dom)
            if isinstance(got, GoodnessRefutation):
                raise PreconditionError(f"{tag} structure is not good: {got.kind}")

    sub, _, pos = _induced(M, amb)
    A = tuple(tuple(map(pos.__getitem__, t)) for t in ctx.A)
    rctx = ctx if A == ctx.A else replace(ctx, A=A)
    return _decide_prec(sub, sum(1 << pos[e] for e in N_dom), rctx,
                        search_budget())


@functools.lru_cache(maxsize=_PREC_CACHE)
def _decide_prec(M: Structure, N_mask: int, ctx: ClassContext, budget: int
                 ) -> PrecReport:
    """prec_K's three conditions, with the whole of M as the ambient and N
    the elements whose bits are set in N_mask, and condition 1's columns in
    N read again on the structure induced on N. `budget` only keys the memo;
    the searches read the same value themselves."""
    N_dom = frozenset(i for i in range(M.universe_size) if N_mask >> i & 1)
    phi, k = ctx.phi, ctx.k
    A_match = [b for b in ctx.A if len(b) == phi.s]
    objs_amb = list(M.tuples(phi.r))
    objs_N = list(M.tuples(phi.r, domain=N_dom))
    # satisfaction columns: bit i of cols[j] iff phi[objs[i]; A_match[j]]
    psi = phi.swapped()
    in_amb = SatTable(M, psi)
    cols_amb = in_amb.rows(A_match, objs_amb)
    cols_N = in_amb.rows(A_match, objs_N)

    # condition 1
    sub, _, pos = _induced(M, N_dom)
    A_sub = [tuple(map(pos.__getitem__, b)) for b in A_match]
    cond1 = cols_N == SatTable(sub, psi).rows(A_sub, list(sub.tuples(phi.r)))

    # condition 2: one budget node per multiset of parameter indices
    cond2: Union[bool, str] = True
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

    # condition 3
    cond3 = _average_witnesses(M, ctx, objs_N, cols_N, objs_amb, cols_amb)[0]

    conds = (cond1, cond2, cond3)
    failing = next((i for i, c in enumerate(conds, start=1) if c is False), None)
    if failing is not None:
        holds: Union[bool, str] = False
    else:
        holds = "budget" if "budget" in conds else True
    return PrecReport(cond1, cond2, cond3, holds, failing)


# ---------------------------------------------------------------------------
# stable amalgamation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmalgamConfig:
    M: Structure
    m0: frozenset
    m1: frozenset
    m2: frozenset
    ctx: ClassContext


@dataclass(frozen=True)
class AmalgamResult:
    holds: Union[bool, str]
    witnesses: dict
    offender: Optional[tuple[int, ...]]

    def to_report(self):
        return {"holds": self.holds,
                "witnesses": {str(list(c)): [list(t) for t in seq]
                              for c, seq in self.witnesses.items()},
                "offender": None if self.offender is None else list(self.offender)}


def stable_amalgam(config: AmalgamConfig, check_preconditions: bool = True,
                   check_good: bool = True) -> AmalgamResult:
    """Is (M0, M1, M2) in stable amalgamation inside M: does every tuple from
    M2 have its type over M1 matched by the average of a long
    closure-indiscernible sequence inside M0?

    `check_good=False` skips re-verifying member goodness inside the
    relation checks, for callers that certified it already.
    """
    M, ctx = config.M, config.ctx
    if check_preconditions:
        pairs = [("M0<M", config.m0, None), ("M1<M", config.m1, None),
                 ("M2<M", config.m2, None), ("M0<M1", config.m0, config.m1),
                 ("M0<M2", config.m0, config.m2)]
        for name, ndom, adom in pairs:
            try:
                rep = prec_K(M, ndom, ctx, ambient=adom, check_good=check_good)
            except PreconditionError as e:
                raise PreconditionError(f"precondition {name} fails: {e}")
            if rep.holds is not True:
                raise PreconditionError(f"precondition {name} fails: {rep}")
    A_params = list(M.tuples(ctx.phi.s, domain=config.m1))
    objs_m0 = list(M.tuples(ctx.phi.r, domain=config.m0))
    objs_m2 = list(M.tuples(ctx.phi.r, domain=config.m2))
    table = SatTable(M, ctx.phi.swapped())
    return AmalgamResult(*_average_witnesses(
        M, ctx, objs_m0, table.rows(A_params, objs_m0),
        objs_m2, table.rows(A_params, objs_m2)))


def symmetry_test(config: AmalgamConfig, check_good: bool = True) -> dict:
    """Run the amalgamation check in both orientations and compare.

    Swapping M1 and M2 leaves the five precondition pairs the same, so they
    are checked once, by the forward run."""
    forward = stable_amalgam(config, True, check_good)
    swapped = AmalgamConfig(config.M, config.m0, config.m2, config.m1, config.ctx)
    backward = stable_amalgam(swapped, False, check_good)
    return {"forward": forward.holds, "backward": backward.holds,
            "symmetric": forward.holds == backward.holds,
            "forward_result": forward, "backward_result": backward}


# ---------------------------------------------------------------------------
# the exchange property
# ---------------------------------------------------------------------------


def exchange_check(I0, I1, M: Structure, phi: PartitionedFormula,
                   kappa_phi: int, kappa_psi: int,
                   lambda_delta: Optional[int] = None,
                   n: Optional[int] = None) -> dict:
    """Evaluate the two exchange conditions and assert their equivalence.

    Condition (i): all but kappa_phi members of I0 hit the psi-average of I1.
    Condition (ii): all but kappa_psi members of I1 hit the phi-average of I0.
    Both sequences must be longer than max(lambda_delta, k_phi + k_psi +
    k_phi * k_psi); when n is given, closure-indiscernibility of both
    sequences is verified first.
    """
    seq0 = I0 if isinstance(I0, TupleSequence) else TupleSequence.of(I0)
    seq1 = I1 if isinstance(I1, TupleSequence) else TupleSequence.of(I1)
    lam = max(lambda_delta or 0,
              kappa_phi + kappa_psi + kappa_phi * kappa_psi)
    if len(seq0) <= lam or len(seq1) <= lam:
        raise PreconditionError(f"both sequences must be longer than {lam}")
    psi = phi.swapped()
    if n is not None:
        star0 = delta_star([psi, psi.negated()], n)
        if len(seq0) >= n:
            cert = check_indiscernible(seq0, star0.formulas, n, [], M)
            if not cert.verified:
                raise PreconditionError("I0 is not closure-indiscernible")
        star1 = delta_star([phi, phi.negated()], n)
        if len(seq1) >= n:
            cert = check_indiscernible(seq1, star1.formulas, n, [], M)
            if not cert.verified:
                raise PreconditionError("I1 is not closure-indiscernible")
    m0, m1 = len(seq0), len(seq1)
    good_i = sum(1 for a in seq0
                 if sum(1 for c in seq1 if phi.holds(M, a, c)) >= kappa_psi)
    cond_i = good_i >= m0 - kappa_phi
    good_j = sum(1 for b in seq1
                 if sum(1 for c in seq0 if phi.holds(M, c, b)) >= kappa_phi)
    cond_ii = good_j >= m1 - kappa_psi
    return {"i_holds": cond_i, "ii_holds": cond_ii,
            "equivalent": cond_i == cond_ii}
