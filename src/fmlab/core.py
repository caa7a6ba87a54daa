"""Finite relational structures, first-order formulas, evaluation, and local types.

Everything downstream (witness searches, indiscernibility, averages) reduces to
the three primitives here: Tarskian evaluation, signed local types, and the set
of types realized by tuples of a structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from .util import EvaluationError, FmlabError, PreconditionError


# ---------------------------------------------------------------------------
# signatures and structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """A purely relational similarity type: (name, arity) pairs, names unique."""

    relations: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [n for n, _ in self.relations]
        if len(set(names)) != len(names):
            raise FmlabError("duplicate relation name in signature")
        for name, ar in self.relations:
            if ar < 1:
                raise FmlabError(f"relation {name} has arity {ar}; arities must be >= 1")

    def arity(self, name: str) -> int:
        for n, ar in self.relations:
            if n == name:
                return ar
        raise FmlabError(f"unknown relation: {name}")

    def has(self, name: str) -> bool:
        return any(n == name for n, _ in self.relations)


class Structure:
    """A finite relational model: universe {0..N-1} plus named tuple sets.

    Immutable after construction; all operations on it are pure functions.
    Two structures are equal, and hash alike, when their signatures, universe
    sizes and relations are equal, so a structure can key a memo by value.
    """

    __slots__ = ("signature", "universe_size", "relations", "_bitrows", "_hash")

    def __init__(self, signature: Signature, universe_size: int,
                 relations: Mapping[str, Iterable[tuple[int, ...]]]):
        if universe_size < 0:
            raise FmlabError("universe size must be a natural number")
        frozen: dict[str, frozenset[tuple[int, ...]]] = {}
        for name, ar in signature.relations:
            tuples = frozenset(tuple(t) for t in relations.get(name, ()))
            for t in tuples:
                if len(t) != ar:
                    raise FmlabError(
                        f"arity mismatch: relation {name} expects {ar}-tuples, got {t}")
                for e in t:
                    if not (0 <= e < universe_size):
                        raise FmlabError(
                            f"element out of range: {e} in relation {name}")
            frozen[name] = tuples
        for name in relations:
            if not signature.has(name):
                raise FmlabError(f"unknown relation: {name}")
        object.__setattr__(self, "signature", signature)
        object.__setattr__(self, "universe_size", universe_size)
        object.__setattr__(self, "relations", MappingProxyType(frozen))
        # bit-matrix fast path for binary relations, row i has bit j iff (i,j) in R
        bitrows: dict[str, tuple[int, ...]] = {}
        for name, ar in signature.relations:
            if ar == 2:
                rows = [0] * universe_size
                for (i, j) in frozen[name]:
                    rows[i] |= 1 << j
                bitrows[name] = tuple(rows)
        object.__setattr__(self, "_bitrows", bitrows)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Structure is immutable")

    def _key(self):
        return (self.signature, self.universe_size,
                tuple(self.relations[name] for name, _ in self.signature.relations))

    def __eq__(self, other):
        if not isinstance(other, Structure):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self):
        # computed on first use: hashing every relation is linear in its size
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key()))
        return self._hash

    def __repr__(self):
        rels = ", ".join(f"{n}:{len(self.relations[n])}" for n, _ in self.signature.relations)
        return f"Structure(N={self.universe_size}, {rels})"

    def holds_atom(self, name: str, args: tuple[int, ...]) -> bool:
        rows = self._bitrows.get(name)
        if rows is not None and len(args) == 2:
            return bool((rows[args[0]] >> args[1]) & 1)
        return args in self.relations[name]

    def universe(self) -> range:
        return range(self.universe_size)

    def tuples(self, arity: int, domain: Optional[Iterable[int]] = None) -> Iterator[tuple[int, ...]]:
        """All arity-tuples over the universe (or a sub-universe), lexicographic."""
        dom = range(self.universe_size) if domain is None else sorted(domain)
        return itertools.product(dom, repeat=arity)


# ---------------------------------------------------------------------------
# formula syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple[str, ...]

    def __post_init__(self):
        # a tuple keeps the formula hashable when built from a list
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Not:
    sub: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Atom, Not, And, Or, Implies, Iff, Exists, Forall]

_BINOPS = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


def free_vars(f: Formula) -> frozenset[str]:
    t = type(f)
    if t is Atom:
        return frozenset(f.args)
    if t is Not:
        return free_vars(f.sub)
    if t in (And, Or, Implies, Iff):
        return free_vars(f.left) | free_vars(f.right)
    if t in (Exists, Forall):
        return free_vars(f.body) - {f.var}
    raise FmlabError(f"ill-formed formula node: {f!r}")


def bound_vars(f: Formula) -> frozenset[str]:
    t = type(f)
    if t is Atom:
        return frozenset()
    if t is Not:
        return bound_vars(f.sub)
    if t in (And, Or, Implies, Iff):
        return bound_vars(f.left) | bound_vars(f.right)
    if t in (Exists, Forall):
        return bound_vars(f.body) | {f.var}
    raise FmlabError(f"ill-formed formula node: {f!r}")


def rename_free(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Rename free variables. Targets must not collide with bound variables."""
    captured = bound_vars(f) & set(mapping.values())
    if captured:
        raise FmlabError(f"renaming would capture bound variables: {sorted(captured)}")

    def go(node: Formula, shadowed: frozenset[str]) -> Formula:
        t = type(node)
        if t is Atom:
            return Atom(node.rel, tuple(
                mapping.get(a, a) if a not in shadowed else a for a in node.args))
        if t is Not:
            return Not(go(node.sub, shadowed))
        if t in (And, Or, Implies, Iff):
            return t(go(node.left, shadowed), go(node.right, shadowed))
        if t in (Exists, Forall):
            return t(node.var, go(node.body, shadowed | {node.var}))
        raise FmlabError(f"ill-formed formula node: {node!r}")

    return go(f, frozenset())


def formula_text(f: Formula) -> str:
    """Deterministic fully parenthesized rendering (re-parseable)."""
    t = type(f)
    if t is Atom:
        return f"{f.rel}({','.join(f.args)})"
    if t is Not:
        return f"~{formula_text(f.sub)}"
    if t in (And, Or, Implies, Iff):
        return f"({formula_text(f.left)} {_BINOPS[t]} {formula_text(f.right)})"
    if t is Exists:
        return f"(exists {f.var}. {formula_text(f.body)})"
    if t is Forall:
        return f"(forall {f.var}. {formula_text(f.body)})"
    raise FmlabError(f"ill-formed formula node: {f!r}")


def subformulas(f: Formula) -> Iterator[Formula]:
    """All subformulas of f, including f itself (preorder)."""
    yield f
    t = type(f)
    if t is Not:
        yield from subformulas(f.sub)
    elif t in (And, Or, Implies, Iff):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif t in (Exists, Forall):
        yield from subformulas(f.body)


# ---------------------------------------------------------------------------
# partitioned formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionedFormula:
    """A formula with a designated object block x and parameter block y.

    Either block may be empty: parameter-free formulas (s = 0) are what make
    type comparisons over the empty parameter set informative. Operations that
    need both blocks check for themselves.
    """

    ast: Formula
    object_vars: tuple[str, ...]
    param_vars: tuple[str, ...]

    def __post_init__(self):
        # tuples keep the formula hashable when built from lists
        object.__setattr__(self, "object_vars", tuple(self.object_vars))
        object.__setattr__(self, "param_vars", tuple(self.param_vars))
        ov, pv = set(self.object_vars), set(self.param_vars)
        if len(ov) != len(self.object_vars) or len(pv) != len(self.param_vars):
            raise FmlabError("repeated variable in a block")
        if ov & pv:
            raise FmlabError("object and parameter blocks must be disjoint")
        extra = free_vars(self.ast) - ov - pv
        if extra:
            raise FmlabError(f"undeclared free variables: {sorted(extra)}")
        # the hash walks the whole AST, and types hash their formulas per
        # entry; kept as a plain attribute, so fields, repr and equality
        # stay those of the dataclass
        object.__setattr__(self, "_hash",
                           hash((self.ast, self.object_vars, self.param_vars)))

    def __hash__(self):
        return self._hash

    @property
    def r(self) -> int:
        return len(self.object_vars)

    @property
    def s(self) -> int:
        return len(self.param_vars)

    @property
    def t(self) -> int:
        return max(self.r, self.s)

    def negated(self) -> "PartitionedFormula":
        if type(self.ast) is Not:
            return PartitionedFormula(self.ast.sub, self.object_vars, self.param_vars)
        return PartitionedFormula(Not(self.ast), self.object_vars, self.param_vars)

    def swapped(self) -> "PartitionedFormula":
        """The block swap psi(y;x) = phi(x;y)."""
        return PartitionedFormula(self.ast, self.param_vars, self.object_vars)

    def text(self, name: str = "phi") -> str:
        head = f"{name}({','.join(self.object_vars)}; {','.join(self.param_vars)})"
        return f"{head} := {formula_text(self.ast)}"

    def sort_key(self) -> tuple:
        return (self.r, self.s, formula_text(self.ast),
                self.object_vars, self.param_vars)

    def holds(self, M: Structure, obj: tuple[int, ...], par: tuple[int, ...] = (),
              domain: Optional[frozenset[int]] = None) -> bool:
        """Instance satisfaction M |= phi[obj; par]."""
        if len(obj) != self.r or len(par) != self.s:
            raise EvaluationError(
                f"arity mismatch: expected blocks {self.r}/{self.s}, "
                f"got {len(obj)}/{len(par)}")
        env = dict(zip(self.object_vars, obj))
        env.update(zip(self.param_vars, par))
        return evaluate(M, self, env, domain=domain)


def atom_formula(rel: str, object_vars: Sequence[str], param_vars: Sequence[str]) -> PartitionedFormula:
    """Convenience builder for an atomic partitioned formula R(x...,y...)."""
    return PartitionedFormula(Atom(rel, tuple(object_vars) + tuple(param_vars)),
                              tuple(object_vars), tuple(param_vars))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(M: Structure, phi: Union[PartitionedFormula, Formula],
             assignment: Mapping[str, int],
             domain: Optional[Iterable[int]] = None) -> bool:
    """Tarskian satisfaction by structural recursion.

    `assignment` must cover all free variables. Quantifiers range over the full
    universe, or over `domain` when evaluating inside an induced substructure.
    """
    ast = phi.ast if isinstance(phi, PartitionedFormula) else phi
    dom: Sequence[int]
    if domain is None:
        dom = range(M.universe_size)
    else:
        dom = sorted(domain)
    sig = M.signature

    def ev(node: Formula, env: dict[str, int]) -> bool:
        t = type(node)
        if t is Atom:
            args = []
            for v in node.args:
                if v not in env:
                    raise EvaluationError(f"unbound variable: {v}")
                val = env[v]
                if not (0 <= val < M.universe_size):
                    raise EvaluationError(f"element out of range: {val}")
                args.append(val)
            if sig.arity(node.rel) != len(args):
                raise EvaluationError(f"arity mismatch in atom {node.rel}")
            return M.holds_atom(node.rel, tuple(args))
        if t is Not:
            return not ev(node.sub, env)
        if t is And:
            return ev(node.left, env) and ev(node.right, env)
        if t is Or:
            return ev(node.left, env) or ev(node.right, env)
        if t is Implies:
            return (not ev(node.left, env)) or ev(node.right, env)
        if t is Iff:
            return ev(node.left, env) == ev(node.right, env)
        if t is Exists or t is Forall:
            # the quantifier's own value short-circuits: Exists on a true body,
            # Forall on a false one; the outer binding of var comes back after
            var, stop = node.var, t is Exists
            outer = env.get(var)
            result = not stop
            for e in dom:
                env[var] = e
                if ev(node.body, env) == stop:
                    result = stop
                    break
            if outer is None:
                env.pop(var, None)
            else:
                env[var] = outer
            return result
        raise EvaluationError(f"ill-formed formula node: {node!r}")

    return ev(ast, dict(assignment))


def _compile(M: Structure, phi: PartitionedFormula,
             domain: Optional[Iterable[int]]):
    """phi as one function run(obj, par) that answers what
    `phi.holds(M, obj, par, domain=domain)` answers, value or error.

    The formula is walked once. Each free variable and each quantifier gets
    its own slot of a list environment, so a re-bound variable shadows the
    outer one. Atom arities and relation lookups are settled here; at call
    time only values are checked: the block lengths, then each atom argument
    against the universe, in `evaluate`'s left-to-right short-circuit order.
    """
    n = M.universe_size
    dom = range(n) if domain is None else sorted(domain)
    sig, bitrows, relations = M.signature, M._bitrows, M.relations
    arities = dict(sig.relations)
    r, s = phi.r, phi.s
    width = r + s

    def out_of_range(val):
        return EvaluationError(f"element out of range: {val}")

    def atom(node, slots):
        rel, names = node.rel, node.args
        idx = [slots.get(v) for v in names]
        if None in idx or arities.get(rel) != len(names):
            # replays evaluate's checks in its order, so the same error wins
            def bad(env):
                for v, i in zip(names, idx):
                    if i is None:
                        raise EvaluationError(f"unbound variable: {v}")
                    if not 0 <= env[i] < n:
                        raise out_of_range(env[i])
                if sig.arity(rel) != len(names):
                    raise EvaluationError(f"arity mismatch in atom {rel}")
            return bad
        rows = bitrows.get(rel)
        if rows is not None:
            i, j = idx

            def binary(env):
                a, b = env[i], env[j]
                if not 0 <= a < n:
                    raise out_of_range(a)
                if not 0 <= b < n:
                    raise out_of_range(b)
                return rows[a] >> b & 1 == 1
            return binary
        tuples = relations[rel]

        def other(env):
            args = tuple([env[i] for i in idx])
            for a in args:
                if not 0 <= a < n:
                    raise out_of_range(a)
            return args in tuples
        return other

    def comp(node, slots):
        nonlocal width
        t = type(node)
        if t is Atom:
            return atom(node, slots)
        if t is Not:
            sub = comp(node.sub, slots)
            return lambda env: not sub(env)
        if t in (And, Or, Implies, Iff):
            left, right = comp(node.left, slots), comp(node.right, slots)
            if t is And:
                return lambda env: left(env) and right(env)
            if t is Or:
                return lambda env: left(env) or right(env)
            if t is Implies:
                return lambda env: not left(env) or right(env)
            return lambda env: left(env) == right(env)
        if t is Exists or t is Forall:
            slot, width = width, width + 1
            body = comp(node.body, {**slots, node.var: slot})
            if t is Exists:
                def exists(env):
                    for e in dom:
                        env[slot] = e
                        if body(env):
                            return True
                    return False
                return exists

            def forall(env):
                for e in dom:
                    env[slot] = e
                    if not body(env):
                        return False
                return True
            return forall

        def ill_formed(env):
            raise EvaluationError(f"ill-formed formula node: {node!r}")
        return ill_formed

    free = {v: i for i, v in enumerate(phi.object_vars + phi.param_vars)}
    top = comp(phi.ast, free)
    pad = [0] * (width - r - s)

    def run(obj, par):
        if len(obj) != r or len(par) != s:
            raise EvaluationError(
                f"arity mismatch: expected blocks {r}/{s}, "
                f"got {len(obj)}/{len(par)}")
        return top([*obj, *par, *pad])
    return run


class SatTable:
    """Satisfaction of one partitioned formula in one structure: whether
    M |= phi[obj; par], with quantifiers over `domain` (the whole universe
    when None).

    The formula is compiled once, when the table is built, into closures
    over a slot-indexed environment (`_compile`); `holds` is that compiled
    function itself, so every cell runs those closures, never `evaluate`,
    and no cell is kept. A search that reads a cell more than once keeps
    its own memo (`find_n_order` wraps `holds` in `functools.cache`).

    Search-side only: the witness searches, the extraction keys, type
    counting (`count_phi_types`) and the classification layer read
    satisfaction through it. The witness checkers, `check_indiscernible`
    and `tp` evaluate formulas with `evaluate` and never touch it or the
    compiler, so a fault here cannot hide from them. The two exceptions
    are `verify_independence_bound` and `verify_order_bound`, whose left
    side is `count_phi_types`; a seeded differential test against the
    reference `realized_types`, and the bench's brute-force recount of
    every count, guard them instead.
    """

    __slots__ = ("holds",)

    def __init__(self, M: Structure, phi: PartitionedFormula,
                 domain: Optional[Iterable[int]] = None):
        # holds(obj, par): M |= phi[obj; par]
        self.holds = _compile(M, phi, domain)

    def rows(self, objs: Sequence[tuple[int, ...]],
             pars: Sequence[tuple[int, ...]]) -> list[int]:
        """Bitmask rows: bit j of row i is set iff phi[objs[i]; pars[j]] holds."""
        run = self.holds
        out = []
        for a in objs:
            v = 0
            for j, b in enumerate(pars):
                if run(a, b):
                    v |= 1 << j
            out.append(v)
        return out


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiType:
    """A signed local type: entries (formula, parameter tuple, sign).

    Canonical equality is syntactic set equality; entries are kept in a
    frozenset and sorted only for display.
    """

    entries: frozenset[tuple[PartitionedFormula, tuple[int, ...], bool]]
    object_arity: int

    def __post_init__(self):
        seen = set()
        for f, b, _ in self.entries:
            if (f, b) in seen:
                raise FmlabError("type contains an instance with both signs")
            seen.add((f, b))

    def domain(self) -> frozenset[tuple[int, ...]]:
        """dom(p): the parameter tuples mentioned by the type."""
        return frozenset(b for _, b, _ in self.entries)

    def sign(self, f: PartitionedFormula, b: tuple[int, ...]) -> Optional[bool]:
        for g, c, s in self.entries:
            if g == f and c == b:
                return s
        return None

    def restrict(self, params: Iterable[tuple[int, ...]]) -> "PhiType":
        """p|A': keep only entries whose parameter tuple lies in the given set."""
        allowed = frozenset(tuple(b) for b in params)
        return PhiType(frozenset((f, b, s) for f, b, s in self.entries if b in allowed),
                       self.object_arity)

    def sorted_entries(self) -> list[tuple[PartitionedFormula, tuple[int, ...], bool]]:
        return sorted(self.entries, key=lambda e: (e[0].sort_key(), e[1], e[2]))

    def is_complete_over(self, delta: Sequence[PartitionedFormula],
                         A: Iterable[tuple[int, ...]]) -> bool:
        """Exactly one entry per applicable (formula, parameter) pair."""
        A = list(A)
        for f in delta:
            if f.r != self.object_arity:
                continue
            pars = [()] if f.s == 0 else [b for b in A if len(b) == f.s]
            for b in pars:
                if self.sign(f, tuple(b)) is None:
                    return False
        return True


def tp(delta: Sequence[PartitionedFormula], a: tuple[int, ...],
       A: Iterable[tuple[int, ...]], M: Structure,
       domain: Optional[frozenset[int]] = None) -> PhiType:
    """The complete signed type of tuple `a` over parameter set `A`.

    Formulas whose object arity differs from len(a) contribute nothing; a
    parameter-free formula contributes one entry via the empty parameter
    tuple, which is what makes types over the empty set informative.
    """
    a = tuple(a)
    A = [tuple(b) for b in A]
    entries = []
    for f in delta:
        if f.r != len(a):
            continue
        if f.s == 0:
            pars = [()]
        else:
            pars = sorted(b for b in A if len(b) == f.s)
        for b in pars:
            entries.append((f, b, f.holds(M, a, b, domain=domain)))
    return PhiType(frozenset(entries), len(a))


def realized_types(delta: Sequence[PartitionedFormula], A: Iterable[tuple[int, ...]],
                   M: Structure, object_arity: int) -> frozenset[PhiType]:
    """S_delta(A, M): the distinct types over A realized by tuples of M.

    Only realized types are collected; there is no closure under consistency.
    """
    if object_arity < 1:
        raise PreconditionError("object arity must be >= 1")
    A = [tuple(b) for b in A]
    out = set()
    for a in M.tuples(object_arity):
        out.add(tp(delta, a, A, M))
    return frozenset(out)


def closed_under_negation(delta: Sequence[PartitionedFormula]) -> list[PartitionedFormula]:
    """Normalize a formula set so each member appears with its negation."""
    out: list[PartitionedFormula] = []
    seen = set()
    for f in delta:
        for g in (f, f.negated()):
            key = (formula_text(g.ast), g.object_vars, g.param_vars)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


# ---------------------------------------------------------------------------
# tuple sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TupleSequence:
    """An ordered list of equal-length tuples."""

    tuples: tuple[tuple[int, ...], ...]
    tuple_arity: int

    def __post_init__(self):
        for t in self.tuples:
            if len(t) != self.tuple_arity:
                raise FmlabError("sequence entries must all have the declared arity")

    @staticmethod
    def of(items: Iterable[Sequence[int]], arity: Optional[int] = None) -> "TupleSequence":
        ts = tuple(tuple(t) for t in items)
        if arity is None:
            if not ts:
                raise FmlabError("cannot infer arity of an empty sequence")
            arity = len(ts[0])
        return TupleSequence(ts, arity)

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __getitem__(self, i):
        return self.tuples[i]

    def concat(self, indices: Sequence[int]) -> tuple[int, ...]:
        """Flatten the selected entries into one tuple, in the given order."""
        out: list[int] = []
        for i in indices:
            out.extend(self.tuples[i])
        return tuple(out)
