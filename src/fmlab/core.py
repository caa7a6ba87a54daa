"""Finite relational structures, first-order formulas, evaluation, and local types.

Everything downstream (witness searches, indiscernibility, averages) reduces to
the three primitives here: Tarskian evaluation, signed local types, and the set
of types realized by tuples of a structure.
"""

from __future__ import annotations

import functools
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
            if name not in frozen:
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
        """Whether args is in relation name. A bad atom raises what
        `evaluate` raises, in its order: an argument outside the universe,
        then an unknown relation or the wrong number of arguments."""
        n = self.universe_size
        rows = self._bitrows.get(name)
        if rows is not None and len(args) == 2:
            a, b = args
            if 0 <= a < n and 0 <= b < n:
                return rows[a] >> b & 1 == 1
        for v in args:
            if not 0 <= v < n:
                raise EvaluationError(f"element out of range: {v}")
        if self.signature.arity(name) != len(args):
            raise EvaluationError(f"arity mismatch in atom {name}")
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


class SatTable:
    """Satisfaction of one partitioned formula in one structure: whether
    M |= phi[obj; par], quantifiers over the whole universe, read through
    the one formula compiler `_compile`, never through `evaluate`. To decide
    inside a submodel, build the table on the induced, relabelled structure
    that `classify._induced` looks up by shape.

    `holds` is the compiled scalar cell function; it keeps no cell, so a
    search that re-reads cells keeps its own memo (`find_n_order` for
    r = s > 1, as on rho, or a formula that does not compile to rows). `rows`
    computes each row bit-parallel in vector mode, one formula pass per
    (object, parameter head), or takes the mask itself when the parameters
    are the whole universe in order; scalar cells run instead, with their
    values and first error, when s = 0, a block has the wrong length, a
    value lies outside the universe or the formula does not compile to
    rows. Whole rows are memoised by value in `_sat_rows` (64 entries), so
    a hit compiles nothing; an error is never stored, and each caller gets
    a fresh list. `columns` transposes those rows when they come from the
    vector compile, memoised in `_sat_columns`, so the searches of one
    query compile, and bind, one table.

    Search-side only: the witness checkers, `check_indiscernible` and `tp`
    stay on `evaluate`, so a fault here cannot hide from them. The exceptions,
    `verify_independence_bound` and `verify_order_bound`, count types with
    `count_phi_types` (the first reads a memoised verdict); a seeded test
    against `realized_types`, and the bench's recount, guard them.
    """

    __slots__ = ("_key",)

    def __init__(self, M: Structure, phi: PartitionedFormula):
        self._key = (M, phi)

    @property
    def holds(self):
        """holds(obj, par): M |= phi[obj; par]."""
        return _compile(*self._key, None)

    def rows(self, objs: Sequence[tuple[int, ...]],
             pars: Sequence[tuple[int, ...]]) -> list[int]:
        """Bitmask rows: bit j of row i is set iff phi[objs[i]; pars[j]] holds."""
        return list(_sat_rows(*self._key, tuple(objs), tuple(pars)))

    def columns(self, objs: Sequence[tuple[int, ...]],
                pars: Sequence[tuple[int, ...]]) -> list[int]:
        """Bitmask columns: bit i of column j is set iff phi[objs[i]; pars[j]]."""
        return list(_sat_columns(*self._key, tuple(objs), tuple(pars)))


def _compile(M: Structure, phi: PartitionedFormula, vector: Optional[int]):
    """`_compile_shape`'s closures bound to M: run, or row (None if deferred)."""
    bind = _compile_shape(M.signature, M.universe_size, phi, vector)
    return bind and bind(M)


@functools.lru_cache(maxsize=64)
def _compile_shape(sig: Signature, n: int, phi: PartitionedFormula,
                   vector: Optional[int]):
    """phi walked once into closures over a slot-indexed environment, every
    node returning an int mask; quantifiers range over range(n). Returns
    bind(M), for any M of signature sig and size n, which fills the env
    slots after the quantifiers' with what atoms read of M: bit rows,
    tuple sets, diagonal masks, `holds_atom` and a cache of columns.

    Scalar mode (`vector` None, full = 1) binds run(obj, par), which
    answers what `phi.holds(M, obj, par)` answers, value or first error.
    Vector mode (full = 2^n - 1) binds row(a, b), where `vector` indexes
    the vector variable in `object_vars + param_vars`, a + b gives the
    other free variables' values in order, and bit u of the row is set iff
    phi holds with u in the vector's place: the last parameter for
    `_sat_rows`, the candidate's variable for the greedy.

    Both modes share every connective and quantifier, with the same
    short-circuit points: And at 0, Or at full, Implies at 0, Exists at
    full and Forall at 0. So scalar mode keeps `evaluate`'s values and its
    first error. Each free variable and each quantifier has its own slot,
    so a re-bound variable shadows the outer one (a quantifier that re-binds
    the vector variable gives it a scalar slot).

    Only atoms differ between the modes. Scalar atoms check their values
    against the universe in `evaluate`'s order; vector atoms check nothing,
    since their callers pass values inside the universe. An atom that names
    an unbound variable, has the wrong number of arguments or an unknown
    relation, and an ill-formed node, raise `evaluate`'s error at the cell
    that reaches them; in vector mode they make the result None, so the
    caller runs scalar cells.
    """
    r, s = phi.r, phi.s
    scalar = vector is None
    full = 1 if scalar else (1 << n) - 1
    universe = range(n)
    arities = dict(sig.relations)
    width = base = r + s - (not scalar)
    VEC = -1  # the vector's slot: element by element atoms put u there
    deferred = []
    held: dict[tuple, tuple] = {}  # (what, relation) -> (slot, fetch)

    def defer(error):
        deferred.append(error)  # it waits for a cell to reach it; rows give up
        return error

    def data(what, rel, fetch):
        # one slot per (what, relation), counted from the end before the
        # vector's, which bind fills with fetch(M)
        return held.setdefault((what, rel), (-len(held) - 1 - (not scalar), fetch))[0]

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
                        raise EvaluationError(f"element out of range: {env[i]}")
                if sig.arity(rel) != len(names):
                    raise EvaluationError(f"arity mismatch in atom {rel}")
            return defer(bad)
        if all(i == VEC for i in idx):
            D = data("diagonal", rel, lambda M: sum(
                1 << u for u in universe if (u,) * len(idx) in M.relations[rel]))
            return lambda env: env[D]
        binary = len(idx) == 2  # a binary relation has bit rows
        if binary:
            i, j = idx
            R = data("rows", rel, lambda M: M._bitrows[rel])
        elif not scalar:
            T = data("tuples", rel, lambda M: M.relations[rel])
        if scalar:
            # values checked in evaluate's order; the answer is the one bit
            if binary:
                def binary_atom(env):
                    a, b = env[i], env[j]
                    if 0 <= a < n and 0 <= b < n:
                        return env[R][a] >> b & 1
                    raise EvaluationError(f"element out of range: {b if 0 <= a < n else a}")
                return binary_atom
            H = data("holds", None, lambda M: M.holds_atom)
            return lambda env: env[H](rel, tuple([env[i] for i in idx]))
        if VEC not in idx:
            if binary:
                return lambda env: full if env[R][env[i]] >> env[j] & 1 else 0
            return lambda env: full if tuple([env[i] for i in idx]) in env[T] else 0
        if binary:
            if j == VEC:
                return lambda env: env[R][env[i]]
            C = data("columns", rel, lambda M: {})  # each built on first use

            def column(env):
                b, cols = env[j], env[C]
                col = cols.get(b)
                if col is None:
                    col = cols[b] = sum([1 << a for a in universe if env[R][a] >> b & 1])
                return col
            return column

        def other(env):
            mask, tuples = 0, env[T]
            for u in universe:
                env[VEC] = u
                if tuple([env[i] for i in idx]) in tuples:
                    mask |= 1 << u
            return mask
        return other

    def comp(node, slots):
        nonlocal width
        t = type(node)
        if t is Atom:
            return atom(node, slots)
        if t is Not:
            sub = comp(node.sub, slots)
            return lambda env: full ^ sub(env)
        if t in (And, Or, Implies, Iff):
            left, right = comp(node.left, slots), comp(node.right, slots)
            if t is And:
                def conj(env):
                    a = left(env)
                    return a & right(env) if a else 0
                return conj
            if t is Or:
                def disj(env):
                    a = left(env)
                    return a if a == full else a | right(env)
                return disj
            if t is Implies:
                def implies(env):
                    a = left(env)
                    return full if a == 0 else (full ^ a) | right(env)
                return implies
            return lambda env: full ^ left(env) ^ right(env)
        if t is Exists or t is Forall:
            slot, width = width, width + 1
            body = comp(node.body, {**slots, node.var: slot})
            if t is Exists:
                def exists(env):
                    mask = 0
                    for e in universe:
                        env[slot] = e
                        mask |= body(env)
                        if mask == full:
                            break
                    return mask
                return exists

            def forall(env):
                mask = full
                for e in universe:
                    env[slot] = e
                    mask &= body(env)
                    if not mask:
                        break
                return mask
            return forall

        def ill_formed(env):
            raise EvaluationError(f"ill-formed formula node: {node!r}")
        return defer(ill_formed)

    names = phi.object_vars + phi.param_vars
    free = {v: i for i, v in enumerate(names if scalar else
                                       names[:vector] + names[vector + 1:])}
    if not scalar:
        free[names[vector]] = VEC
    top = comp(phi.ast, free)
    if deferred and not scalar:
        return None

    def bind(M):
        # quantifier slots, data slots, then the vector's
        tail = [0] * (width - base) + [fetch(M) for _, fetch in reversed(held.values())]
        tail += [0] * (not scalar)
        if not scalar:
            return lambda a, b: top([*a, *b, *tail])

        def run(obj, par):
            if len(obj) != r or len(par) != s:
                raise EvaluationError(
                    f"arity mismatch: expected blocks {r}/{s}, "
                    f"got {len(obj)}/{len(par)}")
            return top([*obj, *par, *tail]) == 1
        return run
    return bind


def _row_shape(M: Structure, phi: PartitionedFormula, objs, pars):
    """The shape test of `_sat_rows`: the vector-mode bind(M) it calls on a miss
    for the table of objs x pars, or a false value for scalar cells. Binds nothing."""
    return (phi.s and {len(a) for a in objs} <= {phi.r} and {len(b) for b in pars} <= {phi.s}
            and set(itertools.chain(*objs, *pars)).issubset(range(M.universe_size))
            and _compile_shape(M.signature, M.universe_size, phi, phi.r + phi.s - 1))


@functools.lru_cache(maxsize=64)
def _sat_rows(M: Structure, phi: PartitionedFormula,
              objs: tuple, pars: tuple) -> tuple[int, ...]:
    bind = _row_shape(M, phi, objs, pars)
    if not bind:
        run = _compile(M, phi, None)
        return tuple([sum([1 << j for j, b in enumerate(pars) if run(a, b)])
                      for a in objs])
    row = bind(M)
    if pars == tuple(zip(range(M.universe_size))):
        # every search over the whole universe: the row is the mask itself
        return tuple([row(a, ()) for a in objs])
    # otherwise one pass per (object, head), and bit u of the mask is cell j
    groups: dict[tuple, list] = {}
    for j, b in enumerate(pars):
        groups.setdefault(b[:-1], []).append((j, b[-1]))
    out = []
    for a in objs:
        masks = [(row(a, head), cells) for head, cells in groups.items()]
        out.append(sum([(mask >> u & 1) << j for mask, cells in masks for j, u in cells]))
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _sat_columns(M: Structure, phi: PartitionedFormula,
                 objs: tuple, pars: tuple) -> tuple[int, ...]:
    # phi's memoised rows, transposed, when they come from the vector
    # compile, where no cell can raise; otherwise phi.swapped()'s rows, whose
    # scalar cells run column by column and so keep that order's first error
    if not _row_shape(M, phi, objs, pars):
        return _sat_rows(M, phi.swapped(), pars, objs)
    cols = [0] * len(pars)
    for i, row in enumerate(_sat_rows(M, phi, objs, pars)):
        bit = 1 << i
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


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
       A: Iterable[tuple[int, ...]], M: Structure) -> PhiType:
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
            entries.append((f, b, f.holds(M, a, b)))
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
    return list(dict.fromkeys(g for f in delta for g in (f, f.negated())))


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
