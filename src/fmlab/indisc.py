"""Indiscernible-sequence predicates, greedy extraction of end-indiscernible and
fully indiscernible subsequences, and the exact length-bound calculators that
say how long an input must be for extraction to be guaranteed.

The extraction returns are always re-verified against `check_indiscernible`,
which compares types directly and shares no code with the greedy search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, getitem
from typing import Callable, Iterable, Optional, Sequence, Union

from .core import (PartitionedFormula, SatTable, Structure, TupleSequence,
                   _compile, tp)
from .util import SIZE_GUARD_BITS, PreconditionError, TooLargeError

# ---------------------------------------------------------------------------
# indiscernibility checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndiscernibilityCertificate:
    sequence: TupleSequence
    mode: str
    delta: tuple[PartitionedFormula, ...]
    m: int
    A: tuple[tuple[int, ...], ...]
    verified: bool
    counterexample: Optional[tuple[tuple[int, ...], tuple[int, ...]]]

    def to_report(self):
        return {"mode": self.mode, "m": self.m, "verified": self.verified,
                "length": len(self.sequence),
                "counterexample": None if self.counterexample is None
                else [list(self.counterexample[0]), list(self.counterexample[1])]}


class TypeOracle:
    """Memoized signed-type keys of concatenated tuples over a fixed (delta, A).

    Type equality is the hottest operation in extraction and in the searches
    built on it; the oracle computes each concatenation's type once.
    """

    def __init__(self, M: Structure, delta: Sequence[PartitionedFormula],
                 A: Iterable[tuple[int, ...]]):
        self.M = M
        self.delta = tuple(delta)
        self.A = sorted(tuple(b) for b in A)
        self._cache: dict[tuple[int, ...], object] = {}

    def key(self, concat: tuple[int, ...]):
        got = self._cache.get(concat)
        if got is None:
            got = tp(self.delta, concat, self.A, self.M)
            self._cache[concat] = got
        return got

    def first_split(self, seq: Sequence[tuple[int, ...]],
                    sels: Iterable[tuple[int, ...]]
                    ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """(first, sel): the first selection in `sels` and the earliest one
        whose concatenation over `seq` has a different type; None when all
        types agree."""
        first = ref = None
        for sel in sels:
            ty = self.key(tuple(x for i in sel for x in seq[i]))
            if ref is None:
                first, ref = sel, ty
            elif ty != ref:
                return first, sel
        return None


def check_indiscernible(I, delta: Sequence[PartitionedFormula], m: int,
                        A: Iterable[tuple[int, ...]], M: Structure,
                        mode: str = "sequence") -> IndiscernibilityCertificate:
    """Decide whether I is (delta, m)-indiscernible over A.

    mode "sequence" compares increasing m-selections, "set" compares all
    injective m-selections in every order, "end" compares two tails after a
    common increasing (m-1)-prefix. The first counterexample in lexicographic
    order over selection pairs is reported.
    """
    seq = I if isinstance(I, TupleSequence) else TupleSequence.of(I)
    if mode not in ("sequence", "set", "end"):
        raise PreconditionError(f"unknown mode {mode!r}")
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if len(seq) < m:
        raise PreconditionError(f"sequence of length {len(seq)} cannot host m={m} selections")
    A = sorted(tuple(b) for b in A)
    oracle = TypeOracle(M, delta, A)
    n = len(seq)
    if mode == "sequence":
        split = oracle.first_split(seq.tuples, itertools.combinations(range(n), m))
    elif mode == "set":
        split = oracle.first_split(seq.tuples, itertools.permutations(range(n), m))
    else:
        split = None
        for prefix in itertools.combinations(range(n), m - 1):
            lo = (prefix[-1] + 1) if prefix else 0
            split = oracle.first_split(seq.tuples, (prefix + (j,) for j in range(lo, n)))
            if split is not None:
                break
    return IndiscernibilityCertificate(seq, mode, tuple(delta), m, tuple(A),
                                       split is None, split)


# ---------------------------------------------------------------------------
# growth functions and the length-bound calculators
# ---------------------------------------------------------------------------


def _power(base: int, exp: int) -> int:
    """base ** exp, refused before it is built when it has more bits than the
    size guard allows."""
    if base > 1 and min(exp, SIZE_GUARD_BITS) * math.log2(base) >= SIZE_GUARD_BITS:
        raise TooLargeError("exact power exceeds the size guard")
    return base ** exp


def bound_step(v: int, factor: int, what: str) -> int:
    """1 + v * factor, refused when it has more bits than the size guard
    allows; the product is not built when its operands alone settle that."""
    if v.bit_length() + factor.bit_length() - 1 <= SIZE_GUARD_BITS:
        v = 1 + v * factor
        if v.bit_length() <= SIZE_GUARD_BITS:
            return v
    raise TooLargeError(f"{what} exceeds the size guard")


def _natural_parameter(value: int) -> None:
    # a negative exponent or constant makes no type count
    if value < 0:
        raise PreconditionError(f"growth parameter must be >= 0, got {value}")


@dataclass(frozen=True)
class WorstCaseGrowth:
    """F(i) = 2^(i^m): no assumption on how many types a parameter set allows."""
    m: int

    def __post_init__(self):
        _natural_parameter(self.m)

    def value(self, i: int) -> int:
        return _power(2, _power(i, self.m))


@dataclass(frozen=True)
class PolynomialGrowth:
    """F(i) = i^p: the polynomial-type-count regime."""
    p: int

    def __post_init__(self):
        _natural_parameter(self.p)

    def value(self, i: int) -> int:
        return _power(i, self.p)


@dataclass(frozen=True)
class HypergraphWorstGrowth:
    """F(i) = 2^C(i, r-1): vertex types over i points of an r-uniform edge relation."""
    r: int

    def value(self, i: int) -> int:
        return _power(2, math.comb(i, self.r - 1))


@dataclass(frozen=True)
class HypergraphBoundedGrowth:
    """F(i) = 1 below r, else i^((r-1)(n-1)): the no-n-independence regime."""
    r: int
    n: int

    def value(self, i: int) -> int:
        if i < self.r:
            return 1
        return _power(i, (self.r - 1) * (self.n - 1))


@dataclass(frozen=True)
class ConstantGrowth:
    """F(i) = c: totally homogeneous relations."""
    c: int

    def __post_init__(self):
        _natural_parameter(self.c)

    def value(self, i: int) -> int:
        return self.c


GrowthFunction = Union[WorstCaseGrowth, PolynomialGrowth, HypergraphWorstGrowth,
                       HypergraphBoundedGrowth, ConstantGrowth]


@dataclass(frozen=True)
class BoundParams:
    """Parameters of the extraction length bounds: growth function F, parameter
    set size alpha, tuple arity r, selection width m, and target length k."""

    F: GrowthFunction
    alpha: int
    r: int
    m: int
    k: int

    def __post_init__(self):
        if min(self.alpha, self.r, self.m, self.k) < 0:
            raise PreconditionError("bound parameters must be naturals")


# the most stages a length-bound calculator evaluates one at a time
_EVAL_GUARD = 2_000_000


def _staged(factor: Callable[[int], int], stages: int, constant: bool,
            what: str) -> int:
    """v = 1 + v * factor(s) for s = 0 .. stages-1 in order, from v = 1.

    v is at least the product of the factors since the last zero one, so
    their summed `bit_length() - 1` refuses a value past the size guard
    before any product is built. A `constant` factor d is summed in closed
    form, 1 + d + ... + d^stages, by doubling the number of terms, so it
    takes products but no long division; otherwise the stages run through
    `bound_step`. A factor that `_power` refuses is raised after the stages
    before it, so the first refusal is the one a plain loop meets.
    """
    if constant and stages:
        d = factor(0)
        if stages * (d.bit_length() - 1) >= SIZE_GUARD_BITS:
            raise TooLargeError(f"{what} exceeds the size guard")
        v, p = 0, 1  # 1 + d + ... + d^(t-1) and d^t, t taking the top bits of stages
        for bit in bin(stages)[2:]:
            v, p = v * (1 + p), p * p
            if bit == "1":
                v, p = 1 + d * v, p * d
        return bound_step(v, d, what)
    factors, bits, late = [], 0, None
    for s in range(stages):
        try:
            d = factor(s)
        except TooLargeError as e:
            late = e
            break
        bits = bits + d.bit_length() - 1 if d else 0
        if bits >= SIZE_GUARD_BITS:
            raise TooLargeError(f"{what} exceeds the size guard")
        factors.append(d)
    v = 1
    for d in factors:
        v = bound_step(v, d, what)
    if late is not None:
        raise late
    return v


def f_star(params: BoundParams, j: int) -> int:
    """The staged recursion F*(0)=1, F*(j+1) = 1 + F*(j) * F(alpha + m*r*j) while
    j < k-2-m, switching to F*(j+1) = 1 + F*(j) on the final m stages.

    Exact integers throughout; j must satisfy 0 <= j <= k-2. TooLargeError
    when a value passes the size guard, or when more than `_EVAL_GUARD`
    multiplicative stages would be evaluated; the multiplicative stages go
    through `_staged` and the final additive stages are added in one step.
    """
    k, m = params.k, params.m
    if not (0 <= j <= k - 2):
        raise PreconditionError(f"j must satisfy 0 <= j <= k-2 = {k - 2}")
    stages = min(j, max(k - 2 - m, 0))
    if stages > _EVAL_GUARD:
        raise TooLargeError("F* has too many stages to evaluate")
    F, step = params.F, m * params.r
    v = _staged(lambda jj: F.value(params.alpha + step * jj), stages,
                isinstance(F, ConstantGrowth) or step == 0, "F*")
    return v + (j - stages)


def _end_need(F: GrowthFunction, alpha: int, r: int, m: int, K: int,
              offset: int = 0) -> int:
    """Input length guaranteeing the greedy end-extraction reaches length K.

    Backward pigeonhole bookkeeping over the refinement steps j = K-2 down
    to m-1, where at step j the candidate pool splits into at most
    F(alpha + offset + m*r*j) classes; `offset` accounts for elements already
    frozen into the formula by outer recursion levels. Exact integers through
    `_staged`; growth is doubly exponential in general.
    """
    if K <= m:
        return max(K, 0)
    if K - 2 > _EVAL_GUARD:
        raise TooLargeError("length bound has too many stages to evaluate")
    step = m * r
    req = _staged(lambda s: max(F.value(alpha + offset + step * (K - 2 - s)), 1),
                  K - m, isinstance(F, ConstantGrowth) or step == 0, "length bound")
    return (m - 1) + req


def g_func(params: BoundParams, i: int, x: int) -> int:
    """Sufficient raw input length for extracting an (phi, i)-indiscernible
    subsequence of length x+1; g_0 is the identity.

    Level l >= 2 peels one element, extracts end-indiscernibles for the
    suffix-fixed formula, and recurses one level down at target x-1, so the
    bound composes the end-extraction need with the next level's bound. The
    class-count argument at level l is widened by the i*r*(i-l) elements
    already frozen into the formula above it. The levels are composed in a
    loop from the deepest one the recursion reaches (level 1, or target 0
    with bound 1) up to level i.
    """
    if x < 0:
        raise PreconditionError("bound underflow")
    if i < 0:
        raise PreconditionError("level must be a natural")
    if i == 0:
        return x
    F, alpha, r = params.F, params.alpha, params.r
    d = min(i - 1, x)  # levels below i, each at a target one less
    v = 1 if d == x else _end_need(F, alpha, r, 1, x - d + 1, i * r * (i - 1))
    for level in range(i - d + 1, i + 1):
        if v > _EVAL_GUARD:
            raise TooLargeError("length bound too large to compose")
        v = _end_need(F, alpha, r, level, v + 1, i * r * (i - level))
    return v


def beth(i: int, x: int) -> int:
    """Iterated exponential: beth(0, x) = x, beth(i, x) = 2^beth(i-1, x)."""
    if i < 0 or x < 0:
        raise PreconditionError("beth arguments must be naturals")
    v = x
    for _ in range(i):
        v = _power(2, v)
    return v


def ceil_log2(x: int) -> int:
    if x < 1:
        raise PreconditionError("ceil_log2 needs a positive integer")
    return (x - 1).bit_length()


def extraction_length_estimates(case: int, m: int, k: int,
                                p_or_n: Optional[int] = None,
                                s: Optional[int] = None,
                                t: Optional[int] = None) -> dict:
    """Closed-form estimates for how long an input must be before an
    m-indiscernible subsequence of length k is guaranteed.

    case 1: worst-case growth; the m-fold log of the bound is at most 4k.
    case 2: polynomial growth i^p; m-fold log at most 2mk + log2 k + log2 p.
    case 3: no k'-independence with parameter n; bound beth(m, 2k + log2 k
            + log2 n + log2 m).
    case 4: no n-order pattern; bound beth(m, 2k + log2 k + (3ns)^(t+1)).
    Logs are ceilings of bit length so the estimates stay upper bounds.
    """
    if m < 1 or k < 1:
        raise PreconditionError("m and k must be positive")
    if case == 1:
        return {"case": 1, "log_level": m, "bound": 4 * k}
    if case == 2:
        if p_or_n is None or p_or_n < 1:
            raise PreconditionError("case 2 needs the polynomial degree p >= 1")
        return {"case": 2, "log_level": m,
                "bound": 2 * m * k + ceil_log2(k) + ceil_log2(p_or_n)}
    if case == 3:
        if p_or_n is None or p_or_n < 1:
            raise PreconditionError("case 3 needs the independence parameter n >= 1")
        inner = 2 * k + ceil_log2(k) + ceil_log2(p_or_n) + ceil_log2(m)
        return {"case": 3, "inner": inner, "bound": beth(m, inner)}
    if case == 4:
        if p_or_n is None or s is None or t is None or p_or_n < 1 or s < 0 or t < 0:
            raise PreconditionError("case 4 needs n >= 1, s >= 0 and t >= 0")
        inner = 2 * k + ceil_log2(k) + _power(3 * p_or_n * s, t + 1)
        return {"case": 4, "inner": inner, "bound": beth(m, inner)}
    raise PreconditionError(f"unknown case {case}")


# ---------------------------------------------------------------------------
# greedy extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtractionTrace:
    """Chosen positions plus, per refinement step, (step index, class count,
    size of the class kept). Kept-class sizes strictly decrease."""

    chosen: tuple[int, ...]
    steps: tuple[tuple[int, int, int], ...]

    def to_report(self):
        return {"chosen": list(self.chosen),
                "steps": [{"j": j, "classes": c, "kept": s} for j, c, s in self.steps]}


@dataclass(frozen=True)
class ExtractionFailure:
    level: int
    reason: str


def greedy_end_extraction(length: int, m: int,
                          key_of: Callable[[list[tuple[int, ...]], int], Iterable[int]],
                          target: Optional[int] = None
                          ) -> tuple[list[int], ExtractionTrace]:
    """Largest-class greedy over positions 0..length-1, a set at a time.

    The first m-1 positions are kept as the prefix; from step m-1 on, the
    candidate pool is split by the candidates' values on every increasing
    (m-1)-selection of the chosen positions, the largest class survives (ties
    to the class holding the smallest position), and its least position is
    chosen. Runs until the pool empties or `target` positions are chosen.

    The pool is an int mask over positions. `key_of(sels, pool)` returns one
    int mask over positions per cell, a (selection, parameter) pair, in bit
    order: selections outer, parameters inner. Bit p of a cell is set iff
    candidate p has the cell; bits outside the pool are ignored. A key may
    leave out cells that are empty, as they split nothing. The
    classes are the non-empty blocks of refining the pool by every cell
    (partition refinement, Paige & Tarjan 1987), which are the classes of
    the candidates' tuples of cell values, so the choices and the trace are
    those of a per-candidate key. The trace counts the blocks. A cell that
    is empty or the whole pool once restricted to it splits no block and is
    skipped, and refinement stops once every block is a single candidate;
    `key_of` has returned every cell by then, so neither changes which
    cells are evaluated or the first error raised. A step that ends with
    one block takes that block.

    The surviving pool already agrees on every selection without the newest
    chosen position, so `key_of` is passed only the selections that can
    split it: the prefix itself at the first step, then those ending in the
    newest position (none when m = 1).
    """
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if target is not None and target < 0:
        raise PreconditionError("target must be >= 0")
    upto = length if target is None else min(target, length)
    chosen: list[int] = list(range(min(m - 1, upto)))
    pool = (1 << length) - (1 << min(m - 1, length))
    steps: list[tuple[int, int, int]] = []
    sels = list(itertools.combinations(chosen, m - 1))
    while pool and len(chosen) < (length if target is None else target):
        blocks = [pool]
        singletons = pool.bit_count()
        for cell in key_of(sels, pool):
            cell &= pool
            if not cell or cell == pool:
                continue
            split = []
            for block in blocks:
                part = block & cell
                if part and part != block:
                    split += (part, block ^ part)
                else:
                    split.append(block)
            blocks = split
            if len(blocks) == singletons:
                break
        best = (blocks[0] if len(blocks) == 1 else
                max(blocks, key=lambda b: (b.bit_count(), -(b & -b))))
        steps.append((len(chosen), len(blocks), best.bit_count()))
        new = (best & -best).bit_length() - 1
        # the selections ending in `new`, each head + (new,), made at C level
        sels = (list(map(add, itertools.combinations(chosen, m - 2),
                         itertools.repeat((new,))))
                if m >= 2 else [])
        chosen.append(new)
        pool = best & (best - 1)
    return chosen, ExtractionTrace(tuple(chosen), tuple(steps))


class _ByteTable(dict):
    """Position masks by byte value for eight consecutive universe elements:
    entry v is the sum of the (disjoint) position masks of the elements
    whose bits are set in v. Entries are made on first lookup."""

    __slots__ = ("_at",)

    def __init__(self, at: list[int]):
        super().__init__()
        self._at = at

    def __missing__(self, v: int) -> int:
        at = self._at
        got = self[v] = sum([at[b] for b in range(8) if v >> b & 1])
        return got


def _formula_key(seq: TupleSequence, table: SatTable, pars: list,
                 suffix: tuple[int, ...] = ()):
    """Key function for `greedy_end_extraction`: one mask over pool positions
    per (selection, parameter) cell, bit p set iff phi holds of the
    selection's entries, then candidate p's entry, then `suffix`, with that
    parameter. Each selection's entries are flattened once per call.

    When entries are single elements, and every entry, suffix element and
    parameter lies in the universe, each cell is one row of the compiled
    formula over the candidate's variable (`core._compile` in vector mode),
    a mask over universe elements. It becomes a mask over positions by
    table lookup, a byte at a time (the "Four Russians" method, Arlazarov
    et al. 1970): each element maps to the positions that hold it, repeated
    entries included, and each universe byte from the lowest to the
    highest that holds an entry has a `_ByteTable`. A position holds one
    element, so the bytes' masks are disjoint, and their sum restricted to
    the pool is the cell. Otherwise, or when the formula does not compile
    to rows, scalar cells run candidate by candidate in increasing
    position, selections then parameters, so the first error raised is that
    of the first bad cell. Callers make the blocks fit: phi's object block
    covers a selection, the candidate and `suffix`, and each parameter has
    phi's parameter arity."""
    concat = seq.concat
    entries = seq.tuples
    M, phi = table._key
    at = phi.r - 1 - len(suffix)  # the candidate's variable
    row = None
    if seq.tuple_arity == 1 and set(itertools.chain(*entries, suffix, *pars)
                                    ).issubset(range(M.universe_size)):
        row = _compile(M, phi, at)
    if row is not None:
        tails = [suffix + b for b in pars]  # the free values after the candidate's
        at_elem: dict[int, int] = {}  # element -> the positions holding it
        for p, (e,) in enumerate(entries):
            at_elem[e] = at_elem.get(e, 0) | 1 << p
        low = min(at_elem, default=0) >> 3
        tables = [_ByteTable([at_elem.get(e, 0) for e in range(8 * i, 8 * i + 8)])
                  for i in range(low, (max(at_elem, default=-1) >> 3) + 1)]
        shift, width = 8 * low, ((M.universe_size + 7) >> 3) - low
    everyone = [(1 << p, p) for p in range(len(entries))]  # (bit, position)s

    def rows_key(sels: list[tuple[int, ...]], pool: int) -> list[int]:
        cells = []
        for sel in sels:
            head = concat(sel)
            for tail in tails:
                got = (row(head, tail) >> shift).to_bytes(width, "little")
                cells.append(sum(map(getitem, tables, got)) & pool)
        return cells

    def cells_key(sels: list[tuple[int, ...]], pool: int) -> list[int]:
        holds = table.holds
        cells = [0] * (len(sels) * len(pars))
        objs = [concat(sel) for sel in sels]
        for bit, p in [c for c in everyone if pool & c[0]]:
            tail = entries[p] + suffix
            i = 0
            for head in objs:
                obj = head + tail
                for b in pars:
                    if holds(obj, b):
                        cells[i] |= bit
                    i += 1
        return cells

    return cells_key if row is None else rows_key


def extract_end_indiscernible(I, phi: PartitionedFormula, m: int,
                              A: Iterable[tuple[int, ...]], M: Structure,
                              k: Optional[int] = None
                              ) -> Union[tuple[TupleSequence, ExtractionTrace],
                                         ExtractionFailure]:
    """Greedy extraction of a (phi, m)-end-indiscernible subsequence over A.

    phi's object block must cover m sequence entries (object arity m times the
    tuple arity). With k given (k >= 0), the extraction stops at length k and
    fails if it cannot get there; with k omitted it runs to exhaustion. The
    result is re-verified by check_indiscernible before being returned.
    """
    seq = I if isinstance(I, TupleSequence) else TupleSequence.of(I)
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if k is not None and k < 0:
        raise PreconditionError("k must be >= 0")
    if phi.r != m * seq.tuple_arity:
        raise PreconditionError(
            f"object arity {phi.r} does not cover m={m} entries of arity {seq.tuple_arity}")
    A = sorted(tuple(b) for b in A)
    pars = [()] if phi.s == 0 else [b for b in A if len(b) == phi.s]
    key_of = _formula_key(seq, SatTable(M, phi), pars)
    chosen, trace = greedy_end_extraction(len(seq), m, key_of, target=k)
    if k is not None and len(chosen) < k:
        return ExtractionFailure(m, f"extraction stalled at length {len(chosen)} < {k}")
    out = TupleSequence.of([seq[p] for p in chosen], seq.tuple_arity)
    if len(out) >= m:  # shorter outputs are vacuously end-indiscernible
        cert = check_indiscernible(out, [phi], m, A, M, mode="end")
        if not cert.verified:
            return ExtractionFailure(m, "output failed end-indiscernibility re-verification")
    return out, trace


def extract_indiscernible(I, phi: PartitionedFormula, m: int,
                          A: Iterable[tuple[int, ...]], M: Structure, k: int
                          ) -> Union[TupleSequence, ExtractionFailure]:
    """Extract a (phi, m)-indiscernible subsequence of length >= k.

    Level 1 is end-extraction (end-indiscernible and indiscernible coincide).
    At level m, the end-extraction runs to exhaustion, the last entry c is
    frozen into the formula (an index permutation on concatenated tuples, not
    a formula rewrite), the recursion continues one level down on the rest,
    and c is appended. The final output is re-verified as a full
    indiscernible sequence.
    """
    seq = I if isinstance(I, TupleSequence) else TupleSequence.of(I)
    if m < 1:
        raise PreconditionError("m must be >= 1")
    if k < 1:
        raise PreconditionError("k must be >= 1")
    if phi.r != m * seq.tuple_arity:
        raise PreconditionError(
            f"object arity {phi.r} does not cover m={m} entries of arity {seq.tuple_arity}")
    A = sorted(tuple(b) for b in A)
    arity = seq.tuple_arity

    def level_extract(items: list[tuple[int, ...]], level: int, want: int,
                      suffix: tuple[int, ...]) -> Union[list[tuple[int, ...]],
                                                        ExtractionFailure]:
        pars = [()] if phi.s == 0 else [b for b in A if len(b) == phi.s]
        local = TupleSequence.of(items, arity) if items else None
        if want <= 0:
            return []
        if len(items) < want:
            return ExtractionFailure(level, f"only {len(items)} entries for target {want}")
        key_of = _formula_key(local, SatTable(M, phi), pars, suffix)
        if level == 1:
            chosen, _ = greedy_end_extraction(len(items), 1, key_of, target=want)
            if len(chosen) < want:
                return ExtractionFailure(level, f"stalled at length {len(chosen)} < {want}")
            return [items[p] for p in chosen]
        chosen, _ = greedy_end_extraction(len(items), level, key_of, target=None)
        if not chosen:
            return ExtractionFailure(level, "empty end-extraction")
        picked = [items[p] for p in chosen]
        c = picked[-1]
        rest = level_extract(picked[:-1], level - 1, want - 1, c + suffix)
        if isinstance(rest, ExtractionFailure):
            return rest
        return rest + [c]

    got = level_extract(list(seq), m, k, ())
    if isinstance(got, ExtractionFailure):
        return got
    out = TupleSequence.of(got, arity)
    if len(out) >= m:  # shorter outputs are vacuously indiscernible
        cert = check_indiscernible(out, [phi], m, A, M, mode="sequence")
        if not cert.verified:
            return ExtractionFailure(m, "output failed full-indiscernibility re-verification")
    return out
