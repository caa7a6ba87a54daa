"""Counting realized local types, polynomial bound verification, and the
Sauer-Shelah shattering finder.

Bound right-hand sides are computed in exact integer arithmetic. When a bound
is too large to materialize (the no-order-pattern bound has a doubly
exponential exponent), the comparison is still decided exactly by comparing
exponents; an exponent past the size guard is refused with TooLargeError
before it is built, and nothing ever saturates silently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Iterable, Optional, Union

from .core import PartitionedFormula, SatTable, Structure
from .detect import (build_rho, find_k_independence, find_n_order,
                     first_shattered)
from .indisc import _power
from .util import BudgetExceeded, PreconditionError, TooLargeError, search_budget

# materialize bound values only up to this many bits
_MATERIALIZE_BITS = 1 << 20


@dataclass(frozen=True)
class BoundReport:
    """Result of checking |S_phi(A,M)| against a closed-form bound."""

    lhs: int
    rhs: Optional[int]            # None when too large to materialize
    rhs_factor: int               # bound is rhs_factor * rhs_base ** rhs_exponent
    rhs_base: int
    rhs_exponent: int
    params: dict
    holds: bool
    hypothesis_ok: bool
    note: str = ""


@dataclass(frozen=True)
class ShatterWitness:
    """Points alpha_i and selector sets A_w with i in w iff alpha_i in A_w."""

    alphas: tuple[int, ...]
    selectors: dict[frozenset[int], frozenset[int]]

    def to_report(self):
        from .formats import subset_key
        return {"alphas": list(self.alphas),
                "selectors": {subset_key(w): sorted(s) for w, s in self.selectors.items()}}


def count_phi_types(M: Structure, phi: PartitionedFormula,
                    A: Iterable[tuple[int, ...]]) -> int:
    """|S_phi(A, M)| over object tuples of arity l(x), counted as the
    distinct rows of one compiled `SatTable`.

    A [phi, ~phi]-type over A is fixed by phi's sign at each parameter tuple
    of A of arity l(y) (at the empty tuple when l(y) = 0), so two object
    tuples realize the same type iff their satisfaction rows over those
    parameters are equal. Objects are walked in `M.tuples` order and
    parameters in sorted order, the order `tp` evaluates them in, so a bad
    parameter raises what `realized_types([phi, ~phi], A, M, l(x))` raises.
    """
    A = [tuple(b) for b in A]
    if not A:
        raise PreconditionError("A must be nonempty")
    if phi.r < 1:
        raise PreconditionError("object arity must be >= 1")
    pars = [()] if phi.s == 0 else sorted({b for b in A if len(b) == phi.s})
    return len(set(SatTable(M, phi).rows(list(M.tuples(phi.r)), pars)))


def _leq_power(lhs: int, factor: int, base: int, exponent: int) -> bool:
    """Decide lhs <= factor * base**exponent, that is need <= base**exponent
    with need = ceil(lhs/factor), for base >= 2. base^e >= 2^e passes need
    once e reaches need's bit count, so the power is built only below it."""
    need = -(-lhs // factor)
    return exponent >= need.bit_length() or need <= base ** exponent


def _bound_report(wit, lhs: int, factor: int, base: int, exponent: int,
                  params: dict) -> BoundReport:
    """The report on lhs <= factor * base**exponent, given the hypothesis
    search's result `wit` (None: the hypothesis holds)."""
    note = "" if wit is None else "hypothesis fails"
    if isinstance(wit, BudgetExceeded):
        note = "hypothesis check exhausted its budget"
    rhs: Optional[int] = None
    if exponent * max(base.bit_length(), 1) <= _MATERIALIZE_BITS:
        rhs = factor * base ** exponent
    return BoundReport(lhs=lhs, rhs=rhs, rhs_factor=factor, rhs_base=base,
                       rhs_exponent=exponent, params=params,
                       holds=_leq_power(lhs, factor, base, exponent),
                       hypothesis_ok=wit is None, note=note)


def verify_order_bound(M: Structure, phi: PartitionedFormula,
                       A: Iterable[tuple[int, ...]], n: int) -> BoundReport:
    """Check |S_phi(A,M)| <= 2n * |A|^(2^((3ns)^(t+1))) under the no-order hypothesis.

    The hypothesis is that the comparison formula rho = build_rho(phi) has no
    n-order witness; it is checked by the exhaustive search and a failing
    hypothesis is flagged on the report rather than raised.
    """
    A = sorted(tuple(b) for b in A)
    if len(A) < 2:
        raise PreconditionError("requires |A| >= 2")
    if n < 1:
        raise PreconditionError("n must be >= 1")
    k = no_order_exponent(n, phi.s, phi.t)
    lhs = count_phi_types(M, phi, A)
    wit = find_n_order(M, build_rho(phi), n)
    return _bound_report(wit, lhs, 2 * n, len(A), k,
                         {"n": n, "r": phi.r, "s": phi.s, "t": phi.t, "|A|": len(A)})


def verify_independence_bound(M: Structure, phi: PartitionedFormula,
                              A: Iterable[tuple[int, ...]], k: int) -> BoundReport:
    """Check |S_phi(A,M)| <= |A|^(s(k-1)) under the no-independence hypothesis,
    read from `find_k_independence`'s memoised verdict, so no search re-runs."""
    A = sorted(tuple(b) for b in A)
    if len(A) < 2:
        raise PreconditionError("requires |A| >= 2")
    if k < 1:
        raise PreconditionError("k must be >= 1")
    wit = find_k_independence(M, phi, k)
    lhs = count_phi_types(M, phi, A)
    return _bound_report(wit, lhs, 1, len(A), phi.s * (k - 1),
                         {"k": k, "r": phi.r, "s": phi.s, "t": phi.t, "|A|": len(A)})


# ---------------------------------------------------------------------------
# Sauer-Shelah
# ---------------------------------------------------------------------------


def sauer_bound(ground_size: int, k: int) -> int:
    """sum_{i<k} C(ground_size, i): families larger than this must shatter a k-set."""
    from math import comb
    return sum(comb(ground_size, i) for i in range(k))


def find_shattered(family: Iterable[Iterable[int]], k: int,
                   ground: Optional[Iterable[int]] = None
                   ) -> Union[ShatterWitness, None, BudgetExceeded]:
    """First k-subset of the ground set shattered by the family, None when
    there is none, or BudgetExceeded when the search budget runs out.

    Candidates are enumerated lexicographically by `detect.first_shattered`,
    with the family members as realizers, one budget node per k-subset; a
    candidate is accepted only when all 2^k trace cells are inhabited, and
    each selector is the first member in its cell.
    """
    if k < 1:
        raise PreconditionError("k must be >= 1")
    sets = [frozenset(s) for s in family]
    if ground is None:
        g: set[int] = set()
        for s in sets:
            g |= s
        ground_list = sorted(g)
    else:
        ground_list = sorted(set(ground))
    pos = {e: i for i, e in enumerate(ground_list)}
    # one row per ground element: bit idx set iff the element is in sets[idx]
    rows = [0] * len(ground_list)
    for idx, s in enumerate(sets):
        for e in s:
            if e in pos:
                rows[pos[e]] |= 1 << idx
    got = first_shattered(rows, k, (1 << len(sets)) - 1, search_budget())
    if got is None or isinstance(got, BudgetExceeded):
        return got
    cand, least = got
    return ShatterWitness(tuple(ground_list[e] for e in cand),
                          {w: sets[idx] for w, idx in least.items()})


def verify_shattered(w: ShatterWitness, family: Iterable[Iterable[int]]) -> bool:
    """Whether `family` shatters w's alphas as w claims: the alphas are
    distinct, there is a selector for every subset w of their indices, each
    selector is a member of `family`, and alpha_i is in A_w iff i is in w."""
    k = len(w.alphas)
    if len(set(w.alphas)) != k:
        return False
    if set(w.selectors) != {frozenset(c) for r in range(k + 1)
                            for c in itertools.combinations(range(k), r)}:
        return False
    members = {frozenset(s) for s in family}
    if not all(chosen in members for chosen in w.selectors.values()):
        return False
    for wset, chosen in w.selectors.items():
        for i, alpha in enumerate(w.alphas):
            if (alpha in chosen) != (i in wset):
                return False
    return True


# ---------------------------------------------------------------------------
# exact arithmetic for the chained inequality behind the no-order bound
# ---------------------------------------------------------------------------


def no_order_exponent(n: int, s: int, t: int) -> int:
    """The exponent k = 2^((3ns)^(t+1)) of the no-order type bound, exact;
    TooLargeError when it passes the size guard."""
    return _power(2, _power(3 * n * s, t + 1))


def compare_powers(base1: int, exp1: int, base2: int, exp2: int) -> int:
    """Exact sign of base1^exp1 - base2^exp2 for bases >= 2, without materializing.

    Decided by comparing exp * log2(base) at increasing decimal precision; the
    result is certified by requiring a separation margin well above the
    rounding error, and equal values are detected structurally.
    """
    if base1 < 2 or base2 < 2 or exp1 < 0 or exp2 < 0:
        raise PreconditionError("compare_powers needs bases >= 2 and natural exponents")
    if base1 == base2:
        return (exp1 > exp2) - (exp1 < exp2)
    # detect exact equality through powers of two
    def pow2_form(b, e):
        if b & (b - 1) == 0:
            return (b.bit_length() - 1) * e
        return None
    p1, p2 = pow2_form(base1, exp1), pow2_form(base2, exp2)
    if p1 is not None and p2 is not None:
        return (p1 > p2) - (p1 < p2)
    with localcontext() as ctx:
        for prec in (50, 120, 300, 1000):
            ctx.prec = prec
            l1 = Decimal(exp1) * Decimal(base1).ln() / Decimal(2).ln()
            l2 = Decimal(exp2) * Decimal(base2).ln() / Decimal(2).ln()
            diff = l1 - l2
            margin = Decimal(10) ** (max(l1.adjusted(), l2.adjusted(), 0) - prec + 10)
            if abs(diff) > margin:
                return 1 if diff > 0 else -1
    raise TooLargeError("could not separate the two powers at precision 1000")


def _chain_terms(n: int, s: int, t: int) -> Optional[tuple[int, int, int]]:
    """k = 2^((3ns)^(t+1)), q = (3ns)^(2n) and c_exp = 2 + (3sn)^t of the
    chained inequality, or None when q passes the size guard: k passed it,
    so q then exceeds k and both readings of the inequality fail. While k
    passes, c_exp * s is below k's bit count, so 2^(c_exp * s) passes too."""
    k = no_order_exponent(n, s, t)
    try:
        q = _power(3 * n * s, 2 * n)
    except TooLargeError:
        return None
    return k, q, 2 + _power(3 * s * n, t)


def chained_inequality(n: int, s: int, t: int, m: int) -> bool:
    """The exact inequality m^(k - (3ns)^(2n)) > 2^(c^s) * c^((3ns)^(2n))
    with c = 2^(2 + (3sn)^t) and k = 2^((3ns)^(t+1)).

    Both sides are compared through their exponents in exact arithmetic; for
    m not a power of two the comparison goes through certified high-precision
    logarithms.
    """
    if m < 2:
        raise PreconditionError("m must be >= 2")
    terms = _chain_terms(n, s, t)
    if terms is None:
        return False
    k, q, c_exp = terms                       # c = 2^c_exp
    rhs_exp2 = _power(2, c_exp * s) + q * c_exp   # log2 of 2^(c^s) * c^q
    lhs_exp = k - q
    if lhs_exp < 0:
        return False
    return compare_powers(m, lhs_exp, 2, rhs_exp2) > 0


def exponent_dominates(n: int, s: int, t: int, reading: str = "closed-early") -> bool:
    """The k-side inequality the chained bound reduces to, in both readings.

    closed-early: k > (c^s + (3ns)^(2n) * (2 + (3ns)^t)) + (3ns)^(2n)
    late:         k > c^s + (3ns)^(2n) * (2 + (3ns)^t + (3ns)^(2n))
    """
    if reading not in ("closed-early", "late"):
        raise PreconditionError(f"unknown reading {reading!r}")
    terms = _chain_terms(n, s, t)
    if terms is None:
        return False
    k, q, c_exp = terms
    cs = _power(2, c_exp * s)
    if reading == "closed-early":
        return k > (cs + q * c_exp) + q
    return k > cs + q * (c_exp + q)
