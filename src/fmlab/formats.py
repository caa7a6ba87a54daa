"""Parsers and serializers for the `.fm` structure format, the `.fml` formula
DSL, and the deterministic JSON report encoding.

`.fm` grammar (line oriented, `#` starts a comment anywhere on a line):

    signature: R/2 S/1
    universe: 5
    relation R: (0,1) (1,0)
    set A: (1) (2)
    seq I: (0) (1) (2)
    submodel M0: 0 1 2

`.fml` grammar:

    phi(x0,...,x{r-1}; y0,...,y{s-1}) := <body>

with atoms `R(v,...)`, connectives `~ & | -> <->` (precedence from tightest:
~, &, |, ->, <->; all left associative except -> which is right associative),
quantifiers `exists v.` / `forall v.` taking maximal scope, and parentheses.
Head variables must be named x0..x{r-1} and y0..y{s-1} in block order; bound
variables must be z-prefixed.

A universe holds at most `MAX_UNIVERSE` elements, the number of binary
relations times the universe size is at most `MAX_BINARY_ROWS`, and a formula
nests at most `MAX_FORMULA_DEPTH` connectives, negations and quantifiers deep
and at most that many parentheses deep; past any of these the parse fails
with a ParseError.

Each reader scans its input once: a `.fm` tuple body is one regex match and
one split, a `.fml` text one `finditer` pass into (kind, value, offset)
tokens, and an offset becomes line:column only when a ParseError is raised.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice, repeat
from typing import Any, Optional

from .core import (And, Atom, Exists, Forall, Formula, Iff, Implies, Not, Or,
                   PartitionedFormula, Signature, Structure, TupleSequence)
from .util import FmlabError, TooLargeError


class ParseError(FmlabError):
    """Syntax or validation error with a 1-based line:column position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class StructureDocument:
    structure: Structure
    sets: dict[str, frozenset[tuple[int, ...]]] = field(default_factory=dict)
    seqs: dict[str, TupleSequence] = field(default_factory=dict)
    submodels: dict[str, tuple[int, ...]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list, compare=False)


@dataclass(frozen=True)
class FormulaSource:
    name: str
    formula: PartitionedFormula


# ---------------------------------------------------------------------------
# .fm structures
# ---------------------------------------------------------------------------

# The largest universe a `.fm` file may declare: a structure keeps a row per
# element for each binary relation, so a few-byte file must not ask for
# gigabytes, and every search here is exhaustive over far smaller universes.
MAX_UNIVERSE = 1 << 16
# The most such rows the binary relations of one structure may keep together.
MAX_BINARY_ROWS = 1 << 20

# the longest prefix of whitespace and tuples like (0,1); a valid body is all
_TUPLES_RE = re.compile(r"\s*(?:\(\s*-?\d+(?:\s*,\s*-?\d+)*\s*\)\s*)*")
# a valid body with its brackets and commas blanked is its elements, split
_BLANK = str.maketrans("(),", "   ")


def _parse_tuples(body: str, lineno: int, col0: int) -> tuple[list, list[int]]:
    """The tuples of a section body in order, and their elements in order."""
    end = _TUPLES_RE.match(body).end()
    if end < len(body):
        raise ParseError("expected a tuple like (0,1)", lineno, col0 + end + 1)
    try:
        elements = list(map(int, body.translate(_BLANK).split()))
    except ValueError:  # an element with more digits than int() converts
        raise ParseError("element out of range", lineno, col0 + 1)
    rest = iter(elements)  # tuple i takes one more element than it has commas
    return [tuple(islice(rest, c + 1))
            for c in map(str.count, body.split("(")[1:], repeat(","))], elements


def parse_structure(text: str) -> StructureDocument:
    signature: Optional[Signature] = None
    universe: Optional[int] = None
    # relations and sets keep each tuple once, as a key in first-seen order
    relations: dict[str, dict[tuple[int, ...], None]] = {}
    sets: dict[str, dict[tuple[int, ...], None]] = {}
    seqs: dict[str, list[tuple[int, ...]]] = {}
    submodels: dict[str, tuple[int, ...]] = {}
    warnings: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected 'keyword ...:' section line", lineno, 1)
        head, _, body = line.partition(":")
        parts = head.split()
        if not parts:
            raise ParseError("missing section keyword", lineno, 1)
        keyword, *rest = parts
        col0 = len(head) + 1

        if (keyword == "signature" and signature is not None
                or keyword == "universe" and universe is not None):
            raise ParseError(f"repeated {keyword} line", lineno, 1)
        if keyword == "signature":
            decls = []
            for m in re.finditer(r"\S+", body):
                part, col = m.group(), col0 + m.start() + 1
                if "/" not in part:
                    raise ParseError(f"bad relation declaration {part!r}, expected name/arity",
                                     lineno, col)
                name, _, ar = part.partition("/")
                if not name.isidentifier():
                    raise ParseError(f"bad relation name {name!r}", lineno, col)
                try:
                    arity = int(ar)
                except ValueError:
                    raise ParseError(f"bad arity {ar!r}", lineno, col)
                decls.append((name, arity))
            try:
                signature = Signature(tuple(decls))
            except FmlabError as e:
                raise ParseError(str(e), lineno, 1)
        elif keyword == "universe":
            try:
                universe = int(body.strip())
            except ValueError:
                raise ParseError("universe must be an integer", lineno, col0 + 1)
            if universe < 0:
                raise ParseError("universe must be a natural number", lineno, col0 + 1)
            if universe > MAX_UNIVERSE:
                raise ParseError(f"universe must be at most {MAX_UNIVERSE}", lineno, col0 + 1)
        elif keyword in ("relation", "set", "seq", "submodel"):
            if keyword == "relation" and signature is None:
                raise ParseError("missing signature", lineno, 1)
            if universe is None:
                raise ParseError("missing universe", lineno, 1)
            if len(rest) != 1:
                raise ParseError(f"{keyword} line needs a name", lineno, 1)
            name = rest[0]
            arity = dict(signature.relations).get(name) if keyword == "relation" else None
            if keyword == "relation" and arity is None:
                raise ParseError(f"unknown relation: {name}", lineno, 1)
            if keyword != "submodel":
                tuples, elements = _parse_tuples(body, lineno, col0)
            else:  # vertices, range-checked in sorted order
                try:
                    elements = sorted(set(map(int, body.split())))
                except ValueError:
                    raise ParseError("submodel expects whitespace-separated vertices",
                                     lineno, col0 + 1)
                tuples = list(zip(elements))
            lengths = set(map(len, tuples))
            if (arity is not None and lengths - {arity}
                    or elements and not (0 <= min(elements) and max(elements) < universe)):
                for t in tuples:  # name the first offending tuple
                    if arity not in (None, len(t)):
                        raise ParseError(f"arity mismatch: {name} expects {arity}-tuples, "
                                         f"got {t}", lineno, col0 + 1)
                    for e in t:
                        if not (0 <= e < universe):
                            raise ParseError(f"element out of range: {e}", lineno, col0 + 1)
            if keyword == "seq":
                seq = seqs.setdefault(name, [])
                if len(lengths | set(map(len, seq[:1]))) > 1:
                    raise ParseError("sequence entries must share one arity", lineno, col0 + 1)
                seq.extend(tuples)
            elif keyword == "submodel":
                submodels[name] = tuple(elements)
            else:
                bucket = (relations if keyword == "relation" else sets).setdefault(name, {})
                for t in tuples:
                    if t in bucket:
                        warnings.append(f"{lineno}: duplicate tuple {t} in {keyword} {name}")
                    bucket[t] = None
        else:
            raise ParseError(f"unknown section keyword {keyword!r}", lineno, 1)
        if (keyword in ("signature", "universe")
                and signature is not None and universe is not None):
            binary = sum(ar == 2 for _, ar in signature.relations)
            if binary * universe > MAX_BINARY_ROWS:
                raise ParseError(f"{binary} binary relations over a universe of "
                                 f"{universe} keep more than {MAX_BINARY_ROWS} rows",
                                 lineno, col0 + 1)

    if signature is None:
        raise ParseError("missing signature", max(1, text.count("\n") + 1), 1)
    if universe is None:
        raise ParseError("missing universe", max(1, text.count("\n") + 1), 1)

    return StructureDocument(
        structure=Structure(signature, universe, relations),
        sets={n: frozenset(ts) for n, ts in sets.items()},
        seqs={n: TupleSequence.of(ts) if ts else TupleSequence((), 1)
              for n, ts in seqs.items()},
        submodels=submodels,
        warnings=warnings,
    )


def serialize_structure(doc: StructureDocument) -> str:
    M = doc.structure
    lines = []
    lines.append("signature: " + " ".join(f"{n}/{a}" for n, a in M.signature.relations))
    lines.append(f"universe: {M.universe_size}")
    for name, _ in M.signature.relations:
        ts = sorted(M.relations[name])
        body = " ".join("(" + ",".join(map(str, t)) + ")" for t in ts)
        lines.append(f"relation {name}:" + (" " + body if body else ""))
    for name in sorted(doc.sets):
        body = " ".join("(" + ",".join(map(str, t)) + ")" for t in sorted(doc.sets[name]))
        lines.append(f"set {name}:" + (" " + body if body else ""))
    for name in sorted(doc.seqs):
        body = " ".join("(" + ",".join(map(str, t)) + ")" for t in doc.seqs[name])
        lines.append(f"seq {name}:" + (" " + body if body else ""))
    for name in sorted(doc.submodels):
        body = " ".join(map(str, doc.submodels[name]))
        lines.append(f"submodel {name}:" + (" " + body if body else ""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# .fml formulas
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><->|->|[~&|().,;])
  | (?P<assign>:=)
""", re.VERBOSE)

# Levels a formula's syntax tree may have: each connective, `~` and
# quantifier above its deepest atom counts one. The formula walkers
# (`evaluate`, the compiler, hashing, `==`) recurse up to three frames per
# level. Parentheses add no level, and are bounded by the same number on
# their own: the parser recurses two frames per open pair, and one more per
# level for a right operand. So every formula within the limit, and its
# fully parenthesised text, stays well inside Python's default recursion
# limit of 1,000 frames.
MAX_FORMULA_DEPTH = 200

# connective -> (level, node), loosest first
_BINARY = {"<->": (0, Iff), "->": (1, Implies), "|": (2, Or), "&": (3, And)}

_OBJ_VAR = re.compile(r"x(\d+)$")
_PAR_VAR = re.compile(r"y(\d+)$")
_BOUND_VAR = re.compile(r"z(\d+)$")


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, value, offset) per token of `text`, then ("eof", "", len(text))."""
    tokens, end = [], 0
    for m in _TOKEN_RE.finditer(text):
        start, stop = m.span()
        if start != end:
            break
        end = stop
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, text[start:stop], start))
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", *_position(text, end))
    tokens.append(("eof", "", end))
    return tokens


class _FormulaParser:
    """Recursive descent over (kind, value, offset) tokens; precedence ~ > & > | > -> > <->."""

    def __init__(self, text: str, signature: Optional[Signature]):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.arities = None if signature is None else dict(signature.relations)  # None: any
        self.declared: set[str] = set()
        self.bound: list[str] = []
        self.depth = 0  # syntax-tree levels open around the next token
        self.parens = 0  # parentheses open around the next token

    def error(self, message: str, tok: tuple[str, str, int]) -> ParseError:
        return ParseError(message, *_position(self.text, tok[2]))

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def take(self, value: Optional[str] = None, kind: Optional[str] = None) -> tuple:
        tok = self.toks[self.i]
        if value is not None and tok[1] != value:
            raise self.error(f"expected {value!r}", tok)
        if kind is not None and tok[0] != kind:
            raise self.error(f"expected {kind}", tok)
        self.i += 1
        return tok

    def parse_declaration(self) -> FormulaSource:
        """The head `name(x0,...; y0,...) :=`, then the body over its variables."""
        name = self.take(kind="name")[1]
        self.take("(")
        object_vars = self.head_block(";", _OBJ_VAR, "object variables must be x0..x{r-1}")
        self.take(";")
        param_vars = self.head_block(")", _PAR_VAR, "parameter variables must be y0..y{s-1}")
        self.take(")")
        self.take(":=")
        if not object_vars:
            raise self.error("at least one object variable is required", self.peek())
        self.declared = set(object_vars) | set(param_vars)
        formula = PartitionedFormula(self.parse(), tuple(object_vars), tuple(param_vars))
        return FormulaSource(name, formula)

    def head_block(self, end: str, pattern: re.Pattern, rule: str) -> list[str]:
        names: list[str] = []
        while self.peek()[1] != end:
            tok = self.take(kind="name")
            m = pattern.match(tok[1])
            if not m or int(m.group(1)) != len(names):
                raise self.error(f"{rule} in order, got {tok[1]!r}", tok)
            names.append(tok[1])
            if self.peek()[1] == ",":
                self.take(",")
        return names

    def parse(self) -> Formula:
        f, _ = self.parse_binary()
        tok = self.peek()
        if tok[0] != "eof":
            raise self.error(f"unexpected {tok[1]!r}", tok)
        return f

    def nest(self, height: int, tok: tuple[str, str, int]) -> int:
        """height + 1: the levels of the node at `tok` over a formula of
        `height` levels. A ParseError at `tok` when these and the levels
        already open pass MAX_FORMULA_DEPTH."""
        if self.depth + height >= MAX_FORMULA_DEPTH:
            raise self.error(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels", tok)
        return height + 1

    def enter(self, tok: tuple[str, str, int]) -> None:
        self.nest(0, tok)
        self.depth += 1

    def parse_binary(self, level: int = 0,
                     first: Optional[tuple[Formula, int]] = None
                     ) -> tuple[Formula, int]:
        """Unary formulas joined by the connectives of `_BINARY` at `level` or
        tighter, with the formula's nesting levels: a tighter right operand is
        parsed first, so <->, | and & associate left, and -> takes its own
        level on the right. `first`, when given, is the left operand, already
        parsed."""
        left, height = first or self.parse_unary()
        while (op := self.peek()[1]) in _BINARY and _BINARY[op][0] >= level:
            op_level, node = _BINARY[op]
            tok = self.take(op)
            self.enter(tok)
            right, right_height = self.parse_binary(op_level + (op != "->"))
            self.depth -= 1
            # the left operand gains a level it was not parsed inside
            left, height = node(left, right), self.nest(max(height, right_height), tok)
        return left, height

    def parse_unary(self) -> tuple[Formula, int]:
        """A run of `~` and quantifier prefixes, read in one loop, then what
        they apply to: a parenthesised formula or an atom, and after the last
        quantifier the rest of the binary formula too (maximal scope)."""
        prefixes: list[str] = []
        while (tok := self.peek())[1] in ("~", "exists", "forall"):
            self.take()
            self.enter(tok)
            prefixes.append(tok[1])
            if tok[1] == "~":
                continue
            var = self.take(kind="name")
            if not _BOUND_VAR.match(var[1]):
                raise self.error("bound variables must be named z0, z1, ...", var)
            if var[1] in self.bound or var[1] in self.declared:
                raise self.error(f"variable {var[1]} shadows an outer variable", var)
            self.take(".")
            self.bound.append(var[1])
        tok = self.peek()
        if tok[1] == "(":
            self.take()
            if self.parens == MAX_FORMULA_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_FORMULA_DEPTH} levels", tok)
            self.parens += 1
            f, height = self.parse_binary()
            self.take(")")
            self.parens -= 1
        else:
            f, height = self.parse_atom(), 0
        for prefix in reversed(prefixes):
            if prefix == "~":
                f = Not(f)
            else:
                f, height = self.parse_binary(first=(f, height))
                f = (Exists if prefix == "exists" else Forall)(self.bound.pop(), f)
            self.depth -= 1
            height += 1
        return f, height

    def parse_atom(self) -> Formula:
        name = self.peek()
        if name[0] != "name":
            raise self.error(f"unexpected {name[1]!r}" if name[1]
                             else "unexpected end of input", name)
        self.take()
        if self.arities is not None and name[1] not in self.arities:
            raise self.error(f"unknown relation: {name[1]}", name)
        self.take("(")
        args = []
        while True:
            var = self.take(kind="name")
            if var[1] not in self.declared and var[1] not in self.bound:
                raise self.error(f"undeclared variable: {var[1]}", var)
            args.append(var[1])
            if self.peek()[1] != ",":
                break
            self.take()
        self.take(")")
        if self.arities is not None and self.arities[name[1]] != len(args):
            raise self.error(f"arity mismatch: {name[1]} expects "
                             f"{self.arities[name[1]]} arguments, got {len(args)}", name)
        return Atom(name[1], tuple(args))


def parse_formula(text: str, signature: Optional[Signature] = None) -> FormulaSource:
    """Parse a declaration `name(x...; y...) := body` into a PartitionedFormula."""
    return _FormulaParser(text, signature).parse_declaration()


def serialize_formula(src: FormulaSource) -> str:
    return src.formula.text(src.name)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _printable(v: int) -> int:
    """v, or TooLargeError when it is longer than Python will print: more than
    `sys.get_int_max_str_digits()` digits (0 or absent: no limit). The limit
    is process-wide, so it is only read, never changed."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # below 3 * limit bits, |v| < 8^limit < 10^limit
    if limit and v.bit_length() > 3 * limit and abs(v) >= 10 ** limit:
        raise TooLargeError(f"a report value has more than {limit} digits, "
                            "Python's limit for printing an integer")
    return v


def refuse_unprintable_power(factor: int, base: int, exponent: int) -> None:
    """`_printable`'s TooLargeError for factor * base**exponent, raised
    before the value is built, when its least possible bit count,
    factor.bit_length() + exponent * (base.bit_length() - 1), passes 4 times
    the print limit: it is then at least 16^limit. A value this leaves
    alone has at most twice that many bits, so it is cheap to build, and
    `_printable` decides it exactly."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and factor.bit_length() + exponent * (base.bit_length() - 1) > 4 * limit:
        raise TooLargeError(f"a report value has more than {limit} digits, "
                            "Python's limit for printing an integer")


def reportable(value: Any) -> Any:
    """Convert a result value into deterministic JSON-ready data.

    Rationals become "num/den" strings; reals are rounded to 12 significant
    digits; sets are sorted; dataclasses become dicts; objects may provide
    their own to_report(). TooLargeError for an integer too long to print.
    """
    if hasattr(value, "to_report"):
        return reportable(value.to_report())
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return _printable(value)
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, Fraction):
        return f"{_printable(value.numerator)}/{_printable(value.denominator)}"
    if isinstance(value, dict):
        return {str(k): reportable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (set, frozenset)):
        return [reportable(v) for v in sorted(value, key=repr)]
    if isinstance(value, (list, tuple)):
        return [reportable(v) for v in value]
    if isinstance(value, TupleSequence):
        return [list(t) for t in value]
    if isinstance(value, PartitionedFormula):
        return value.text()
    if isinstance(value, Structure):
        return {"universe": value.universe_size,
                "relations": {n: sorted(map(list, value.relations[n]))
                              for n, _ in value.signature.relations}}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: reportable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    raise FmlabError(f"cannot serialize value of type {type(value).__name__}")


def emit_report(value: Any) -> str:
    """Deterministic JSON text: sorted keys, no floating nondeterminism."""
    return json.dumps(reportable(value), sort_keys=True, separators=(",", ":"))


def subset_key(w) -> str:
    """Canonical string key for an index subset, e.g. {} / {0} / {0,2}."""
    return "{" + ",".join(map(str, sorted(w))) + "}"
