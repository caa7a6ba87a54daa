"""The `.fm` and `.fml` readers of `fmlab.formats` against the readers they
replaced, copied below as the reference. The copy differs from those readers
in one place: a signature declaration's column is its own offset, where the
old reader took the first place the same text occurs on the line. (It also
spells out `Signature.has`, which the package no longer has, as `_has`.)

Both are run on seeded valid files and formulas and on seeded one-character
insertions, deletions and replacements of them. A parse must give the same
document, warnings and their order included, or the same formula; a failed
parse the same (message, line, column).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from fmlab.core import (And, Atom, Exists, Forall, Formula, Iff, Implies, Not, Or,
                        PartitionedFormula, Signature, Structure, TupleSequence)
from fmlab.formats import (MAX_BINARY_ROWS, MAX_FORMULA_DEPTH, MAX_UNIVERSE,
                           FormulaSource, ParseError, StructureDocument,
                           parse_formula, parse_structure)
from fmlab.util import FmlabError, SplitMix64

# ---------------------------------------------------------------------------
# the reference readers
# ---------------------------------------------------------------------------


def _has(signature: Signature, name: str) -> bool:
    return any(n == name for n, _ in signature.relations)


_TUPLE_RE = re.compile(r"\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)")
# the longest prefix of whitespace and tuples; a body is valid iff it is all
_TUPLES_RE = re.compile(r"\s*(?:" + _TUPLE_RE.pattern + r"\s*)*")


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def _parse_tuples(body: str, lineno: int, col0: int) -> list[tuple[int, ...]]:
    end = _TUPLES_RE.match(body).end()
    if end < len(body):
        raise ParseError("expected a tuple like (0,1)", lineno, col0 + end + 1)
    try:
        return [tuple(map(int, t.split(","))) for t in _TUPLE_RE.findall(body)]
    except ValueError:  # an element with more digits than int() converts
        raise ParseError("element out of range", lineno, col0 + 1)


def reference_parse_structure(text: str) -> StructureDocument:
    signature: Optional[Signature] = None
    universe: Optional[int] = None
    # relations and sets keep each tuple once, as a key in first-seen order
    relations: dict[str, dict[tuple[int, ...], None]] = {}
    sets: dict[str, dict[tuple[int, ...], None]] = {}
    seqs: dict[str, list[tuple[int, ...]]] = {}
    submodels: dict[str, tuple[int, ...]] = {}
    warnings: list[str] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
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
                part, col = m.group(), col0 + m.start() + 1  # the column fix
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
            arity = None
            if keyword == "relation":
                if not _has(signature, name):
                    raise ParseError(f"unknown relation: {name}", lineno, 1)
                arity = signature.arity(name)
            if keyword != "submodel":
                tuples = _parse_tuples(body, lineno, col0)
            else:  # vertices, range-checked in sorted order
                try:
                    tuples = [(v,) for v in sorted({int(x) for x in body.split()})]
                except ValueError:
                    raise ParseError("submodel expects whitespace-separated vertices",
                                     lineno, col0 + 1)
            for t in tuples:
                if arity not in (None, len(t)):
                    raise ParseError(f"arity mismatch: {name} expects {arity}-tuples, got {t}",
                                     lineno, col0 + 1)
                for e in t:
                    if not (0 <= e < universe):
                        raise ParseError(f"element out of range: {e}", lineno, col0 + 1)
            if keyword == "seq":
                seq = seqs.setdefault(name, [])
                if len({len(t) for t in seq[:1] + tuples}) > 1:
                    raise ParseError("sequence entries must share one arity", lineno, col0 + 1)
                seq.extend(tuples)
            elif keyword == "submodel":
                submodels[name] = tuple(t[0] for t in tuples)
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


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><->|->|[~&|().,;])
  | (?P<assign>:=)
""", re.VERBOSE)

# connective -> (level, node), loosest first
_BINARY = {"<->": (0, Iff), "->": (1, Implies), "|": (2, Or), "&": (3, And)}

_OBJ_VAR = re.compile(r"x(\d+)$")
_PAR_VAR = re.compile(r"y(\d+)$")
_BOUND_VAR = re.compile(r"z(\d+)$")


@dataclass
class _Token:
    kind: str
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        value = m.group(0)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, value, line, col))
        nl = value.count("\n")
        if nl:
            line += nl
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _FormulaParser:
    """Recursive descent over the token list; precedence ~ > & > | > -> > <->."""

    def __init__(self, tokens: list[_Token], signature: Optional[Signature]):
        self.toks = tokens
        self.i = 0
        self.signature = signature
        self.declared: set[str] = set()
        self.bound: list[str] = []
        self.depth = 0  # syntax-tree levels open around the next token
        self.parens = 0  # parentheses open around the next token

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self, value: Optional[str] = None, kind: Optional[str] = None) -> _Token:
        tok = self.toks[self.i]
        if value is not None and tok.value != value:
            raise ParseError(f"expected {value!r}", tok.line, tok.col)
        if kind is not None and tok.kind != kind:
            raise ParseError(f"expected {kind}", tok.line, tok.col)
        self.i += 1
        return tok

    def parse_declaration(self) -> FormulaSource:
        """The head `name(x0,...; y0,...) :=`, then the body over its variables."""
        name = self.take(kind="name").value
        self.take("(")
        object_vars = self.head_block(";", _OBJ_VAR,
                                      "object variables must be x0..x{r-1}")
        self.take(";")
        param_vars = self.head_block(")", _PAR_VAR,
                                     "parameter variables must be y0..y{s-1}")
        self.take(")")
        self.take(":=")
        if not object_vars:
            tok = self.peek()
            raise ParseError("at least one object variable is required", tok.line, tok.col)
        self.declared = set(object_vars) | set(param_vars)
        formula = PartitionedFormula(self.parse(), tuple(object_vars), tuple(param_vars))
        return FormulaSource(name, formula)

    def head_block(self, end: str, pattern: re.Pattern, rule: str) -> list[str]:
        names: list[str] = []
        while self.peek().value != end:
            tok = self.take(kind="name")
            m = pattern.match(tok.value)
            if not m or int(m.group(1)) != len(names):
                raise ParseError(f"{rule} in order, got {tok.value!r}", tok.line, tok.col)
            names.append(tok.value)
            if self.peek().value == ",":
                self.take(",")
        return names

    def parse(self) -> Formula:
        f, _ = self.parse_binary()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.value!r}", tok.line, tok.col)
        return f

    def nest(self, height: int, tok: _Token) -> int:
        """height + 1: the levels of the node at `tok` over a formula of
        `height` levels. A ParseError at `tok` when these and the levels
        already open pass MAX_FORMULA_DEPTH."""
        if self.depth + height >= MAX_FORMULA_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels",
                             tok.line, tok.col)
        return height + 1

    def enter(self, tok: _Token) -> None:
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
        while (op := self.peek().value) in _BINARY and _BINARY[op][0] >= level:
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
        prefixes: list[_Token] = []
        while (tok := self.peek()).value in ("~", "exists", "forall"):
            self.take(tok.value)
            self.enter(tok)
            prefixes.append(tok)
            if tok.value == "~":
                continue
            var = self.take(kind="name")
            if not _BOUND_VAR.match(var.value):
                raise ParseError("bound variables must be named z0, z1, ...",
                                 var.line, var.col)
            if var.value in self.bound or var.value in self.declared:
                raise ParseError(f"variable {var.value} shadows an outer variable",
                                 var.line, var.col)
            self.take(".")
            self.bound.append(var.value)
        tok = self.peek()
        if tok.value == "(":
            self.take("(")
            if self.parens == MAX_FORMULA_DEPTH:
                raise ParseError("parentheses nested deeper than "
                                 f"{MAX_FORMULA_DEPTH} levels", tok.line, tok.col)
            self.parens += 1
            f, height = self.parse_binary()
            self.take(")")
            self.parens -= 1
        else:
            f, height = self.parse_atom(), 0
        for tok in reversed(prefixes):
            if tok.value == "~":
                f = Not(f)
            else:
                f, height = self.parse_binary(first=(f, height))
                f = (Exists if tok.value == "exists" else Forall)(self.bound.pop(), f)
            self.depth -= 1
            height += 1
        return f, height

    def parse_atom(self) -> Formula:
        name = self.peek()
        if name.kind != "name":
            raise ParseError(f"unexpected {name.value!r}" if name.value
                             else "unexpected end of input", name.line, name.col)
        self.take()
        if self.signature is not None and not _has(self.signature, name.value):
            raise ParseError(f"unknown relation: {name.value}", name.line, name.col)
        self.take("(")
        args = []
        while True:
            var = self.take(kind="name")
            if var.value not in self.declared and var.value not in self.bound:
                raise ParseError(f"undeclared variable: {var.value}", var.line, var.col)
            args.append(var.value)
            if self.peek().value == ",":
                self.take(",")
                continue
            break
        self.take(")")
        if self.signature is not None and self.signature.arity(name.value) != len(args):
            raise ParseError(
                f"arity mismatch: {name.value} expects "
                f"{self.signature.arity(name.value)} arguments, got {len(args)}",
                name.line, name.col)
        return Atom(name.value, tuple(args))


def reference_parse_formula(text: str, signature: Optional[Signature] = None) -> FormulaSource:
    """Parse a declaration `name(x...; y...) := body` into a PartitionedFormula."""
    return _FormulaParser(_tokenize(text), signature).parse_declaration()


# ---------------------------------------------------------------------------
# the differential test
# ---------------------------------------------------------------------------

# characters a mutation inserts or writes: the syntax of both formats, line
# ends, and digits and blanks outside ASCII
MUTATION_ALPHABET = "()0123456789,-:# /\n\r\tRSTAIMxyz~&|<>=.;$٣\x0c "

README_FORMULAS = [
    "phi(x0; y0) := R(x0,y0)",
    "phi(x0; y0) := exists z0. R(x0,z0) & R(z0,y0)",
    "phi(x0,x1; y0) := exists z0. R(x0,z0) & ~R(z0,y0) | forall z1. R(z1,x1)"
    " -> R(x0,x1) <-> R(y0,y0)",
    "psi(x0; ) := ~(S(x0) | ~~R(x0,x0))",
    "phi(x0; y0) :=\n  forall z0. (R(x0,z0) -> S(z0))\n  & exists z1. R(z1,y0)",
    "phi(x0; y0) :=\r\n  ((R(x0,y0)) <-> ~S(y0))\r\n",
]


def _outcome(parse, *args):
    try:
        got = parse(*args)
    except ParseError as e:
        return ("error", e.message, e.line, e.col)
    except Exception as e:  # no other exception may escape, but both must agree
        return ("raised", type(e).__name__, str(e))
    if isinstance(got, StructureDocument):
        return ("parsed", got, got.warnings)
    return ("parsed", got)


def _structure_text(rng):
    """A valid `.fm` text: every section kind, repeats, comments, spaced and
    duplicate tuples, and \\n or \\r\\n line ends."""
    n = 2 + rng.below(7)

    def tup(k):
        t = [str(rng.below(n)) for _ in range(k)]
        return "( " + " , ".join(t) + " )" if rng.below(5) == 0 else "(" + ",".join(t) + ")"

    def tuples(k, count):
        return " ".join(tup(k) for _ in range(count))

    lines = ["# seeded structure", "signature: R/2 S/1 T/3", f"universe: {n}"]
    if rng.bit():
        lines[1:3] = lines[2:0:-1]
    for _ in range(1 + rng.below(3)):
        name, k = [("R", 2), ("S", 1), ("T", 3)][rng.below(3)]
        lines.append(f"relation {name}: {tuples(k, rng.below(8))}")
    lines.append(f"set A: {tup(1)} {tup(2)} {tup(1)}  # mixed arities")
    lines.append(f"seq I: {tuples(2, rng.below(4))}")
    lines.append(f"seq I: {tuples(2, 1 + rng.below(3))}")
    lines.append("")
    lines.append("submodel M0: " + " ".join(str(rng.below(n)) for _ in range(rng.below(5))))
    return ("\r\n" if rng.bit() else "\n").join(lines) + "\n"


def _mutants(text, rng, count):
    for _ in range(count):
        at = rng.below(len(text) + 1)
        ch = MUTATION_ALPHABET[rng.below(len(MUTATION_ALPHABET))]
        op = rng.below(3)
        if op == 0:
            yield text[:at] + ch + text[at:]
        elif op == 1:
            yield text[:at] + text[at + 1:]
        else:
            yield text[:at] + ch + text[at + 1:]


def test_structure_reader_matches_the_reference():
    rng = SplitMix64(3201)
    seen = {}
    for _ in range(60):
        text = _structure_text(rng)
        assert _outcome(parse_structure, text)[0] == "parsed", text
        for t in [text, *_mutants(text, rng, 30)]:
            got = _outcome(parse_structure, t)
            assert got == _outcome(reference_parse_structure, t), t
            key = got[0] if got[0] == "parsed" else re.split("[':]", got[1])[0].strip()
            seen[key] = seen.get(key, 0) + 1
    # the edits reach the error paths as well as the parse
    assert seen["parsed"] >= 300, seen
    for key in ("expected a tuple like (0,1)", "element out of range", "arity mismatch",
                "unknown section keyword", "bad arity", "bad relation declaration",
                "submodel expects whitespace-separated vertices"):
        assert seen.get(key, 0) >= 5, (key, seen)
    assert "raised" not in seen, seen


def test_formula_reader_matches_the_reference():
    rng = SplitMix64(3202)
    sig = Signature((("R", 2), ("S", 1)))
    seen = {}
    for text in README_FORMULAS:
        assert _outcome(parse_formula, text, sig)[0] == "parsed", text
        for t in [text, *_mutants(text, rng, 150)]:
            for signature in (sig, None):
                got = _outcome(parse_formula, t, signature)
                assert got == _outcome(reference_parse_formula, t, signature), t
                key = got[0] if got[0] == "parsed" else got[1].split(" ")[0]
                seen[key] = seen.get(key, 0) + 1
    assert seen["parsed"] >= 300, seen
    for key in ("unexpected", "undeclared", "expected", "object", "parameter", "bound"):
        assert seen.get(key, 0) >= 5, (key, seen)
    assert "raised" not in seen, seen
