"""LTL parsing, negation normal form, and subformula closure.

The surface syntax uses ASCII operators: ``! & | U R F G X true false``.
Precedence (tightest first): unary (``!``, ``F``, ``G``, ``X``), then
``U``/``R`` (right-associative), then ``&``, then ``|``.

``F phi`` and ``G phi`` are expanded at parse time into ``true U phi`` and
``false R phi``.  The ``X`` (Next) operator is parsed but rejected during
normalization: it has no continuous-time semantics here.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "Formula", "TrueF", "FalseF", "Atom", "Not", "And", "Or", "Until",
    "Release", "Next",
    "Nnf", "NTrue", "NFalse", "PosAtom", "NegAtom", "NAnd", "NOr",
    "NUntil", "NRelease",
    "LtlSyntaxError", "UnsupportedOperatorError",
    "parse_ltl", "to_nnf", "subformulas", "atoms", "formula_str",
]


class LtlSyntaxError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


class UnsupportedOperatorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# ASTs

class Formula:
    """Base class for raw (possibly negated) formulas."""
    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    child: Formula


class Nnf:
    """Base class for negation-normal-form formulas."""
    __slots__ = ()


@dataclass(frozen=True)
class NTrue(Nnf):
    pass


@dataclass(frozen=True)
class NFalse(Nnf):
    pass


@dataclass(frozen=True)
class PosAtom(Nnf):
    name: str


@dataclass(frozen=True)
class NegAtom(Nnf):
    name: str


@dataclass(frozen=True)
class NAnd(Nnf):
    left: Nnf
    right: Nnf


@dataclass(frozen=True)
class NOr(Nnf):
    left: Nnf
    right: Nnf


@dataclass(frozen=True)
class NUntil(Nnf):
    left: Nnf
    right: Nnf


@dataclass(frozen=True)
class NRelease(Nnf):
    left: Nnf
    right: Nnf


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(r"\s*(?:([a-zA-Z_][a-zA-Z0-9_]*)|([!&|()]))")
_KEYWORDS = {"U", "R", "F", "G", "X", "true", "false"}


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise LtlSyntaxError(f"unknown token {rest[0]!r}", pos)
        word, sym = m.group(1), m.group(2)
        toks.append((word or sym, m.start(1) if word else m.start(2)))
        pos = m.end()
    toks.append((None, len(text)))
    return toks


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, tok):
        got, pos = self.next()
        if got != tok:
            raise LtlSyntaxError(f"expected {tok!r}, got {got!r}", pos)

    def parse(self):
        f = self.parse_or()
        got, pos = self.next()
        if got is not None:
            raise LtlSyntaxError(f"unexpected trailing token {got!r}", pos)
        return f

    def parse_or(self):
        f = self.parse_and()
        while self.peek() == "|":
            self.next()
            f = Or(f, self.parse_and())
        return f

    def parse_and(self):
        f = self.parse_binary_temporal()
        while self.peek() == "&":
            self.next()
            f = And(f, self.parse_binary_temporal())
        return f

    def parse_binary_temporal(self):
        f = self.parse_unary()
        tok = self.peek()
        if tok == "U":
            self.next()
            return Until(f, self.parse_binary_temporal())
        if tok == "R":
            self.next()
            return Release(f, self.parse_binary_temporal())
        return f

    def parse_unary(self):
        tok, pos = self.next()
        if tok == "!":
            return Not(self.parse_unary())
        if tok == "F":
            return Until(TrueF(), self.parse_unary())
        if tok == "G":
            return Release(FalseF(), self.parse_unary())
        if tok == "X":
            return Next(self.parse_unary())
        if tok == "(":
            f = self.parse_or()
            self.expect(")")
            return f
        if tok == "true":
            return TrueF()
        if tok == "false":
            return FalseF()
        if tok is None:
            raise LtlSyntaxError("unexpected end of input", pos)
        if tok in _KEYWORDS or not re.fullmatch(r"[a-zA-Z_][a-zA-Z0-9_]*", tok):
            raise LtlSyntaxError(f"unexpected token {tok!r}", pos)
        return Atom(tok)


def parse_ltl(text):
    """Parse LTL text into a Formula AST (F/G expanded into U/R)."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Negation normal form

def to_nnf(f):
    """Convert a Formula to negation normal form.

    Rejects the Next operator: discrete-time operators are not supported for
    continuous-time LTL.
    """
    return _nnf(f, False)


def _nnf(f, neg):
    if isinstance(f, TrueF):
        return NFalse() if neg else NTrue()
    if isinstance(f, FalseF):
        return NTrue() if neg else NFalse()
    if isinstance(f, Atom):
        return NegAtom(f.name) if neg else PosAtom(f.name)
    if isinstance(f, Not):
        return _nnf(f.child, not neg)
    if isinstance(f, And):
        if neg:
            return NOr(_nnf(f.left, True), _nnf(f.right, True))
        return NAnd(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Or):
        if neg:
            return NAnd(_nnf(f.left, True), _nnf(f.right, True))
        return NOr(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Until):
        if neg:
            return NRelease(_nnf(f.left, True), _nnf(f.right, True))
        return NUntil(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Release):
        if neg:
            return NUntil(_nnf(f.left, True), _nnf(f.right, True))
        return NRelease(_nnf(f.left, False), _nnf(f.right, False))
    if isinstance(f, Next):
        raise UnsupportedOperatorError(
            "discrete-time operator not supported for continuous-time LTL")
    if isinstance(f, Nnf):  # already normalized
        if neg:
            raise ValueError("cannot negate an NNF formula in place")
        return f
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Subformula closure

def subformulas(f):
    """Topologically ordered, duplicate-free subformula closure of an NNF
    formula.  Children precede parents; the root is last.  A negated atom
    counts its positive atom as a child (observations of literals are
    derived from the atom's observation by involution).
    """
    out = []
    seen = set()

    def visit(g):
        if g in seen:
            return
        if isinstance(g, (NAnd, NOr, NUntil, NRelease)):
            visit(g.left)
            visit(g.right)
        elif isinstance(g, NegAtom):
            visit(PosAtom(g.name))
        seen.add(g)
        out.append(g)

    visit(f)
    return tuple(out)


def atoms(f):
    """Sorted tuple of atomic proposition names occurring in an NNF formula."""
    return tuple(sorted({s.name for s in subformulas(f)
                         if isinstance(s, PosAtom)}))


def formula_str(f):
    """Render a Formula or Nnf back to the surface syntax."""
    return _render(f, 0)


# precedence levels used when rendering: | = 0, & = 1, U/R = 2, unary = 3
def _render(f, ctx):
    if isinstance(f, (TrueF, NTrue)):
        return "true"
    if isinstance(f, (FalseF, NFalse)):
        return "false"
    if isinstance(f, (Atom, PosAtom)):
        return f.name
    if isinstance(f, NegAtom):
        return "!" + f.name
    if isinstance(f, Not):
        return "!" + _render(f.child, 3)
    if isinstance(f, Next):
        return "X " + _render(f.child, 3)
    if isinstance(f, (Or, NOr)):
        s = _render(f.left, 0) + " | " + _render(f.right, 0)
        return "(" + s + ")" if ctx > 0 else s
    if isinstance(f, (And, NAnd)):
        s = _render(f.left, 1) + " & " + _render(f.right, 1)
        return "(" + s + ")" if ctx > 1 else s
    if isinstance(f, (Until, NUntil, Release, NRelease)):
        op = "U" if isinstance(f, (Until, NUntil)) else "R"
        # right-associative; parenthesize a binary-temporal left child
        s = _render(f.left, 3) + f" {op} " + _render(f.right, 2)
        return "(" + s + ")" if ctx > 2 else s
    raise TypeError(f"not a formula: {f!r}")
