"""LTL parsing, negation normal form, and subformula closure.

One AST, ``Formula``, serves the parsed and the normalized formula:
negation normal form (``to_nnf``) is the shape in which ``Not`` sits only
directly over an ``Atom`` and no ``Next`` occurs.

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
    """Base class of the formula AST.  A formula is in negation normal
    form when every ``Not`` wraps an ``Atom`` and no ``Next`` occurs."""
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

# the dual of each binary connective: !(a op b) is !a dual(op) !b
_DUAL = {And: Or, Or: And, Until: Release, Release: Until}


def to_nnf(f):
    """Convert a Formula to negation normal form: the same Formula types,
    with ``Not`` only directly over an ``Atom``.  Idempotent.

    Rejects the Next operator: discrete-time operators are not supported for
    continuous-time LTL.
    """
    return _nnf(f, False)


def _nnf(f, neg):
    if isinstance(f, TrueF):
        return FalseF() if neg else f
    if isinstance(f, FalseF):
        return TrueF() if neg else f
    if isinstance(f, Atom):
        return Not(f) if neg else f
    if isinstance(f, Not):
        return _nnf(f.child, not neg)
    if isinstance(f, Next):
        raise UnsupportedOperatorError(
            "discrete-time operator not supported for continuous-time LTL")
    if type(f) not in _DUAL:
        raise TypeError(f"not a formula: {f!r}")
    op = _DUAL[type(f)] if neg else type(f)
    return op(_nnf(f.left, neg), _nnf(f.right, neg))


# ---------------------------------------------------------------------------
# Subformula closure

def subformulas(f):
    """Topologically ordered, duplicate-free subformula closure of an NNF
    formula.  Children precede parents; the root is last.  A negated atom
    ``Not(Atom(p))`` has ``Atom(p)`` as its child (observations of literals
    are derived from the atom's observation by involution).
    """
    out = []
    seen = set()

    def visit(g):
        if g in seen:
            return
        if type(g) in _DUAL:
            visit(g.left)
            visit(g.right)
        elif isinstance(g, Not):
            visit(g.child)
        seen.add(g)
        out.append(g)

    visit(f)
    return tuple(out)


def atoms(f):
    """Sorted tuple of atomic proposition names occurring in an NNF formula."""
    return tuple(sorted({s.name for s in subformulas(f)
                         if isinstance(s, Atom)}))


def formula_str(f):
    """Render a Formula back to the surface syntax."""
    return _render(f, 0)


# precedence levels used when rendering: | = 0, & = 1, U/R = 2, unary = 3
def _render(f, ctx):
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "!" + _render(f.child, 3)
    if isinstance(f, Next):
        return "X " + _render(f.child, 3)
    if isinstance(f, Or):
        s = _render(f.left, 0) + " | " + _render(f.right, 0)
        return "(" + s + ")" if ctx > 0 else s
    if isinstance(f, And):
        s = _render(f.left, 1) + " & " + _render(f.right, 1)
        return "(" + s + ")" if ctx > 1 else s
    if isinstance(f, (Until, Release)):
        op = "U" if isinstance(f, Until) else "R"
        # right-associative; parenthesize a binary-temporal left child
        s = _render(f.left, 3) + f" {op} " + _render(f.right, 2)
        return "(" + s + ")" if ctx > 2 else s
    raise TypeError(f"not a formula: {f!r}")
