"""LTL parsing, NNF normalization, and subformula closure."""
import random

import pytest

from apobs.ltl import (And, Atom, FalseF, LtlSyntaxError, NAnd, NFalse, NOr,
                       NRelease, NTrue, NUntil, NegAtom, Next, Not, Or,
                       PosAtom, Release, TrueF, UnsupportedOperatorError,
                       Until, atoms, formula_str, parse_ltl, subformulas,
                       to_nnf)
from conftest import eval_discrete, rand_formula


class TestParse:
    def test_gf_expands_to_release_until(self):
        assert parse_ltl("G F g") == Release(FalseF(),
                                             Until(TrueF(), Atom("g")))

    def test_atom(self):
        assert parse_ltl("p") == Atom("p")

    def test_reach_avoid(self):
        assert parse_ltl("G !a & F r") == And(
            Release(FalseF(), Not(Atom("a"))),
            Until(TrueF(), Atom("r")))

    def test_precedence_or_weakest(self):
        assert parse_ltl("a | b & c") == Or(Atom("a"),
                                            And(Atom("b"), Atom("c")))

    def test_precedence_and_over_until(self):
        assert parse_ltl("a U b & c") == And(Until(Atom("a"), Atom("b")),
                                             Atom("c"))

    def test_until_right_associative(self):
        assert parse_ltl("a U b U c") == Until(Atom("a"),
                                               Until(Atom("b"), Atom("c")))

    def test_unary_tightest(self):
        assert parse_ltl("!a U b") == Until(Not(Atom("a")), Atom("b"))

    def test_parentheses(self):
        assert parse_ltl("(a | b) & c") == And(Or(Atom("a"), Atom("b")),
                                               Atom("c"))

    def test_constants_and_next(self):
        assert parse_ltl("true U false") == Until(TrueF(), FalseF())
        assert parse_ltl("X p") == Next(Atom("p"))

    def test_syntax_error_has_position(self):
        with pytest.raises(LtlSyntaxError):
            parse_ltl("p &")
        with pytest.raises(LtlSyntaxError):
            parse_ltl("p # q")
        with pytest.raises(LtlSyntaxError):
            parse_ltl("(p")
        with pytest.raises(LtlSyntaxError):
            parse_ltl("U p")

    def test_roundtrip_through_formula_str(self):
        # formula_str may reassociate &/| chains, so compare the stable
        # printed form and the discrete semantics rather than raw ASTs.
        rng = random.Random(7)
        aps = ["a", "b", "c"]
        for _ in range(200):
            f = rand_formula(rng, 4, aps)
            g = parse_ltl(formula_str(f))
            assert formula_str(g) == formula_str(f)
            word = [frozenset(p for p in aps if rng.random() < 0.5)
                    for _ in range(6)]
            assert eval_discrete(f, word, 3, 3, 0) == \
                eval_discrete(g, word, 3, 3, 0)


class TestNnf:
    def test_until_release_duality(self):
        f = to_nnf(parse_ltl("!(p U q)"))
        assert f == NRelease(NegAtom("p"), NegAtom("q"))

    def test_double_negation(self):
        assert to_nnf(parse_ltl("!!p")) == PosAtom("p")

    def test_negated_globally(self):
        assert to_nnf(parse_ltl("!(G r)")) == NUntil(NTrue(), NegAtom("r"))

    def test_rejects_next(self):
        with pytest.raises(UnsupportedOperatorError,
                           match="discrete-time operator not supported"):
            to_nnf(parse_ltl("X p"))
        with pytest.raises(UnsupportedOperatorError):
            to_nnf(parse_ltl("!(X p) U q"))

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(300):
            f = rand_formula(rng, 5, ["a", "b", "c"])
            n = to_nnf(f)
            assert to_nnf(n) == n

    def test_preserves_discrete_semantics(self):
        rng = random.Random(13)
        aps = ["a", "b", "c"]
        for _ in range(1000):
            f = rand_formula(rng, 6, aps)
            n = to_nnf(f)
            total = rng.randrange(1, 9)
            loop = rng.randrange(1, total + 1)
            word = [frozenset(p for p in aps if rng.random() < 0.5)
                    for _ in range(total)]
            p = total - loop
            for j in range(total):
                assert eval_discrete(f, word, p, loop, j) == \
                    eval_discrete(n, word, p, loop, j)


class TestSubformulas:
    def test_gfg_closure(self):
        f = to_nnf(parse_ltl("G F g"))
        sub = subformulas(f)
        assert set(sub) == {
            PosAtom("g"), NTrue(), NUntil(NTrue(), PosAtom("g")),
            NFalse(), f}
        assert len(sub) == 5
        assert len(set(sub) - {NTrue(), NFalse()}) == 3

    def test_atom_closure(self):
        assert subformulas(PosAtom("p")) == (PosAtom("p"),)

    def test_benchmark_closure_size(self):
        sub = subformulas(to_nnf(parse_ltl("G r & F (g & F p)")))
        assert len(sub) == 10
        assert len(set(sub) - {NTrue(), NFalse()}) == 8

    def test_negated_atom_includes_positive(self):
        sub = subformulas(NegAtom("p"))
        assert sub == (PosAtom("p"), NegAtom("p"))

    def test_topological_order_and_uniqueness(self):
        rng = random.Random(17)
        for _ in range(300):
            f = to_nnf(rand_formula(rng, 5, ["a", "b"]))
            sub = subformulas(f)
            assert len(sub) == len(set(sub))
            assert sub[-1] == f
            pos = {g: i for i, g in enumerate(sub)}
            for g in sub:
                if isinstance(g, (NAnd, NOr, NUntil, NRelease)):
                    assert pos[g.left] < pos[g]
                    assert pos[g.right] < pos[g]
                if isinstance(g, NegAtom):
                    assert pos[PosAtom(g.name)] < pos[g]

    def test_atoms(self):
        assert atoms(to_nnf(parse_ltl("G r & F (g & F p)"))) == \
            ("g", "p", "r")
