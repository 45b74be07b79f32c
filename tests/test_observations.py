"""Observation algebra, signal words, chopping, and dense-time evaluation."""
import itertools
import random
from fractions import Fraction

import pytest

from apobs.ltl import Atom, Until, parse_ltl, subformulas, to_nnf
from apobs.observations import (NEG, OBS, ChoppingError, MultiChange,
                                UndefinedSlice, consistency, letter_code,
                                letter_of)
from conftest import (_OR_REF, _RELEASE_REF, _formula_observations,
                      formula_observation, rand_nnf, rand_signal)
from semantics import (IncommensurableError, PiecewiseSignal, SignalWord,
                       chop, eval_signal, is_signal_word, unique_run_oracle)

P, Q = Atom("p"), Atom("q")


class TestConsistency:
    def test_examples(self):
        assert consistency("U", "A", "N") == frozenset({"A", "N"})
        assert consistency("and", "A", "Z") == frozenset({"Z"})
        assert consistency("R", "N", "A") == frozenset({"A", "N"})
        assert consistency("or", "N", "N") == frozenset({"N"})

    def test_total_and_nonempty(self):
        for conn in ("and", "or", "U", "R"):
            for o1 in OBS:
                for o2 in OBS:
                    s = consistency(conn, o1, o2)
                    assert s and s <= set(OBS)

    def test_boolean_cells_are_singletons(self):
        for conn in ("and", "or"):
            for o1 in OBS:
                for o2 in OBS:
                    assert len(consistency(conn, o1, o2)) == 1

    def test_duality(self):
        # o1 # o2 dualizes to !o1 dual(#) !o2 cellwise.
        for c, d in (("and", "or"), ("U", "R")):
            for o1 in OBS:
                for o2 in OBS:
                    assert consistency(d, o1, o2) == frozenset(
                        NEG[o] for o in consistency(c, NEG[o1], NEG[o2]))

    def test_published_or_release_columns(self):
        # OR and RELEASE are derived by duality from AND and UNTIL; the
        # derived tables must equal the published columns
        for conn, ref in (("or", _OR_REF), ("R", _RELEASE_REF)):
            for (o1, o2), cell in ref.items():
                assert consistency(conn, o1, o2) == frozenset(cell), \
                    (conn, o1, o2)
            assert len(ref) == 16

    def test_negation_involution(self):
        assert set(NEG) == set(OBS)
        for o in OBS:
            assert NEG[NEG[o]] == o

    def test_no_change_successor_lemma(self):
        # every consistent valuation has a consistent successor that reads
        # each subformula as A or N by its truth at the slice's end, so no
        # reached automaton state is dead (see automata.trim)
        def c_end(o):
            return "A" if o in "AE" else "N"

        for conn in ("and", "or", "U", "R"):
            for o1, o2 in itertools.product(OBS, OBS):
                allowed = consistency(conn, c_end(o1), c_end(o2))
                for o in consistency(conn, o1, o2):
                    assert c_end(o) in allowed, (conn, o1, o2, o)
        for o in OBS:
            assert c_end(NEG[o]) == NEG[c_end(o)]

    def test_errors(self):
        for conn in ("xor", "&", "until"):
            with pytest.raises(ValueError, match="unknown connective"):
                consistency(conn, "A", "A")
        with pytest.raises(ValueError):
            consistency("and", "A", "B")


class TestLetterCode:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_round_trip(self, k):
        # the 4^k letters over k APs code to 0 .. 4^k - 1, one each
        aps = ("a", "b", "c")[:k]
        codes = []
        for obs in itertools.product(OBS, repeat=k):
            letter = tuple(zip(aps, obs))
            code = letter_code(letter, aps)
            assert letter_of(code, aps) == letter
            codes.append(code)
        assert sorted(codes) == list(range(len(OBS) ** k))

    def test_digits(self):
        # the k-th AP's observation is the k-th digit in base len(OBS)
        assert letter_code((), ()) == 0
        assert letter_code((("p", "N"),), ("p",)) == OBS.index("N")
        assert letter_code((("p", "Z"), ("q", "E")), ("p", "q")) == \
            OBS.index("Z") + len(OBS) * OBS.index("E")


class TestSignalWord:
    def test_valid_word(self):
        w = SignalWord.make(("p",), [{"p": "A"}, {"p": "Z"}], [{"p": "N"}])
        ok, why = is_signal_word(w)
        assert ok and why is None

    def test_seam_violation(self):
        w = SignalWord.make(("p",), [{"p": "A"}], [{"p": "N"}])
        ok, why = is_signal_word(w)
        assert not ok and "p" in why

    def test_loop_seam_checked(self):
        # Loop ends true (A) but loop start is N: invalid around the seam.
        w = SignalWord.make(("p",), [], [{"p": "E"}, {"p": "N"}])
        ok, why = is_signal_word(w)
        assert not ok

    def test_single_change_violation(self):
        w = SignalWord.make(("p", "q"), [],
                            [{"p": "Z", "q": "E"}, {"p": "N", "q": "A"},
                             {"p": "E", "q": "Z"}])
        ok, why = is_signal_word(w)
        assert not ok
        assert "['p', 'q']" in why and "{Z,E}" in why

    def test_accessors(self):
        w = SignalWord.make(("p",), [{"p": "A"}, {"p": "Z"}], [{"p": "N"}])
        assert len(w) == 3
        assert w.letter(0) == {"p": "A"}
        assert w.letter(5) == {"p": "N"}
        assert w.canonical(5) == 2

    def test_domain_mismatch(self):
        with pytest.raises(ValueError):
            SignalWord.make(("p", "q"), [], [{"p": "A"}])


class TestChop:
    def test_pulse(self):
        # p holds on [0, 1.5) then never again; tau = 1.
        sig = PiecewiseSignal.make([(Fraction(3, 2), {"p"})], [(1, ())],
                                   aps=("p",))
        w = chop(sig, 1)
        assert w.prefix == ((("p", "A"),), (("p", "Z"),))
        assert w.loop == ((("p", "N"),),)

    def test_constant_false(self):
        sig = PiecewiseSignal.make([], [(2, ())], aps=("p",))
        w = chop(sig, 1)
        assert w.prefix == () and set(w.loop) == {(("p", "N"),)}

    def test_fast_toggle_undefined(self):
        sig = PiecewiseSignal.make(
            [], [(Fraction(3, 10), {"p"}), (Fraction(3, 10), ())],
            aps=("p",))
        with pytest.raises(UndefinedSlice) as ei:
            chop(sig, 1)
        assert ei.value.ap == "p"

    def test_simultaneous_change_multichange(self):
        sig = PiecewiseSignal.make(
            [], [(2, {"p", "q"}), (2, ())], aps=("p", "q"))
        with pytest.raises(MultiChange):
            chop(sig, 1)

    def test_incommensurable(self):
        sig = PiecewiseSignal.make(
            [], [(Fraction(1000003, 1000000), {"p"})], aps=("p",))
        with pytest.raises(IncommensurableError):
            chop(sig, 1)

    def test_chopped_words_are_signal_words(self):
        rng = random.Random(5)
        for _ in range(200):
            w = chop(rand_signal(rng, ("p", "q")), 1)
            ok, why = is_signal_word(w)
            assert ok, why

    def test_extra_aps(self):
        sig = PiecewiseSignal.make([], [(2, {"p"})], aps=("p",))
        w = chop(sig, 1, aps=("p", "q"))
        assert w.letter(0) == {"p": "A", "q": "N"}


class TestEvalSignal:
    def test_eventually(self):
        sig = PiecewiseSignal.make([(2, ())], [(3, {"p"})], aps=("p",))
        assert eval_signal(sig, to_nnf(parse_ltl("F p")))
        assert not eval_signal(sig, to_nnf(parse_ltl("p")))

    def test_recurrence(self):
        sig = PiecewiseSignal.make(
            [], [(2, ()), (1, {"p"}), (1, ())], aps=("p",))
        assert eval_signal(sig, to_nnf(parse_ltl("G F p")))
        assert not eval_signal(sig, to_nnf(parse_ltl("F G p")))

    def test_safety_violated_at_start(self):
        sig = PiecewiseSignal.make([(1, {"a"})], [(1, ())], aps=("a",))
        assert not eval_signal(sig, to_nnf(parse_ltl("G !a")))
        # a is already false AT t=1 (right-continuous at switches).
        assert eval_signal(sig, to_nnf(parse_ltl("G !a")), t=1)

    def test_until_dense(self):
        # p on [0,2), q on [2,inf): the handoff works because q owns the
        # switch instant (right-continuity).
        sig = PiecewiseSignal.make([(2, {"p"})], [(1, {"q"})],
                                   aps=("p", "q"))
        f = to_nnf(parse_ltl("p U q"))
        assert eval_signal(sig, f)
        assert eval_signal(sig, f, t=Fraction(19, 10))
        # but a true gap between p and q breaks the until
        gap = PiecewiseSignal.make(
            [(2, {"p"}), (Fraction(1, 2), ())], [(1, {"q"})],
            aps=("p", "q"))
        assert not eval_signal(gap, f)
        assert eval_signal(gap, f, t=3)


class TestPiecewiseSignal:
    def test_value_conventions(self):
        sig = PiecewiseSignal.make([(1, {"p"})], [(1, ())], aps=("p",))
        assert sig.value_at(0) == frozenset({"p"})
        assert sig.value_at(Fraction(1, 2)) == frozenset({"p"})
        assert sig.value_at(1) == frozenset()   # switch instant: new value
        assert sig.value_at(Fraction(3, 2)) == frozenset()
        assert sig.value_at(100) == frozenset()


def _two_ap_signal(spec_p, spec_q, x):
    """Signal over p,q: slice-0 patterns with a SHARED change instant x
    (the tables presuppose a single change instant per slice), the slice-end
    values held over [1,2), then per-AP constant futures from t=2 on."""
    (bp, fp), (bq, fq) = spec_p, spec_q

    def truth(base, t):
        if base == "A":
            return True
        if base == "N":
            return False
        return (t < x) if base == "Z" else (t >= x)

    prefix = []
    for a, b in ((Fraction(0), x), (x, Fraction(1))):
        letter = {p for p, base in (("p", bp), ("q", bq)) if truth(base, a)}
        prefix.append((b - a, letter))
    hold = {p for p, base in (("p", bp), ("q", bq))
            if truth(base, Fraction(1) - Fraction(1, 100))}
    prefix.append((1, hold))
    future = {p for p, flag in (("p", fp), ("q", fq)) if flag}
    return PiecewiseSignal.make(prefix, [(1, future)], aps=("p", "q"))


class TestObservationSoundness:
    """Every observed connective cell lands in the consistency table, and
    every table cell is witnessed by some dense-time signal."""

    def test_soundness_random_signals(self):
        rng = random.Random(21)
        aps = ("p", "q")
        conn_of = {"And": "and", "Or": "or", "Until": "U", "Release": "R"}
        checked = 0
        for _ in range(10000):
            f = rand_nnf(rng, 2, aps)
            sub = subformulas(f)
            sig = rand_signal(rng, aps, n_prefix=1, n_loop=2)
            rows = _formula_observations(sig, list(sub), 0, 2, 1)
            for row in rows:
                for g in sub:
                    conn = conn_of.get(type(g).__name__)
                    if conn is None:
                        continue
                    assert row[g] in consistency(conn, row[g.left],
                                                 row[g.right])
                    checked += 1
        assert checked > 5000

    def test_until_table_completeness(self):
        xs = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        specs = [(b, fut) for b in ("A", "N", "Z", "E")
                 for fut in (True, False)]
        seen = set()
        f = Until(P, Q)
        for x in xs:
            for sp in specs:
                for sq in specs:
                    sig = _two_ap_signal(sp, sq, x)
                    row = _formula_observations(sig, [P, Q, f], 0, 1, 1)[0]
                    seen.add((row[P], row[Q], row[f]))
        want = {(o1, o2, o) for o1 in OBS for o2 in OBS
                for o in consistency("U", o1, o2)}
        assert seen == want
        assert len(want) == 20


class TestUniqueRunOracle:
    def test_pulse_eventually(self):
        sig = PiecewiseSignal.make([(Fraction(3, 2), {"p"})], [(1, ())],
                                   aps=("p",))
        w = chop(sig, 1)
        f = to_nnf(parse_ltl("F p"))
        vl = unique_run_oracle(w, f)
        assert vl.valuation(0)[f] == "A"   # p still ahead / current
        assert vl.valuation(1)[f] == "Z"   # last chance passes inside slice
        assert vl.valuation(2)[f] == "N"

    def test_matches_formula_observations(self):
        rng = random.Random(33)
        aps = ("p", "q")
        for _ in range(200):
            f = rand_nnf(rng, 2, aps)
            sub = list(subformulas(f))
            sig = rand_signal(rng, aps, n_prefix=2, n_loop=2)
            w = chop(sig, 1, aps=aps)
            vl = unique_run_oracle(w, f)
            rows = _formula_observations(sig, sub, 0, len(w), 1)
            for k in range(len(w)):
                val = vl.valuation(k)
                for g in sub:
                    assert val[g] == rows[k][g], (f, g, k)

    def test_atom_row_matches_word(self):
        rng = random.Random(35)
        for _ in range(50):
            sig = rand_signal(rng, ("p",))
            w = chop(sig, 1)
            vl = unique_run_oracle(w, P)
            for k in range(len(w) + len(w.loop)):
                assert vl.valuation(k)[P] == w.letter(k)["p"]


class TestFormulaObservation:
    def test_single_slice(self):
        sig = PiecewiseSignal.make([(2, {"p"})], [(1, {"q"})],
                                   aps=("p", "q"))
        f = to_nnf(parse_ltl("p U q"))
        assert formula_observation(sig, f, 0, 1) == "A"
        assert formula_observation(sig, to_nnf(parse_ltl("p")), 1, 1) == "Z"
        assert formula_observation(sig, to_nnf(parse_ltl("q")), 1, 1) == "E"

    def test_chopping_error_hierarchy(self):
        assert issubclass(UndefinedSlice, ChoppingError)
        assert issubclass(MultiChange, ChoppingError)
        assert issubclass(IncommensurableError, ChoppingError)
        assert issubclass(ChoppingError, ValueError)
