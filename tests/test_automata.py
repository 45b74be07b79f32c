"""Automaton construction, pruning, minimization, and acceptance."""
import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from apobs.automata import (Q0, _consistent_targets, _position_tables,
                            automaton_to_dot, build_gba, degeneralize,
                            minimize, restrict_valid_letters, translate,
                            trim)
from apobs.cli import BENCH_FORMULAS
from apobs.ltl import (Atom, FalseF, TrueF, atoms, formula_str, parse_ltl,
                       subformulas, to_nnf)
from conftest import (_consistent_valuations_bottomup,
                      _consistent_valuations_bruteforce, _gfg_reference,
                      degeneralize_reference, full_gba_reference,
                      gba_isomorphic, hand_automaton, minimize_reference,
                      prune, rand_formula, rand_nnf, rand_signal,
                      successors, trim_reference)
from semantics import SignalWord, accepts_lasso, chop, eval_signal

DEEP_FORMULAS = ("G r & F (g & F (p & F (c & F b)))",
                 "G F g & G F p & G F c & G r")


class TestBuildGba:
    def test_fg_valuation_count(self):
        # F g = true U g: per g-observation the until cell of (A, o) allows
        # A:1, Z:2, E:1, N:2 valuations -- 6 states plus q0.
        a = build_gba(to_nnf(parse_ltl("F g")))
        assert len(a.states - {Q0}) == 6
        assert a.n_states == 7

    def test_atom(self):
        a = build_gba(to_nnf(parse_ltl("p")))
        assert a.states == frozenset({Q0, ("A",), ("Z",), ("E",), ("N",)})
        # q0 reads only states whose root valuation starts true (A or Z)
        q0_targets = {d for s, _, d in a.edges if s == Q0}
        assert q0_targets == {("A",), ("Z",)}
        assert a.accepting == ()

    def test_strategies_agree(self):
        # the two reference enumerators list the same consistent valuations
        rng = random.Random(41)
        for _ in range(40):
            sub = subformulas(rand_nnf(rng, 2, ("p", "q")))
            a = _consistent_valuations_bottomup(sub)
            b = _consistent_valuations_bruteforce(sub)
            assert len(set(a)) == len(a) and len(set(b)) == len(b)
            assert set(a) == set(b)

    def test_targets_per_signature(self):
        # the generator build_gba calls per source signature lists exactly
        # the consistent valuations of a valid letter (at most one atom in
        # {Z,E}) with that target signature (in {A,Z} per subformula), none
        # for a signature no such valuation has, and for Q0 exactly those
        # whose root is in {A,Z}
        rng = random.Random(41)
        for _ in range(40):
            sub = subformulas(rand_nnf(rng, 2, ("p", "q")))
            tables = _position_tables(sub)
            atom_pos = [k for k, g in enumerate(sub) if isinstance(g, Atom)]
            valuations = [v for v in _consistent_valuations_bruteforce(sub)
                          if sum(v[k] in "ZE" for k in atom_pos) <= 1]
            by_sig = {}
            for v in valuations:
                sig = tuple(int(o in "AZ") for o in v)
                by_sig.setdefault(sig, set()).add(v)
            for sig in itertools.product((0, 1), repeat=len(sub)):
                got = _consistent_targets(tables, sig)
                assert len(set(got)) == len(got)
                assert set(got) == by_sig.get(sig, set())
            root_true = {v for v in valuations if v[-1] in "AZ"}
            got = _consistent_targets(tables, (2,) * (len(sub) - 1) + (1,))
            assert len(set(got)) == len(got) and set(got) == root_true


def _reachable_part(a):
    """The sub-automaton of ``a`` reachable from Q0."""
    adj = successors(a)
    seen = {Q0}
    stack = [Q0]
    while stack:
        for _, d in adj.get(stack.pop(), ()):
            if d not in seen:
                seen.add(d)
                stack.append(d)
    states = frozenset(seen)
    return hand_automaton(a.aps, states,
                          frozenset(e for e in a.edges if e[0] in seen), Q0,
                          tuple(fs & states for fs in a.accepting))


class TestForwardBuild:
    """``build_gba`` explores from Q0 over valid letters; the eager
    reference builds every consistent valuation and every edge."""

    @pytest.fixture(scope="class")
    def cases(self):
        rng = random.Random(53)
        formulas = [rand_nnf(rng, 3, ("p", "q", "r")) for _ in range(150)]
        formulas += [to_nnf(parse_ltl(f))
                     for f in BENCH_FORMULAS + DEEP_FORMULAS]
        # all 6,001 valuations of this one are reachable over all letters,
        # 1,876 over valid letters
        formulas.append(to_nnf(parse_ltl(f"!({DEEP_FORMULAS[1]})")))
        return [(f, full_gba_reference(f)) for f in formulas]

    def test_equals_reachable_part_of_reference(self, cases):
        smaller = 0
        for f, ref in cases:
            a = build_gba(f)
            part = _reachable_part(restrict_valid_letters(ref))
            assert a.states == part.states, formula_str(f)
            assert a.edges == part.edges, formula_str(f)
            assert a.accepting == part.accepting, formula_str(f)
            smaller += a.n_states < ref.n_states
        # the cases include valuations that Q0 never reaches
        assert smaller > 0

    def test_translate_stages_equal_reference_stages(self, cases):
        for f, ref in cases:
            art = translate(f)
            trimmed = trim(restrict_valid_letters(ref))
            minimized = minimize(trimmed)
            assert art["trimmed"] == trimmed, formula_str(f)
            assert art["minimized"] == minimized, formula_str(f)
            assert art["nba"] == degeneralize(minimized), formula_str(f)

    def test_deep_formula_sizes(self, cases):
        f = to_nnf(parse_ltl(DEEP_FORMULAS[0]))
        ref = _reachable_part(dict(cases)[f])
        assert (ref.n_states, len(ref.edges)) == (1857, 31016)
        restricted = restrict_valid_letters(ref)
        assert len(restricted.edges) == 9649
        trimmed = trim(restricted)
        assert (trimmed.n_states, len(trimmed.edges)) == (581, 3269)
        raw = build_gba(f)
        assert raw == trimmed
        assert restrict_valid_letters(raw) == raw and trim(raw) == raw
        minimized = minimize(trimmed)
        assert minimized.n_states == 237
        assert degeneralize(minimized).n_states == 1147

    def test_negated_deep_formula_sizes(self):
        # over all letters 11,137 valuations and 366,168 edges are
        # reachable; valid letters reach only these
        art = translate(to_nnf(parse_ltl(f"!({DEEP_FORMULAS[0]})")))
        assert (art["gba"].n_states, len(art["gba"].edges)) == (2089, 14247)
        assert art["nba"].n_states == 3965

    def test_build_is_restricted_and_trimmed(self):
        # every edge build_gba makes reads a valid letter and every state
        # is reachable, so translate's restriction and trim are identities
        rng = random.Random(71)
        formulas = [rand_nnf(rng, 3, ("p", "q", "r")) for _ in range(60)]
        consts = []
        while len(consts) < 30:
            f = to_nnf(rand_formula(rng, 3, ("p", "q", "r")))
            if len(atoms(f)) >= 2 and any(
                    isinstance(g, (TrueF, FalseF)) for g in subformulas(f)):
                consts.append(f)
        formulas += consts + [to_nnf(parse_ltl(f)) for f in (
            "true U (p & q)", "false R (p | !q)", "(p & true) U (q | false)",
            "G (p | false) & F (q & true) & r")]
        for f in formulas:
            a = build_gba(f)
            for _, o, _ in a.edges:
                assert sum(v in "ZE" for _, v in o) <= 1, formula_str(f)
            assert restrict_valid_letters(a) == a, formula_str(f)
            assert trim(a) == a, formula_str(f)


def _assert_stages_equal_references(f):
    """translate's "minimized" and "nba" equal the tuple-based reference
    stages name for name, and every stage numbers its states in the
    ``repr`` order of their names, which ``build_game`` relies on."""
    art = translate(f)
    minimized = minimize_reference(art["trimmed"])
    nba = degeneralize_reference(minimized)
    for got, ref in ((art["minimized"], minimized), (art["nba"], nba)):
        assert got.initial == ref.initial, formula_str(f)
        assert got.states == ref.states, formula_str(f)
        assert got.edges == ref.edges, formula_str(f)
        assert got.accepting == ref.accepting, formula_str(f)
    for a in art.values():
        assert list(a.names) == sorted(a.names, key=repr), formula_str(f)


class TestIntStagesEqualReferences:
    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(seed=st.integers(0, 2**32), depth=st.integers(1, 4))
    def test_random_formulas(self, seed, depth):
        _assert_stages_equal_references(
            rand_nnf(random.Random(seed), depth, ("p", "q", "r")))

    # the last formula has 12 accepting sets: counter 10 sorts before 2
    @pytest.mark.parametrize("formula", (
        *BENCH_FORMULAS, *DEEP_FORMULAS, *(f"!({f})" for f in DEEP_FORMULAS),
        "G F p & G F q & G F r & G F (p & q) & G F (q & r) & G F (p & r)"))
    def test_bench_and_deep_formulas(self, formula):
        _assert_stages_equal_references(to_nnf(parse_ltl(formula)))


def _dead_chain():
    """q0 -> a -> b -> c dead-ends; q0 -> x loops; u is unreachable."""
    lbl = (("p", "A"),)
    return hand_automaton(("p",), {Q0, "a", "b", "c", "x", "u"},
                          {(Q0, lbl, "a"), ("a", lbl, "b"), ("b", lbl, "c"),
                           (Q0, lbl, "x"), ("x", lbl, "x"), ("u", lbl, "x")},
                          Q0, ({"b", "x", "u"},))


def _rand_sparse(rng, n=6):
    """Random automaton with few edges, so that dead states, dead chains
    and unreachable states are common; two accepting sets without Q0."""
    states = [Q0] + [f"s{i}" for i in range(n)]
    letters = [(("p", "A"),), (("p", "N"),)]
    edges = frozenset((s, o, d) for s in states for o in letters
                      for d in states[1:] if rng.random() < 0.12)
    accepting = tuple(frozenset(s for s in states[1:] if rng.random() < 0.5)
                      for _ in range(2))
    return hand_automaton(("p",), frozenset(states), edges, Q0, accepting)


class TestPipelineStages:
    def test_gfg_minimized_matches_reference(self):
        art = translate(to_nnf(parse_ltl("G F g")))
        assert gba_isomorphic(art["minimized"], _gfg_reference())

    def test_reference_is_prune_fixpoint(self):
        ref = _gfg_reference()
        assert prune(ref) == ref

    def test_globally_prunes_to_single_state(self):
        a = prune(build_gba(to_nnf(parse_ltl("G p"))))
        assert a.states == frozenset({Q0, ("N", "A", "A")})
        lbl = (("p", "A"),)
        assert a.edges == frozenset({
            (("N", "A", "A"), lbl, ("N", "A", "A")),
            (Q0, lbl, ("N", "A", "A"))})

    def test_empty_language_prunes_to_q0(self):
        a = prune(build_gba(to_nnf(parse_ltl("F g & G !g"))))
        assert a.states == frozenset({Q0})
        assert a.edges == frozenset()

    def test_restrict_valid_letters(self):
        a = full_gba_reference(to_nnf(parse_ltl("p U q")))
        r = restrict_valid_letters(a)
        assert all(sum(1 for _, v in o if v in ("Z", "E")) <= 1
                   for _, o, _ in r.edges)
        assert len(r.edges) < len(a.edges)

    def test_trim_removes_deadlocks(self):
        a = trim(restrict_valid_letters(build_gba(to_nnf(parse_ltl("G p")))))
        adj = successors(a)
        for s in a.states:
            assert adj.get(s)

    def test_trim_equals_definition(self):
        # on the eager reference over valid letters the reachable part has
        # no dead state, so trim equals the reference that also removes
        # dead states; on the sparse random automata it is the reachable part
        rng = random.Random(59)
        formulas = [rand_nnf(rng, 3, ("p", "q")) for _ in range(60)]
        shrunk = 0
        for a in [restrict_valid_letters(full_gba_reference(f))
                  for f in formulas]:
            t = trim(a)
            live = trim_reference(a)
            assert t.states == live, a
            assert t.edges == frozenset(
                e for e in a.edges if e[0] in live and e[2] in live)
            assert t.accepting == tuple(fs & live for fs in a.accepting)
            assert t.initial == a.initial == Q0
            shrunk += t.n_states < a.n_states
        assert shrunk > 0
        dead = 0
        for a in [_rand_sparse(rng) for _ in range(100)]:
            t = trim(a)
            assert t == _reachable_part(a), a
            dead += trim_reference(a) != t.states
        assert dead > 0

    def test_trim_keeps_a_reachable_dead_chain(self):
        # trim drops only what is unreachable; the dead chain a -> b -> c
        # stays (no pipeline automaton has one, see the lemma test)
        a = _dead_chain()
        lbl = (("p", "A"),)
        assert trim_reference(a) == {Q0, "x"}
        assert trim(a) == hand_automaton(
            ("p",), frozenset({Q0, "a", "b", "c", "x"}),
            frozenset({(Q0, lbl, "a"), ("a", lbl, "b"), ("b", lbl, "c"),
                       (Q0, lbl, "x"), ("x", lbl, "x")}), Q0,
            (frozenset({"b", "x"}),))

    def test_degeneralize_trims_its_input(self):
        # the eager reference over valid letters has unreachable states but
        # no reachable dead ones: the dead chain and the sparse random
        # automata supply those
        rng = random.Random(67)
        cases = [_dead_chain()]
        for _ in range(60):
            f = rand_nnf(rng, 3, ("p", "q"))
            cases += [build_gba(f),
                      restrict_valid_letters(full_gba_reference(f))]
        cases += [_rand_sparse(rng) for _ in range(100)]
        dead = 0
        for a in cases:
            assert degeneralize(a) == degeneralize(trim(a)), a
            dead += any(not successors(a).get(s) for s in a.states)
        assert dead > 0

    def test_minimize_idempotent(self):
        rng = random.Random(43)
        for _ in range(20):
            f = rand_nnf(rng, 2, ("p", "q"))
            m = minimize(trim(restrict_valid_letters(build_gba(f))))
            assert minimize(m).n_states == m.n_states

    def test_degeneralize_single_set_preserves_size(self):
        art = translate(to_nnf(parse_ltl("G r")))
        assert len(art["minimized"].accepting) == 1
        assert art["nba"].n_states == art["minimized"].n_states

    def test_name_views_make_no_reference_cycle(self):
        # perfbench's tracer reads len(a.edges) on every query: reading
        # the name views must leave every stage free for refcounting
        gc.disable()
        try:
            art = translate(to_nnf(parse_ltl("G F g")))
            for a in art.values():
                assert len(a.edges) == len(set(a.edges)) > 0
                assert a.states and a.initial in a.states
            refs = [weakref.ref(a) for a in art.values()]
            del art, a
            assert [r() for r in refs] == [None] * 4
        finally:
            gc.enable()

    def test_translate_artifacts(self):
        art = translate(to_nnf(parse_ltl("F p")))
        assert set(art) == {"gba", "trimmed", "minimized", "nba"}
        assert len(art["nba"].accepting) == 1
        assert art["gba"].n_states >= art["trimmed"].n_states >= \
            art["minimized"].n_states


class TestAcceptsLasso:
    def test_gfg_examples(self):
        nba = translate(to_nnf(parse_ltl("G F g")))["nba"]
        accept = SignalWord.make(("g",), [], [{"g": "A"}])
        reject = SignalWord.make(("g",), [{"g": "Z"}], [{"g": "N"}])
        assert accepts_lasso(nba, accept)
        assert not accepts_lasso(nba, reject)

    def test_invalid_word_raises(self):
        nba = translate(to_nnf(parse_ltl("G F g")))["nba"]
        bad = SignalWord.make(("g",), [{"g": "A"}], [{"g": "N"}])
        with pytest.raises(ValueError):
            accepts_lasso(nba, bad)

    def test_ap_mismatch_raises(self):
        nba = translate(to_nnf(parse_ltl("G F g")))["nba"]
        w = SignalWord.make(("p",), [], [{"p": "A"}])
        with pytest.raises(ValueError):
            accepts_lasso(nba, w)

    def test_gba_acceptance_supported(self):
        gba = translate(to_nnf(parse_ltl("G F g")))["minimized"]
        w = SignalWord.make(("g",), [], [{"g": "A"}])
        assert accepts_lasso(gba, w)


class TestLanguagePreservation:
    def test_stages_agree_and_sound(self):
        rng = random.Random(47)
        formulas = []
        while len(formulas) < 20:
            f = rand_nnf(rng, 3, ("p", "q"))
            if atoms(f):
                formulas.append(f)
        checked = 0
        for f in formulas:
            aps = atoms(f)
            art = translate(f)
            stages = [art["gba"], art["trimmed"], art["minimized"],
                      art["nba"], prune(art["gba"])]
            for _ in range(25):
                sig = rand_signal(rng, aps)
                w = chop(sig, 1)
                res = [accepts_lasso(a, w) for a in stages]
                assert len(set(res)) == 1, (f, w)
                if res[0]:
                    # acceptance is sound for dense-time satisfaction
                    assert eval_signal(sig, f)
                checked += 1
        assert checked == 500


class TestSerialization:
    def test_to_dot(self):
        a = translate(to_nnf(parse_ltl("p")))["nba"]
        dot = automaton_to_dot(a, title="p")
        assert dot.startswith("digraph") and "q0" in dot
