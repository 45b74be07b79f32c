"""Büchi game construction, solving, strategy checking, and verify()."""
import gc
import hashlib
import json
import random
import weakref
from collections.abc import Sequence
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import apobs.abstraction as abstraction_module
import apobs.game as game_module
from apobs.abstraction import SystemSpec, Mode, system_spec_to_json
from apobs.automata import Automaton, translate
from apobs.cli import BENCH_FORMULAS
from apobs.game import (LOSE, WIN, BuchiGame, PipelineError, Report,
                        _config_hash, build_game, game_to_json,
                        report_to_json, solve_buchi, solve_result_to_json,
                        verify)
from apobs.ltl import atoms, parse_ltl, to_nnf
from apobs.scenarios import drone_spec
from conftest import (brute_force_w0, build_game_reference, check_strategy,
                      drone_model, hand_model, rand_buchi_game, rand_model,
                      rand_nba, rand_nnf, random_spec,
                      winning_region_fixpoint)


def _letters(*obs):
    return [(("p", o),) for o in obs]


def _one_state_model(letters):
    q = (0,)
    return hand_model(("p",), (q,), q, {q: tuple((o, q) for o in letters)})


def _accept_all_nba(letters):
    return Automaton(("p",), frozenset({"b0"}),
                     frozenset(("b0", o, "b0") for o in letters),
                     "b0", (frozenset({"b0"}),))


def _spec_1d():
    """1-D belt moving right at speed 1, stopped near the right edge;
    p holds on the whole domain."""
    return SystemSpec(
        dim=1, domain=((-5.5, 5.5),), eta=1.0, tau=1.0, x_in=(0.0,),
        modes={"default": Mode(u=(1.0,), du=(0.0,)),
               "stop": Mode(u=(0.0,), du=(0.0,))},
        field={"kind": "table", "cells": {(4,): "stop", (5,): "stop"},
               "default": "default"},
        ap_regions={"p": (((0, "ge", -100.0),),)})


class TestBuildGame:
    def test_trivial_win(self):
        letters = _letters("A")
        model = _one_state_model(letters)
        nba = _accept_all_nba(letters)
        game = build_game(model, nba)
        assert game.initial == 0
        assert game.names[0] == ("O", (0,), "b0")
        assert game.n_opponent == 1 and game.n_player == 1
        assert not game.redirected_player and not game.redirected_opponent
        res = solve_buchi(game)
        assert res.winning
        assert res.w0 == frozenset(game.edges)
        assert check_strategy(game, res.strategy0)

    def test_rejecting_automaton_loses(self):
        # the automaton only reads N, the model only emits A: every Player
        # vertex is stuck and gets redirected to the LOSE sink
        model = _one_state_model(_letters("A"))
        nba = Automaton(("p",), frozenset({"b0"}),
                        frozenset({("b0", (("p", "N"),), "b0")}),
                        "b0", (frozenset({"b0"}),))
        game = build_game(model, nba)
        assert LOSE in game.names
        assert game.redirected_player
        res = solve_buchi(game)
        assert not res.winning
        assert game.initial in res.w1

    def test_stuck_opponent_wins(self):
        # a model state with no outgoing transitions is an Opponent dead
        # end: redirected to the WIN sink
        q = (0,)
        model = hand_model(("p",), (q,), q, {q: ()})
        game = build_game(model, _accept_all_nba(_letters("A")))
        assert WIN in game.names
        assert [game.names[v] for v in game.redirected_opponent] == \
            [("O", q, "b0")]
        assert solve_buchi(game).winning

    def test_alphabet_mismatch(self):
        model = _one_state_model(_letters("A"))
        nba = Automaton(("q",), frozenset({"b0"}),
                        frozenset({("b0", (("q", "A"),), "b0")}),
                        "b0", (frozenset({"b0"}),))
        with pytest.raises(ValueError, match="alphabet mismatch"):
            build_game(model, nba)

    def test_label_out_of_order(self):
        # same AP set, but an automaton label that lists the APs in
        # another order than the model: a one-line error, not a letter
        # that silently matches nothing
        q = (0,)
        a = (("p", "A"), ("q", "A"))
        model = hand_model(("p", "q"), (q,), q, {q: ((a, q),)})
        nba = Automaton(("p", "q"), frozenset({"b0"}),
                        frozenset({("b0", a, "b0"),
                                   ("b0", a[::-1], "b0")}),
                        "b0", (frozenset({"b0"}),))
        with pytest.raises(ValueError, match="in order") as e:
            build_game(model, nba)
        assert "\n" not in str(e.value)

    @pytest.mark.parametrize("n_sets", [0, 2])
    def test_needs_one_accepting_set(self, n_sets):
        model = _one_state_model(_letters("A"))
        nba = replace(_accept_all_nba(_letters("A")),
                      accepting=(frozenset({"b0"}),) * n_sets)
        with pytest.raises(ValueError):
            build_game(model, nba)

    def test_more_automaton_edges_never_hurt(self):
        # extra automaton edges only add Player options
        rng = random.Random(61)
        letters = _letters("A", "Z", "E", "N")
        wins = 0
        for _ in range(40):
            model = rand_model(rng, letters)
            nba = rand_nba(rng, letters)
            extra = set(nba.edges)
            for b in nba.states:
                for o in letters:
                    if rng.random() < 0.3:
                        extra.add((b, o, rng.choice(sorted(nba.states))))
            nba2 = replace(nba, edges=frozenset(extra))
            r1 = solve_buchi(build_game(model, nba))
            r2 = solve_buchi(build_game(model, nba2))
            if r1.winning:
                wins += 1
                assert r2.winning
        assert wins > 0


def _assert_same_game(model, nba):
    """build_game equals the tuple-keyed reference explorer, field by
    field and in the same order."""
    game = build_game(model, nba)
    ref = build_game_reference(model, nba)
    assert tuple(game.names) == ref.names
    assert list(game.edges.items()) == list(ref.edges.items())
    assert game.owner == ref.owner
    assert game.accepting == ref.accepting
    assert game.initial == ref.initial
    assert game.redirected_player == ref.redirected_player
    assert game.redirected_opponent == ref.redirected_opponent
    return game


class TestBuildGameReference:
    """build_game explores the product on int keys; the reference in
    conftest explores it on vertex tuples."""

    @pytest.mark.parametrize("formula", BENCH_FORMULAS)
    def test_bench_formulas_on_the_drone(self, formula):
        nnf = to_nnf(parse_ltl(formula))
        _assert_same_game(drone_model(atoms(nnf)), translate(nnf)["nba"])

    def test_stuck_cell(self):
        # cell (1,) has no transitions: its Opponent vertex goes to WIN;
        # the automaton reads no Z, so the Player vertex on Z goes to LOSE
        a, z = _letters("A", "Z")
        q0, q1, q2 = (0,), (1,), (2,)
        model = hand_model(("p",), (q0, q1, q2), q0,
                           {q0: ((a, q1), (a, q2)), q1: (),
                            q2: ((z, q2), (a, q0))})
        nba = Automaton(("p",), frozenset({"b0", "b1"}),
                        frozenset({("b0", a, "b1"), ("b1", a, "b0"),
                                   ("b1", a, "b1")}),
                        "b0", (frozenset({"b1"}),))
        game = _assert_same_game(model, nba)
        assert {game.names[v] for v in game.redirected_opponent} == \
            {("O", q1, "b0"), ("O", q1, "b1")}
        assert {game.names[v] for v in game.redirected_player} == \
            {("P", q2, z, "b0"), ("P", q2, z, "b1")}

    def test_repeated_pair(self):
        # (a, q1) is listed twice by q0 and reached again from q1: q0's
        # row lists it once, and there is one Player vertex per automaton
        # state
        a, z = _letters("A", "Z")
        q0, q1 = (0,), (1,)
        model = hand_model(("p",), (q0, q1), q0,
                           {q0: ((a, q1), (z, q0), (a, q1)),
                            q1: ((a, q1), (z, q0))})
        assert len(model.transitions.row(0)) == 2
        assert model.transitions[q0] == ((a, q1), (z, q0))
        nba = Automaton(("p",), frozenset({"b0", "b1"}),
                        frozenset({("b0", a, "b0"), ("b0", a, "b1"),
                                   ("b1", z, "b0"), ("b1", a, "b1"),
                                   ("b0", z, "b1")}),
                        "b0", (frozenset({"b1"}),))
        game = _assert_same_game(model, nba)
        assert game.edges[0] == (1, 2)
        assert game.n_player == 4 and game.n_opponent == 4

    def test_successor_outside_states(self):
        # q1 is a successor but neither in states nor a key of the dict:
        # it gets the id after the states, has no row, and its Opponent
        # vertices go to WIN
        a, z = _letters("A", "Z")
        q0, q1 = (0,), (1,)
        model = hand_model(("p",), (q0,), q0, {q0: ((a, q1), (z, q0))})
        assert model.transitions.state_id(q1) == 1
        assert q1 not in model.transitions and list(model.transitions) == [q0]
        nba = _accept_all_nba([a, z])
        game = _assert_same_game(model, nba)
        assert [game.names[v] for v in game.redirected_opponent] == \
            [("O", q1, "b0")]
        assert solve_buchi(game).winning

    @pytest.mark.parametrize("formula", ["G r", "c U b", "F G r",
                                         "G r & F (g & F p)"])
    def test_model_from_json_builds_the_same_game(self, formula):
        # a model given as a dict goes through the encoder into the same
        # integer rows as the model it was read from
        nnf = to_nnf(parse_ltl(formula))
        model, nba = drone_model(atoms(nnf)), translate(nnf)["nba"]
        back = hand_model(model.aps, model.states, model.q_in,
                          dict(model.transitions), model.has_sink)
        game, again = build_game(model, nba), build_game(back, nba)
        assert list(again.edges.items()) == list(game.edges.items())
        assert again.owner == game.owner
        assert again.accepting == game.accepting
        assert again.redirected_player == game.redirected_player
        assert again.redirected_opponent == game.redirected_opponent
        assert list(again.names) == list(game.names)

    @settings(derandomize=True, database=None, max_examples=100,
              deadline=None)
    @given(spec=random_spec(), seed=st.integers(0, 2**32))
    def test_random_specs(self, spec, seed):
        nnf = rand_nnf(random.Random(seed), 3, sorted(spec.ap_regions))
        model = abstraction_module.build_symbolic_model(
            spec, tracked_aps=atoms(nnf))
        _assert_same_game(model, translate(nnf)["nba"])

    def test_names_sequence(self):
        nnf = to_nnf(parse_ltl("G r & F (g & F p)"))
        model, nba = drone_model(atoms(nnf)), translate(nnf)["nba"]
        names = build_game(model, nba).names
        ref = build_game_reference(model, nba).names
        assert isinstance(names, Sequence)
        assert len(names) == len(ref)
        assert list(names) == list(ref)
        assert names[-1] == ref[-1] and names[-len(ref)] == ref[0]
        assert ref[5] in names
        assert (WIN in names, LOSE in names) == (WIN in ref, LOSE in ref)
        assert ("O", (99, 99), ref[0][2]) not in names
        with pytest.raises(IndexError):
            names[len(ref)]
        with pytest.raises(TypeError):
            names[0] = ref[0]


class TestSolveBuchi:
    def _handmade(self):
        # s (Player) may go to the accepting Opponent hub g (which must
        # return to s) or into the non-accepting trap t
        s, g, t = 0, 1, 2
        return BuchiGame(("s", "g", "t"), {s: (g, t), g: (s,), t: (t,)},
                         bytes([0, 1, 1]), frozenset({g}), s, (), ())

    def test_handmade_regions(self):
        game = self._handmade()
        res = solve_buchi(game)
        assert res.w0 == frozenset({0, 1})
        assert res.w1 == frozenset({2})
        assert res.winning
        assert res.strategy0[0] == 1
        assert winning_region_fixpoint(game) == res.w0
        assert res.stats["vertices"] == 3
        assert res.stats["player_vertices"] == 1
        assert res.stats["opponent_vertices"] == 2

    def test_handmade_strategy_check(self):
        game = self._handmade()
        res = solve_buchi(game)
        assert check_strategy(game, res.strategy0)
        # steering into the trap must be caught by the falsifier
        assert not check_strategy(game, {0: 2})

    def test_undefined_strategy_raises(self):
        game = self._handmade()
        with pytest.raises(KeyError):
            check_strategy(game, {})

    def test_matches_brute_force(self):
        rng = random.Random(67)
        for _ in range(30):
            game = rand_buchi_game(rng, max_vertices=8)
            res = solve_buchi(game)
            assert res.w0 == brute_force_w0(game)

    def test_determinacy_and_fixpoint_oracle(self):
        rng = random.Random(71)
        for _ in range(60):
            game = rand_buchi_game(rng)
            res = solve_buchi(game)
            assert res.w0 | res.w1 == frozenset(game.edges)
            assert not (res.w0 & res.w1)
            assert winning_region_fixpoint(game) == res.w0

    def test_strategies_win_on_random_games(self):
        rng = random.Random(73)
        for _ in range(25):
            game = rand_buchi_game(rng, max_vertices=8)
            res = solve_buchi(game)
            if res.winning:
                assert check_strategy(game, res.strategy0, trials=30)


class TestProductGames:
    """The solver against the fixpoint oracle on the drone's product
    games, which have redirected vertices."""

    @pytest.mark.parametrize("formula", BENCH_FORMULAS)
    def test_solver_matches_oracle(self, formula):
        report, art = verify(drone_spec(), formula)
        game, res = art["game"], art["solve"]
        assert res.w0 == winning_region_fixpoint(game)
        assert res.w0 | res.w1 == frozenset(game.edges)
        if report.verdict == "VERIFIED":
            assert check_strategy(game, res.strategy0)


class TestVerify:
    def test_1d_verified(self):
        report, art = verify(_spec_1d(), "G p")
        assert report.verdict == "VERIFIED"
        assert art["solve"].winning
        assert art["model"].n_states == 11
        assert not art["model"].has_sink
        assert set(report.sizes) == {"automaton", "model", "game_player",
                                     "game_opponent"}
        assert set(report.times) >= {"automaton", "model", "game_build",
                                     "game_solve", "total"}
        assert report.notes["tracked_aps"] == ["p"]
        assert len(report.config_hash) == 16

    def test_1d_inconclusive(self):
        report, art = verify(_spec_1d(), "G !p")
        assert report.verdict == "INCONCLUSIVE"
        assert not art["solve"].winning

    def test_config_hash_deterministic(self):
        r1, _ = verify(_spec_1d(), "G p")
        r2, _ = verify(_spec_1d(), "G p", repeat=2)
        assert r1.config_hash == r2.config_hash
        assert r2.repeat == 2
        r3, _ = verify(_spec_1d(), "F p")
        assert r3.config_hash != r1.config_hash

    def test_repeat_builds_a_fresh_model_each_run(self, monkeypatch):
        models = []

        def spy(model, nba):
            models.append(model)
            return build_game(model, nba)

        monkeypatch.setattr(game_module, "build_game", spy)
        report, _ = verify(_spec_1d(), "G p", repeat=3)
        assert report.verdict == "VERIFIED"
        assert len({id(m) for m in models}) == 3

    def test_repeat_builds_each_model_on_a_cold_spec(self, monkeypatch):
        # the spec keeps v_max once a model build computes it; runs after
        # the first must not find it there
        cached = []
        real = abstraction_module.build_symbolic_model

        def spy(spec, **kwargs):
            cached.append("v_max" in spec.__dict__)
            return real(spec, **kwargs)

        monkeypatch.setattr(abstraction_module, "build_symbolic_model", spy)
        spec = _spec_1d()
        report, _ = verify(spec, "G p", repeat=3)
        assert report.verdict == "VERIFIED"
        assert cached == [False, False, False]
        assert "v_max" in spec.__dict__  # run 1 built on the spec itself

    def test_stage_parse(self):
        with pytest.raises(PipelineError) as e:
            verify(_spec_1d(), "G p (")
        assert e.value.stage == "parse"

    def test_stage_nnf(self):
        with pytest.raises(PipelineError) as e:
            verify(_spec_1d(), "X p")
        assert e.value.stage == "nnf"

    def test_stage_model_tau(self):
        spec = SystemSpec(
            dim=1, domain=((-5.5, 5.5),), eta=1.0, tau=10.0, x_in=(0.0,),
            modes={"default": Mode(u=(1.0,), du=(0.0,))}, field="default",
            ap_regions={"a": (((0, "ge", 0.0),),),
                        "b": (((0, "ge", 0.5),),)})
        with pytest.raises(PipelineError) as e:
            verify(spec, "G a")
        assert e.value.stage == "model"
        with pytest.raises(PipelineError) as e:
            verify(spec, "G c")  # c has no region in the spec
        assert e.value.stage == "model"

    def test_config_hash_matches_definition(self):
        def direct(spec, formula_text, tracked):
            blob = json.dumps({"spec": system_spec_to_json(spec),
                               "formula": formula_text,
                               "tracked": list(tracked)}, sort_keys=True)
            return hashlib.sha256(blob.encode()).hexdigest()[:16]

        cases = [(drone_spec(), "G r & F (g & F p)", ("g", "p", "r")),
                 (_spec_1d(), "G p", ("p",)),
                 (drone_spec(eta=0.5), 'F "é" & G "∂"', ("∂", "é")),
                 (drone_spec(), "", ())]
        for spec, text, tracked in cases:
            assert _config_hash(spec, text, tracked) == \
                direct(spec, text, tracked)
            # the second call reads the cached spec text
            assert _config_hash(spec, text, tracked) == \
                direct(spec, text, tracked)

    def test_model_and_game_freed_without_the_cycle_collector(self):
        # neither the model nor the game nor the spec (with the step
        # tables it keeps) is in a reference cycle, so a query's memory is
        # free for the next one as soon as its result is dropped
        gc.disable()
        try:
            spec = _spec_1d()
            _, art = verify(spec, "G p")
            refs = [weakref.ref(art["model"].transitions),
                    weakref.ref(art["game"]), weakref.ref(spec)]
            del art, spec
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_drone_field_in_metres(self):
        # the patrol field is evaluated in metres, so eta = 0.25 grids the
        # same system as eta = 1; it was INCONCLUSIVE with a 13046+11255
        # game when the field read raw cell indices
        report, _ = verify(drone_spec(eta=0.25), "F G r")
        assert report.verdict == "VERIFIED"
        assert (report.sizes["game_player"],
                report.sizes["game_opponent"]) == (5586, 5575)


class TestSerialization:
    def test_report_roundtrip(self):
        report, _ = verify(_spec_1d(), "G p")
        # the JSON carries every field of the report
        assert Report(**report_to_json(report)) == report

    def test_game_json(self):
        _, art = verify(_spec_1d(), "G p")
        obj = game_to_json(art["game"])
        assert obj["initial"]["kind"] == "O"
        assert obj["player_vertices"] == art["game"].n_player
        assert obj["opponent_vertices"] == art["game"].n_opponent
        assert len(obj["edges"]) == sum(map(len, art["game"].edges.values()))

    def test_solve_json(self):
        _, art = verify(_spec_1d(), "G p")
        obj = solve_result_to_json(art["game"], art["solve"])
        assert obj["verdict"] == "VERIFIED"
        assert obj["w0_size"] == len(art["solve"].w0)
        assert obj["stats"]["iterations"] >= 1
        assert all({"vertex", "move"} == set(m) for m in obj["strategy"])
