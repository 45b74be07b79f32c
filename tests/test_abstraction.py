"""Grid quantization, cell classification, reachability, and simulation."""
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import apobs
from apobs.abstraction import (Mode, OutOfDomainError, SINK, SystemSpec,
                               TauValidationError, build_symbolic_model, gamma, mode_for_cell,
                               region_contains,
                               simulate_trajectory, is_run_of,
                               system_spec_from_json,
                               system_spec_to_json, validate_tau,
                               velocity_extents, _P_E, _P_Z)
from apobs.game import build_game, verify
from apobs.observations import ChoppingError, UndefinedSlice, letter_code
from apobs.scenarios import drone_spec
from conftest import (_model_edges, cell_box, drone_model, edge_spec,
                      field_mode, hand_automaton, hand_model, random_spec,
                      reach_box, reference_transitions, rho,
                      sampled_trajectory)


def _exact_refines_sampler(spec, horizon, seed, tracked_aps=None):
    """Chop one trajectory exactly and with the reference sampler.  Where
    the sampler returns a word, simulate_trajectory returns the same
    cells and word or raises a ChoppingError; where the sampler raises
    one at step k, simulate_trajectory raises one at step k or before.
    Returns the exact result, or None when either chopper raised."""
    try:
        sampled = sampled_trajectory(spec, horizon, seed, tracked_aps)
    except ChoppingError as e:
        with pytest.raises(ChoppingError) as exact_error:
            simulate_trajectory(spec, horizon, seed, tracked_aps)
        assert exact_error.value.slice_index <= e.slice_index
        return None
    try:
        exact = simulate_trajectory(spec, horizon, seed, tracked_aps)
    except ChoppingError:
        return None
    assert exact == sampled
    return exact


def _uniform_spec(mode, dim=2, domain=16.5, tau=1.0, aps=None):
    return SystemSpec(
        dim=dim, domain=((-domain, domain),) * dim, eta=1.0, tau=tau,
        x_in=(0.0,) * dim, modes={"default": mode}, field="default",
        ap_regions=aps or {"far": (((0, "ge", 100.0),),)})


class TestGamma:
    def test_examples(self, drone):
        assert gamma((10.3, 9.8), drone) == (10, 10)
        assert gamma((3.0, -4.0), drone) == (3, -4)
        assert gamma((0.5, 0.5), drone) == (1, 1)   # ties round half-up

    def test_boundary_clamped(self, drone):
        assert gamma((16.5, 16.5), drone) == (16, 16)
        assert gamma((-16.5, 0.0), drone) == (-16, 0)

    def test_out_of_domain(self, drone):
        with pytest.raises(OutOfDomainError):
            gamma((17.0, 0.0), drone)
        with pytest.raises(OutOfDomainError):
            gamma((0.0, -16.6), drone)


class TestCellClassification:
    def test_examples(self, drone):
        assert rho(drone, (10, 10), "c") == "+"
        assert rho(drone, (0, 0), "r") == "-"
        assert rho(drone, (6, 6), "g") == "?"

    def test_sink_is_unknown(self, drone):
        assert rho(drone, SINK, "c") == "?"

    def test_trichotomy_sampled(self, drone):
        rng = random.Random(51)
        cells = drone.cells
        for _ in range(1000):
            cell = rng.choice(cells)
            p = rng.choice(sorted(drone.ap_regions))
            cls = rho(drone, cell, p)
            box = cell_box(drone, cell)
            pts = [[rng.uniform(lo, hi) for lo, hi in box]
                   for _ in range(20)]
            inside = [region_contains(drone.ap_regions[p], x) for x in pts]
            if cls == "+":
                assert all(inside)
            elif cls == "-":
                assert not any(inside)
            # "?" makes no claim about interior points


class TestValidateTau:
    def test_drone(self, drone):
        tv = validate_tau(drone)
        assert tv.v_max == pytest.approx(4.1)
        assert tv.tau_max == pytest.approx(4.11 / 4.1)
        assert tv.passed
        assert tv.shared_boundaries  # 6.21 is shared by several regions
        assert min(tv.distances.values()) == pytest.approx(4.11)

    def test_too_large_tau_fails(self):
        spec = drone_spec(tau=1.1)
        assert not validate_tau(spec).passed
        with pytest.raises(TauValidationError):
            build_symbolic_model(spec, tracked_aps=("r",))

    def test_shared_boundary_flagged(self):
        spec = _uniform_spec(
            Mode(u=(1.0,), du=(0.0,)), dim=1, domain=5.0,
            aps={"a": (((0, "ge", 0.0),),), "b": (((0, "le", 0.0),),)})
        tv = validate_tau(spec)
        assert ("a", "b", 0, 0.0) in tv.shared_boundaries
        assert tv.distances[("a", "b")] == math.inf

    def test_single_ap_trivially_passes(self):
        tv = validate_tau(_uniform_spec(Mode(v=4.0, ev=0.1)))
        assert tv.passed and tv.tau_max == math.inf


class TestReachBox:
    def test_angular_extents(self):
        spec = _uniform_spec(Mode(v=4.0, ev=0.1, theta=0.0, etheta=0.08))
        box, exits = reach_box(spec, (0, 0))
        assert not exits
        assert box[0][1] == pytest.approx(0.5 + 4.1)
        assert box[0][0] == pytest.approx(-0.5 + 3.9 * math.cos(0.08))
        assert box[1][0] == pytest.approx(-0.5 - 4.1 * math.sin(0.08))
        assert box[1][1] == pytest.approx(0.5 + 4.1 * math.sin(0.08))

    def test_edge_cell_exits(self):
        spec = _uniform_spec(Mode(v=4.0, ev=0.1, theta=0.0, etheta=0.08))
        _, exits = reach_box(spec, (16, 0))
        assert exits

    def test_exact_translation(self):
        spec = _uniform_spec(Mode(u=(1.0, 0.0), du=(0.0, 0.0)))
        box, exits = reach_box(spec, (2, 3))
        assert not exits
        assert box[0] == (pytest.approx(2.5), pytest.approx(3.5))
        assert box[1] == (pytest.approx(2.5), pytest.approx(3.5))

    def test_list_velocity_is_hashable(self):
        mode = Mode(u=[1.0, 0.0], du=[0.25, 0.0])
        assert mode == Mode(u=(1.0, 0.0), du=(0.25, 0.0))
        assert velocity_extents(mode, 2) == ((0.75, 1.25), (0.0, 0.0))
        assert build_symbolic_model(_uniform_spec(mode)).n_states == 1089

    def test_zero_velocity(self):
        spec = _uniform_spec(Mode(u=(0.0, 0.0)))
        box, exits = reach_box(spec, (-4, 7))
        assert not exits
        assert box == cell_box(spec, (-4, 7))

    def test_soundness_sampled(self):
        spec = _uniform_spec(Mode(v=4.0, ev=0.1, theta=1.1, etheta=0.08))
        rng = random.Random(53)
        for cell in [(0, 0), (3, -2), (-8, 5), (10, 10)]:
            box, _ = reach_box(spec, cell)
            cb = cell_box(spec, cell)
            for _ in range(2500):
                x = [rng.uniform(lo, hi) for lo, hi in cb]
                s = 4.0 + rng.uniform(-0.1, 0.1)
                b = 1.1 + rng.uniform(-0.08, 0.08)
                y = (x[0] + spec.tau * s * math.cos(b),
                     x[1] + spec.tau * s * math.sin(b))
                for a in range(2):
                    assert box[a][0] - 1e-9 <= y[a] <= box[a][1] + 1e-9

    def test_tau_monotone(self):
        # with 0 an admissible velocity the time-tau boxes are nested in tau
        mode = Mode(u=(0.0, 0.0), du=(2.0, 1.5))
        for tau_small, tau_big in ((0.25, 0.5), (0.5, 1.0)):
            b1, _ = reach_box(_uniform_spec(mode, tau=tau_small), (1, 1))
            b2, _ = reach_box(_uniform_spec(mode, tau=tau_big), (1, 1))
            for a in range(2):
                assert b2[a][0] <= b1[a][0] + 1e-12
                assert b2[a][1] >= b1[a][1] - 1e-12


class TestSymbolicModel:
    def test_drone_grid_size(self, drone):
        assert len(drone.cells) == 1089
        model = drone_model(("r",))
        assert model.n_states == 1089
        assert model.q_in == (-10, 13)
        assert model.has_sink

    def test_label_containment_exhaustive(self, drone):
        # every transition label must respect the start/end cell
        # classifications of its endpoints
        model = drone_model(("r",))
        for q, o, q2 in _model_edges(model):
            for p, obs in o:
                start, end = rho(drone, q, p), rho(drone, q2, p)
                assert obs in (_P_Z[start] & _P_E[end]), (q, o, q2)

    def test_single_change_labels(self):
        model = drone_model(("r",))
        for _, o, _ in _model_edges(model):
            assert sum(1 for _, v in o if v in ("Z", "E")) <= 1

    def test_simulate_horizon_zero(self, drone):
        cells, word = simulate_trajectory(drone, 0, seed=1,
                                          tracked_aps=("r",))
        assert cells == [(-10, 13)] and word == []

    def test_simulate_deterministic_east(self):
        spec = _uniform_spec(Mode(u=(4.0, 0.0), du=(0.0, 0.0)))
        cells, word = simulate_trajectory(spec, 3, seed=0)
        assert cells == [(0, 0), (4, 0), (8, 0), (12, 0)]
        assert word == [(("far", "N"),)] * 3

    def test_simulated_runs_are_model_runs(self, drone):
        model = drone_model(("r",))
        for seed in (0, 1, 2):
            cells, word = simulate_trajectory(drone, 12, seed=seed,
                                              tracked_aps=("r",))
            assert is_run_of(model, cells, word)

    def test_exact_chopping_matches_the_sampler_on_the_drone(self, drone):
        for seed in range(10):
            assert _exact_refines_sampler(drone, 25, seed) is not None, seed

    def test_brief_crossing_raises(self):
        # from -1.998 at 4 m/s the step is inside 0 <= x <= 0.001 for
        # t in [0.4995, 0.49975]: 0.25 ms, between two sampled instants
        spec = SystemSpec(
            dim=1, domain=((-3.5, 4.5),), eta=1.0, tau=1.0, x_in=(-1.998,),
            modes={"default": Mode(u=(4.0,))}, field="default",
            ap_regions={"p": (((0, "ge", 0.0), (0, "le", 0.001)),)})
        assert sampled_trajectory(spec, 1, seed=0)[1] == [(("p", "N"),)]
        with pytest.raises(UndefinedSlice):
            simulate_trajectory(spec, 1, seed=0)

    def test_is_run_of_rejects_wrong_step(self):
        model = drone_model(("r",))
        cells, word = simulate_trajectory(drone_spec(), 4, seed=3,
                                          tracked_aps=("r",))
        cells[-1] = (0, 0)  # teleport: not a valid successor
        assert not is_run_of(model, cells, word)


class TestSerialization:
    def test_system_spec_roundtrip(self, drone):
        assert system_spec_from_json(system_spec_to_json(drone)) == drone

    def test_table_field_roundtrip(self):
        spec = _uniform_spec(Mode(u=(1.0, 0.0), du=(0.0, 0.0)))
        spec = SystemSpec(
            dim=2, domain=spec.domain, eta=1.0, tau=1.0, x_in=(0.0, 0.0),
            modes={"default": Mode(u=(1.0, 0.0), du=(0.0, 0.0)),
                   "stop": Mode(u=(0.0, 0.0), du=(0.0, 0.0))},
            field={"kind": "table", "cells": {(5, 5): "stop"},
                   "default": "default"},
            ap_regions={"far": (((0, "ge", 100.0),),)})
        back = system_spec_from_json(system_spec_to_json(spec))
        assert back == spec
        assert mode_for_cell(back, (5, 5)) == Mode(u=(0.0, 0.0),
                                                   du=(0.0, 0.0))

    def test_symbolic_model_roundtrip_is_exact(self):
        # a model's transitions as a dict go back through the encoder
        # into an equal model, with the same transitions in the same order
        model = drone_model(("g", "p", "r"))
        back = hand_model(model.aps, model.states, model.q_in,
                          dict(model.transitions), model.has_sink)
        assert list(back.transitions.items()) == \
            list(model.transitions.items())
        assert back == model


class TestLazyModel:
    """Transitions are computed on first access; every way of reading the
    model sees the same model."""

    def _spec(self):
        return SystemSpec(
            dim=2, domain=((-6.5, 6.5), (-6.5, 6.5)), eta=1.0, tau=1.0,
            x_in=(0.0, 0.0),
            modes={"default": Mode(v=2.0, ev=0.2, theta=0.3, etheta=0.2),
                   "west": Mode(u=(-1.5, 0.0), du=(0.2, 0.4))},
            field={"kind": "table", "default": "default",
                   "cells": {(x, y): "west" for x in range(-6, 7)
                             for y in range(-6, 7) if (x + y) % 3 == 0}},
            ap_regions={"a": (((0, "ge", 1.3),),),
                        "b": (((1, "le", -2.2), (0, "le", -3.0)),)})

    def test_any_read_order_gives_the_reference(self):
        spec = self._spec()
        aps = tuple(sorted(spec.ap_regions))
        for drop in (True, False):
            model = build_symbolic_model(spec, drop_multi_change=drop)
            assert model.has_sink
            states = list(model.transitions)
            random.Random(7).shuffle(states)
            for q in states:
                assert model.transitions.get(q) is not None
            ref = reference_transitions(spec, aps, drop)
            assert list(model.transitions) == list(ref)
            assert model.transitions == ref
            fresh = build_symbolic_model(spec, drop_multi_change=drop)
            assert list(_model_edges(model)) == list(_model_edges(fresh))

    def test_rows_are_pair_ints(self):
        # state id = position in states (row-major), the sink next; a
        # transition (o, q2) is letter_code(o, aps) * n_ids +
        # state_id(q2), and a row lists each pair once
        spec = self._spec()
        model = build_symbolic_model(spec)
        assert model.states is spec.cells
        t = model.transitions
        assert t.n_ids == len(model.states) + 1
        assert [t.state_id(q) for q in model.states] == \
            list(range(len(model.states)))
        assert t.state_id(SINK) == len(model.states)
        assert t.state(len(model.states)) == SINK
        assert model.states == tuple(sorted(model.states))
        for q in model.transitions:
            i = t.state_id(q)
            row = t.row(i)
            assert row == tuple(
                t.n_ids * letter_code(o, model.aps) + t.state_id(q2)
                for o, q2 in model.transitions[q])
            assert len(set(row)) == len(row)
            assert [t.pair(p) for p in row] == list(model.transitions[q])
        # a letter is decoded once per model: every read gives one tuple
        p = t.row(t.state_id(SINK))[0]
        assert t.pair(p)[0] is model.transitions[SINK][0][0]

    def test_hand_made_label_out_of_order(self):
        # a code ignores AP names, so a label must list the APs in order
        q = (0,)
        good = (("p", "A"), ("q", "N"))
        model = hand_model(("p", "q"), (q,), q, {q: ((good, q),)})
        for bad in ((("q", "N"), ("p", "A")), (("p", "A"),),
                    (("p", "A"), ("r", "N"))):
            with pytest.raises(ValueError, match="in order") as e:
                hand_model(("p", "q"), (q,), q, {q: ((bad, q),)})
            assert "\n" not in str(e.value)
            # an automaton's label is encoded when the automaton is made
            with pytest.raises(ValueError, match="in order") as e:
                nba = hand_automaton(("p", "q"), frozenset({"b0"}),
                                     frozenset({("b0", bad, "b0")}), "b0",
                                     (frozenset({"b0"}),))
                build_game(model, nba)
            assert "\n" not in str(e.value)

    def test_missing_state(self):
        model = build_symbolic_model(self._spec())
        assert model.transitions.get((7, 0)) is None
        assert model.transitions.get((7, 0), ()) == ()
        assert (7, 0) not in model.transitions
        assert (6, -6) in model.transitions and SINK in model.transitions
        with pytest.raises(KeyError):
            model.transitions[(7, 0)]
        with pytest.raises(KeyError):
            model.transitions["nowhere"]
        assert len(model.transitions) == 13 * 13 + 1

    def test_model_after_verify_is_complete(self):
        spec = drone_spec(eta=0.25)
        _, art = verify(spec, "G r")
        fresh = build_symbolic_model(spec, tracked_aps=("r",))
        assert list(art["model"].transitions.items()) == \
            list(fresh.transitions.items())


class TestRowTables:
    """Rows come from per-axis signature classes and step tables; they are
    the rows of the per-cell geometry, in order."""

    def test_drone_rows_pinned(self):
        # sha256 of every row, in order, of the eta = 0.25 drone over
        # (g, p, r), as computed by the per-cell build
        model = build_symbolic_model(drone_spec(eta=0.25),
                                     tracked_aps=("g", "p", "r"))
        t = model.transitions
        rows = [t.row(i) for i in range(t.n_ids)]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "c9bf55586b1719bb6ff6e92d59be6f6ff3b5b9356e25497d43f2ad1baaff5ffc")

    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(spec=edge_spec(), drop=st.booleans())
    def test_thresholds_on_edges_equal_reference(self, spec, drop):
        # a threshold on a cell or domain edge splits the comparisons
        # hi > c, lo > c (or lo < c, hi < c) of the cells next to it
        aps = tuple(sorted(spec.ap_regions))
        model = build_symbolic_model(spec, drop_multi_change=drop,
                                     force=True)
        ref = reference_transitions(spec, aps, drop)
        assert list(model.transitions) == list(ref)
        assert model.transitions == ref


class TestVMax:
    """``SystemSpec.v_max`` reads the modes the field resolves on the
    grid; it equals the largest bound over every cell's mode."""

    @staticmethod
    def _per_cell(spec):
        return max((field_mode(spec, c).v_max for c in spec.cells),
                   default=0.0)

    @staticmethod
    def _table(cells, default):
        return SystemSpec(
            dim=2, domain=((-2.5, 2.5),) * 2, eta=1.0, tau=1.0,
            x_in=(0.0, 0.0),
            modes={"default": Mode(u=(0.5, 0.0)), "mid": Mode(u=(1.0, -1.5)),
                   "fast": Mode(u=(3.0, 0.0))},
            field={"kind": "table", "cells": cells, "default": default},
            ap_regions={})

    def test_drone(self):
        for eta in (1.0, 0.5):
            spec = drone_spec(eta=eta)
            assert spec.v_max == self._per_cell(spec) == 4.1

    def test_table_key_outside_the_grid(self):
        # (9, 9) is no cell, so its faster mode is no cell's mode
        spec = self._table({(9, 9): "fast", (0, 1): "mid"}, "default")
        assert spec.v_max == self._per_cell(spec) == 1.5

    def test_table_covering_every_cell(self):
        # the default names the fastest mode but no cell uses it
        spec = self._table({c: "mid" for c in itertools.product(
            range(-2, 3), repeat=2)}, "fast")
        assert spec.v_max == self._per_cell(spec) == 1.5

    def test_empty_grid(self):
        spec = SystemSpec(
            dim=1, domain=((0.1, 0.2),), eta=1.0, tau=1.0, x_in=(0.15,),
            modes={"default": Mode(u=(2.0,))}, field="default",
            ap_regions={})
        assert spec.cells == ()
        assert spec.v_max == self._per_cell(spec) == 0.0

    @settings(derandomize=True, database=None, max_examples=100,
              deadline=None)
    @given(spec=random_spec())
    def test_random_specs(self, spec):
        assert spec.v_max == self._per_cell(spec)


class TestCellModes:
    """``SystemSpec.cell_modes``, read through ``mode_for_cell``, gives
    every cell the mode the field rules give it (``field_mode``)."""

    @staticmethod
    def _check(spec):
        modes, index = spec.cell_modes
        assert len(index) == len(spec.cells)
        # numbered in order of first use, and every one used
        assert list(dict.fromkeys(index)) == list(range(len(modes)))
        for cell in spec.cells:
            assert mode_for_cell(spec, cell) == field_mode(spec, cell), cell

    @pytest.mark.parametrize("eta", [1.0, 0.5, 0.25])
    def test_drone(self, eta):
        self._check(drone_spec(eta=eta))

    def test_table_key_outside_the_grid(self):
        self._check(TestVMax._table({(9, 9): "fast", (0, 1): "mid",
                                     (-2, 2): "fast"}, "default"))

    def test_not_a_cell(self, drone):
        for q in ((17, 0), (0,), (0, 0, 0), SINK):
            with pytest.raises(KeyError):
                mode_for_cell(drone, q)
        assert drone.cell_id((-16, -16)) == 0
        assert drone.cell_id((-16, -15)) == 1
        assert drone.cell_id((0, 0)) == drone.cells.index((0, 0))

    @settings(derandomize=True, database=None, max_examples=100,
              deadline=None)
    @given(spec=random_spec())
    def test_random_specs(self, spec):
        self._check(spec)


class TestGridCoverage:
    """The cells cover the domain when eta does not divide it."""

    def _spec(self, u, x, tau, aps):
        return SystemSpec(
            dim=1, domain=((-16.5, 16.5),), eta=0.7, tau=tau, x_in=(x,),
            modes={"default": Mode(u=(u,))}, field="default",
            ap_regions=aps)

    def test_boundary_cell_reaches_domain_edge(self):
        # the grid stops at 23 * 0.7 + 0.35 = 16.45; the last cell's box
        # must still reach 16.5, where q holds
        spec = self._spec(0.95, 16.0, 0.5, {"q": (((0, "ge", 16.47),),)})
        assert cell_box(spec, (23,))[0][1] == 16.5
        assert cell_box(spec, (-23,))[0][0] == -16.5
        cells, word = simulate_trajectory(spec, 1, seed=0)
        assert cells == [(23,), (23,)] and word == [(("q", "E"),)]
        assert is_run_of(build_symbolic_model(spec), cells, word)

    def test_reach_box_inside_the_edge_strip(self):
        # from cell 22 the reach box starts at 16.47, past the last cell's
        # nominal box, yet points up to 16.5 are clamped into cell 23
        spec = self._spec(1.42, 15.06, 1.0, {"far": (((0, "ge", 100.0),),)})
        cells, word = simulate_trajectory(spec, 1, seed=0)
        assert cells == [(22,), (23,)]
        assert is_run_of(build_symbolic_model(spec), cells, word)

    def test_reach_box_starting_on_the_domain_edge(self):
        # from cell 1 the reach box starts at 0.5 + 2.4 = 2.9, exactly the
        # domain edge and past the last cell's nominal box [1.5, 2.5]; the
        # end point 2.9 is clamped into cell 2
        spec = SystemSpec(
            dim=1, domain=((-2.5, 2.9),), eta=1.0, tau=1.0, x_in=(0.5,),
            modes={"default": Mode(u=(2.4,))}, field="default",
            ap_regions={"far": (((0, "ge", 100.0),),)})
        assert reach_box(spec, (1,))[0] == [(2.9, 3.9)]
        cells, word = simulate_trajectory(spec, 1, seed=0)
        assert cells == [(1,), (2,)]
        assert is_run_of(build_symbolic_model(spec), cells, word)


class TestKnownDefects:
    """The known defects of the model (ROADMAP): a wrong VERIFIED,
    although validate_tau passes (verify would raise otherwise).  Each
    test asserts the sound verdict.  Those of the open defects, 1 and 2,
    fail until their defect is mended; that of the mended defect 3
    passes."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP known defect #1")
    def test_double_change_step(self):
        # one step from cell (-1, -1) ends at (2.2, 2.2), where p and q
        # both hold; every label of that step changes two APs and is
        # dropped, so the cell has no transitions
        spec = SystemSpec(
            dim=2, domain=((-2.5, 4.5),) * 2, eta=1.0, tau=1.0,
            x_in=(-1.0, -1.0),
            modes={"default": Mode(u=(0.0, 0.0)),
                   "fast": Mode(u=(3.2, 3.2))},
            field={"kind": "table", "cells": {(-1, -1): "fast"},
                   "default": "default"},
            ap_regions={"p": (((0, "ge", 0.7),),),
                        "q": (((1, "ge", 0.7),),)})
        verdicts = [verify(spec, f)[0].verdict
                    for f in ("G (!p | !q)", "G !(p & q)")]
        assert verdicts == ["INCONCLUSIVE"] * 2

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP known defect #2")
    def test_narrow_region_crossed_within_a_step(self):
        # the step from cell (-2,) passes the region -0.3 <= x <= 0.3 at
        # t of about 0.5, but labels read only the start and end cells
        spec = SystemSpec(
            dim=1, domain=((-3.5, 4.5),), eta=1.0, tau=1.0, x_in=(-2.0,),
            modes={"default": Mode(u=(0.0,)), "fast": Mode(u=(4.0,)),
                   "slow": Mode(u=(0.1,))},
            field={"kind": "table", "default": "default",
                   "cells": {(-2,): "fast", (1,): "slow", (2,): "slow",
                             (3,): "slow"}},
            ap_regions={"p": (((0, "ge", -0.3), (0, "le", 0.3)),)})
        report, _ = verify(spec, "G !p")
        assert report.verdict == "INCONCLUSIVE"

    def test_point_on_a_float_cell_edge(self):
        # ROADMAP known defect #3, mended: p holds at x_in = -37.95, which
        # lies just below the float edge -37.949999999999996 of cell -379,
        # so it belongs to cell -380, classified '?' for p, not '-'
        spec = SystemSpec(
            dim=1, domain=((-38.45, -37.05),), eta=0.1, tau=0.1,
            x_in=(-37.95,),
            modes={"default": Mode(u=(-1.0,)), "up": Mode(u=(1.0,))},
            field={"kind": "table", "default": "default",
                   "cells": {(k,): "up" for k in range(-384, -376)}},
            ap_regions={"p": (((0, "le", -37.95),),)})
        assert gamma(spec.x_in, spec) == (-380,)
        assert cell_box(spec, (-380,)) == [(-38.05, -37.949999999999996)]
        verdicts = [verify(spec, f)[0].verdict for f in ("!p", "G !p")]
        assert verdicts == ["INCONCLUSIVE"] * 2
        cells, word = simulate_trajectory(spec, 3, seed=0)
        assert word[0] == (("p", "Z"),)
        assert is_run_of(build_symbolic_model(spec), cells, word)


class TestRandomSpecs:
    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(spec=random_spec(), drop=st.booleans())
    def test_model_equals_reference(self, spec, drop):
        aps = tuple(sorted(spec.ap_regions))
        model = build_symbolic_model(spec, drop_multi_change=drop)
        ref = reference_transitions(spec, aps, drop)
        assert list(model.transitions) == list(ref)
        assert model.transitions == ref

    @settings(derandomize=True, database=None, max_examples=300,
              deadline=None)
    @given(spec=random_spec())
    def test_simulated_runs_are_model_runs(self, spec):
        # Theorem 1: every trajectory's (cell, observation) word is a run
        model = build_symbolic_model(spec)
        steps = 0
        for seed in range(3):
            for horizon in (8, 4, 2, 1):
                try:
                    cells, word = simulate_trajectory(spec, horizon, seed)
                except OutOfDomainError:
                    continue
                except ChoppingError:
                    assume(False)
                assert is_run_of(model, cells, word), (seed, cells, word)
                steps += horizon
                break
        assume(steps > 0)

    @settings(derandomize=True, database=None, max_examples=200,
              deadline=None)
    @given(spec=random_spec())
    def test_exact_chopping_refines_the_sampler(self, spec):
        compared = 0
        for seed in range(3):
            for horizon in (8, 4, 2, 1):
                try:
                    _exact_refines_sampler(spec, horizon, seed)
                except OutOfDomainError:
                    continue
                compared += 1
                break
        assume(compared > 0)


def test_import_does_not_load_numpy():
    # neither the pipeline nor its Theorem 1 oracle needs numpy
    src = str(Path(apobs.__file__).resolve().parents[1])
    subprocess.run(
        [sys.executable, "-c",
         "import apobs, sys; "
         "apobs.simulate_trajectory(apobs.drone_spec(), 3, seed=0); "
         "assert 'numpy' not in sys.modules"],
        env=dict(os.environ, PYTHONPATH=src), check=True)
