"""Büchi game construction and solving.

The game is the product of a symbolic model S (Opponent resolves the
demonic nondeterminism of the system) and an AP-observation automaton B
(Player resolves the angelic nondeterminism of the automaton):

  * Opponent vertices (q, b): Opponent picks a model transition
    (q, o, q') and play moves to the Player vertex (q', o, b);
  * Player vertices (q', o, b): Player picks an automaton edge
    (b, o, b') and play moves to (q', b').

Player wins a play iff it visits accepting vertices {(q, b) | b in F}
infinitely often.  The system satisfies the formula from the initial
state whenever Player wins from (q_in, b_in); the converse need not hold
(a losing game is inconclusive).
"""
from __future__ import annotations

import hashlib
import json
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from . import abstraction as _abs
from . import automata as _aut
from . import ltl as _ltl
from .observations import letter_code

__all__ = [
    "BuchiGame", "SolveResult", "Report", "PipelineError",
    "build_game", "solve_buchi", "verify",
    "solve_result_to_json", "report_to_json", "game_to_json",
]

WIN = ("sink", "win")
LOSE = ("sink", "lose")


class PipelineError(RuntimeError):
    """An error from a pipeline stage, tagged with the stage name."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r}: {cause}")
        self.stage = stage
        self.cause = cause


class _Names(Sequence):
    """Read-only vertex names of a game from ``build_game``: vertex i's
    tuple is made from its int key ``keys[i]`` when it is read.

    With nb automaton states, ranked by ``repr`` into ``states``, an
    Opponent vertex on model state id s has key 2 * (s * nb + b) and a
    Player vertex on model pair int p has key 2 * (p * nb + b) + 1; the
    sinks WIN and LOSE have keys -1 and -2.  States and pairs are
    decoded through the model's ``transitions``."""

    def __init__(self, keys, transitions, states):
        self._keys = keys
        self._transitions = transitions
        self._states = states

    def __len__(self):
        return len(self._keys)

    def __getitem__(self, i):
        k = self._keys[i]
        if k < 0:
            return WIN if k == -1 else LOSE
        x, b = divmod(k >> 1, len(self._states))
        if k & 1:
            o, q = self._transitions.pair(x)
            return ("P", q, o, self._states[b])
        return ("O", self._transitions.state(x), self._states[b])


@dataclass(frozen=True)
class BuchiGame:
    """A game on the vertex ids 0..n-1, numbered in breadth-first discovery
    order from the initial vertex 0.  ``names[i]`` is vertex i as a tuple:
    ("O", q, b) Opponent-owned, ("P", q, o, b) Player-owned, or one of
    the totalizing sinks WIN (accepting self-loop) and LOSE (non-accepting
    self-loop).  In a game from ``build_game`` ``names`` is a read-only
    sequence that makes each tuple when it is read; a hand-made game may
    pass a tuple.  Only the exporters read the names.

    Every field is listed in discovery order, which depends on neither the
    hash seed nor anything else outside the model and the automaton."""
    names: Sequence              # id -> vertex tuple
    edges: dict                  # id -> tuple of successor ids
    owner: bytes                 # per id: 0 (Player) or 1 (Opponent)
    accepting: frozenset
    initial: int
    redirected_player: tuple     # stuck Player vertices sent to LOSE
    redirected_opponent: tuple   # stuck Opponent vertices sent to WIN

    @property
    def n_player(self):
        return self.owner.count(0)

    @property
    def n_opponent(self):
        return self.owner.count(1)


def build_game(model, nba):
    """Product Büchi game of a symbolic model and an automaton, explored
    breadth-first from (q_in, b_in) and totalized with sinks.

    Opponent successors follow the model's transition order, Player
    successors the automaton states ranked once by ``repr``.  The
    automaton must have exactly one accepting set, and its edge labels
    must list the model's APs in order.

    The product is explored on ints (see ``_Names`` for the vertex
    keys): an Opponent vertex is keyed by the model's state id, a Player
    vertex by the model's pair int (letter code and successor id), and
    the automaton's successors by letter code and state rank.  No vertex
    tuple is made while exploring."""
    if tuple(sorted(model.aps)) != tuple(sorted(nba.aps)):
        raise ValueError(
            f"alphabet mismatch: model tracks {model.aps}, "
            f"automaton reads {nba.aps}")
    (acc,) = nba.accepting
    states = sorted(nba.states, key=repr)
    nb = len(states)
    rank = {b: i for i, b in enumerate(states)}
    b_succ = {}          # letter code * nb + rank of b -> 2 * ranks of b'
    for b, o, b2 in nba.edges:
        b_succ.setdefault(letter_code(o, model.aps) * nb + rank[b],
                          []).append(2 * rank[b2])
    for outs in b_succ.values():
        outs.sort()
    is_acc = bytes(b in acc for b in states)

    trans = model.transitions
    n_ids = trans.n_ids
    m = 2 * nb

    keys = array("q", [2 * (trans.state_id(model.q_in) * nb
                            + rank[nba.initial])])
    ids = {keys[0]: 0}
    succ = []
    owner = bytearray()
    accepting = []
    redirected_p = []
    redirected_o = []
    for i, k in enumerate(keys):  # grows while it is read: breadth-first
        if k < 0:                 # WIN or LOSE
            owner.append(0)
            if k == -1:
                accepting.append(i)
            succ.append((i,))
            continue
        x, b = divmod(k >> 1, nb)
        if k & 1:
            owner.append(0)
            code, s2 = divmod(x, n_ids)
            base = m * s2
            outs = [base + b2 for b2 in b_succ.get(code * nb + b, ())]
            if not outs:
                redirected_p.append(i)
                outs = (-2,)
        else:
            owner.append(1)
            if is_acc[b]:
                accepting.append(i)
            shift = 2 * b + 1
            outs = [m * p + shift for p in trans.row(x)]
            if not outs:
                redirected_o.append(i)
                outs = (-1,)
        row = []
        for w in outs:
            j = ids.get(w)
            if j is None:
                ids[w] = j = len(keys)
                keys.append(w)
            row.append(j)
        succ.append(tuple(row))
    # keyed by the ints the successor tuples already hold: no second copy
    return BuchiGame(_Names(keys, trans, states),
                     dict(zip(ids.values(), succ)), bytes(owner),
                     frozenset(accepting), 0,
                     tuple(redirected_p), tuple(redirected_o))


@dataclass(frozen=True)
class SolveResult:
    w0: frozenset             # vertex ids
    w1: frozenset
    strategy0: dict           # Player ids in W0 -> chosen successor id
    winning: bool
    stats: dict


def _attractor(target, player, live, succ, pred, owner, strategy, all_live):
    """Attractor of ``target`` for ``player`` inside the ``live`` vertices.
    Returns (membership bytearray, members in the order attracted) and,
    unless ``strategy`` is None, writes the successor chosen by each of
    the player's attractor vertices into it.  An adversary vertex's count
    of live successors still outside the attractor is set up the first
    time one of them joins; while ``all_live`` it is the vertex's
    out-degree."""
    attr = bytearray(len(succ))
    for t in target:
        attr[t] = 1
    order = list(target)
    remaining = {}
    for w in order:          # grows while it is read
        for v in pred[w]:
            if attr[v] or not live[v]:
                continue
            if owner[v] == player:
                if strategy is not None:
                    strategy[v] = w
            else:
                left = remaining.get(v)
                if left is None:
                    left = len(succ[v]) if all_live else \
                        sum(live[u] for u in succ[v])
                remaining[v] = left = left - 1
                if left:
                    continue
            attr[v] = 1
            order.append(v)
    return attr, order


def solve_buchi(game):
    """Zielonka's algorithm specialized to two priorities (the classical
    alternating-attractor Büchi fixpoint), with a positional winning
    strategy for Player on W0.

    Reads the game's ids directly and builds only the predecessor lists;
    the shrinking universe is a bytearray, and the strategy is a list
    indexed by id, listed as a dict in id order.  So for a game from
    ``build_game`` the result, strategy included, does not depend on the
    hash seed."""
    succ = game.edges
    owner = game.owner
    n = len(owner)
    pred = [[] for _ in range(n)]
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)
    accepting = sorted(game.accepting)

    live = bytearray(b"\x01") * n
    n_live = n
    w1 = []
    iterations = 0
    while n_live:
        iterations += 1
        f = [v for v in accepting if live[v]]
        strategy0 = [-1] * n
        reach, reached = _attractor(f, 0, live, succ, pred, owner,
                                    strategy0, n_live == n)
        if len(reached) == n_live:
            # W0 found: Player attracts to F inside it; on F, re-enter it
            for v in f:
                if owner[v] == 0:
                    for w in succ[v]:
                        if live[w]:
                            strategy0[v] = w
                            break
            break
        dead = [v for v in range(n) if live[v] and not reach[v]]
        _, trapped = _attractor(dead, 1, live, succ, pred, owner, None,
                                n_live == n)
        for v in trapped:
            live[v] = 0
        w1 += trapped
        n_live -= len(trapped)
    else:
        strategy0 = ()           # W0 is empty

    stats = {"iterations": iterations,
             "vertices": n,
             "player_vertices": game.n_player,
             "opponent_vertices": game.n_opponent,
             "redirected_player": len(game.redirected_player),
             "redirected_opponent": len(game.redirected_opponent)}
    return SolveResult(frozenset(v for v in range(n) if live[v]),
                       frozenset(w1),
                       {v: w for v, w in enumerate(strategy0) if w >= 0},
                       bool(live[game.initial]), stats)


# ---------------------------------------------------------------------------
# End-to-end pipeline

@dataclass(frozen=True)
class Report:
    schema: str
    formula: str
    verdict: str              # "VERIFIED" | "INCONCLUSIVE"
    sizes: dict               # automaton, model, game_player, game_opponent
    times: dict               # automaton, model, game_build, game_solve, total
    repeat: int
    config_hash: str
    notes: dict = field(default_factory=dict)


def _config_hash(spec, formula_text, tracked):
    """Hash of ``json.dumps({"spec": system_spec_to_json(spec), "formula":
    formula_text, "tracked": list(tracked)}, sort_keys=True)``, built
    around the spec's JSON text, which is serialized once per spec."""
    blob = (f'{{"formula": {json.dumps(formula_text)}, '
            f'"spec": {spec.json_text}, '
            f'"tracked": {json.dumps(list(tracked))}}}')
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as e:  # noqa: BLE001 - wrapped with stage provenance
        raise PipelineError(name, e) from e


def verify(spec, formula, repeat=1, allow_unsound_tau=False):
    """Full pipeline: parse/NNF -> automaton -> symbolic model -> game ->
    solve.  The verdict is VERIFIED when Player wins the game, otherwise
    INCONCLUSIVE (a lost game proves nothing).  Timings are wall-clock
    averages over ``repeat`` runs of the automaton, model, game build and
    solve sequence; each run builds its own automaton, model and game.

    ``formula`` may be LTL text or an ``apobs.ltl.Formula``.

    ``times["model"]`` covers only the up-front part of the model build,
    the spec's one-time field resolution included: the transitions of
    the cells the game reaches are computed on first access, inside
    ``times["game_build"]``.  Runs after the first build their model on a
    fresh copy of the spec, which has none of the values (such as
    ``cell_modes`` and ``v_max``) the spec keeps once computed.
    """
    repeat = max(1, repeat)
    if isinstance(formula, str):
        formula_text = formula
        f = _stage("parse", _ltl.parse_ltl, formula)
    else:
        formula_text = _ltl.formula_str(formula)
        f = formula
    nnf = _stage("nnf", _ltl.to_nnf, f)
    tracked = _ltl.atoms(nnf)
    # before the pipeline: the spec's one-time serialization then reuses
    # memory the game and solver take later, instead of adding to it
    config_hash = _config_hash(spec, formula_text, tracked)

    times = dict.fromkeys(("automaton", "model", "game_build", "game_solve"),
                          0.0)

    def timed(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = _stage(name, fn, *args, **kwargs)
        times[name] += (time.perf_counter() - t0) / repeat
        return result

    for run in range(repeat):
        nba = timed("automaton", lambda: _aut.translate(nnf)["nba"])
        model = timed("model", _abs.build_symbolic_model,
                      replace(spec) if run else spec,
                      tracked_aps=tracked, force=allow_unsound_tau)
        game = timed("game_build", build_game, model, nba)
        result = timed("game_solve", solve_buchi, game)
    times["total"] = sum(times.values())

    sizes = {"automaton": nba.n_states, "model": model.n_states,
             "game_player": game.n_player, "game_opponent": game.n_opponent}
    report = Report(
        schema="apobs-report/1",
        formula=formula_text,
        verdict="VERIFIED" if result.winning else "INCONCLUSIVE",
        sizes=sizes,
        times={k: round(v, 6) for k, v in times.items()},
        repeat=repeat,
        config_hash=config_hash,
        notes={"tracked_aps": list(tracked),
               "allow_unsound_tau": allow_unsound_tau,
               "redirected_player": len(game.redirected_player),
               "redirected_opponent": len(game.redirected_opponent)},
    )
    return report, {"nnf": nnf, "nba": nba, "model": model,
                    "game": game, "solve": result}


# ---------------------------------------------------------------------------
# JSON

def _b_names(vertices):
    """Stable serializable names for the automaton-state components."""
    bs = {v[-1] for v in vertices if v not in (WIN, LOSE)}
    return {b: f"b{i}" for i, b in enumerate(sorted(bs, key=repr))}


def _vjson(v, names):
    if v in (WIN, LOSE):
        return {"kind": v[1]}
    if v[0] == "O":
        return {"kind": "O", "q": _abs._state_str(v[1]), "b": names[v[2]]}
    return {"kind": "P", "q": _abs._state_str(v[1]), "o": dict(v[2]),
            "b": names[v[3]]}


def game_to_json(g):
    vertices = list(g.names)     # each name is made once per export
    names = _b_names(vertices)
    vs = [_vjson(v, names) for v in vertices]
    return {
        "initial": vs[g.initial],
        "player_vertices": g.n_player,
        "opponent_vertices": g.n_opponent,
        "accepting": sorted((vs[v] for v in g.accepting),
                            key=lambda d: json.dumps(d, sort_keys=True)),
        "edges": [{"src": vs[v], "dst": vs[w]}
                  for v, ws in g.edges.items() for w in ws],
    }


def solve_result_to_json(game, r):
    vertices = list(game.names)  # each name is made once per export
    names = _b_names(vertices)
    return {
        "verdict": "VERIFIED" if r.winning else "INCONCLUSIVE",
        "w0_size": len(r.w0),
        "w1_size": len(r.w1),
        "strategy": [{"vertex": _vjson(vertices[v], names),
                      "move": _vjson(vertices[w], names)}
                     for v, w in r.strategy0.items()],
        "stats": dict(r.stats),
    }


def report_to_json(r):
    return {"schema": r.schema, "formula": r.formula, "verdict": r.verdict,
            "sizes": dict(r.sizes), "times": dict(r.times),
            "repeat": r.repeat, "config_hash": r.config_hash,
            "notes": dict(r.notes)}
