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
from functools import cached_property

from . import abstraction as _abs
from . import automata as _aut
from . import ltl as _ltl

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

    With nb automaton states and n model ids, an Opponent vertex on model
    state id s and automaton state b has key s * nb + b, a Player vertex
    on model pair int p has key (n + p) * nb + b, and the sinks WIN and
    LOSE have keys -1 and -2, decoded through the model's ``transitions``
    and the automaton's ``names``."""

    def __init__(self, keys, transitions, nba):
        self._keys = keys
        self._transitions = transitions
        self._nba = nba

    def __len__(self):
        return len(self._keys)

    def __getitem__(self, i):
        k = self._keys[i]
        if k < 0:
            return WIN if k == -1 else LOSE
        x, b = divmod(k, self._nba.n_states)
        b = self._nba.names[b]
        if x >= self._transitions.n_ids:
            o, q = self._transitions.pair(x - self._transitions.n_ids)
            return ("P", q, o, b)
        return ("O", self._transitions.state(x), b)


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
    successors the automaton's state order.  The automaton must have
    exactly one accepting set and the model's APs, in order.

    The product is explored on ints (see ``_Names`` for the vertex
    keys): an Opponent vertex is keyed by the model's state id, a Player
    vertex by the model's pair int (letter code and successor id), and
    the automaton's successors by letter code and state.  Player ids are
    found in one table per automaton state, keyed by the pair ints the
    model's rows already hold, so an Opponent vertex's whole row is
    looked up at once.  No vertex tuple is made while exploring, and
    every redirected vertex of one owner shares one successor row."""
    if tuple(model.aps) != tuple(nba.aps):
        raise ValueError(
            f"alphabet mismatch: model tracks {model.aps}, "
            f"automaton reads {nba.aps}")
    if len(nba.acc) != 1:
        raise ValueError(f"the automaton has {len(nba.acc)} accepting sets, "
                         f"not 1; degeneralize it first")
    nb = nba.n_states
    b_succ = {}          # letter code * nb + b -> sorted successors of b
    for b, outs in enumerate(nba.succ):
        for code, b2 in sorted(outs):
            b_succ.setdefault(code * nb + b, []).append(b2)
    is_acc = bytes(b in nba.acc[0] for b in range(nb))

    trans = model.transitions
    n_ids = trans.n_ids

    keys = array("q", [trans.state_id(model.q_in) * nb + nba.start])
    ids = {keys[0]: 0}               # Opponent key -> id
    p_ids = [{} for _ in range(nb)]  # per b: model pair int -> Player id
    verts = [0]                      # id ints, shared by rows and edges
    edges = {}
    owner = bytearray()
    accepting = []
    redirected_p = []
    redirected_o = []
    for i, k in zip(verts, keys):  # both grow while read: breadth-first
        if k < 0:                 # WIN or LOSE
            owner.append(0)
            if k == -1:
                accepting.append(i)
            edges[i] = (i,)
            continue
        x, b = divmod(k, nb)
        if x >= n_ids:
            owner.append(0)
            code, s2 = divmod(x - n_ids, n_ids)
            row = []
            for b2 in b_succ.get(code * nb + b, ()):
                w = nb * s2 + b2
                j = ids.get(w)
                if j is None:
                    ids[w] = j = len(keys)
                    keys.append(w)
                    verts.append(j)
                row.append(j)
            if row:
                edges[i] = tuple(row)
                continue
            redirected, sink = redirected_p, -2
        else:
            owner.append(1)
            if is_acc[b]:
                accepting.append(i)
            ws = trans.row(x)
            if ws:
                d = p_ids[b]
                js = list(map(d.get, ws))
                t = -1
                shift = n_ids * nb + b
                for _ in range(js.count(None)):   # the successors not yet seen
                    t = js.index(None, t + 1)
                    d[ws[t]] = js[t] = j = len(keys)
                    keys.append(nb * ws[t] + shift)
                    verts.append(j)
                edges[i] = tuple(js)
                continue
            redirected, sink = redirected_o, -1
        if redirected:            # one row shared by all sent to the sink
            edges[i] = edges[redirected[0]]
        else:
            verts.append(len(keys))
            keys.append(sink)
            edges[i] = (verts[-1],)
        redirected.append(i)
    return BuchiGame(_Names(keys, trans, nba), edges, bytes(owner),
                     frozenset(accepting), 0,
                     tuple(redirected_p), tuple(redirected_o))


@dataclass(frozen=True)
class SolveResult:
    """Player's winning region W0 as ``won``, one byte per vertex id (1 in
    W0, 0 in W1); the id sets ``w0`` and ``w1`` are made on first read."""
    won: bytes
    strategy0: dict           # Player ids in W0 -> chosen successor id
    winning: bool
    stats: dict

    @cached_property
    def w0(self):
        return frozenset(v for v, x in enumerate(self.won) if x)

    @cached_property
    def w1(self):
        return frozenset(v for v, x in enumerate(self.won) if not x)


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

    Reads the game's ids directly and builds only the predecessor lists,
    of the id ints that ``edges`` holds; the shrinking universe is a
    bytearray, and the strategy is a list indexed by id, listed as a dict
    in id order.  So for a game from ``build_game`` the result, strategy
    included, does not depend on the hash seed."""
    succ = game.edges
    owner = game.owner
    n = len(owner)
    pred = [[] for _ in range(n)]
    for v, ws in succ.items():
        for w in ws:
            pred[w].append(v)
    accepting = sorted(game.accepting)

    live = bytearray(b"\x01") * n
    n_live = n
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
        dead = [v for v in succ if live[v] and not reach[v]]
        _, trapped = _attractor(dead, 1, live, succ, pred, owner, None,
                                n_live == n)
        for v in trapped:
            live[v] = 0
        n_live -= len(trapped)
    else:
        strategy0 = ()           # W0 is empty
    pred = reach = reached = dead = trapped = None   # freed before the result

    stats = {"iterations": iterations,
             "vertices": n,
             "player_vertices": game.n_player,
             "opponent_vertices": game.n_opponent,
             "redirected_player": len(game.redirected_player),
             "redirected_opponent": len(game.redirected_opponent)}
    return SolveResult(bytes(live),
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


def _floats(xs):
    return [float(x) for x in xs]


def _config_hash(spec, formula_text, tracked):
    """The first 16 hex digits of the sha256 of one sorted-key JSON text
    of the query and the system: each grid cell's resolved mode value,
    and every quantity as a float, so mode names, table keys outside the
    grid and int spellings such as 0 for 0.0 do not change it."""
    modes = [{k: _floats(x) if isinstance(x, list) else float(x)
              for k, x in _abs._mode_to_json(m).items()}
             for m in spec.cell_modes[0]]
    blob = json.dumps({
        "formula": formula_text, "tracked": list(tracked), "dim": spec.dim,
        "domain": list(map(_floats, spec.domain)), "eta": float(spec.eta),
        "tau": float(spec.tau), "x_in": _floats(spec.x_in),
        "aps": {p: [[(a, op, float(c)) for a, op, c in conj] for conj in r]
                for p, r in spec.ap_regions.items()},
        "modes": modes, "cell_modes": list(spec.cell_modes[1])},
        sort_keys=True)
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
                      tracked_aps=tracked,
                      allow_unsound_tau=allow_unsound_tau)
        if not run:
            # cell_modes is resolved: a grid too large failed in the model
            # stage, and the game reuses the memory the hash takes
            config_hash = _config_hash(spec, formula_text, tracked)
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
        "w0_size": r.won.count(1),
        "w1_size": r.won.count(0),
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
