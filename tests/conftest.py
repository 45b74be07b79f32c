"""Shared generators and independent oracles for the test suite."""
from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from apobs.abstraction import (SINK, _P_E, _P_Z, Mode, SymbolicModel,
                               SystemSpec, _Transitions, box_vs_region,
                               gamma, patrol_theta, region_contains,
                               validate_tau, velocity_extents)
from apobs.automata import Automaton, Q0
from apobs.ltl import (Atom, And, FalseF, Not, Or, Release, TrueF, Until,
                       formula_str, subformulas, to_nnf)
from apobs.observations import (NEG, OBS, MultiChange, UndefinedSlice,
                                consistency, letter_code)
from semantics import (PiecewiseSignal, SignalWord, _PositionLasso, _sccs,
                       _classify_positions, _slice_positions, _to_frac,
                       is_signal_word)


# ---------------------------------------------------------------------------
# Random formulas

def rand_formula(rng, depth, aps):
    """Random raw formula (may contain Not at any level)."""
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.1:
            return TrueF()
        if r < 0.2:
            return FalseF()
        return Atom(rng.choice(aps))
    kind = rng.choice(["not", "and", "or", "until", "release"])
    if kind == "not":
        return Not(rand_formula(rng, depth - 1, aps))
    cls = {"and": And, "or": Or, "until": Until, "release": Release}[kind]
    return cls(rand_formula(rng, depth - 1, aps),
               rand_formula(rng, depth - 1, aps))


def rand_nnf(rng, depth, aps):
    """Random NNF formula (``Not`` only over an atom, no constant)."""
    if depth == 0 or rng.random() < 0.3:
        p = Atom(rng.choice(aps))
        return p if rng.random() < 0.5 else Not(p)
    cls = rng.choice([And, Or, Until, Release])
    return cls(rand_nnf(rng, depth - 1, aps),
               rand_nnf(rng, depth - 1, aps))


# ---------------------------------------------------------------------------
# Name-level views of an automaton

def successors(a):
    """Map each source state name to its list of (label, target) pairs."""
    adj = {}
    for s, o, d in a.edges:
        adj.setdefault(s, []).append((o, d))
    return adj


def _reachable(adj, start):
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for _, d in adj.get(s, ()):
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


# ---------------------------------------------------------------------------
# Two reference valuation enumerators and the eager automaton builder
# (references for build_gba, which generates valuations per signature)

# the consistency table each binary connective reads
_CONNECTIVE = {And: "and", Or: "or", Until: "U", Release: "R"}


def _consistent_valuations_bruteforce(sub):
    """Filter the full product O^|sub| by the consistency conditions."""
    idx = {g: i for i, g in enumerate(sub)}
    out = []
    for v in itertools.product(OBS, repeat=len(sub)):
        ok = True
        for i, g in enumerate(sub):
            if isinstance(g, TrueF):
                ok = v[i] == "A"
            elif isinstance(g, FalseF):
                ok = v[i] == "N"
            elif isinstance(g, Not):
                ok = v[i] == NEG[v[idx[g.child]]]
            elif type(g) in _CONNECTIVE:
                ok = v[i] in consistency(_CONNECTIVE[type(g)],
                                         v[idx[g.left]], v[idx[g.right]])
            if not ok:
                break
        if ok:
            out.append(v)
    return out


def _consistent_valuations_bottomup(sub):
    """Enumerate every consistent valuation bottom-up in topological
    order, pruning inconsistent partial assignments early."""
    idx = {g: i for i, g in enumerate(sub)}
    partials = [()]
    for g in sub:
        nxt = []
        if isinstance(g, TrueF):
            opts = lambda v: ("A",)
        elif isinstance(g, FalseF):
            opts = lambda v: ("N",)
        elif isinstance(g, Atom):
            opts = lambda v: OBS
        elif isinstance(g, Not):
            i = idx[g.child]
            opts = lambda v, i=i: (NEG[v[i]],)
        else:
            conn = _CONNECTIVE[type(g)]
            li, ri = idx[g.left], idx[g.right]
            opts = lambda v, conn=conn, li=li, ri=ri: \
                sorted(consistency(conn, v[li], v[ri]))
        for v in partials:
            for o in opts(v):
                nxt.append(v + (o,))
        partials = nxt
    return partials


def full_gba_reference(f):
    """The generalized automaton over every consistent valuation, with
    every edge the transition condition allows, valid letter or not,
    reachable from Q0 or not: ``build_gba`` makes its part reachable from
    Q0 over valid letters."""
    sub = subformulas(to_nnf(f))
    idx = {g: i for i, g in enumerate(sub)}
    aps = tuple(sorted(g.name for g in sub if isinstance(g, Atom)))
    states = _consistent_valuations_bottomup(sub)

    def label(v):
        return tuple((p, v[idx[Atom(p)]]) for p in aps)

    # an edge v -> v2 exists when v's observations in {A,E} are exactly
    # v2's observations in {A,Z}, subformula by subformula
    by_target_sig = {}
    for v in states:
        sig = tuple(o in ("A", "Z") for o in v)
        by_target_sig.setdefault(sig, []).append(v)
    edges = set()
    for v in states:
        sig = tuple(o in ("A", "E") for o in v)
        for v2 in by_target_sig.get(sig, ()):
            edges.add((v, label(v2), v2))
    root = len(sub) - 1
    for v2 in states:
        if v2[root] in ("A", "Z"):
            edges.add((Q0, label(v2), v2))

    accepting = []
    for g in sub:
        if isinstance(g, Until):
            i, r = idx[g], idx[g.right]
            accepting.append(frozenset(
                v for v in states if v[r] != "N" or v[i] != "A"))
        elif isinstance(g, Release):
            i, r = idx[g], idx[g.right]
            accepting.append(frozenset(
                v for v in states if v[r] != "A" or v[i] != "N"))
    return hand_automaton(aps, set(states) | {Q0}, edges, Q0, accepting)


def _gfg_reference():
    """The four-state automaton for G F g, hand-derived from the
    construction: q3 merges the two valuation states with g in {A,E}."""
    g = lambda o: (("g", o),)
    edges = {
        (Q0, g("A"), "q3"), (Q0, g("E"), "q3"),
        (Q0, g("Z"), "q2"), (Q0, g("N"), "q1"),
        ("q1", g("E"), "q3"), ("q1", g("N"), "q1"),
        ("q2", g("E"), "q3"), ("q2", g("N"), "q1"),
        ("q3", g("A"), "q3"), ("q3", g("Z"), "q2"),
    }
    return hand_automaton(("g",), {Q0, "q1", "q2", "q3"}, edges, Q0,
                          ({"q2", "q3"}, {"q1", "q2", "q3"}))


def gba_isomorphic(a, b):
    """Isomorphism mapping initial state to initial state, accepting sets
    matched in order.  Tries every permutation of the other states."""
    if (a.aps != b.aps or a.n_states != b.n_states
            or len(a.edges) != len(b.edges)
            or len(a.accepting) != len(b.accepting)):
        return False
    sa = sorted(a.states - {a.initial}, key=repr)
    sb = sorted(b.states - {b.initial}, key=repr)
    for perm in itertools.permutations(sb):
        m = dict(zip(sa, perm))
        m[a.initial] = b.initial
        if {(m[s], o, m[d]) for s, o, d in a.edges} != set(b.edges):
            continue
        if all(frozenset(m[s] for s in fa) == fb
               for fa, fb in zip(a.accepting, b.accepting)):
            return True
    return False


# ---------------------------------------------------------------------------
# Semantic pruning: the states with an accepting run

def _can_reach(adj, targets, universe):
    """States in ``universe`` with a (possibly empty) path to ``targets``
    inside ``universe``."""
    pred = {}
    for s, outs in adj.items():
        if s not in universe:
            continue
        for _, d in outs:
            if d in universe:
                pred.setdefault(d, []).append(s)
    seen = set(t for t in targets if t in universe)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for p in pred.get(s, ()):
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def prune(a):
    """Keep exactly the states from which an accepting run exists, plus the
    initial state, restricted to the part reachable from the initial state.

    Computed as the largest sub-automaton in which every state has an
    outgoing edge and can reach every accepting set, iterated to fixpoint.
    From any state of that sub-automaton one can visit each accepting set,
    move on, and repeat forever, so the fixpoint is exactly the set of
    states with an accepting run.
    """
    init = a.initial
    live = set(a.states - {init})
    while True:
        adj = {}
        for s, o, d in a.edges:
            if s in live and d in live:
                adj.setdefault(s, []).append((o, d))
        with_out = {s for s in live if adj.get(s)}
        new = set(with_out)
        for fset in a.accepting:
            new &= _can_reach(adj, fset & with_out, with_out)
        if new == live:
            break
        live = new

    adj = {}
    for s, o, d in a.edges:
        if (s == init or s in live) and d in live:
            adj.setdefault(s, []).append((o, d))
    keep = (live & _reachable(adj, init)) | {init}
    edges = frozenset((s, o, d) for s, o, d in a.edges
                      if s in keep and d in keep)
    return hand_automaton(a.aps, keep, edges, init,
                          [fs & keep for fs in a.accepting])


def trim_reference(a):
    """The states ``trim`` keeps, by its definition: the largest set of
    states reachable from the initial state (inside the set) in which every
    state but the initial one has a successor inside the set.  Iterates
    reachability and deadlock removal together to a fixpoint."""
    live = set(a.states)
    while True:
        adj = {}
        for s, o, d in a.edges:
            if s in live and d in live:
                adj.setdefault(s, []).append((o, d))
        new = {s for s in _reachable(adj, a.initial) & live
               if s == a.initial or adj.get(s)}
        if new == live:
            return live
        live = new


def minimize_reference(a):
    """``minimize`` on state names: the coarsest partition in which
    states of a block belong to the same accepting sets and have identical
    (label, target-block) edge sets; the initial state stays its own block
    and keeps its name, every other block is the tuple of its states in
    ``repr`` order."""
    adj = successors(a)
    states = sorted(a.states, key=repr)

    def acc_sig(s):
        return (s == a.initial,) + tuple(s in fs for fs in a.accepting)

    block_of = {}
    sig_to_block = {}
    for s in states:
        sig = acc_sig(s)
        block_of[s] = sig_to_block.setdefault(sig, len(sig_to_block))

    while True:
        sigs = {}
        for s in states:
            sig = (block_of[s], frozenset(
                (o, block_of[d]) for o, d in adj.get(s, ())))
            sigs[s] = sig
        remap = {}
        new_block = {}
        for s in states:
            new_block[s] = remap.setdefault(sigs[s], len(remap))
        if len(remap) == len(set(block_of.values())):
            break
        block_of = new_block

    blocks = {}
    for s in states:
        blocks.setdefault(block_of[s], []).append(s)
    block_state = {i: tuple(ss) for i, ss in blocks.items()}
    block_state[block_of[a.initial]] = a.initial

    edges = {(block_state[block_of[s]], o, block_state[block_of[d]])
             for s, o, d in a.edges}
    accepting = [{block_state[i] for i, ss in blocks.items() if ss[0] in fs}
                 for fs in a.accepting]
    return hand_automaton(a.aps, block_state.values(), edges, a.initial,
                          accepting)


def degeneralize_reference(a):
    """``degeneralize`` on state names: states (s, i), i in 1..m, the
    counter advancing from i to (i mod m)+1 when s is in F_i, over the
    accepting sets in reverse order (every state but the initial one when
    there is none); accepting set {(s, 1) | s in F_1}, reachable part."""
    accepting = tuple(reversed(a.accepting)) or (a.states - {a.initial},)
    m = len(accepting)
    adj = successors(a)

    edges = set()
    init = (a.initial, 1)
    seen = {init}
    stack = [init]
    while stack:
        s, i = stack.pop()
        i2 = (i % m) + 1 if s in accepting[i - 1] else i
        for o, d in adj.get(s, ()):
            nxt = (d, i2)
            edges.add(((s, i), o, nxt))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)

    acc = {(s, 1) for s in accepting[0] if (s, 1) in seen}
    return hand_automaton(a.aps, seen, edges, init, (acc,))


# ---------------------------------------------------------------------------
# Observation oracles: the published OR / RELEASE columns, and dense-time
# observations of whole formulas over slices

_OR_REF = {
    ("A", "A"): "A", ("A", "Z"): "A", ("A", "E"): "A", ("A", "N"): "A",
    ("Z", "A"): "A", ("Z", "Z"): "Z", ("Z", "E"): "A", ("Z", "N"): "Z",
    ("E", "A"): "A", ("E", "Z"): "A", ("E", "E"): "E", ("E", "N"): "E",
    ("N", "A"): "A", ("N", "Z"): "Z", ("N", "E"): "E", ("N", "N"): "N",
}

_RELEASE_REF = {
    ("A", "A"): "A", ("A", "Z"): "Z", ("A", "E"): "E", ("A", "N"): "N",
    ("Z", "A"): "AZ", ("Z", "Z"): "Z", ("Z", "E"): "EN", ("Z", "N"): "N",
    ("E", "A"): "A", ("E", "Z"): "N", ("E", "E"): "E", ("E", "N"): "N",
    ("N", "A"): "AN", ("N", "Z"): "N", ("N", "E"): "EN", ("N", "N"): "N",
}


def formula_observation(signal, f, k, tau):
    """Observation of formula f over slice k ([k*tau, (k+1)*tau]).

    The dense-time truth signal of any NNF formula over a piecewise-constant
    signal is itself piecewise-constant with left-closed switches, so the
    classification below is total.
    """
    return _formula_observations(signal, [f], k, k + 1, tau)[0][f]


def _formula_observations(signal, formulas, k_lo, k_hi, tau):
    """Observations of several formulas over slices k_lo..k_hi-1 (shared
    position structure, so whole subformula rows are classified at once)."""
    tau = _to_frac(tau)
    cuts = [k * tau for k in range(k_lo, k_hi + 1)]
    pl = _PositionLasso(signal, cuts=cuts)
    out = []
    for k in range(k_lo, k_hi):
        idxs = _slice_positions(pl, k, tau)
        kinds = [pl.kinds[i] for i in idxs]
        row = {}
        for f in formulas:
            tv = pl.truth(f)
            o = _classify_positions([tv[i] for i in idxs], kinds)
            if o is None:
                raise UndefinedSlice(k, formula_str(f))
            row[f] = o
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# Random signals satisfying the single-change assumption for tau = 1

def rand_signal(rng, aps, n_prefix=None, n_loop=None):
    """Piecewise signal whose consecutive letters (including the loop seam)
    differ in at most one AP and whose pieces are all longer than 1, so
    chopping with tau = 1 never sees two changes in a slice."""
    aps = list(aps)
    if n_prefix is None:
        n_prefix = rng.randrange(0, 3)
    if n_loop is None:
        n_loop = rng.randrange(1, 3)

    def dur():
        return Fraction(rng.randrange(9, 25), 8)

    letter = frozenset(p for p in aps if rng.random() < 0.5)

    def step(cur):
        if rng.random() < 0.3:
            return cur
        p = rng.choice(aps)
        return cur ^ {p}

    prefix = []
    for _ in range(n_prefix):
        prefix.append((dur(), letter))
        letter = step(letter)
    # loop letters must return to the first loop letter in <= 1-AP steps:
    # walk out with single toggles, then undo them in reverse order
    toggles = [rng.choice(aps) for _ in range(n_loop - 1)]
    loop_letters = [letter]
    for p in toggles:
        loop_letters.append(loop_letters[-1] ^ {p})
    for p in reversed(toggles):
        loop_letters.append(loop_letters[-1] ^ {p})
    if len(loop_letters) > 1:
        loop_letters.pop()  # seam step back to the first letter is 1 toggle
    loop = [(dur(), l) for l in loop_letters]
    return PiecewiseSignal.make(prefix, loop, aps=aps)


# ---------------------------------------------------------------------------
# Independent discrete-word LTL evaluator (for NNF-preservation tests)

def eval_discrete(f, positions, p, l, j):
    """Truth of f at position j over the lasso word positions[0:p+l]
    (sets of APs), by direct recursion with a lookahead of p + 2l."""
    memo = {}

    def canon(k):
        return k if k < p else p + (k - p) % l

    def ev(g, k):
        k = canon(k)
        key = (g, k)
        if key in memo:
            return memo[key]
        memo[key] = out = _ev(g, k)
        return out

    def _ev(g, k):
        if isinstance(g, TrueF):
            return True
        if isinstance(g, FalseF):
            return False
        if isinstance(g, Atom):
            return g.name in positions[k]
        if isinstance(g, Not):
            return not ev(g.child, k)
        if isinstance(g, And):
            return ev(g.left, k) and ev(g.right, k)
        if isinstance(g, Or):
            return ev(g.left, k) or ev(g.right, k)
        if isinstance(g, Until):
            for k2 in range(k, p + 2 * l):
                if ev(g.right, k2):
                    return True
                if not ev(g.left, k2):
                    return False
            return False
        if isinstance(g, Release):
            for k2 in range(k, p + 2 * l):
                if not ev(g.right, k2):
                    return False
                if ev(g.left, k2):
                    return True
            return True
        raise TypeError(g)

    return ev(f, j)


# ---------------------------------------------------------------------------
# Exhaustive valid signal words

def single_change_letters(aps):
    out = []
    for combo in itertools.product(OBS, repeat=len(aps)):
        if sum(1 for o in combo if o in ("Z", "E")) > 1:
            continue
        out.append(tuple(zip(aps, combo)))
    return out


def _seam_ok(m1, m2):
    return all((o1 in ("A", "E")) == (o2 in ("A", "Z"))
               for (_, o1), (_, o2) in zip(m1, m2))


def enumerate_valid_words(aps, max_size):
    """All valid SignalWord lassos with prefix+loop size <= max_size."""
    aps = tuple(sorted(aps))
    letters = single_change_letters(aps)
    words = []
    for total in range(1, max_size + 1):
        for loop_len in range(1, total + 1):
            pre_len = total - loop_len
            for seq in itertools.product(letters, repeat=total):
                ok = all(_seam_ok(seq[i], seq[i + 1])
                         for i in range(total - 1))
                if ok and _seam_ok(seq[total - 1], seq[pre_len]):
                    w = SignalWord(aps, tuple(seq[:pre_len]),
                                   tuple(seq[pre_len:]))
                    assert is_signal_word(w)[0]
                    words.append(w)
    return words


def accepting_run_states(gba, w):
    """For each canonical position k of the signal word w, the set of GBA
    states that position k can take in SOME accepting run matching w on
    atoms.  Exactly one state per position iff the accepting run is unique.

    Product nodes (j, s) mean: the automaton is about to read letter j in
    state s; the valuation at position k is therefore the state of node
    (canon(k+1), s)."""
    by = {}
    for s, o, d in gba.edges:
        by.setdefault((s, o), []).append(d)
    p, l = len(w.prefix), len(w.loop)

    # unroll one extra loop so that the node entered from the prefix and
    # the node entered from the loop wrap are distinct (otherwise loop
    # valuations get misattributed to the last prefix position)
    def canon(k):
        return k if k < p + 2 * l else p + l + (k - p - l) % l

    start = (0, gba.initial)
    seen = {start}
    stack = [start]
    adj = {}
    while stack:
        j, s = stack.pop()
        nxt = canon(j + 1)
        adj[(j, s)] = [(nxt, d) for d in by.get((s, w._raw(j)), ())]
        for u in adj[(j, s)]:
            if u not in seen:
                seen.add(u)
                stack.append(u)

    # nodes with an accepting continuation: those reaching a nontrivial SCC
    # intersecting every accepting set
    good_seeds = set()
    for comp in _sccs(adj, sorted(seen, key=repr)):
        cs = set(comp)
        nontrivial = len(comp) > 1 or any(d in cs for d in adj[comp[0]])
        if not nontrivial:
            continue
        states = {s for _, s in comp}
        if all(states & fs for fs in gba.accepting):
            good_seeds |= cs
    good = set(good_seeds)
    changed = True
    while changed:
        changed = False
        for v in seen:
            if v not in good and any(u in good for u in adj[v]):
                good.add(v)
                changed = True

    out = {}
    for (j, s) in good:
        if s == gba.initial:
            continue
        k = j - 1  # s is the valuation at the position just read
        k = k if k < p else p + (k - p) % l
        out.setdefault(k, set()).add(s)
    return out


# ---------------------------------------------------------------------------
# Exact omega-language inclusion (Ramsey-style), used as the independent
# oracle for the game-vs-language cross-checks.  A "joint profile" of a
# finite word records, for the generator S and the acceptor B, which state
# pairs are connected by a path over that word (with a visited-accepting
# flag on the B side).  The profiles of all nonempty words form a finite
# semigroup generated by the letter profiles; by Ramsey's theorem, every
# infinite word factorizes with an idempotent loop profile, so inclusion
# fails iff some pair (x, e) with e idempotent and x = x*e admits an
# S-lasso but no accepting B-lasso.

def model_words_included(model, nba):
    """Is every infinite label word of the model accepted by the automaton?
    Requires every model state to have at least one outgoing transition."""
    letters = sorted({o for _, o, _ in _model_edges(model)})
    s_states = list(model.states) + ([SINK] if model.has_sink else [])
    s_idx = {q: i for i, q in enumerate(s_states)}
    b_states = sorted(nba.states, key=repr)
    b_idx = {b: i for i, b in enumerate(b_states)}
    (acc_states,) = nba.accepting
    acc = {b_idx[b] for b in acc_states}

    def letter_profile(o):
        rel_s = frozenset(
            (s_idx[q], s_idx[q2]) for q, oo, q2 in _model_edges(model)
            if oo == o)
        rel_b = frozenset(
            (b_idx[b], b_idx[b2], 1 if b_idx[b2] in acc else 0)
            for b, oo, b2 in nba.edges if oo == o)
        return (rel_s, rel_b)

    def compose(p1, p2):
        rs = frozenset((a, c) for a, b in p1[0] for b2, c in p2[0] if b == b2)
        best = {}
        for a, b, f1 in p1[1]:
            for b2, c, f2 in p2[1]:
                if b != b2:
                    continue
                key = (a, c)
                best[key] = max(best.get(key, 0), max(f1, f2))
        rb = frozenset((a, c, f) for (a, c), f in best.items())
        return (rs, rb)

    gens = [letter_profile(o) for o in letters]
    closure = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for p1 in frontier:
            for g in gens:
                p = compose(p1, g)
                if p not in closure:
                    closure.add(p)
                    nxt.append(p)
        frontier = nxt

    a0 = s_idx[model.q_in]
    q0 = b_idx[nba.initial]
    for e in closure:
        if compose(e, e) != e:
            continue
        for x0 in closure | {e}:
            x = compose(x0, e)
            # S-lasso: reach some t via x, then cycle on e
            if not any((a0, t) in x[0] and (t, t) in e[0]
                       for t in range(len(s_states))):
                continue
            # accepting B-lasso on the same word class
            x_targets = {c for a, c, _ in x[1] if a == q0}
            if not any(t in x_targets and (t, t, 1) in e[1]
                       for t in range(len(b_states))):
                return False
    return True


def _model_edges(model):
    for q, outs in model.transitions.items():
        for o, q2 in outs:
            yield q, o, q2


def cell_box(spec, cell):
    """Closed box of a grid cell: its ``axis_interval`` per axis."""
    return [spec.axis_interval(a, k) for a, k in enumerate(cell)]


def field_mode(spec, cell):
    """A cell's motion mode by the field rules, one cell at a time: a
    string names every cell's mode; a table maps a cell to a mode name,
    else to its "default" entry ("default" when there is none); the
    patrol field turns the "default" mode to ``patrol_theta`` of the cell
    centre rounded half-up to whole metres."""
    f = spec.field
    if isinstance(f, str):
        return spec.modes[f]
    if f["kind"] == "table":
        return spec.modes[f["cells"].get(tuple(cell),
                                         f.get("default", "default"))]
    x, y = (math.floor(k * spec.eta + 0.5) for k in cell)
    return dataclasses.replace(spec.modes["default"], theta=patrol_theta(x, y))


def reach_box(spec, cell):
    """Box over-approximation of the states reachable from the cell box in
    one step of duration tau (cell box Minkowski-summed with tau times the
    velocity extent box).  Returns (box, exits_domain)."""
    mode = field_mode(spec, cell)
    ext = velocity_extents(mode, spec.dim)
    box = []
    exits = False
    for a, (lo, hi) in enumerate(cell_box(spec, cell)):
        blo = lo + spec.tau * ext[a][0]
        bhi = hi + spec.tau * ext[a][1]
        dlo, dhi = spec.domain[a]
        if blo < dlo - 1e-9 or bhi > dhi + 1e-9:
            exits = True
        box.append((blo, bhi))
    return box, exits


def rho(spec, q, p):
    """Classification of AP p on model state q: ``box_vs_region`` on the
    cell box, '?' on the sink."""
    if q == SINK:
        return "?"
    return box_vs_region(spec.ap_regions[p], cell_box(spec, q))


def reference_transitions(spec, aps, drop_multi_change):
    """Symbolic model transitions built one pair of cells at a time: a
    successor is every cell whose box meets the reach box (both closed,
    with slack 1e-9 eta), and the labels of each transition are derived
    afresh from ``rho`` at both of its ends."""
    aps = tuple(sorted(aps))
    slack = 1e-9 * spec.eta

    def labels(q, q2):
        per_ap = [sorted(_P_Z[rho(spec, q, p)] & _P_E[rho(spec, q2, p)])
                  for p in aps]
        return [tuple(zip(aps, combo))
                for combo in itertools.product(*per_ap)
                if not drop_multi_change
                or sum(o in ("Z", "E") for o in combo) <= 1]

    cells = spec.cells
    transitions = {}
    any_sink = False
    for q in cells:
        reach, exits = reach_box(spec, q)
        outs = []
        for q2 in cells:
            if all(hi2 >= blo - slack and lo2 <= bhi + slack
                   for (lo2, hi2), (blo, bhi)
                   in zip(cell_box(spec, q2), reach)):
                outs += [(o, q2) for o in labels(q, q2)]
        if exits:
            any_sink = True
            outs += [(o, SINK) for o in labels(q, SINK)]
        transitions[q] = tuple(outs)
    if any_sink:
        transitions[SINK] = tuple((o, SINK) for o in labels(SINK, SINK))
    return transitions


@st.composite
def _interval(draw, eta, max_k=4):
    """Domain (lo, hi) of one axis whose edges fall between grid points,
    so the boundary cells either overhang the domain or stop short of
    it."""
    def edge():
        return ((draw(st.integers(1, max_k)) + draw(st.floats(0.05, 0.95)))
                * eta)
    return -edge(), edge()


@st.composite
def _mode(draw, dim):
    if draw(st.booleans()):
        speed = st.floats(-1.5, 1.5)
        return Mode(u=tuple(draw(speed) for _ in range(dim)),
                    du=tuple(draw(st.floats(0.0, 0.3)) for _ in range(dim)))
    v = draw(st.floats(0.0, 1.5))
    return Mode(v=v, ev=draw(st.floats(0.0, min(v, 0.3))),
                theta=draw(st.floats(-math.pi, math.pi)),
                etheta=draw(st.floats(0.0, 0.4)))


@st.composite
def random_spec(draw):
    """A small 1-D or 2-D spec: eta not dividing the domain, a uniform or
    two-mode table field, random half-space regions, and tau at most
    validate_tau's tau_max."""
    dim = draw(st.integers(1, 2))
    eta = draw(st.sampled_from((0.5, 0.6, 0.7, 0.9, 1.0)))
    domain = tuple(draw(_interval(eta)) for _ in range(dim))
    x_in = tuple(draw(st.floats(lo, hi)) for lo, hi in domain)
    modes = {"default": draw(_mode(dim)), "other": draw(_mode(dim))}
    field = "default"
    if draw(st.booleans()):
        probe = SystemSpec(dim, domain, eta, 1.0, x_in, modes, "default", {})
        field = {"kind": "table", "default": "default",
                 "cells": {c: "other" for c in probe.cells
                           if draw(st.booleans())}}

    def half_space():
        a = draw(st.integers(0, dim - 1))
        lo, hi = domain[a]
        return (a, draw(st.sampled_from(("le", "ge"))),
                round(draw(st.floats(lo, hi)), 3))
    aps = {f"p{i}": tuple(tuple(half_space()
                                for _ in range(draw(st.integers(1, 2))))
                          for _ in range(draw(st.integers(1, 2))))
           for i in range(draw(st.integers(1, 3)))}
    spec = SystemSpec(dim, domain, eta, 1.0, x_in, modes, field, aps)
    tau = draw(st.floats(0.1, 1.5))
    return dataclasses.replace(spec, tau=min(tau, validate_tau(spec).tau_max))


@st.composite
def edge_spec(draw):
    """A small 1-, 2- or 3-D spec whose AP thresholds all sit exactly on
    a cell edge (a float of ``SystemSpec.edges``), on k*eta - eta/2 or
    k*eta + eta/2, or on a domain edge, with a uniform or table field and
    any tau (build it with ``force=True``)."""
    dim = draw(st.integers(1, 3))
    eta = draw(st.sampled_from((0.5, 0.6, 0.7, 1.0)))
    domain = tuple(draw(_interval(eta, max_k=5 - dim)) for _ in range(dim))
    x_in = tuple(draw(st.floats(lo, hi)) for lo, hi in domain)
    modes = {"default": draw(_mode(dim)), "other": draw(_mode(dim))}
    probe = SystemSpec(dim, domain, eta, 1.0, x_in, modes, "default", {})
    field = "default"
    if draw(st.booleans()):
        field = {"kind": "table", "default": "default",
                 "cells": {c: "other" for c in probe.cells
                           if draw(st.booleans())}}
    edges = [sorted({*(k * eta - eta / 2 for k in range(kmin, kmax + 1)),
                     *(k * eta + eta / 2 for k in range(kmin, kmax + 1)),
                     *probe.edges[a], *domain[a]})
             for a, (kmin, kmax) in enumerate(probe.grid_ranges)]

    def half_space():
        a = draw(st.integers(0, dim - 1))
        return (a, draw(st.sampled_from(("le", "ge"))),
                draw(st.sampled_from(edges[a])))
    aps = {f"p{i}": tuple(tuple(half_space()
                                for _ in range(draw(st.integers(1, 2))))
                          for _ in range(draw(st.integers(1, 2))))
           for i in range(draw(st.integers(1, 3)))}
    return SystemSpec(dim, domain, eta, draw(st.floats(0.1, 1.5)), x_in,
                      modes, field, aps)


def sampled_trajectory(spec, horizon, seed, tracked_aps=None):
    """Reference chopper for ``simulate_trajectory``: the same trajectory
    (same random draws, same step end points), but each AP is read only
    at 201 evenly spaced instants of each step, t = k * (tau / 200) for
    k < 200 and t = tau.  It cannot see a change between two samples:
    where it returns a word, exact chopping returns the same word or
    finds more changes."""
    n = 200
    aps = tuple(sorted(tracked_aps if tracked_aps is not None else
                       spec.ap_regions.keys()))
    rng = random.Random(seed)
    ts = [k * (spec.tau / n) for k in range(n)] + [spec.tau]
    x = spec.x_in
    cells = [gamma(x, spec)]
    word = []
    for step in range(horizon):
        mode = field_mode(spec, cells[-1])
        if mode.u is not None:
            du = mode.du or (0.0,) * spec.dim
            u = [mode.u[a] + rng.uniform(-du[a], du[a])
                 for a in range(spec.dim)]
        else:
            s = mode.v + rng.uniform(-mode.ev, mode.ev)
            b = mode.theta + rng.uniform(-mode.etheta, mode.etheta)
            u = [s * math.cos(b), s * math.sin(b)][:spec.dim]
        pts = [[xa + t * ua for xa, ua in zip(x, u)] for t in ts]
        letter = []
        changed = []
        for p in aps:
            vals = [region_contains(spec.ap_regions[p], pt) for pt in pts]
            flips = sum(v != w for v, w in zip(vals, vals[1:]))
            if flips == 0:
                letter.append((p, "A" if vals[0] else "N"))
            elif flips == 1:
                letter.append((p, "Z" if vals[0] else "E"))
                changed.append(p)
            else:
                raise UndefinedSlice(step, p)
        if len(changed) > 1:
            raise MultiChange(
                step, f"APs {sorted(changed)} both change within the step")
        word.append(tuple(letter))
        x = pts[-1]
        cells.append(gamma(x, spec))
    return cells, word


# ---------------------------------------------------------------------------
# Hand-made and random tiny symbolic models and automata (game-vs-language
# cross-checks)

def hand_model(aps, states, q_in, transitions, has_sink=False):
    """The ``SymbolicModel`` of a dict state -> tuple of (label, successor),
    encoded into the integer rows ``build_symbolic_model`` makes.  States
    outside ``states`` get ids in the order first met among the keys, the
    successors and ``q_in``.  A repeated transition is kept once; a label
    whose APs are not ``aps`` in order raises a ValueError."""
    ids = list(dict.fromkeys(itertools.chain(
        states, transitions,
        (q2 for outs in transitions.values() for _, q2 in outs), (q_in,))))
    index = {q: i for i, q in enumerate(ids)}
    rows = [()] * len(ids)
    for q, outs in transitions.items():
        rows[index[q]] = tuple(dict.fromkeys(
            len(ids) * letter_code(o, aps) + index[q2] for o, q2 in outs))
    keys = dict.fromkeys(index[q] for q in transitions)
    return SymbolicModel(aps, states, q_in, _Transitions(
        ids, keys, index.get, rows.__getitem__, aps), has_sink)


def hand_automaton(aps, states, edges, initial, accepting):
    """The ``Automaton`` with these state names, (source, label, target)
    edges, initial state and accepting sets, numbered as the pipeline
    numbers its states: in the ``repr`` order of their names.  A label
    whose APs are not ``aps`` in order raises a ValueError."""
    names = sorted(set(states) | {initial}, key=repr)
    index = {s: i for i, s in enumerate(names)}
    succ = [[] for _ in names]
    for s, o, d in edges:
        succ[index[s]].append((letter_code(o, tuple(aps)), index[d]))
    return Automaton(tuple(aps), tuple(map(tuple, succ)), index[initial],
                     tuple(frozenset(map(index.__getitem__, fs))
                           for fs in accepting),
                     lambda: names)


def rand_model(rng, letters, max_states=4):
    """Random total symbolic model over the given labels (every state has
    at least one outgoing transition, so all runs are infinite)."""
    n = rng.randrange(1, max_states + 1)
    states = [(i,) for i in range(n)]
    transitions = {}
    for q in states:
        deg = rng.randrange(1, 4)
        outs = set()
        for _ in range(deg):
            outs.add((rng.choice(letters), rng.choice(states)))
        transitions[q] = tuple(sorted(outs))
    return hand_model(tuple(sorted({p for o in letters for p, _ in o})),
                      tuple(states), states[0], transitions)


def rand_nba(rng, letters, max_states=3):
    n = rng.randrange(1, max_states + 1)
    states = [f"b{i}" for i in range(n)]
    edges = set()
    for b in states:
        for o in letters:
            for b2 in states:
                if rng.random() < 0.45:
                    edges.add((b, o, b2))
    accepting = frozenset(b for b in states if rng.random() < 0.5)
    aps = tuple(sorted({p for o in letters for p, _ in o}))
    return hand_automaton(aps, states, edges, states[0], (accepting,))


# ---------------------------------------------------------------------------
# Reference product explorer (reference for build_game)

def build_game_reference(model, nba):
    """``build_game`` on vertex tuples: every vertex is found through a
    dict keyed by its tuple ("O", q, b) or ("P", q, o, b), and ``names``
    is a plain tuple."""
    from apobs.game import LOSE, WIN, BuchiGame
    (acc,) = nba.accepting
    rank = {b: i for i, b in enumerate(sorted(nba.states, key=repr))}
    b_succ = {}
    for b, o, b2 in nba.edges:
        b_succ.setdefault((b, o), []).append(b2)
    for outs in b_succ.values():
        outs.sort(key=rank.__getitem__)

    names = [("O", model.q_in, nba.initial)]
    ids = {names[0]: 0}
    succ = []
    owner = bytearray()
    redirected_p = []
    redirected_o = []
    for i, v in enumerate(names):   # grows while it is read: breadth-first
        if v[0] == "O":
            _, q, b = v
            owner.append(1)
            outs = [("P", q2, o, b)
                    for o, q2 in dict.fromkeys(model.transitions.get(q, ()))]
            if not outs:
                redirected_o.append(i)
                outs = [WIN]
        elif v[0] == "P":
            _, q2, o, b = v
            owner.append(0)
            outs = [("O", q2, b2) for b2 in b_succ.get((b, o), ())]
            if not outs:
                redirected_p.append(i)
                outs = [LOSE]
        else:                # WIN or LOSE
            owner.append(0)
            succ.append((i,))
            continue
        row = []
        for w in outs:
            j = ids.get(w)
            if j is None:
                ids[w] = j = len(names)
                names.append(w)
            row.append(j)
        succ.append(tuple(row))
    accepting = frozenset(
        i for i, v in enumerate(names)
        if (v[0] == "O" and v[2] in acc) or v == WIN)
    return BuchiGame(tuple(names), dict(zip(ids.values(), succ)),
                     bytes(owner), accepting, 0,
                     tuple(redirected_p), tuple(redirected_o))


# ---------------------------------------------------------------------------
# Random Buchi games, a brute-force positional-strategy solver, the
# nested-fixpoint winning region and a strategy falsifier

def rand_buchi_game(rng, max_vertices=12):
    from apobs.game import BuchiGame
    n = rng.randrange(3, max_vertices + 1)
    owner = bytes(rng.randrange(2) for _ in range(n))
    edges = {}
    for v in range(n):
        deg = rng.randrange(1, 4)
        edges[v] = tuple(sorted(rng.sample(range(n), min(deg, n))))
    accepting = frozenset(v for v in range(n) if rng.random() < 0.3)
    return BuchiGame(tuple(f"v{i}" for i in range(n)), edges, owner,
                     accepting, 0, (), ())


def brute_force_w0(game):
    """Winning region by enumerating all positional Player strategies.

    With strategy sigma fixed, Player wins from v iff the sigma-restricted
    graph has no cycle reachable from v that avoids the accepting set
    (every infinite play then visits accepting vertices infinitely often).
    """
    player_vs = [v for v in game.edges if game.owner[v] == 0]
    w0 = set()
    for choice in itertools.product(*(game.edges[v] for v in player_vs)):
        sigma = dict(zip(player_vs, choice))
        adj = {v: ([sigma[v]] if game.owner[v] == 0 else list(succs))
               for v, succs in game.edges.items()}
        # vertices from which an accepting-set-avoiding cycle is reachable
        bad_adj = {v: [w for w in adj[v] if w not in game.accepting]
                   for v in game.edges if v not in game.accepting}
        bad_core = set()
        for comp in _sccs(bad_adj, sorted(bad_adj)):
            cs = set(comp)
            if len(comp) > 1 or comp[0] in bad_adj.get(comp[0], ()) \
                    or any(d in cs for d in bad_adj.get(comp[0], ())):
                bad_core |= cs
        # any path (through arbitrary vertices) may lead into the bad core
        losing = set(bad_core)
        changed = True
        while changed:
            changed = False
            for v in game.edges:
                if v not in losing and any(w in losing for w in adj[v]):
                    losing.add(v)
                    changed = True
        w0 |= set(game.edges) - losing
    return frozenset(w0)


def winning_region_fixpoint(game):
    """Independent oracle for the Player winning region: the nested
    fixpoint nu Y. mu X. (Pre0(X) | (F & Pre0(Y)))."""
    def pre0(s):
        out = set()
        for v, succs in game.edges.items():
            if game.owner[v] == 0:
                if any(w in s for w in succs):
                    out.add(v)
            elif all(w in s for w in succs):
                out.add(v)
        return out

    y = set(game.edges)
    while True:
        x = set()
        while True:
            fy = game.accepting & pre0(y)
            x2 = pre0(x) | fy
            if x2 == x:
                break
            x = x2
        if x == y:
            return frozenset(y)
        y = x


def check_strategy(game, strategy0, trials=200, horizon=None, seed=0):
    """Falsification harness: play the Player strategy against random
    positional Opponent strategies from the initial vertex; after the
    first visit to an accepting vertex, every window of |vertices| steps
    must contain another visit.  Returns True iff all trials pass."""
    n = len(game.edges)
    if horizon is None:
        horizon = 4 * n
    rng = random.Random(seed)
    for _ in range(trials):
        pi1 = {v: rng.choice(succs) for v, succs in game.edges.items()
               if game.owner[v] == 1}
        v = game.initial
        last_accept = None
        for step in range(horizon):
            if v in game.accepting:
                last_accept = step
            elif last_accept is not None and step - last_accept > n:
                return False
            if game.owner[v] == 0:
                if v not in strategy0:
                    raise KeyError(f"strategy undefined at {v!r}")
                v = strategy0[v]
            else:
                v = pi1[v]
        if last_accept is None or horizon - last_accept > n:
            return False
    return True


# ---------------------------------------------------------------------------
# Shared drone scenario artifacts (built once per session)

import pytest as _pytest

from apobs import abstraction as _abstraction
from apobs import scenarios as _scenarios

_MODEL_CACHE = {}


@_pytest.fixture(scope="session")
def drone():
    return _scenarios.drone_spec()


def drone_model(tracked):
    """Session-cached symbolic model of the default drone scenario."""
    key = tuple(sorted(tracked))
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = _abstraction.build_symbolic_model(
            _scenarios.drone_spec(), tracked_aps=key)
    return _MODEL_CACHE[key]
