"""AP-observation automata: construction from NNF formulas, trimming,
minimization, degeneralization, and lasso-word membership.

States of the generalized automaton are the consistent subformula
valuations (tuples of observations aligned with the subformula closure)
that are reachable from a distinguished initial state Q0, plus Q0 itself.
Transition labels are observation maps over the formula's atoms; by
construction each edge's label equals its target valuation restricted to
atoms.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .ltl import (NAnd, NFalse, NOr, NRelease, NTrue, NUntil, NegAtom, Nnf,
                  PosAtom, formula_str, subformulas, to_nnf)
from .observations import NEG, OBS, consistency, is_signal_word

__all__ = [
    "Q0", "Gba", "Nba", "build_gba", "trim",
    "restrict_valid_letters", "minimize", "degeneralize", "accepts_lasso",
    "translate", "automaton_to_json", "automaton_from_json",
    "automaton_to_dot",
]

Q0 = "q0"


@dataclass(frozen=True)
class Gba:
    """Generalized AP-observation automaton."""
    aps: tuple
    states: frozenset        # non-initial states; initial is Q0
    edges: frozenset         # (src, label, dst); src may be Q0
    accepting: tuple         # tuple of frozensets, one per U/R subformula
    accepting_for: tuple     # formula strings naming each accepting set

    @property
    def n_states(self):
        return len(self.states) + 1  # counting q0

    def successors(self):
        return _successors(self.edges)


@dataclass(frozen=True)
class Nba:
    """AP-observation automaton with a single accepting set."""
    aps: tuple
    states: frozenset        # includes the initial state
    edges: frozenset
    initial: object
    accepting: frozenset

    @property
    def n_states(self):
        return len(self.states)

    def successors(self):
        return _successors(self.edges)


def _successors(edges):
    """Map each source state to its list of (label, target) pairs."""
    adj = {}
    for s, o, d in edges:
        adj.setdefault(s, []).append((o, d))
    return adj


# ---------------------------------------------------------------------------
# Construction

def _consistent_valuations_bottomup(sub):
    """Enumerate consistent valuations bottom-up in topological order,
    pruning inconsistent partial assignments early."""
    idx = {g: i for i, g in enumerate(sub)}
    partials = [()]
    for g in sub:
        nxt = []
        if isinstance(g, NTrue):
            opts = lambda v: ("A",)
        elif isinstance(g, NFalse):
            opts = lambda v: ("N",)
        elif isinstance(g, PosAtom):
            opts = lambda v: OBS
        elif isinstance(g, NegAtom):
            i = idx[PosAtom(g.name)]
            opts = lambda v, i=i: (NEG[v[i]],)
        else:
            conn = {NAnd: "and", NOr: "or", NUntil: "U",
                    NRelease: "R"}[type(g)]
            li, ri = idx[g.left], idx[g.right]
            opts = lambda v, conn=conn, li=li, ri=ri: \
                sorted(consistency(conn, v[li], v[ri]))
        for v in partials:
            for o in opts(v):
                nxt.append(v + (o,))
        partials = nxt
    return partials


def build_gba(f):
    """Build the generalized AP-observation automaton for an NNF formula.

    Its states are the consistent valuations reachable from Q0: the build
    explores forward from Q0, and a valuation gets outgoing edges only once
    an edge reaches it.
    """
    if not isinstance(f, Nnf):
        f = to_nnf(f)
    sub = subformulas(f)
    idx = {g: i for i, g in enumerate(sub)}
    aps = tuple(sorted(g.name for g in sub if isinstance(g, PosAtom)))
    ap_idx = [(p, idx[PosAtom(p)]) for p in aps]

    valuations = _consistent_valuations_bottomup(sub)

    # the transition condition compares a source signature (observation in
    # {A,E}, per subformula) with a target signature (in {A,Z}); each
    # target is stored with its label
    by_target_sig = {}
    for v in valuations:
        sig = tuple(o in ("A", "Z") for o in v)
        by_target_sig.setdefault(sig, []).append(
            (tuple((p, v[i]) for p, i in ap_idx), v))

    # Q0 reads every valuation whose root starts true (A or Z)
    root = len(sub) - 1
    q0_targets = [t for sig, ts in by_target_sig.items() if sig[root]
                  for t in ts]
    edges = {(Q0, lbl, v) for lbl, v in q0_targets}
    stack = [v for _, v in q0_targets]
    states = set(stack)
    while stack:
        v = stack.pop()
        for lbl, v2 in by_target_sig.get(
                tuple(o in ("A", "E") for o in v), ()):
            edges.add((v, lbl, v2))
            if v2 not in states:
                states.add(v2)
                stack.append(v2)

    accepting = []
    accepting_for = []
    for g in sub:
        if isinstance(g, NUntil):
            i, r = idx[g], idx[g.right]
            accepting.append(frozenset(
                v for v in states if v[r] != "N" or v[i] != "A"))
            accepting_for.append(formula_str(g))
        elif isinstance(g, NRelease):
            i, r = idx[g], idx[g.right]
            accepting.append(frozenset(
                v for v in states if v[r] != "A" or v[i] != "N"))
            accepting_for.append(formula_str(g))

    return Gba(aps, frozenset(states), frozenset(edges),
               tuple(accepting), tuple(accepting_for))


# ---------------------------------------------------------------------------
# Letter restriction and trimming

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


def restrict_valid_letters(a):
    """Drop edges whose label has two or more APs with observation in
    {Z,E}.  Valid signal words never contain such letters (at most one AP
    changes per slice), so the recognized language over signal words is
    unchanged."""
    edges = frozenset(
        (s, o, d) for s, o, d in a.edges
        if sum(1 for _, v in o if v in ("Z", "E")) <= 1)
    return Gba(a.aps, a.states, edges, a.accepting, a.accepting_for)


def trim(a):
    """Restrict to the reachable, deadlock-free part (every kept state is
    reachable from Q0 and has an outgoing edge; iterated to fixpoint).
    Q0 is always kept."""
    live = set(a.states)
    while True:
        adj = {}
        for s, o, d in a.edges:
            if (s == Q0 or s in live) and d in live:
                adj.setdefault(s, []).append((o, d))
        reach = _reachable(adj, Q0) - {Q0}
        new = {s for s in live & reach if adj.get(s)}
        if new == live:
            break
        live = new
    edges = frozenset((s, o, d) for s, o, d in a.edges
                      if (s == Q0 or s in live) and d in live)
    return Gba(a.aps, frozenset(live), edges,
               tuple(frozenset(fs & live) for fs in a.accepting),
               a.accepting_for)


# ---------------------------------------------------------------------------
# Minimization (acceptance-respecting partition refinement)

def minimize(a):
    """Quotient by the coarsest partition in which states of a block belong
    to the same accepting sets and have identical (label, target-block)
    edge sets.  Q0 stays its own block."""
    adj = a.successors()
    states = sorted(a.states, key=repr)

    def acc_sig(s):
        return tuple(s in fs for fs in a.accepting)

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
    # a block is the tuple of its states in sorted order, so its repr, and
    # every order taken from it downstream, does not depend on the hash seed
    block_state = {i: tuple(ss) for i, ss in blocks.items()}

    edges = set()
    for s, o, d in a.edges:
        src = Q0 if s == Q0 else block_state[block_of[s]]
        edges.add((src, o, block_state[block_of[d]]))
    accepting = tuple(
        frozenset(block_state[i] for i, ss in blocks.items()
                  if ss[0] in fs)
        for fs in a.accepting)
    return Gba(a.aps, frozenset(block_state.values()), frozenset(edges),
               accepting, a.accepting_for)


# ---------------------------------------------------------------------------
# Degeneralization

def degeneralize(a):
    """Counter construction from a generalized automaton to a single
    accepting set.

    States are (s, i), i in 1..m; the counter advances from i to
    (i mod m)+1 when the source s belongs to F_i, and the accepting set is
    {(s, 1) | s in F_1}.  The counter runs over the accepting sets in
    reverse subformula order (outermost connective first); this is the
    fixed convention.  The result is restricted to its reachable
    deadlock-free part.
    """
    accepting = tuple(reversed(a.accepting))
    if not accepting:
        accepting = (frozenset(a.states),)
    m = len(accepting)
    adj = a.successors()

    def advance(s, i):
        return (i % m) + 1 if s in accepting[i - 1] else i

    edges = set()
    init = (Q0, 1)
    seen = {init}
    stack = [init]
    while stack:
        s, i = stack.pop()
        i2 = advance(s, i) if s != Q0 else i
        for o, d in adj.get(s, ()):
            nxt = (d, i2)
            edges.add(((s, i), o, nxt))
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)

    # deadlock-free restriction
    states = set(seen)
    while True:
        out = {s for s, _, _ in edges}
        dead = {s for s in states if s not in out and s != init}
        if not dead:
            break
        states -= dead
        edges = {(s, o, d) for s, o, d in edges
                 if s in states and d in states}

    acc = frozenset((s, 1) for s in accepting[0]
                    if (s, 1) in states)
    return Nba(a.aps, frozenset(states), frozenset(edges), init, acc)


# ---------------------------------------------------------------------------
# Lasso membership

def _sccs(adj, nodes):
    """Iterative Tarjan; returns list of strongly connected components."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = itertools.count()
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(adj.get(root, ())))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj.get(w, ()))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def accepts_lasso(a, w):
    """Does the automaton accept the signal word lasso ``w``?

    Builds the product of the word positions with the automaton and looks
    for a reachable cycle intersecting every accepting set (generalized) or
    the accepting set (single).
    """
    ok, why = is_signal_word(w)
    if not ok:
        raise ValueError(f"not a valid signal word: {why}")
    if tuple(sorted(w.aps)) != tuple(sorted(a.aps)):
        raise ValueError(
            f"AP domain mismatch: word {list(w.aps)} vs automaton "
            f"{list(a.aps)}")

    if isinstance(a, Nba):
        init = a.initial
        acc_sets = [a.accepting]
    else:
        init = Q0
        acc_sets = list(a.accepting)

    by_src_label = {}
    for s, o, d in a.edges:
        by_src_label.setdefault((s, o), []).append(d)

    def succ(node):
        k, s = node
        k2 = w.canonical(k + 1)
        return [(k2, d) for d in by_src_label.get((s, w._raw(k)), ())]

    start = (0, init)
    seen = {start}
    stack = [start]
    adj = {}
    while stack:
        v = stack.pop()
        adj[v] = succ(v)
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)

    for comp in _sccs(adj, sorted(seen, key=repr)):
        comp_set = set(comp)
        nontrivial = len(comp) > 1 or any(
            d in comp_set for d in adj.get(comp[0], ()))
        if not nontrivial:
            continue
        comp_states = {s for _, s in comp}
        if all(comp_states & fs for fs in acc_sets):
            return True
    return False


# ---------------------------------------------------------------------------
# Pipeline and serialization

def translate(f):
    """Full formula-side pipeline: build the part reachable from Q0,
    restrict to valid signal-word letters, trim to the reachable
    deadlock-free part, minimize, degeneralize.  Returns a dict with all
    intermediate automata under "gba", "trimmed", "minimized" and "nba".

    ``build_gba`` already keeps only valuations reachable from Q0 over all
    letters; ``trim`` then drops what becomes unreachable or deadlocked
    once the invalid letters are gone.

    Note: the trim step removes deadlocked/unreachable states but keeps
    states without accepting continuations (they are harmless for language
    and membership checks).  This exact stage combination reproduces the
    published per-formula automaton sizes.
    """
    raw = build_gba(f)
    trimmed = trim(restrict_valid_letters(raw))
    merged = minimize(trimmed)
    nba = degeneralize(merged)
    return {"gba": raw, "trimmed": trimmed, "minimized": merged, "nba": nba}


def _state_names(a):
    if isinstance(a, Nba):
        states = sorted(a.states - {a.initial}, key=repr)
        names = {a.initial: "q0"}
    else:
        states = sorted(a.states, key=repr)
        names = {Q0: "q0"}
    for i, s in enumerate(states, start=1):
        names[s] = f"q{i}"
    return names


def automaton_to_json(a):
    names = _state_names(a)
    edges = sorted((names[s], o, names[d]) for s, o, d in a.edges)
    if isinstance(a, Nba):
        accepting = [sorted(names[s] for s in a.accepting)]
        kind = "nba"
    else:
        accepting = [sorted(names[s] for s in fs) for fs in a.accepting]
        kind = "gba"
    return {
        "kind": kind,
        "aps": list(a.aps),
        "states": sorted(names.values(), key=lambda x: int(x[1:])),
        "initial": "q0",
        "edges": [{"src": s, "label": dict(o), "dst": d}
                  for s, o, d in edges],
        "accepting": accepting,
    }


def automaton_from_json(obj):
    aps = tuple(sorted(obj["aps"]))
    edges = frozenset(
        (e["src"], tuple(sorted(e["label"].items())), e["dst"])
        for e in obj["edges"])
    states = frozenset(obj["states"]) - {obj["initial"]}
    if obj.get("kind") == "gba" or len(obj["accepting"]) != 1:
        return Gba(aps, states, edges,
                   tuple(frozenset(fs) for fs in obj["accepting"]),
                   tuple(f"F{i}" for i in range(len(obj["accepting"]))))
    return Nba(aps, frozenset(obj["states"]), edges, obj["initial"],
               frozenset(obj["accepting"][0]))


def automaton_to_dot(a, title=""):
    names = _state_names(a)
    lines = ["digraph automaton {", "  rankdir=LR;"]
    if title:
        lines.append(f'  label="{title}";')
    if isinstance(a, Nba):
        acc = {names[s] for s in a.accepting}
        for s in sorted(names.values(), key=lambda x: int(x[1:])):
            shape = "doublecircle" if s in acc else "circle"
            lines.append(f'  {s} [shape={shape}];')
    else:
        memberships = {
            names[s]: [i + 1 for i, fs in enumerate(a.accepting) if s in fs]
            for s in a.states}
        for s in sorted(names.values(), key=lambda x: int(x[1:])):
            ms = memberships.get(s, [])
            extra = f'\\nF{",".join(map(str, ms))}' if ms else ""
            shape = "doublecircle" if ms else "circle"
            lines.append(f'  {s} [shape={shape}, label="{s}{extra}"];')
    lines.append('  init [shape=point];')
    lines.append('  init -> q0;')
    grouped = {}
    for s, o, d in a.edges:
        key = (names[s], names[d])
        lbl = ",".join(f"{p}:{v}" for p, v in o)
        grouped.setdefault(key, []).append(lbl)
    for (s, d), lbls in sorted(grouped.items()):
        lines.append(f'  {s} -> {d} [label="{"; ".join(sorted(lbls))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
