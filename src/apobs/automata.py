"""AP-observation automata: construction from NNF formulas, trimming,
minimization, degeneralization, and lasso-word membership.

One type, ``Automaton``, serves every stage: it carries one accepting set
per U/R subformula before ``degeneralize`` and exactly one after it, and
its initial state is one of its states.  The states of the automaton
``build_gba`` makes are a distinguished initial state Q0 and the
consistent subformula valuations (tuples of observations aligned with the
subformula closure) reachable from it over valid letters, those in which
at most one AP changes.  Transition labels are observation maps over the
formula's atoms; each edge's label is its target restricted to atoms.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .ltl import (NAnd, NFalse, NOr, NRelease, NTrue, NUntil, NegAtom, Nnf,
                  PosAtom, formula_str, subformulas, to_nnf)
from .observations import NEG, OBS, consistency, is_signal_word

__all__ = [
    "Q0", "Automaton", "build_gba", "trim",
    "restrict_valid_letters", "minimize", "degeneralize", "accepts_lasso",
    "translate", "automaton_to_dot",
]

Q0 = "q0"


@dataclass(frozen=True)
class Automaton:
    """AP-observation (Büchi) automaton; a run is accepting when it visits
    every accepting set infinitely often."""
    aps: tuple
    states: frozenset        # includes the initial state
    edges: frozenset         # (src, label, dst)
    initial: object
    accepting: tuple         # tuple of frozensets of states
    accepting_for: tuple = ()  # formula strings naming each accepting set

    @property
    def n_states(self):
        return len(self.states)

    def successors(self):
        """Map each source state to its list of (label, target) pairs."""
        adj = {}
        for s, o, d in self.edges:
            adj.setdefault(s, []).append((o, d))
        return adj


# ---------------------------------------------------------------------------
# Construction

def _position_tables(sub):
    """Per closure position ``(i, j, by_mask)``: ``by_mask[m][v[i], v[j]]``
    are the observations that operands ``v[i]``, ``v[j]`` allow there, of
    those in {E,N} for mask m = 0, in {A,Z} for 1 and all four for 2.  A
    constant or an atom has no operands: ``i`` is None, and the key True
    gives the observations that change an atom (Z, E), False the rest."""
    idx = {g: i for i, g in enumerate(sub)}

    def by_mask(allowed):
        return tuple(tuple(o for o in OBS if o in allowed and o in keep)
                     for keep in ("EN", "AZ", OBS))

    out = []
    for g in sub:
        if isinstance(g, NegAtom):
            i = j = idx[PosAtom(g.name)]
            cells = {(o, o): NEG[o] for o in OBS}
        elif isinstance(g, (NAnd, NOr, NUntil, NRelease)):
            conn = {NAnd: "and", NOr: "or", NUntil: "U",
                    NRelease: "R"}[type(g)]
            i, j = idx[g.left], idx[g.right]
            cells = {(o1, o2): consistency(conn, o1, o2)
                     for o1 in OBS for o2 in OBS}
        else:
            i = j = None
            vals = {NTrue: "A", NFalse: "N", PosAtom: OBS}[type(g)]
            cells = {c: [o for o in vals if (o in "ZE") == c]
                     for c in (False, True)}
        cols = zip(*map(by_mask, cells.values()))
        out.append((i, j, tuple(dict(zip(cells, col)) for col in cols)))
    return out


def _consistent_targets(tables, mask):
    """The consistent valuations with each observation in the subset
    ``mask`` picks there (see ``_position_tables``) and at most one atom
    in {Z,E} (a valid letter: at most one AP changes), built bottom-up."""
    still, moved = [()], []  # partials with no atom in {Z,E}, with one
    for (i, j, by_mask), m in zip(tables, mask):
        allowed = by_mask[m]
        if i is None:
            stay, change = allowed[False], allowed[True]
            moved = ([v + (o,) for v in moved for o in stay]
                     + [v + (o,) for v in still for o in change])
            still = [v + (o,) for v in still for o in stay]
        else:
            still = [v + (o,) for v in still for o in allowed[v[i], v[j]]]
            moved = [v + (o,) for v in moved for o in allowed[v[i], v[j]]]
    return still + moved


def build_gba(f):
    """Build the generalized AP-observation automaton for an NNF formula.

    Its states are the initial state Q0 and the consistent valuations
    reachable from it over valid letters; the accepting sets hold
    valuations only.  An edge v -> v2 exists when v2's letter is valid and
    v's source signature (per subformula: true at the slice's end, in
    {A,E}?) equals v2's target signature (true at the start, in {A,Z}?).
    A signature's targets are generated when a reached valuation first
    has it, so no unreached valuation or invalid edge is ever made.
    """
    if not isinstance(f, Nnf):
        f = to_nnf(f)
    sub = subformulas(f)
    idx = {g: i for i, g in enumerate(sub)}
    aps = tuple(sorted(g.name for g in sub if isinstance(g, PosAtom)))
    # one (ap, observation) pair object per build, shared by every label
    ap_pairs = [(idx[PosAtom(p)], {o: (p, o) for o in OBS}) for p in aps]
    tables = _position_tables(sub)

    def targets(mask):
        return [(tuple(pairs[v[i]] for i, pairs in ap_pairs), v)
                for v in _consistent_targets(tables, mask)]

    # Q0 reads every valuation whose root starts true (A or Z); any other
    # valuation is new only when its target signature is first generated
    q0_targets = targets((2,) * (len(sub) - 1) + (1,))
    edges = [(Q0, lbl, v) for lbl, v in q0_targets]
    stack = [v for _, v in q0_targets]
    states = set(stack)
    by_sig = {}
    while stack:
        v = stack.pop()
        sig = tuple(map("AE".__contains__, v))
        ts = by_sig.get(sig)
        if ts is None:
            ts = by_sig[sig] = targets(sig)
            new = [v2 for _, v2 in ts if v2 not in states]
            states.update(new)
            stack += new
        edges += [(v, lbl, v2) for lbl, v2 in ts]

    accepting = []
    accepting_for = []
    for g in sub:
        if isinstance(g, (NUntil, NRelease)):
            i, r = idx[g], idx[g.right]
            x, y = ("N", "A") if isinstance(g, NUntil) else ("A", "N")
            accepting.append(frozenset(
                v for v in states if v[r] != x or v[i] != y))
            accepting_for.append(formula_str(g))

    return Automaton(aps, frozenset(states | {Q0}), frozenset(edges), Q0,
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
    labels = {o for _, o, _ in a.edges}
    valid = {o for o in labels if sum(v in ("Z", "E") for _, v in o) <= 1}
    return replace(a, edges=frozenset(e for e in a.edges if e[1] in valid))


def trim(a):
    """Restrict to the part reachable from the initial state.

    On the pipeline's automata no kept state is dead: every consistent
    valuation v has the consistent successor that observes each
    subformula as A or N by its truth at v's end, c(end(v)), where
    c(true) = A and c(false) = N.  For every connective and consistent
    (o1, o2, o), c(end(o)) is allowed for (c(end(o1)), c(end(o2))), and
    end(NEG[o]) = not end(o).  c(end(v))'s target signature is v's source
    signature and its letter changes no AP, so it is a valid letter and
    ``build_gba`` makes the edge."""
    live = _reachable(a.successors(), a.initial)
    return replace(
        a, states=frozenset(live),
        edges=frozenset((s, o, d) for s, o, d in a.edges if s in live),
        accepting=tuple(fs & live for fs in a.accepting))


# ---------------------------------------------------------------------------
# Minimization (acceptance-respecting partition refinement)

def minimize(a):
    """Quotient by the coarsest partition in which states of a block belong
    to the same accepting sets and have identical (label, target-block)
    edge sets.  The initial state stays its own block and keeps its name;
    every other block is named by the tuple of its states."""
    adj = a.successors()
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
    # a block is the tuple of its states in sorted order, so its repr, and
    # every order taken from it downstream, does not depend on the hash seed
    block_state = {i: tuple(ss) for i, ss in blocks.items()}
    block_state[block_of[a.initial]] = a.initial

    edges = {(block_state[block_of[s]], o, block_state[block_of[d]])
             for s, o, d in a.edges}
    accepting = tuple(
        frozenset(block_state[i] for i, ss in blocks.items()
                  if ss[0] in fs)
        for fs in a.accepting)
    return replace(a, states=frozenset(block_state.values()),
                   edges=frozenset(edges), accepting=accepting)


# ---------------------------------------------------------------------------
# Degeneralization

def degeneralize(a):
    """Counter construction from a generalized automaton to a single
    accepting set.

    States are (s, i), i in 1..m; the counter advances from i to
    (i mod m)+1 when the source s belongs to F_i, and the accepting set is
    {(s, 1) | s in F_1}.  The counter runs over the accepting sets in
    reverse subformula order (outermost connective first); this is the
    fixed convention.  With no accepting set, F_1 is every state but the
    initial one.  Only the part of ``a`` reachable from its initial state
    is explored; the result has a dead state only where ``a`` has one
    reachable, which the pipeline's automata never have (see ``trim``).
    """
    accepting = tuple(reversed(a.accepting)) or (a.states - {a.initial},)
    m = len(accepting)
    adj = a.successors()

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

    acc = frozenset((s, 1) for s in accepting[0] if (s, 1) in seen)
    return Automaton(a.aps, frozenset(seen), frozenset(edges), init, (acc,))


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
    for a reachable cycle intersecting every accepting set.
    """
    ok, why = is_signal_word(w)
    if not ok:
        raise ValueError(f"not a valid signal word: {why}")
    if tuple(sorted(w.aps)) != tuple(sorted(a.aps)):
        raise ValueError(
            f"AP domain mismatch: word {list(w.aps)} vs automaton "
            f"{list(a.aps)}")

    by_src_label = {}
    for s, o, d in a.edges:
        by_src_label.setdefault((s, o), []).append(d)

    def succ(node):
        k, s = node
        k2 = w.canonical(k + 1)
        return [(k2, d) for d in by_src_label.get((s, w._raw(k)), ())]

    start = (0, a.initial)
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
        if all(comp_states & fs for fs in a.accepting):
            return True
    return False


# ---------------------------------------------------------------------------
# Pipeline and DOT export

def translate(f):
    """Full formula-side pipeline: build over valid letters, restrict to
    valid letters, trim, minimize, degeneralize.  Returns a dict with all
    intermediate automata under "gba", "trimmed", "minimized" and "nba".

    ``build_gba`` makes only valid edges and reachable states, so the
    restriction and the trim return it unchanged; they stay as the stages
    the per-layer trace times.  No state is dead at any stage (the lemma in
    ``trim``'s docstring).  States without accepting continuations are
    kept; they are harmless for language and membership checks.  This
    stage combination reproduces the published per-formula automaton sizes.
    """
    raw = build_gba(f)
    trimmed = trim(restrict_valid_letters(raw))
    merged = minimize(trimmed)
    nba = degeneralize(merged)
    return {"gba": raw, "trimmed": trimmed, "minimized": merged, "nba": nba}


def _state_names(a):
    names = {a.initial: "q0"}
    for i, s in enumerate(sorted(a.states - {a.initial}, key=repr), start=1):
        names[s] = f"q{i}"
    return names


def automaton_to_dot(a, title=""):
    """DOT text; a state in an accepting set is a double circle, labelled
    with the indices of its sets when there is more than one set."""
    names = _state_names(a)
    lines = ["digraph automaton {", "  rankdir=LR;"]
    if title:
        lines.append(f'  label="{title}";')
    for s, n in sorted(names.items(), key=lambda kv: int(kv[1][1:])):
        ms = [i + 1 for i, fs in enumerate(a.accepting) if s in fs]
        attrs = f'shape={"doublecircle" if ms else "circle"}'
        if len(a.accepting) > 1:
            extra = f'\\nF{",".join(map(str, ms))}' if ms else ""
            attrs += f', label="{n}{extra}"'
        lines.append(f"  {n} [{attrs}];")
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
