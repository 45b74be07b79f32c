"""AP-observation automata: construction from LTL formulas, trimming,
minimization, degeneralization and DOT export.

One type, ``Automaton``, serves every stage, on integer states and
letter codes (``observations.letter_code``).  State names are made only
when read; on the pipeline's automata every stage numbers its states in
the ``repr`` order of their names, so no id depends on the hash seed.
"""
from __future__ import annotations

import itertools
from collections.abc import Set
from dataclasses import dataclass, field
from functools import cached_property

from .ltl import (And, Atom, FalseF, Not, Or, Release, TrueF, Until,
                  subformulas, to_nnf)
from .observations import NEG, OBS, consistency, letter_of

__all__ = ["Q0", "Automaton", "build_gba", "trim", "restrict_valid_letters",
           "minimize", "degeneralize", "translate", "automaton_to_dot"]

Q0 = "q0"


@dataclass(frozen=True, eq=False)
class Automaton:
    """AP-observation (Büchi) automaton on the states 0..n-1; a run is
    accepting when it visits every accepting set infinitely often: one
    per U/R subformula before ``degeneralize``, exactly one after it.
    ``succ[s]`` lists s's (letter code, target) edges, and states may
    share one tuple.  The views ``initial``, ``states``, ``edges`` and
    ``accepting`` hold the names ``namer()`` gives, made when first read;
    two automata are equal when their views are."""
    aps: tuple
    succ: tuple              # state -> tuple of (letter code, target)
    start: int               # the initial state
    acc: tuple               # one frozenset of states per accepting set
    namer: object = field(repr=False)

    n_states = property(lambda self: len(self.succ))
    names = cached_property(lambda self: tuple(self.namer()))
    initial = property(lambda self: self.names[self.start])
    states = cached_property(lambda self: frozenset(self.names))
    edges = property(lambda self: _Edges(self))  # uncached: no ref cycle
    accepting = cached_property(lambda self: tuple(
        frozenset(map(self.names.__getitem__, fs)) for fs in self.acc))
    _edge_set = cached_property(lambda self: frozenset(
        (self.names[s], letter_of(c, self.aps), self.names[t])
        for s, outs in enumerate(self.succ) for c, t in outs))

    def __eq__(self, other):
        return isinstance(other, Automaton) and all(
            getattr(self, k) == getattr(other, k)
            for k in ("aps", "initial", "states", "accepting", "edges"))


class _Edges(Set):
    """An automaton's (source, label, target) name triples; the length is
    counted on its successor tuples, with no name made."""

    def __init__(self, a):
        self._a = a

    def __len__(self):
        return sum(map(len, self._a.succ))

    def __iter__(self):
        return iter(self._a._edge_set)

    def __contains__(self, e):
        return e in self._a._edge_set


# ---------------------------------------------------------------------------
# Construction

# the consistency table each binary connective reads
_CONNECTIVE = {And: "and", Or: "or", Until: "U", Release: "R"}


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
        if isinstance(g, Not):
            i = j = idx[g.child]
            cells = {(o, o): NEG[o] for o in OBS}
        elif type(g) in _CONNECTIVE:
            i, j = idx[g.left], idx[g.right]
            cells = {(o1, o2): consistency(_CONNECTIVE[type(g)], o1, o2)
                     for o1 in OBS for o2 in OBS}
        else:
            i = j = None
            vals = {TrueF: "A", FalseF: "N", Atom: OBS}[type(g)]
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
    """Build the generalized AP-observation automaton for a formula, over
    the subformula closure of its negation normal form (``to_nnf``, which
    leaves a formula already in that form unchanged).

    Its states are Q0 and the consistent valuations (observations aligned
    with the closure) reachable from it over valid letters, in which at
    most one AP changes; the accepting sets hold valuations only.  An edge
    v -> v2, labelled v2 restricted to atoms, exists when v2's letter is
    valid and v's source signature (per subformula: true at the slice's
    end, in {A,E}?) is v2's target signature (true at the start, in
    {A,Z}?), whose targets are made once, when first reached."""
    sub = subformulas(to_nnf(f))
    idx = {g: i for i, g in enumerate(sub)}
    aps = tuple(sorted(g.name for g in sub if isinstance(g, Atom)))
    # the k-th AP's observation o adds OBS.index(o) * 4**k to the code
    digits = [(idx[Atom(p)], {o: OBS.index(o) * len(OBS) ** k for o in OBS})
              for k, p in enumerate(aps)]
    tables = _position_tables(sub)

    def targets(mask):
        return [(sum(d[v[i]] for i, d in digits), v)
                for v in _consistent_targets(tables, mask)]

    # Q0 reads every valuation whose root starts true (A or Z); any other
    # valuation is new only when its target signature is first generated
    q0_targets = targets((2,) * (len(sub) - 1) + (1,))
    stack = [v for _, v in q0_targets]
    sig_of = dict.fromkeys(stack)        # reached valuation -> signature
    by_sig = {}
    while stack:
        v = stack.pop()
        sig = sig_of[v] = tuple(map("AE".__contains__, v))
        if sig not in by_sig:
            ts = by_sig[sig] = targets(sig)
            new = [v2 for _, v2 in ts if v2 not in sig_of]
            sig_of.update(dict.fromkeys(new))
            stack += new

    # Q0's repr sorts first, and for same-length tuples of one-letter
    # strings the repr order is the tuples' order
    names = [Q0, *sorted(sig_of)]
    rank = {v: s for s, v in enumerate(names)}
    out = {sig: tuple([(c, rank[v]) for c, v in ts])
           for sig, ts in by_sig.items()}
    succ = (tuple([(c, rank[v]) for c, v in q0_targets]),
            *[out[sig_of[v]] for v in names[1:]])

    accepting = []
    for g in sub:
        if isinstance(g, (Until, Release)):
            i, r = idx[g], idx[g.right]
            bad = ("N", "A") if isinstance(g, Until) else ("A", "N")
            accepting.append(frozenset(s for s, v in enumerate(names)
                                       if s and (v[r], v[i]) != bad))
    return Automaton(aps, succ, 0, tuple(accepting), lambda: names)


# ---------------------------------------------------------------------------
# Letter restriction and trimming

def restrict_valid_letters(a):
    """Drop edges whose label has two or more APs with observation in
    {Z,E}.  Valid signal words never contain such letters (at most one AP
    changes per slice), so the recognized language over signal words is
    unchanged.  Returns ``a`` itself when no edge is dropped."""
    valid = {c: sum(o in "ZE" for _, o in letter_of(c, a.aps)) <= 1
             for c in {c for outs in a.succ for c, _ in outs}}
    if all(valid.values()):
        return a
    succ = tuple(tuple(e for e in outs if valid[e[0]]) for outs in a.succ)
    return Automaton(a.aps, succ, a.start, a.acc, lambda: a.names)


def trim(a):
    """Restrict to the part reachable from the initial state, in state
    order; returns ``a`` itself when all of it is.  On the pipeline's
    automata no state is dead: a consistent valuation v has the successor
    c(end(v)) that observes each subformula as A or N by its truth at v's
    end.  It is consistent (every connective allows c(end(o)) for
    (c(end(o1)), c(end(o2))), and end(NEG[o]) = not end(o)), its target
    signature is v's source signature and its letter changes no AP, so
    ``build_gba`` makes the edge."""
    seen = bytearray(a.n_states)
    seen[a.start] = 1
    stack = [a.start]
    while stack:
        for _, t in a.succ[stack.pop()]:
            if not seen[t]:
                seen[t] = 1
                stack.append(t)
    if all(seen):
        return a
    new = {s: i for i, s in
           enumerate(itertools.compress(range(a.n_states), seen))}
    return Automaton(
        a.aps, tuple(tuple((c, new[t]) for c, t in a.succ[s]) for s in new),
        new[a.start], tuple(frozenset(map(new.get, fs)) - {None}
                            for fs in a.acc),
        lambda: [a.names[s] for s in new])


# ---------------------------------------------------------------------------
# Minimization (acceptance-respecting partition refinement), degeneralization

def minimize(a):
    """Quotient by the coarsest partition in which states of a block belong
    to the same accepting sets and have identical (letter, target-block)
    edge sets, refined on int signatures.  The initial state stays its own
    block and keeps its name; any other block is the tuple of its states'
    names.  Blocks are numbered by their least state."""
    succ, n = a.succ, a.n_states
    first = {}
    new = [first.setdefault(s == a.start or tuple(s in fs for fs in a.acc),
                            len(first)) for s in range(n)]
    block = None
    while new != block:              # blocks numbered in order of first use
        block, edge_sig, sigs = new, {}, {}
        new = []
        for b, outs in zip(block, succ):
            e = edge_sig.get(id(outs))  # once per shared successor tuple
            if e is None:
                e = edge_sig[id(outs)] = frozenset(
                    [c * n + block[t] for c, t in outs])
            new.append(sigs.setdefault((b, e), len(sigs)))

    members = [[] for _ in sigs]     # first use in state order: least state
    for s, b in enumerate(block):
        members[b].append(s)
    # the partition is stable, so a block's edges are any member's
    out = tuple(tuple(dict.fromkeys([(c, block[t]) for c, t in succ[ss[0]]]))
                for ss in members)
    return Automaton(
        a.aps, out, block[a.start],
        tuple(frozenset(block[s] for s in fs) for fs in a.acc),
        lambda: [a.names[ss[0]] if ss[0] == a.start
                 else tuple(map(a.names.__getitem__, ss)) for ss in members])


def degeneralize(a):
    """Counter construction from a generalized automaton to a single
    accepting set: states are (s, i), i in 1..m; the counter advances from
    i to (i mod m)+1 when the source s belongs to F_i, and the accepting
    set is {(s, 1) | s in F_1}.  The counter runs over the accepting sets
    in reverse subformula order (outermost connective first).  With no
    accepting set, F_1 is every state but the initial one.  Only the
    reachable part is made, numbered by s, then by i as a string: the
    names' repr order when a's states are numbered in that of theirs."""
    accepting = tuple(reversed(a.acc)) or (
        frozenset(range(a.n_states)) - {a.start},)
    m = len(accepting)
    counters = sorted(range(1, m + 1), key=str)   # key s * m + rank of i
    step = [counters.index(i % m + 1) for i in counters]

    def after(s, k):                 # the counter's rank on leaving (s, k)
        return step[k] if s in accepting[counters[k] - 1] else k

    init = a.start * m + counters.index(1)
    seen = bytearray(a.n_states * m)
    seen[init] = 1
    stack = [init]
    while stack:
        s, k = divmod(stack.pop(), m)
        k = after(s, k)
        for _, t in a.succ[s]:
            if not seen[t * m + k]:
                seen[t * m + k] = 1
                stack.append(t * m + k)
    keys = list(itertools.compress(range(len(seen)), seen))
    rank = dict(zip(keys, itertools.count()))
    out = []
    for s, k in (divmod(key, m) for key in keys):
        k = after(s, k)
        out.append(tuple([(c, rank[t * m + k]) for c, t in a.succ[s]]))
    acc = (rank[key] for key in (s * m + init % m for s in accepting[0])
           if seen[key])
    return Automaton(
        a.aps, tuple(out), rank[init], (frozenset(acc),),
        lambda: [(a.names[key // m], counters[key % m]) for key in keys])


# ---------------------------------------------------------------------------
# Pipeline and DOT export

def translate(f):
    """Full formula-side pipeline: build over valid letters, restrict to
    valid letters, trim, minimize, degeneralize.  Returns a dict with all
    intermediate automata under "gba", "trimmed", "minimized" and "nba".
    The restriction and the trim return ``build_gba``'s automaton itself;
    they stay as the stages the per-layer trace times.  No state is dead
    (see ``trim``); states without accepting continuations are kept."""
    raw = build_gba(f)
    trimmed = trim(restrict_valid_letters(raw))
    merged = minimize(trimmed)
    nba = degeneralize(merged)
    return {"gba": raw, "trimmed": trimmed, "minimized": merged, "nba": nba}


def automaton_to_dot(a, title=""):
    """DOT text: the initial state is q0, the others q1, q2, ... in state
    order; a state in an accepting set is a double circle, labelled with
    the indices of its sets when there is more than one set."""
    order = [a.start, *(s for s in range(a.n_states) if s != a.start)]
    q = {s: f"q{i}" for i, s in enumerate(order)}
    lines = ["digraph automaton {", "  rankdir=LR;",
             *([f'  label="{title}";'] if title else [])]
    for s in order:
        ms = [i + 1 for i, fs in enumerate(a.acc) if s in fs]
        attrs = f'shape={"doublecircle" if ms else "circle"}'
        if len(a.acc) > 1:
            extra = f'\\nF{",".join(map(str, ms))}' if ms else ""
            attrs += f', label="{q[s]}{extra}"'
        lines.append(f"  {q[s]} [{attrs}];")
    lines += ["  init [shape=point];", "  init -> q0;"]
    grouped = {}
    for s, outs in enumerate(a.succ):
        for c, t in outs:
            grouped.setdefault((q[s], q[t]), []).append(
                ",".join(f"{p}:{v}" for p, v in letter_of(c, a.aps)))
    for (s, d), lbls in sorted(grouped.items()):
        lines.append(f'  {s} -> {d} [label="{"; ".join(sorted(lbls))}"];')
    return "\n".join(lines + ["}"]) + "\n"
