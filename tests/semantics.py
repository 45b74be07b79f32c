"""The paper's dense-time semantics, the reference the tests check the
pipeline against; nothing in ``apobs`` calls it.

  * piecewise-constant ultimately periodic AP-signals and exact
    dense-time LTL evaluation on them (``eval_signal``),
  * signal words and the chopping of a signal into one (``chop``),
  * the unique-run oracle that computes, for a valid signal word, the one
    valuation sequence every accepting automaton run must follow,
  * lasso-word acceptance of an automaton (``accepts_lasso``) and the SCC
    routine it and the oracles in ``conftest`` search with.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from apobs.ltl import (And, Atom, FalseF, Not, Or, Release, TrueF, Until,
                       subformulas)
from apobs.observations import (NEG, OBS, ChoppingError, MultiChange,
                                UndefinedSlice, consistency)


# ---------------------------------------------------------------------------
# Signal words

def _label(d):
    """Canonical (hashable) form of an observation map: sorted item tuple."""
    items = tuple(sorted(d.items()))
    for p, o in items:
        if o not in OBS:
            raise ValueError(f"not an observation: {o!r} for {p!r}")
    return items


@dataclass(frozen=True)
class SignalWord:
    """Ultimately periodic word of observation maps (prefix + loop)."""
    aps: tuple
    prefix: tuple  # tuple of labels (sorted (ap, obs) tuples)
    loop: tuple    # nonempty

    @staticmethod
    def make(aps, prefix, loop):
        aps = tuple(sorted(aps))
        def conv(ms):
            out = []
            for m in ms:
                d = dict(m)
                if set(d) != set(aps):
                    raise ValueError(
                        f"observation map domain {sorted(d)} != APs {list(aps)}")
                out.append(_label(d))
            return tuple(out)
        if not loop:
            raise ValueError("loop must be nonempty")
        return SignalWord(aps, conv(prefix), conv(loop))

    def letter(self, k):
        """Observation map at position k (as a dict)."""
        return dict(self._raw(k))

    def _raw(self, k):
        if k < len(self.prefix):
            return self.prefix[k]
        return self.loop[(k - len(self.prefix)) % len(self.loop)]

    def canonical(self, k):
        """Fold position k onto the canonical range [0, prefix+loop)."""
        p, l = len(self.prefix), len(self.loop)
        return k if k < p else p + (k - p) % l

    def __len__(self):
        return len(self.prefix) + len(self.loop)


def is_signal_word(w):
    """Check the two signal-word invariants.

    Returns (True, None) or (False, first violation message).

    Invariants: the seam condition -- w_k(p) in {A,E} iff w_{k+1}(p) in
    {A,Z}, including across the loop seam -- and the single-change
    condition -- at most one AP per position has observation in {Z,E}.
    """
    n = len(w.prefix) + len(w.loop)
    for k in range(n):
        letter = w.letter(k)
        changed = [p for p, o in letter.items() if o in ("Z", "E")]
        if len(changed) > 1:
            return False, (f"position {k}: APs {sorted(changed)} both have "
                           f"observation in {{Z,E}}")
        nxt = w.letter(k + 1) if k + 1 < n else w.letter(len(w.prefix))
        for p in w.aps:
            if (letter[p] in ("A", "E")) != (nxt[p] in ("A", "Z")):
                return False, (f"position {k} -> {k + 1}: {p} has "
                               f"{letter[p]} followed by {nxt[p]}")
    return True, None


# ---------------------------------------------------------------------------
# Piecewise-constant ultimately periodic signals

_DENOM_BOUND = 10 ** 6


def _to_frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(_DENOM_BOUND)
    raise TypeError(f"cannot interpret {x!r} as a duration")


@dataclass(frozen=True)
class PiecewiseSignal:
    """Piecewise-constant ultimately periodic AP-signal.

    Each piece is (duration, frozenset of APs true on it).  Pieces are
    right-open [start, end): the value at a switch instant is taken from
    the piece on the right (signals are right-continuous at switches).
    This is the convention under which the connective consistency tables
    are exact -- e.g. a Z/E handoff at a shared change instant satisfies
    the until (the E side owns the instant), and Z AND E is N.  The signal
    is total on [0, inf): after the prefix the loop repeats forever.
    """
    prefix: tuple
    loop: tuple
    aps: tuple = field(default=())

    @staticmethod
    def make(prefix, loop, aps=None):
        def conv(ps):
            out = []
            for dur, letter in ps:
                d = _to_frac(dur)
                if d <= 0:
                    raise ValueError("piece durations must be positive")
                out.append((d, frozenset(letter)))
            return tuple(out)
        prefix, loop = conv(prefix), conv(loop)
        if not loop:
            raise ValueError("loop must be nonempty")
        seen = set()
        for _, letter in prefix + loop:
            seen |= letter
        aps = tuple(sorted(seen if aps is None else set(aps) | seen))
        return PiecewiseSignal(prefix, loop, aps)

    @property
    def prefix_dur(self):
        return sum((d for d, _ in self.prefix), Fraction(0))

    @property
    def loop_dur(self):
        return sum((d for d, _ in self.loop), Fraction(0))

    def value_at(self, t):
        """Letter at time t (right-continuous: a switch instant belongs to
        the piece starting there)."""
        t = _to_frac(t)
        if t < 0:
            raise ValueError("negative time")
        pd, ld = self.prefix_dur, self.loop_dur
        if t < pd:
            pieces, rel = self.prefix, t
        else:
            pieces, rel = self.loop, (t - pd) % ld
        acc = Fraction(0)
        for d, letter in pieces:
            acc += d
            if rel < acc:
                return letter
        raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Position structure: the alternating point / open-segment decomposition of
# the timeline induced by a signal's change points (plus extra cut times).
# Truth of any formula is constant on each open segment, so dense-time
# evaluation reduces to an ultimately periodic sequence of positions.

class _PositionLasso:
    def __init__(self, signal, cuts=()):
        self.signal = signal
        pd, ld = signal.prefix_dur, signal.loop_dur
        self.pd, self.ld = pd, ld

        prefix_cuts = {Fraction(0), pd}
        loop_cuts = {ld}  # offsets in (0, ld]
        acc = Fraction(0)
        for d, _ in signal.prefix:
            acc += d
            prefix_cuts.add(acc)
        acc = Fraction(0)
        for d, _ in signal.loop:
            acc += d
            loop_cuts.add(acc)
        for t in cuts:
            t = _to_frac(t)
            if t < 0:
                raise ValueError("negative cut time")
            if t <= pd:
                prefix_cuts.add(t)
            else:
                off = (t - pd) % ld
                loop_cuts.add(off if off > 0 else ld)

        # positions: pt(c0=0), seg, pt(c1), ..., pt(pd)  |  seg, pt, ...,
        # pt(pd+ld); the block after the prefix repeats with period ld.
        self.times = []      # pt -> time, seg -> (lo, hi)
        self.kinds = []      # True for point
        pc = sorted(prefix_cuts)
        for i, c in enumerate(pc):
            if i > 0:
                self.kinds.append(False)
                self.times.append((pc[i - 1], c))
            self.kinds.append(True)
            self.times.append(c)
        self.P = len(self.times)
        lc = sorted(loop_cuts)
        prev = pd
        for c in lc:
            self.kinds.append(False)
            self.times.append((prev, pd + c))
            self.kinds.append(True)
            self.times.append(pd + c)
            prev = pd + c
        self.L = len(self.times) - self.P
        self.n = self.P + self.L
        self._memo = {}

    def canonical(self, j):
        return j if j < self.P else self.P + (j - self.P) % self.L

    def atom_truth(self, ap):
        sig = self.signal
        out = []
        for kind, t in zip(self.kinds, self.times):
            q = t if kind else (t[0] + t[1]) / 2
            out.append(ap in sig.value_at(q))
        return out

    def index_of_time(self, t):
        """Index of the position containing time t (t must have been passed
        as a cut, or coincide with an existing point)."""
        t = _to_frac(t)
        pd, ld = self.pd, self.ld
        if t > pd + ld:
            off = (t - pd) % ld
            t = pd + (off if off > 0 else ld)
        for j in range(self.n):
            if self.kinds[j]:
                if self.times[j] == t:
                    return j
            else:
                lo, hi = self.times[j]
                if lo < t < hi:
                    return j
        raise ValueError(f"time {t} not located in position structure")

    def truth(self, f):
        """Truth vector of an NNF formula over the canonical positions."""
        if f in self._memo:
            return self._memo[f]
        if isinstance(f, TrueF):
            v = [True] * self.n
        elif isinstance(f, FalseF):
            v = [False] * self.n
        elif isinstance(f, Atom):
            v = self.atom_truth(f.name)
        elif isinstance(f, Not):
            v = [not x for x in self.truth(f.child)]
        elif isinstance(f, And):
            a, b = self.truth(f.left), self.truth(f.right)
            v = [x and y for x, y in zip(a, b)]
        elif isinstance(f, Or):
            a, b = self.truth(f.left), self.truth(f.right)
            v = [x or y for x, y in zip(a, b)]
        elif isinstance(f, Until):
            v = self._until(self.truth(f.left), self.truth(f.right))
        elif isinstance(f, Release):
            a = [not x for x in self.truth(f.left)]
            b = [not x for x in self.truth(f.right)]
            v = [not x for x in self._until(a, b)]
        else:
            raise TypeError(f"not an NNF formula: {f!r}")
        self._memo[f] = v
        return v

    def _until(self, va, vb):
        # Discrete until over the position sequence.  At a position i,
        # "phi U psi" holds iff there is j >= i with psi at j, phi at all
        # positions in [i, j), and additionally phi at j itself when j > i
        # is an open segment (the witness time inside the segment needs phi
        # on the part of the segment before it).
        out = []
        H = self.P + 2 * self.L
        for i in range(self.n):
            res = False
            for j in range(i, i + H + 1):
                cj = self.canonical(j)
                if vb[cj] and (j == i or self.kinds[cj] or va[cj]):
                    res = True
                    break
                if not va[cj]:
                    break
            out.append(res)
        return out


def eval_signal(signal, f, t=0):
    """Dense-time satisfaction: does the signal satisfy f at time t?"""
    t = _to_frac(t)
    pl = _PositionLasso(signal, cuts=(t,))
    return pl.truth(f)[pl.index_of_time(t)]


# ---------------------------------------------------------------------------
# Chopping

class IncommensurableError(ChoppingError):
    """The slice length and the signal's loop are incommensurable beyond
    the denominator bound, so the chopped word has no short loop."""


def _slice_positions(pl, k, tau):
    """Canonical position indices covering the closed slice
    [k*tau, (k+1)*tau]; both endpoints must be cut points of ``pl``."""
    start = pl.index_of_time(k * tau)
    idxs = [start]
    elapsed = Fraction(0)
    j = start
    while elapsed < tau:
        j += 1
        cj = pl.canonical(j)
        idxs.append(cj)
        if not pl.kinds[cj]:
            lo, hi = pl.times[cj]
            elapsed += hi - lo
    # close the slice with the point at (k+1)*tau
    cj = pl.canonical(j + 1)
    assert pl.kinds[cj], "slice must end at a cut point"
    idxs.append(cj)
    return idxs


def _classify_positions(truths, kinds):
    """Classify the truth pattern over the closed positions of one slice.

    ``truths``/``kinds`` cover pt(a), seg, pt, ..., pt(b) for a slice [a,b].
    Returns one of A/Z/E/N, or None when the pattern is not one of the four
    (more than one truth change).
    """
    if all(truths):
        return "A"
    if not any(truths):
        return "N"
    flips = [j for j in range(1, len(truths)) if truths[j] != truths[j - 1]]
    if len(flips) != 1:
        return None
    j = flips[0]
    # right-continuous signals switch as seg(old value) -> pt(new value)
    if not (not kinds[j - 1] and kinds[j]):
        return None
    # truth holds on a left-closed right-open part: [a, t*) (Z) or [t*, b]
    # (E), where t* is the point at index j
    return "Z" if truths[0] else "E"


def chop(signal, tau, aps=None):
    """Chop a piecewise signal along tau into a SignalWord.

    The word's lasso structure is derived exactly: the word loop length is
    the denominator b of tau/loop_duration = a/b in lowest terms (so b word
    positions span a whole number of signal loops).  Raises
    IncommensurableError if b exceeds 10**6, UndefinedSlice / MultiChange
    when a slice violates the chopping assumptions.
    """
    tau = _to_frac(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    aps = tuple(sorted(signal.aps if aps is None else
                       set(aps) | set(signal.aps)))
    pd, ld = signal.prefix_dur, signal.loop_dur

    n0 = -((-pd) // tau)  # ceil(pd / tau)
    ratio = tau / ld
    word_loop = ratio.denominator
    if word_loop > _DENOM_BOUND:
        raise IncommensurableError(
            f"tau and loop duration are incommensurable beyond denominator "
            f"bound {_DENOM_BOUND} (word loop length {word_loop})")
    # Compute one extra word-loop of slices: when the signal value changes
    # exactly at the wrap instant n_slices*tau, slice 0 (whose left endpoint
    # has no left-closed predecessor) is not equivalent to its +word_loop
    # shift, and the prefix must be rolled forward by one loop.
    n_slices = int(n0) + 2 * word_loop

    cuts = [k * tau for k in range(n_slices + 1)]
    pl = _PositionLasso(signal, cuts=cuts)
    truth = {p: pl.truth(Atom(p)) for p in aps}

    letters = []
    for k in range(n_slices):
        idxs = _slice_positions(pl, k, tau)
        kinds = [pl.kinds[i] for i in idxs]
        letter = {}
        changed = []
        for p in aps:
            o = _classify_positions([truth[p][i] for i in idxs], kinds)
            if o is None:
                raise UndefinedSlice(k, p)
            letter[p] = o
            if o in ("Z", "E"):
                changed.append(p)
        if len(changed) > 1:
            raise MultiChange(
                k, f"APs {sorted(changed)} both change within the slice")
        letters.append(letter)

    n0 = int(n0)
    word = SignalWord.make(aps, letters[:n0], letters[n0:n0 + word_loop])
    ok, why = is_signal_word(word)
    if not ok:
        # Wrap-instant change: slices >= 1 are exactly periodic, so rolling
        # the prefix forward one word-loop yields the true chopped word.
        word = SignalWord.make(aps, letters[:n0 + word_loop],
                               letters[n0 + word_loop:])
        ok, why = is_signal_word(word)
    if not ok:
        # cannot happen for a well-formed signal; guard anyway
        raise ChoppingError(f"chopped word is not a signal word: {why}")
    return word


# ---------------------------------------------------------------------------
# Unique-run oracle

@dataclass(frozen=True)
class ValuationLasso:
    """Lasso of subformula valuations; each valuation is a tuple of
    observations aligned with ``sub``."""
    sub: tuple
    prefix: tuple
    loop: tuple

    def valuation(self, k):
        if k < len(self.prefix):
            v = self.prefix[k]
        else:
            v = self.loop[(k - len(self.prefix)) % len(self.loop)]
        return dict(zip(self.sub, v))


def _obs_of(pre, post):
    return {(True, True): "A", (True, False): "Z",
            (False, True): "E", (False, False): "N"}[(pre, post)]


def _until_seq(seq1, seq2, P, L):
    """Observation sequence of (psi1 U psi2) from the children's sequences
    over the canonical lasso positions 0..P+L-1.

    An observation splits its slice into a pre-change part (truth: A/Z) and
    a post-change part (truth: A/E), all subformulas changing at the same
    instant.  The until is true on the post part iff psi2 holds there or
    psi1 holds there and the until is true at the start of the next slice;
    true on the pre part iff psi2 holds there or psi1 holds there and the
    until is true on the post part.  The resulting monotone system is
    solved as a least fixpoint (the until must be witnessed eventually).
    """
    n = P + L
    pre1 = [o in ("A", "Z") for o in seq1]
    post1 = [o in ("A", "E") for o in seq1]
    pre2 = [o in ("A", "Z") for o in seq2]
    post2 = [o in ("A", "E") for o in seq2]
    u_pre = [False] * n
    u_post = [False] * n
    for _ in range(n + 1):
        changed = False
        for k in reversed(range(n)):
            nxt = u_pre[k + 1 if k + 1 < n else P]
            new_post = post2[k] or (post1[k] and nxt)
            new_pre = pre2[k] or (pre1[k] and new_post)
            if new_post != u_post[k] or new_pre != u_pre[k]:
                u_post[k], u_pre[k] = new_post, new_pre
                changed = True
        if not changed:
            break
    return [_obs_of(u_pre[k], u_post[k]) for k in range(n)]


def unique_run_oracle(w, f):
    """The unique consistent valuation sequence over w for formula f.

    For a valid signal word there is exactly one accepting automaton run
    matching w on atoms; this computes its valuations directly, bottom-up
    over subformulas, with the temporal look-aheads resolved on the lasso
    as least fixpoints."""
    ok, why = is_signal_word(w)
    if not ok:
        raise ValueError(f"not a valid signal word: {why}")
    sub = subformulas(f)
    P, L = len(w.prefix), len(w.loop)
    n = P + L
    seqs = {}
    for g in sub:  # children first (topological order)
        if isinstance(g, TrueF):
            s = ["A"] * n
        elif isinstance(g, FalseF):
            s = ["N"] * n
        elif isinstance(g, Atom):
            s = [dict(w._raw(k))[g.name] for k in range(n)]
        elif isinstance(g, Not):
            s = [NEG[o] for o in seqs[g.child]]
        elif isinstance(g, (And, Or)):
            conn = "and" if isinstance(g, And) else "or"
            s = []
            for o1, o2 in zip(seqs[g.left], seqs[g.right]):
                (o,) = consistency(conn, o1, o2)
                s.append(o)
        elif isinstance(g, Until):
            s = _until_seq(seqs[g.left], seqs[g.right], P, L)
        elif isinstance(g, Release):
            s = [NEG[o] for o in _until_seq(
                [NEG[o] for o in seqs[g.left]],
                [NEG[o] for o in seqs[g.right]], P, L)]
        else:
            raise TypeError(f"not an NNF formula: {g!r}")
        seqs[g] = s

    vals = [tuple(seqs[g][k] for g in sub) for k in range(n)]
    return ValuationLasso(sub, tuple(vals[:P]), tuple(vals[P:]))


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
