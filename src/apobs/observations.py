"""The four-valued observation algebra and dense-time signal machinery.

An observation classifies the truth of an atomic proposition over a closed
time slice [n*tau, (n+1)*tau]:

    A -- true on All of the slice
    Z -- true only at the start (at time Zero of the slice)
    E -- true only at the End
    N -- true on None of the slice

"Only at the start" means: true for all t <= t' and false for all t > t',
for some change point t' in [n*tau, (n+1)*tau); symmetrically for E.

This module provides:
  * the consistency table (which observations a composite subformula may
    take, given its children's observations),
  * the integer code of a letter, shared by the model and the game,
  * piecewise-constant ultimately periodic AP-signals, their chopping into
    signal words, and exact dense-time LTL evaluation on them,
  * the unique-run oracle that computes, for a valid signal word, the one
    valuation sequence every accepting automaton run must follow.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .ltl import (NAnd, NFalse, NOr, NRelease, NTrue, NUntil, NegAtom,
                  PosAtom, subformulas)

__all__ = [
    "OBS", "NEG", "consistency", "letter_code", "letter_of",
    "SignalWord", "is_signal_word", "PiecewiseSignal",
    "chop", "eval_signal", "unique_run_oracle",
    "ValuationLasso",
    "ChoppingError", "UndefinedSlice", "MultiChange", "IncommensurableError",
]

OBS = ("A", "Z", "E", "N")

# the involution: not-A = N, not-Z = E
NEG = {"A": "N", "N": "A", "Z": "E", "E": "Z"}

# Consistency table: which observations o of (psi1 <op> psi2) over a slice
# are compatible with observations (o1, o2) of the children.  The AND and
# UNTIL columns are hard-coded; OR and RELEASE are derived by duality
#   c_or(o1,o2) = not c_and(not o1, not o2)
#   c_R(o1,o2)  = not c_U(not o1, not o2)
# The test suite checks both derived tables against the published columns.

_AND = {
    ("A", "A"): "A", ("A", "Z"): "Z", ("A", "E"): "E", ("A", "N"): "N",
    ("Z", "A"): "Z", ("Z", "Z"): "Z", ("Z", "E"): "N", ("Z", "N"): "N",
    ("E", "A"): "E", ("E", "Z"): "N", ("E", "E"): "E", ("E", "N"): "N",
    ("N", "A"): "N", ("N", "Z"): "N", ("N", "E"): "N", ("N", "N"): "N",
}

_UNTIL = {
    ("A", "A"): "A", ("A", "Z"): "AZ", ("A", "E"): "A", ("A", "N"): "AN",
    ("Z", "A"): "A", ("Z", "Z"): "Z", ("Z", "E"): "A", ("Z", "N"): "N",
    ("E", "A"): "A", ("E", "Z"): "AZ", ("E", "E"): "E", ("E", "N"): "EN",
    ("N", "A"): "A", ("N", "Z"): "Z", ("N", "E"): "E", ("N", "N"): "N",
}


def _dualize(table):
    out = {}
    for o1 in OBS:
        for o2 in OBS:
            cell = table[(NEG[o1], NEG[o2])]
            out[(o1, o2)] = "".join(sorted(NEG[o] for o in cell))
    return out


def _normalize(table):
    return {k: frozenset(v) for k, v in table.items()}


_TABLES = {
    "and": _normalize(_AND),
    "or": _normalize(_dualize(_AND)),
    "U": _normalize(_UNTIL),
    "R": _normalize(_dualize(_UNTIL)),
}

_CONN_ALIASES = {
    "and": "and", "&": "and", "∧": "and",
    "or": "or", "|": "or", "∨": "or",
    "U": "U", "until": "U",
    "R": "R", "release": "R",
}


def consistency(connective, o1, o2):
    """Return the set of observations consistent for ``o1 <connective> o2``.

    ``connective`` is one of and/or/U/R (symbols ``& | U R`` accepted).
    """
    try:
        conn = _CONN_ALIASES[connective]
    except KeyError:
        raise ValueError(f"unknown connective {connective!r}") from None
    if o1 not in OBS or o2 not in OBS:
        raise ValueError(f"not observations: {o1!r}, {o2!r}")
    return _TABLES[conn][(o1, o2)]


# memoized: a query reads few distinct letters, each many times
@functools.lru_cache(maxsize=4096)
def letter_code(label, aps):
    """The integer code of a letter, a tuple of (ap, observation) pairs
    over ``aps``: its k-th digit in base ``len(OBS)`` is the index in
    ``OBS`` of the k-th AP's observation (the empty letter is 0).  A
    letter whose APs are not ``aps`` in order raises a ValueError."""
    if tuple(p for p, _ in label) != tuple(aps):
        raise ValueError(f"letter {label!r} does not list the APs "
                         f"{tuple(aps)!r} in order")
    return sum(OBS.index(o) * len(OBS) ** k for k, (_, o) in enumerate(label))


def letter_of(code, aps):
    """The letter over ``aps`` whose ``letter_code`` is ``code``."""
    n = len(OBS)
    return tuple((p, OBS[code // n ** k % n]) for k, p in enumerate(aps))


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
        if isinstance(f, NTrue):
            v = [True] * self.n
        elif isinstance(f, NFalse):
            v = [False] * self.n
        elif isinstance(f, PosAtom):
            v = self.atom_truth(f.name)
        elif isinstance(f, NegAtom):
            v = [not x for x in self.truth(PosAtom(f.name))]
        elif isinstance(f, NAnd):
            a, b = self.truth(f.left), self.truth(f.right)
            v = [x and y for x, y in zip(a, b)]
        elif isinstance(f, NOr):
            a, b = self.truth(f.left), self.truth(f.right)
            v = [x or y for x, y in zip(a, b)]
        elif isinstance(f, NUntil):
            v = self._until(self.truth(f.left), self.truth(f.right))
        elif isinstance(f, NRelease):
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

class ChoppingError(ValueError):
    pass


class UndefinedSlice(ChoppingError):
    """A slice where some proposition's truth fits none of A/Z/E/N."""

    def __init__(self, slice_index, ap):
        super().__init__(
            f"slice {slice_index}: truth of {ap!r} changes more than once "
            f"(no observation defined)")
        self.slice_index = slice_index
        self.ap = ap


class MultiChange(ChoppingError):
    """Two distinct APs change within the same slice."""

    def __init__(self, slice_index, detail):
        super().__init__(f"slice {slice_index}: {detail}")
        self.slice_index = slice_index


class IncommensurableError(ChoppingError):
    pass


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
    truth = {p: pl.truth(PosAtom(p)) for p in aps}

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
        if isinstance(g, NTrue):
            s = ["A"] * n
        elif isinstance(g, NFalse):
            s = ["N"] * n
        elif isinstance(g, PosAtom):
            s = [dict(w._raw(k))[g.name] for k in range(n)]
        elif isinstance(g, NegAtom):
            s = [NEG[o] for o in seqs[PosAtom(g.name)]]
        elif isinstance(g, (NAnd, NOr)):
            conn = "and" if isinstance(g, NAnd) else "or"
            s = []
            for o1, o2 in zip(seqs[g.left], seqs[g.right]):
                (o,) = consistency(conn, o1, o2)
                s.append(o)
        elif isinstance(g, NUntil):
            s = _until_seq(seqs[g.left], seqs[g.right], P, L)
        elif isinstance(g, NRelease):
            s = [NEG[o] for o in _until_seq(
                [NEG[o] for o in seqs[g.left]],
                [NEG[o] for o in seqs[g.right]], P, L)]
        else:
            raise TypeError(f"not an NNF formula: {g!r}")
        seqs[g] = s

    vals = [tuple(seqs[g][k] for g in sub) for k in range(n)]
    return ValuationLasso(sub, tuple(vals[:P]), tuple(vals[P:]))
