"""The four-valued observation algebra.

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
  * the errors raised where a slice has no single-change observation.
"""
from __future__ import annotations

import functools

__all__ = [
    "OBS", "NEG", "consistency", "letter_code", "letter_of",
    "ChoppingError", "UndefinedSlice", "MultiChange",
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


def consistency(connective, o1, o2):
    """Return the set of observations consistent for ``o1 <connective> o2``,
    where ``connective`` is one of ``and``, ``or``, ``U``, ``R``."""
    if connective not in _TABLES:
        raise ValueError(f"unknown connective {connective!r}")
    if o1 not in OBS or o2 not in OBS:
        raise ValueError(f"not observations: {o1!r}, {o2!r}")
    return _TABLES[connective][(o1, o2)]


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
