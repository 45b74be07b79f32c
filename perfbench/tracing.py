"""Outside-in tracing of the verification pipeline.

``Tracer.install`` replaces the public module attributes that
``apobs.game.verify`` and ``apobs.automata.translate`` look up at call
time with wrappers that record a span (name, start, end, parent, query)
in memory.  The program itself is not modified.  A wrapped attribute
that no longer exists is reported as missing instead of failing the run.

Counts are read from the objects the wrapped calls return, as soon as
they return, on a paused clock: spans are timed on ``Tracer.clock``, which
stops while counting, so counting is charged to no span.  Nothing
returned is kept, so each object is freed where it would be untraced.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module, attribute, span name); parents are whatever span is open
WRAPPED = [
    ("apobs.ltl", "parse_ltl", "ltl.parse"),
    ("apobs.ltl", "to_nnf", "ltl.nnf"),
    ("apobs.automata", "translate", "automata.translate"),
    ("apobs.automata", "build_gba", "automata.build_gba"),
    ("apobs.automata", "restrict_valid_letters", "automata.restrict"),
    ("apobs.automata", "trim", "automata.trim"),
    ("apobs.automata", "minimize", "automata.minimize"),
    ("apobs.automata", "degeneralize", "automata.degeneralize"),
    ("apobs.abstraction", "build_symbolic_model", "abstraction.build_model"),
    ("apobs.abstraction", "validate_tau", "abstraction.validate_tau"),
    ("apobs.game", "build_game", "game.build"),
    ("apobs.game", "solve_buchi", "game.solve"),
]
VERIFY = "game.verify"


def _nnf_counts(f):
    from apobs.ltl import subformulas
    return {"ltl.subformulas": len(subformulas(f))}


def _model_counts(m):
    from apobs.abstraction import SINK
    outs = m.transitions.values()
    return {"abstraction.cells": m.n_states,
            "abstraction.transitions": sum(len(o) for o in outs),
            "abstraction.sink_transitions": sum(
                1 for o in outs for _, q2 in o if q2 == SINK),
            "abstraction.distinct_labels": len(
                {label for o in outs for label, _ in o})}


def _solve_counts(r):
    return {"game.player_vertices": r.stats["player_vertices"],
            "game.opponent_vertices": r.stats["opponent_vertices"],
            "game.redirected_player": r.stats["redirected_player"],
            "game.solve_iterations": r.stats["iterations"],
            "game.w0_vertices": len(r.w0),
            "game.w1_vertices": len(r.w1)}


# span name -> function from the returned object to {count name: value}
COUNTS = {
    "ltl.nnf": _nnf_counts,
    "automata.build_gba": lambda a: {"automata.gba_states": a.n_states,
                                     "automata.gba_edges": len(a.edges)},
    "automata.trim": lambda a: {"automata.trimmed_states": a.n_states},
    "automata.minimize": lambda a: {"automata.minimized_states": a.n_states},
    "automata.degeneralize": lambda a: {"automata.nba_states": a.n_states,
                                        "automata.nba_edges": len(a.edges)},
    "abstraction.build_model": _model_counts,
    "game.build": lambda g: {"game.edges": sum(len(s)
                                               for s in g.edges.values())},
    "game.solve": _solve_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, query)
        self.missing = []        # span names whose attribute is gone
        self.query = None
        self.paused_s = 0.0      # time spent counting, off the clock
        self._stack = []
        self._counts = {}

    def clock(self):
        return time.perf_counter() - self.paused_s

    def install(self):
        for mod_name, attr, name in WRAPPED:
            mod = importlib.import_module(mod_name)
            real = getattr(mod, attr, None)
            if not callable(real):
                self.missing.append(name)
                continue
            setattr(mod, attr, self._wrap(real, name))

    def _wrap(self, real, name):
        def wrapper(*args, **kwargs):
            return self.call(name, real, *args, **kwargs)
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.query)
        if name in COUNTS:
            c0 = time.perf_counter()
            try:
                self._counts.update(COUNTS[name](result))
            except (AttributeError, ImportError, KeyError, TypeError):
                pass  # a reshaped result: its counts are reported missing
            self.paused_s += time.perf_counter() - c0
        return result

    def take_counts(self):
        """Counts of the query since the last call."""
        counts, self._counts = self._counts, {}
        return counts

    def durations(self):
        """Inclusive and self seconds per span name, summed over spans."""
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        total = defaultdict(float)
        own = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
        return dict(total), dict(own)
