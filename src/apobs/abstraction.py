"""Grid quantization of continuous-time nondeterministic systems.

A system is an axis-aligned box domain with a grid of pitch eta; each grid
cell carries a motion mode (nominal heading and speed with bounded
disturbance).  Atomic propositions are regions given as unions of
conjunctions of axis-aligned half-spaces.

The symbolic model has one state per grid cell.  A transition (q, o, q')
exists when q' intersects the one-step reachable box of q, labeled with
every observation map compatible with the cell classification of the APs
at the start (cell q) and at the end (cell q') of the step.
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
import random
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from .observations import (OBS, MultiChange, UndefinedSlice, letter_code,
                           letter_of)

__all__ = [
    "Mode", "SystemSpec", "SymbolicModel",
    "TauValidationError", "OutOfDomainError",
    "gamma", "build_symbolic_model",
    "validate_tau", "simulate_trajectory",
    "system_spec_to_json", "system_spec_from_json",
    "region_contains", "box_vs_region", "is_run_of",
    "SINK",
]

# the out-of-domain sink state (demonic: all observations possible)
SINK = "out"


class OutOfDomainError(ValueError):
    pass


class TauValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Regions: unions of conjunctions of axis-aligned half-spaces.
# A conjunct is a tuple of (axis, op, threshold) with op in {"le", "ge"}.

def region_contains(region, x):
    for conj in region:
        if all((x[a] <= c if op == "le" else x[a] >= c)
               for a, op, c in conj):
            return True
    return False


def box_vs_region(region, box):
    """Classify a closed box against a region: '+' if contained, '-' if
    disjoint, '?' otherwise.

    Containment is certified conjunct-wise (the box lies inside a single
    conjunct); disjointness is exact.
    """
    contained = False
    disjoint = True
    for conj in region:
        inside = True
        empty = False
        for a, op, c in conj:
            lo, hi = box[a]
            if op == "le":
                if hi > c:
                    inside = False
                if lo > c:
                    empty = True
            else:
                if lo < c:
                    inside = False
                if hi < c:
                    empty = True
        if inside:
            contained = True
        if not empty:
            disjoint = False
    if contained:
        return "+"
    if disjoint:
        return "-"
    return "?"


# ---------------------------------------------------------------------------
# System specification

@dataclass(frozen=True)
class Mode:
    """Constant-velocity motion mode with bounded disturbance.

    Angular form: speed in [v-ev, v+ev], heading in [theta-etheta,
    theta+etheta] (2-D; 1-D uses the cosine only).  Vector form: nominal
    velocity ``u`` with per-axis deviation ``du``.
    """
    v: float = 0.0
    ev: float = 0.0
    theta: float = 0.0
    etheta: float = 0.0
    u: tuple = None   # vector form when not None
    du: tuple = None

    def __post_init__(self):
        # lists become tuples: a mode stays hashable and equals one made
        # from tuples
        for name in ("u", "du"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(value))

    @property
    def v_max(self):
        if self.u is not None:
            du = self.du or (0.0,) * len(self.u)
            return max(abs(ui) + dui for ui, dui in zip(self.u, du))
        return self.v + self.ev


class _Filled(dict):
    """A dict that computes a missing value from its key, once."""

    def __init__(self, fill):
        super().__init__()
        self._fill = fill

    def __missing__(self, key):
        value = self[key] = self._fill(key)
        return value


def _finite(x):
    """Is ``x`` a finite real number?  A bool is not one."""
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x))


def _reject_unknown(obj, known, where):
    """Raise a ValueError naming every key of ``obj`` not in ``known``."""
    unknown = obj.keys() - known
    if unknown:
        raise ValueError(f"{where}: unknown key "
                         f"{', '.join(sorted(map(repr, unknown)))}")


@dataclass(frozen=True)
class SystemSpec:
    """A grid-quantized system.  A spec is treated as immutable: the grid
    ranges and edges, the cells, each cell's mode (``cell_modes``),
    ``v_max`` and the step tables are computed once per instance and
    kept (``dataclasses.replace`` makes a new one)."""
    dim: int
    domain: tuple           # ((lo, hi), ...) per axis
    eta: float
    tau: float
    x_in: tuple
    modes: dict             # name -> Mode; must contain "default"
    field: object           # field spec: see cell_modes
    ap_regions: dict        # ap name -> region

    def __post_init__(self):
        if not (0 < self.eta < math.inf and 0 < self.tau < math.inf):
            raise ValueError("eta and tau must be positive and finite")
        for name, m in self.modes.items():
            if not all(map(_finite, (m.v, m.ev, m.theta, m.etheta,
                                     *(m.u or ()), *(m.du or ())))):
                raise ValueError(f"mode {name!r}: a number is not finite")
            if min(m.ev, m.etheta, *(m.du or ())) < 0:
                raise ValueError(f"mode {name!r}: a deviation is negative")
            if m.u is not None and any(len(xs) != self.dim
                                       for xs in (m.u, m.du or m.u)):
                raise ValueError(f"mode {name!r}: u and du need {self.dim} "
                                 f"entries")
            if m.u is None and m.du is not None:
                raise ValueError(f"mode {name!r}: du without u")
            if m.u is not None and any((m.v, m.ev, m.theta, m.etheta)):
                raise ValueError(f"mode {name!r}: vector form u mixed with "
                                 f"a nonzero angular field")
            if m.u is None and m.v - m.ev < 0:
                raise ValueError(f"mode {name!r}: speed deviation exceeds "
                                 f"nominal speed")
        self._check_field()
        if not all(map(_finite, (*itertools.chain(*self.domain),
                                 *self.x_in))):
            raise ValueError("domain bounds and x_in must be finite")
        for a in range(self.dim):
            if not (self.domain[a][0] <= self.x_in[a] <= self.domain[a][1]):
                raise ValueError("x_in outside the domain")
        for p, region in self.ap_regions.items():
            for a, op, c in itertools.chain(*region):
                if op not in ("le", "ge"):
                    raise ValueError(f"AP {p!r}: op {op!r} is not le or ge")
                if (isinstance(a, bool) or not isinstance(a, int)
                        or not 0 <= a < self.dim):
                    raise ValueError(f"AP {p!r}: axis {a!r} is not an "
                                     f"integer in [0, {self.dim})")
                if not _finite(c):
                    raise ValueError(
                        f"AP {p!r}: threshold {c!r} is not a finite number")

    def _check_field(self):
        """Every mode name the field can resolve (see ``cell_modes``) is
        in ``modes``: one set difference, however many table cells."""
        f = self.field
        kind = f.get("kind") if isinstance(f, dict) else None
        if isinstance(f, str):
            names = {f}
        elif kind == "patrol":
            names = {"default"}
        elif kind == "table":
            try:
                names = {f.get("default", "default"), *f["cells"].values()}
            except (KeyError, TypeError, AttributeError):
                raise ValueError("field: a table needs 'cells' mapping each "
                                 "cell to a mode name") from None
            for key in f["cells"]:
                if not isinstance(key, tuple) or len(key) != self.dim:
                    raise ValueError(f"field: table key {key!r} needs "
                                     f"{self.dim} indices")
            _reject_unknown(f, {"kind", "cells", "default"}, "field")
        else:
            raise ValueError(f"field: kind {kind!r} is not table or patrol")
        missing = names - self.modes.keys()
        if missing:
            raise ValueError(f"field: no mode named "
                             f"{', '.join(sorted(map(repr, missing)))}")
        if kind == "patrol" and self.dim != 2:
            raise ValueError(f"field: patrol needs dim 2, not {self.dim}")
        if kind == "patrol" and self.modes["default"].u is not None:
            raise ValueError("field: patrol needs an angular 'default' mode")
        if kind == "patrol" and f.keys() != {"kind"}:
            extra = sorted(map(repr, f.keys() - {"kind"}))
            raise ValueError(f"field: patrol takes no parameters, got "
                             f"{', '.join(extra)}")

    @functools.cached_property
    def grid_ranges(self):
        """(kmin, kmax) of the cell indices per axis."""
        return tuple((math.ceil(lo / self.eta - 1e-9),
                      math.floor(hi / self.eta + 1e-9))
                     for lo, hi in self.domain)

    @functools.cached_property
    def n_cells(self):
        """The number of grid cells, counted without building them."""
        return math.prod(kmax - kmin + 1 for kmin, kmax in self.grid_ranges)

    @functools.cached_property
    def edges(self):
        """Per axis, the cell edges e, the one place that says where cells
        lie: cell kmin + j is [e[j], e[j + 1]], e[j] = (kmin + j)*eta -
        eta/2, but the outer two reach any domain edge beyond them."""
        out = []
        for (kmin, kmax), (dlo, dhi) in zip(self.grid_ranges, self.domain):
            e = [k * self.eta - self.eta / 2 for k in range(kmin, kmax + 2)]
            e[0], e[-1] = min(e[0], dlo), max(e[-1], dhi)
            out.append(tuple(e))
        return tuple(out)

    @functools.cached_property
    def v_max(self):
        """Largest speed bound over the modes of the grid cells: a table
        key outside the grid names no cell's mode."""
        return max((m.v_max for m in self.cell_modes[0]), default=0.0)

    @functools.cached_property
    def cells(self):
        """The grid cells as a tuple, in row-major order."""
        return tuple(itertools.product(
            *(range(kmin, kmax + 1) for kmin, kmax in self.grid_ranges)))

    @functools.cached_property
    def cell_modes(self):
        """(modes, index): the distinct mode values of the grid cells in
        order of first use, and an array giving each cell, in row-major
        order, its position in ``modes``; names of equal modes share one
        position.  Field forms:

          * a string naming a mode ("default", ...): uniform field;
          * {"kind": "table", "cells": {cell: mode name}, "default": name};
          * {"kind": "patrol"}: the built-in drone patrol field (2-D,
            ``patrol_theta``), evaluated on the cell centre rounded half-up
            to whole metres, so every eta grids the same field; each
            heading is the "default" mode turned to it.
        """
        f, mode = self.field, self.modes.__getitem__
        if isinstance(f, str):
            keys = [f] * len(self.cells)
        elif f["kind"] == "table":
            keys = list(map(f["cells"].get, self.cells,
                            itertools.repeat(f.get("default", "default"))))
        else:
            # rounding is per axis; a heading is computed once per point
            metres = [[math.floor(k * self.eta + 0.5)
                       for k in range(lo, hi + 1)]
                      for lo, hi in self.grid_ranges]
            keys = list(itertools.starmap(functools.cache(patrol_theta),
                                          itertools.product(*metres)))
            base = self.modes["default"]

            def mode(theta):
                return Mode(v=base.v, ev=base.ev, theta=theta,
                            etheta=base.etheta)
        # mode -> position in modes, and mode name or heading -> position,
        # both in order of first use
        pos, at = {}, {}
        for k in dict.fromkeys(keys):
            at[k] = pos.setdefault(mode(k), len(pos))
        return tuple(pos), array("L", map(at.__getitem__, keys))

    @functools.cached_property
    def _steps(self):
        """The ``_step_tables`` of each mode in ``cell_modes``, in order."""
        return tuple(_step_tables(self, m) for m in self.cell_modes[0])

    def cell_id(self, cell):
        """The row-major index of a grid cell, or None if ``cell`` is not
        one."""
        i = 0
        try:
            for k, (kmin, kmax) in zip(cell, self.grid_ranges):
                i = i * (kmax - kmin + 1) + k - kmin
        except TypeError:
            return None
        return i if 0 <= i < len(self.cells) and self.cells[i] == cell \
            else None


def mode_for_cell(spec, cell):
    """The motion mode of a grid cell (see ``SystemSpec.cell_modes``)."""
    modes, index = spec.cell_modes
    i = spec.cell_id(tuple(cell))
    if i is None:
        raise KeyError(f"{cell!r} is not a grid cell")
    return modes[index[i]]


def patrol_theta(cx, cy):
    """Counter-clockwise patrol heading for the drone scenario at a point
    given in whole metres.

    The drone circulates in the horizontal band above the lowest region
    boundary it must never cross mid-flight: east along y = 13-15 m,
    south at the right edge (x >= 11 m), west along y = 7-11 m, north at
    the left edge (x <= -11 m).
    Corridor rows use slightly tilted headings that steer drifting
    trajectories back toward the corridor center, so the band is invariant
    under the disturbance and no step can leave the domain or cross the
    forbidden boundary.
    """
    tilt, strong = 0.1, 0.25
    N, S, E, W = math.pi / 2, -math.pi / 2, 0.0, math.pi
    if cy <= 6:
        return N
    if cy >= 16:
        return S
    if cx <= -11:
        if cy <= 10:
            return N - strong if cx <= -16 else N
        if cy <= 12:
            return E + strong
    if cx >= 11 and cy >= 12:
        return S - strong if cx >= 16 else S
    if cy == 15:
        return E - strong
    if cy == 14:
        return E - tilt
    if cy == 13:
        return E + tilt
    if cy == 12:
        return E + strong
    if cy in (10, 11):
        return W + strong
    if cy == 9:
        return W + tilt
    if cy == 8:
        return W - tilt
    return W - strong


def _angle_candidates(theta, etheta):
    cands = [theta - etheta, theta + etheta]
    # axis-extremal headings inside the interval
    k_lo = math.ceil((theta - etheta) / (math.pi / 2) - 1e-12)
    k_hi = math.floor((theta + etheta) / (math.pi / 2) + 1e-12)
    for k in range(k_lo, k_hi + 1):
        cands.append(k * math.pi / 2)
    return cands


def velocity_extents(mode, dim):
    """Per-axis [min, max] of the admissible velocity set, as a tuple."""
    if mode.u is not None:
        du = mode.du or (0.0,) * dim
        return tuple((mode.u[a] - du[a], mode.u[a] + du[a])
                     for a in range(dim))
    out = []
    betas = _angle_candidates(mode.theta, mode.etheta)
    speeds = (mode.v - mode.ev, mode.v + mode.ev)
    for a in range(dim):
        trig = math.cos if a == 0 else math.sin
        vals = [s * trig(b) for b in betas for s in speeds]
        out.append((min(vals), max(vals)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Core operations

def gamma(x, spec):
    """The grid cell whose closed box (see ``SystemSpec.edges``) holds x;
    a point on an edge two cells share is in the upper cell.  A point up
    to 1e-9 outside the domain maps to the boundary cell."""
    if not all(lo - 1e-9 <= xa <= hi + 1e-9
               for xa, (lo, hi) in zip(x, spec.domain)):
        raise OutOfDomainError(f"point {tuple(x)} outside the domain")
    # bisecting only the inner edges clamps x to the grid
    return tuple(kmin - 1 + bisect_right(e, xa, 1, len(e) - 1)
                 for xa, e, (kmin, _) in zip(x, spec.edges, spec.grid_ranges))


# observations of an AP allowed by its classification ('+', '-', '?') on
# the start cell (_P_Z) and on the end cell (_P_E) of a step
_P_Z = {"+": frozenset("AZ"), "-": frozenset("EN"), "?": frozenset(OBS)}
_P_E = {"+": frozenset("AE"), "-": frozenset("ZN"), "?": frozenset(OBS)}


def _step_tables(spec, mode):
    """Per axis, the one-step reach of every cell index in ``mode``: its
    interval in ``spec.edges`` widened by tau times the mode's velocity
    extent on the axis (the reach box), cut to the grid.  Three entries
    per index: the row-major id offsets of the first and the end
    successor index, and whether the step can leave the domain."""
    slack = 1e-9 * spec.eta
    tables = []
    for a, (vlo, vhi) in enumerate(velocity_extents(mode, spec.dim)):
        e, (dlo, dhi) = spec.edges[a], spec.domain[a]
        stride = math.prod(len(f) - 1 for f in spec.edges[a + 1:])
        t = array("q")
        for lo, hi in zip(e, e[1:]):
            blo = lo + spec.tau * vlo
            bhi = hi + spec.tau * vhi
            # the cells j with e[j + 1] >= blo - slack and e[j] <= bhi + slack
            t.extend((stride * (bisect_left(e, blo - slack, 1) - 1),
                      stride * bisect_right(e, bhi + slack, 0, len(e) - 1),
                      blo < dlo - 1e-9 or bhi > dhi + 1e-9))
        tables.append(t)
    return tuple(tables)


def validate_tau(spec):
    """The largest sound tau: the smallest strictly positive gap between
    the thresholds of two distinct APs on a shared axis, over every AP
    region of the spec, tracked by a query or not, divided by
    ``spec.v_max``; +inf when there is no such gap or v_max is 0.

    Coincident thresholds of distinct APs are no gap: along such a
    boundary two APs flip at the same instant, which the single-change
    assumption tolerates only where the boundary pieces do not actually
    overlap on a trajectory.
    """
    cuts = {(a, c, p) for p, region in spec.ap_regions.items()
            for a, _, c in itertools.chain(*region)}
    gaps = (abs(c - c2) for a, c, p in cuts for a2, c2, p2 in cuts
            if a == a2 and p != p2)
    gap = min((g for g in gaps if g >= 1e-12), default=math.inf)
    v_max = spec.v_max
    return gap / v_max if v_max > 0 else math.inf


class _Transitions(Mapping):
    """Read-only map from a model state to its transitions, stored once as
    integer rows and decoded when read; of what is decoded only the
    letters are kept, one per code.

    State id i names ``state(i)``: the model's ``states`` in order, then
    the sink, if there is one.  A
    transition (o, q2) is the pair int ``letter_code(o, aps) * n_ids +
    state_id(q2)``, and ``row(i)`` is the tuple of state i's pair ints in
    transition order, each pair once, computed by ``outgoing(i)`` the
    first time it is read."""

    def __init__(self, ids, keys, index, outgoing, aps):
        self._ids = ids              # state id -> state
        self._keys = keys            # ids of the mapped states, in order
        self.state_id = index        # state -> state id, or None
        self._outgoing = outgoing    # state id -> row, called once per id
        self._rows = [None] * len(ids)
        # letter code -> letter: a dict per model, filled on first read
        self._letter = functools.cache(functools.partial(letter_of, aps=aps))
        self.n_ids = len(ids)

    def state(self, i):
        return self._ids[i]

    def pair(self, p):
        """The transition (label, successor) of pair int ``p``."""
        code, i = divmod(p, self.n_ids)
        return self._letter(code), self._ids[i]

    def row(self, i):
        r = self._rows[i]
        if r is None:
            r = self._rows[i] = self._outgoing(i)
        return r

    def __getitem__(self, q):
        i = self.state_id(q)
        if i is None or i not in self._keys:
            raise KeyError(q)
        letter, ids, n = self._letter, self._ids, self.n_ids
        return tuple((letter(p // n), ids[p % n]) for p in self.row(i))

    def __iter__(self):
        return map(self._ids.__getitem__, self._keys)

    def __len__(self):
        return len(self._keys)


@dataclass(frozen=True)
class SymbolicModel:
    """A finite symbolic model, made by ``build_symbolic_model``.
    ``transitions`` maps every state, the cells in grid order and then the
    sink if there is one, to a tuple of (label, successor), stored once as
    integer rows (see ``_Transitions``).  A state's row is computed when
    first read; iterating the map (``items()``, ``values()``, ``==``)
    computes all of them, so every reader sees the full model."""
    aps: tuple
    states: tuple             # grid cells; the sink (if any) is extra
    q_in: tuple
    transitions: Mapping      # state -> tuple of (label, successor)
    has_sink: bool

    @property
    def n_states(self):
        return len(self.states)


def _labels_for(sig, sig2, aps, drop_multi_change):
    """Labels of a step from a cell with classification signature ``sig``
    (one of '+', '-', '?' per AP) to a cell with signature ``sig2``."""
    per_ap = []
    for c, c2 in zip(sig, sig2):
        allowed = _P_Z[c] & _P_E[c2]
        if not allowed:
            return ()
        per_ap.append(sorted(allowed))
    out = []
    for combo in itertools.product(*per_ap):
        if drop_multi_change and \
                sum(1 for o in combo if o in ("Z", "E")) > 1:
            continue
        out.append(tuple(zip(aps, combo)))
    return tuple(out)


def build_symbolic_model(spec, tracked_aps=None, drop_multi_change=True,
                         allow_unsound_tau=False):
    """Quantize the system into a finite symbolic model.

    States are the grid cells; cells whose reachable box exits the domain
    additionally transition to a demonic sink with unconstrained end
    observations.  Labels with two changing APs are dropped by default
    (single-change assumption; pass drop_multi_change=False to keep them).
    Requires tau at most validate_tau's bound unless
    ``allow_unsound_tau``.

    A row is made by table lookups.  A half-space reads a cell only
    through its interval in ``spec.edges`` on its axis, so the indices
    of an axis fall into classes by their threshold comparisons there.  A
    signature (every tracked AP classified '+', '-' or '?'; all '?' on
    the sink), numbered by a small int, is computed once per combination
    of classes, and a table gives every cell its signature.  The reach
    box and the grid cut read a cell on an axis only through its index
    and its mode's velocity extent there, so the spec keeps a step table
    per distinct cell mode and axis (``_step_tables``), read through the
    cell's mode index (``cell_modes``), that gives every index its first
    and end successor and whether the step can leave the domain; the sink
    check reads the same flags.  A row is the successors' row-major ids,
    each plus the letter codes of the labels of its signature pair,
    computed once per pair: no tuple per transition.  The successors are
    distinct, and so are the labels of each, so a row lists each pair
    once.

    Up front only the tau check, the signature table and the sink check
    run.  A cell's row is computed the first time it is read, so a game
    explored from ``q_in`` builds only the cells it reaches; iterating
    ``transitions`` computes the rest.
    """
    aps = tuple(sorted(tracked_aps if tracked_aps is not None else
                       spec.ap_regions.keys()))
    for p in aps:
        if p not in spec.ap_regions:
            raise ValueError(f"no region for tracked AP {p!r}")
    # tau soundness depends on the geometry of every AP region in the
    # spec, not only the tracked ones; it and ``cells`` build the grid
    try:
        tau_max = validate_tau(spec)
        cells = spec.cells
    except MemoryError:
        raise MemoryError(f"the grid has {spec.n_cells:,} cells, too many "
                          f"to build") from None
    if spec.tau > tau_max and not allow_unsound_tau:
        raise TauValidationError(
            f"tau={spec.tau} exceeds tau_max={tau_max:.6g} "
            f"(v_max={spec.v_max}); pass allow_unsound_tau=True "
            f"(CLI: --allow-unsound-tau) to override")

    sink = len(cells)            # the sink's id, if there is a sink
    regions = [spec.ap_regions[p] for p in aps]
    intervals = [list(zip(e, e[1:])) for e in spec.edges]
    # (kmin, row-major stride) per axis
    shape = [(kmin, math.prod(map(len, intervals[a + 1:])))
             for a, (kmin, _) in enumerate(spec.grid_ranges)]

    # the class of an index on its axis: the first index there with the
    # same comparisons as box_vs_region makes them
    classes = []
    for a, ivs in enumerate(intervals):
        cuts = {(op, c) for conj in itertools.chain(*regions)
                for b, op, c in conj if b == a}
        first = {}
        classes.append([first.setdefault(tuple(
            (hi > c, lo > c) if op == "le" else (lo < c, hi < c)
            for op, c in cuts), x) for x, (lo, hi) in enumerate(ivs)])
    sig_ids = {("?",) * len(aps): 0}  # signature -> small int; sink's is 0

    def signature(combo):
        box = [ivs[x] for ivs, x in zip(intervals, combo)]
        return sig_ids.setdefault(
            tuple(box_vs_region(r, box) for r in regions), len(sig_ids))

    n_combos = math.prod(len(set(xs)) for xs in classes)
    sig = array("B" if n_combos < 256 else "L", map(
        _Filled(signature).__getitem__, itertools.product(*classes)))
    sig.append(0)                # the sink's
    n_sigs = len(sig_ids)

    def pair_labels(key):
        s, s2 = divmod(key, n_sigs)
        chars = list(sig_ids)
        return tuple(n_ids * letter_code(o, aps) for o in _labels_for(
            chars[s], chars[s2], aps, drop_multi_change))

    labels = _Filled(pair_labels)  # s * n_sigs + s2 -> codes * n_ids
    steps, (_, mode_of) = spec._steps, spec.cell_modes

    def successors(i):
        """Cell i's successor ids in row-major order, the sink last."""
        succ = None
        out = False
        for t, k, (kmin, stride) in zip(steps[mode_of[i]], cells[i], shape):
            x = 3 * (k - kmin)
            out = out or t[x + 2]
            ks = range(t[x], t[x + 1], stride)
            succ = ks if succ is None else [j + m for j in succ for m in ks]
        return [*succ, sink] if out else succ

    def exits(i):
        return any(t[3 * (k - kmin) + 2] for t, k, (kmin, _) in
                   zip(steps[mode_of[i]], cells[i], shape))

    def outgoing(i):
        if i == sink:
            s, succ = 0, (sink,)
        else:
            s, succ = n_sigs * sig[i], successors(i)
        return tuple([c + j for j in succ for c in labels[s + sig[j]]])

    def state_id(q):
        """The row-major index of a cell, the sink's id, or None."""
        if q == SINK:
            return sink if has_sink else None
        return spec.cell_id(q)

    has_sink = any(map(exits, range(sink)))
    ids = cells + (SINK,) if has_sink else cells
    n_ids = len(ids)
    # the closures hold no reference to the map: a model is freed as soon
    # as it is dropped, without waiting for the cycle collector
    return SymbolicModel(aps, cells, gamma(spec.x_in, spec),
                         _Transitions(ids, range(n_ids), state_id, outgoing,
                                      aps),
                         has_sink)


# ---------------------------------------------------------------------------
# Simulation (Theorem 1 testing)

def simulate_trajectory(spec, horizon, seed, tracked_aps=None):
    """Integrate one disturbance realization; return (cells at multiples
    of tau, observation word), each step's letter read exactly from the
    step's threshold crossings.

    Each step is the straight segment x0 + t*u, t in [0, tau], with the
    velocity u drawn once per step from the mode of the current cell.
    An AP's truth can change along it only where the segment crosses one
    of the AP's half-space thresholds, so the AP is read at t = 0, at the
    midpoint of each piece between consecutive crossing times, and at
    t = tau.  No point is read at a crossing instant itself, where
    rounding could fake a second change.  Region boundaries are closed,
    so an excursion into or out of a region, however brief, counts as
    two changes.

    Raises UndefinedSlice when an AP changes more than once within a
    step, and MultiChange when two APs change.
    """
    aps = tuple(sorted(tracked_aps if tracked_aps is not None else
                       spec.ap_regions.keys()))
    rng = random.Random(seed)
    tau = spec.tau
    x = spec.x_in
    cells = [gamma(x, spec)]
    word = []
    for step in range(horizon):
        mode = mode_for_cell(spec, cells[-1])
        if mode.u is not None:
            du = mode.du or (0.0,) * spec.dim
            u = [mode.u[a] + rng.uniform(-du[a], du[a])
                 for a in range(spec.dim)]
        else:
            s = mode.v + rng.uniform(-mode.ev, mode.ev)
            b = mode.theta + rng.uniform(-mode.etheta, mode.etheta)
            u = [s * math.cos(b), s * math.sin(b)][:spec.dim]
        letter = []
        changed = []
        for p in aps:
            region = spec.ap_regions[p]
            crossings = sorted({(c - x[a]) / u[a]
                                for conj in region for a, _, c in conj
                                if u[a] != 0})
            ends = [0.0, *(t for t in crossings if 0 < t < tau), tau]
            mids = [(t0 + t1) / 2 for t0, t1 in zip(ends, ends[1:])]
            probes = [0.0, *mids, tau]
            vals = [region_contains(region, [xa + t * ua
                                             for xa, ua in zip(x, u)])
                    for t in probes]
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
        x = [xa + tau * ua for xa, ua in zip(x, u)]
        cells.append(gamma(x, spec))
    return cells, word


def is_run_of(model, cells, word):
    """Is the simulated (cell, observation) word a run of the model?"""
    for k, o in enumerate(word):
        outs = model.transitions.get(cells[k], ())
        if (o, cells[k + 1]) not in outs:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON

def _mode_to_json(m):
    if m.u is not None:
        return {"u": list(m.u), "du": list(m.du or (0.0,) * len(m.u))}
    return {"v": m.v, "ev": m.ev, "theta": m.theta, "etheta": m.etheta}


def _number(x):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"expected a number, got {x!r}")
    return x


def _positive_int(x):
    if isinstance(x, bool) or not isinstance(x, int) or x < 1:
        raise ValueError(f"expected a positive integer, got {x!r}")
    return x


def _interval(d):
    lo, hi = d
    return _number(lo), _number(hi)


def _mode_from_json(name, obj):
    """A Mode from its JSON object, whose keys are ``Mode``'s fields; any
    other key, or an angular key beside ``u``, raises a ValueError that
    names it."""
    _reject_unknown(obj, {f.name for f in fields(Mode)}, f"mode {name!r}")
    mixed = obj.keys() & {"v", "ev", "theta", "etheta"} if "u" in obj else ()
    if mixed:
        raise ValueError(f"mode {name!r}: vector form u mixed with angular "
                         f"key {', '.join(sorted(map(repr, mixed)))}")
    return Mode(**{k: list(map(_number, x)) if k in ("u", "du")
                   else _number(x) for k, x in obj.items()})


def system_spec_to_json(spec):
    field = spec.field
    if isinstance(field, dict) and field.get("kind") == "table":
        field = dict(field)
        field["cells"] = {",".join(map(str, c)): n
                          for c, n in field["cells"].items()}
    modes = {name: _mode_to_json(m) for name, m in spec.modes.items()}
    modes["field"] = field
    return {
        "dim": spec.dim,
        "domain": [list(d) for d in spec.domain],
        "eta": spec.eta,
        "tau": spec.tau,
        "x_in": list(spec.x_in),
        "modes": modes,
        "aps": {p: [[{"axis": a, "op": op, "c": c} for a, op, c in conj]
                    for conj in region]
                for p, region in spec.ap_regions.items()},
    }


def _modes_from_json(obj):
    modes_obj = dict(obj)
    field = modes_obj.pop("field", "default")
    if isinstance(field, dict) and field.get("kind") == "table":
        field = dict(field)
        field["cells"] = {tuple(int(v) for v in k.split(",")): n
                          for k, n in field["cells"].items()}
    modes = {name: _mode_from_json(name, m) for name, m in modes_obj.items()}
    return modes, field


def _half_space(p, hs):
    _reject_unknown(hs, {"axis", "op", "c"}, f"AP {p!r}")
    return hs["axis"], hs["op"], hs["c"]


def _regions_from_json(obj):
    return {p: tuple(tuple(_half_space(p, hs) for hs in conj)
                     for conj in region)
            for p, region in obj.items()}


def system_spec_from_json(obj):
    """SystemSpec from its JSON form.  A missing, unknown or malformed
    field raises a ValueError that names it."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"spec JSON: expected an object, got {type(obj).__name__}")
    _reject_unknown(obj, {"dim", "domain", "eta", "tau", "x_in", "modes",
                          "aps"}, "spec JSON")

    def get(name, convert):
        if name not in obj:
            raise ValueError(f"spec JSON: missing field {name!r}")
        try:
            return convert(obj[name])
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as e:
            raise ValueError(f"spec JSON: bad field {name!r} "
                             f"({type(e).__name__}: {e})") from e

    def per_axis(convert):
        def check(xs):
            out = tuple(convert(x) for x in xs)
            if len(out) != dim:
                raise ValueError(f"{len(out)} entries for dim {dim}")
            return out
        return check

    dim = get("dim", _positive_int)
    modes, field = get("modes", _modes_from_json)
    return SystemSpec(
        dim=dim, domain=get("domain", per_axis(_interval)),
        eta=get("eta", _number), tau=get("tau", _number),
        x_in=get("x_in", per_axis(_number)),
        modes=modes, field=field,
        ap_regions=get("aps", _regions_from_json))


def _state_str(q):
    return q if isinstance(q, str) else ",".join(map(str, q))
