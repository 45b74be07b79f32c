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
import json
import math
import numbers
import random
import weakref
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field

from .observations import (OBS, ChoppingError, MultiChange, UndefinedSlice,
                           letter_code, letter_of)

__all__ = [
    "Mode", "SystemSpec", "SymbolicModel", "TauValidation",
    "TauValidationError", "OutOfDomainError",
    "gamma", "reach_box", "build_symbolic_model",
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
        # tuples keep a mode hashable: step tables are keyed by it
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


@dataclass(frozen=True)
class SystemSpec:
    """A grid-quantized system.  A spec is treated as immutable: the grid
    ranges, the cells, ``v_max``, the step tables and the canonical JSON
    text are computed once per instance and kept (``dataclasses.replace``
    makes a new one)."""
    dim: int
    domain: tuple           # ((lo, hi), ...) per axis
    eta: float
    tau: float
    x_in: tuple
    modes: dict             # name -> Mode; must contain "default"
    field: object           # field spec: see mode_for_cell
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
        """Every mode name the field can resolve (see ``mode_for_cell``)
        is in ``modes``: one set difference, however many table cells."""
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

    @functools.cached_property
    def grid_ranges(self):
        """(kmin, kmax) of the cell indices per axis."""
        return tuple((math.ceil(lo / self.eta - 1e-9),
                      math.floor(hi / self.eta + 1e-9))
                     for lo, hi in self.domain)

    @functools.cached_property
    def v_max(self):
        """Largest speed bound over the modes the field gives the cells
        (see ``mode_for_cell``): a patrol cell's bound is its default
        mode's, and a table key outside the grid names no cell's mode."""
        f = self.field
        if not self.cells:
            return 0.0
        if isinstance(f, str):
            names = {f}
        elif f["kind"] == "patrol":
            names = {"default"}
        else:
            table, default = f["cells"], f.get("default", "default")
            names = {table.get(c, default) for c in self.cells}
        return max(self.modes[name].v_max for name in names)

    @functools.cached_property
    def json_text(self):
        """``system_spec_to_json`` as JSON text with sorted keys."""
        return json.dumps(system_spec_to_json(self), sort_keys=True)

    @functools.cached_property
    def cells(self):
        """The grid cells as a tuple, in row-major order."""
        return tuple(itertools.product(
            *(range(kmin, kmax + 1) for kmin, kmax in self.grid_ranges)))

    @functools.cached_property
    def _steps(self):
        """mode -> its ``_step_tables``, computed when first read.  The
        fill holds the spec weakly: a spec in no reference cycle is freed
        as soon as it is dropped."""
        spec = weakref.ref(self)
        return _Filled(lambda mode: _step_tables(spec(), mode))

    def axis_interval(self, a, k):
        """Closed interval of cell index k on axis a, k*eta +- eta/2.  A
        boundary cell reaches the domain edge, so the cells cover the
        domain even when eta does not divide it; no interval is ever
        shrunk."""
        (kmin, kmax), (dlo, dhi) = self.grid_ranges[a], self.domain[a]
        h = self.eta / 2
        lo, hi = k * self.eta - h, k * self.eta + h
        if k == kmin:
            lo = min(lo, dlo)
        if k == kmax:
            hi = max(hi, dhi)
        return lo, hi

    def cell_box(self, cell):
        """Closed box of a grid cell: its ``axis_interval`` per axis."""
        return [self.axis_interval(a, k) for a, k in enumerate(cell)]


def mode_for_cell(spec, cell):
    """Resolve the motion mode of a cell from the field specification.

    Field forms:
      * a string naming a mode ("default", ...): uniform field;
      * {"kind": "table", "cells": {cell: mode name}, "default": name};
      * {"kind": "patrol", ...}: the built-in drone patrol field (2-D),
        parameterized by the band rows/columns in metres (see
        ``patrol_theta``), evaluated on the cell centre rounded half-up
        to whole metres, so every eta grids the same field.
    """
    if isinstance(spec.field, str):
        return spec.modes[spec.field]
    kind = spec.field.get("kind")
    if kind == "table":
        name = spec.field["cells"].get(
            tuple(cell), spec.field.get("default", "default"))
        return spec.modes[name]
    # kind == "patrol": SystemSpec admits no other field
    base = spec.modes["default"]
    point = tuple(math.floor(k * spec.eta + 0.5) for k in cell)
    theta = patrol_theta(point, spec.field)
    return Mode(v=base.v, ev=base.ev, theta=theta, etheta=base.etheta)


def patrol_theta(point, params):
    """Counter-clockwise patrol heading for the drone scenario at a point
    given in whole metres.

    The drone circulates in the horizontal band above the lowest region
    boundary it must never cross mid-flight: east along y = 13-15 m,
    south at the right edge, west along y = 7-11 m, north at the left
    edge.
    Corridor rows use slightly tilted headings that steer drifting
    trajectories back toward the corridor center, so the band is invariant
    under the disturbance and no step can leave the domain or cross the
    forbidden boundary.
    """
    cx, cy = point
    xleft = params.get("xleft", -11)
    xright = params.get("xright", 11)
    tilt = params.get("tilt", 0.1)
    strong = params.get("strong", 0.25)
    N, S, E, W = math.pi / 2, -math.pi / 2, 0.0, math.pi
    if cy <= 6:
        return N
    if cy >= 16:
        return S
    if cx <= xleft:
        if cy <= 10:
            return N - strong if cx <= -16 else N
        if cy <= 12:
            return E + strong
    if cx >= xright and cy >= 12:
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
    """Nearest grid cell (infinity norm); coordinate ties round half-up.
    The result is clamped to the grid, so boundary points map to the
    nearest existing cell."""
    cell = []
    for a in range(spec.dim):
        lo, hi = spec.domain[a]
        if not (lo - 1e-9 <= x[a] <= hi + 1e-9):
            raise OutOfDomainError(f"point {tuple(x)} outside the domain")
        k = math.floor(x[a] / spec.eta + 0.5)
        kmin, kmax = spec.grid_ranges[a]
        cell.append(min(max(k, kmin), kmax))
    return tuple(cell)


# observations of an AP allowed by its classification ('+', '-', '?') on
# the start cell (_P_Z) and on the end cell (_P_E) of a step
_P_Z = {"+": frozenset("AZ"), "-": frozenset("EN"), "?": frozenset(OBS)}
_P_E = {"+": frozenset("AE"), "-": frozenset("ZN"), "?": frozenset(OBS)}


def reach_box(spec, cell):
    """Box over-approximation of the states reachable from the cell box in
    one step of duration tau (cell box Minkowski-summed with tau times the
    velocity extent box).  Returns (box, exits_domain)."""
    mode = mode_for_cell(spec, cell)
    ext = velocity_extents(mode, spec.dim)
    box = []
    exits = False
    for a, (lo, hi) in enumerate(spec.cell_box(cell)):
        blo = lo + spec.tau * ext[a][0]
        bhi = hi + spec.tau * ext[a][1]
        dlo, dhi = spec.domain[a]
        if blo < dlo - 1e-9 or bhi > dhi + 1e-9:
            exits = True
        box.append((blo, bhi))
    return box, exits


def _step_tables(spec, mode):
    """Per axis, the one-step reach of every cell index in ``mode``, as
    ``reach_box`` and the grid cut of ``build_symbolic_model`` compute
    it from the index and the mode's velocity extent on the axis: three
    entries per index, the row-major id offsets of the first and the end
    successor index, and whether the step can leave the domain."""
    h = spec.eta / 2
    slack = 1e-9 * spec.eta
    tables = []
    for a, (vlo, vhi) in enumerate(velocity_extents(mode, spec.dim)):
        (kmin, kmax), (dlo, dhi) = spec.grid_ranges[a], spec.domain[a]
        stride = math.prod(hi - lo + 1 for lo, hi in spec.grid_ranges[a + 1:])
        t = array("q")
        for k in range(kmin, kmax + 1):
            lo, hi = spec.axis_interval(a, k)
            blo = lo + spec.tau * vlo
            bhi = hi + spec.tau * vhi
            lo_k = math.ceil((blo - h) / spec.eta - 1e-9)
            hi_k = math.floor((bhi + h) / spec.eta + 1e-9)
            # the boundary cells reach the domain edge (see axis_interval)
            if blo <= dhi + slack:
                lo_k = min(lo_k, kmax)
            if bhi >= dlo - slack:
                hi_k = max(hi_k, kmin)
            t.extend((stride * (max(lo_k, kmin) - kmin),
                      stride * (min(hi_k, kmax) + 1 - kmin),
                      blo < dlo - 1e-9 or bhi > dhi + 1e-9))
        tables.append(t)
    return tuple(tables)


@dataclass(frozen=True)
class TauValidation:
    tau: float
    v_max: float
    distances: dict        # (p, p') -> boundary distance (math.inf allowed)
    tau_max: float
    passed: bool
    shared_boundaries: tuple  # ((p, p', axis, threshold), ...)


def _ap_thresholds(region):
    """Thresholds per axis appearing in a region's half-space boundaries."""
    out = {}
    for conj in region:
        for a, _, c in conj:
            out.setdefault(a, set()).add(c)
    return out


def validate_tau(spec):
    """Check tau against the minimum AP boundary separation over every AP
    region of the spec, tracked by a query or not.

    The distance between two APs' boundaries is the smallest strictly
    positive gap between their half-space thresholds on a shared axis
    (+inf when they have none).  Coincident thresholds between distinct
    APs are reported as shared boundaries (warnings): along such a
    boundary two APs flip at the same instant, which the single-change
    assumption tolerates only where the boundary pieces do not actually
    overlap on a trajectory.
    """
    aps = sorted(spec.ap_regions)
    v_max = spec.v_max
    thr = {p: _ap_thresholds(spec.ap_regions[p]) for p in aps}
    distances = {}
    shared = []
    for i, p in enumerate(aps):
        for p2 in aps[i + 1:]:
            best = math.inf
            for a in set(thr[p]) & set(thr[p2]):
                for c1 in thr[p][a]:
                    for c2 in thr[p2][a]:
                        gap = abs(c1 - c2)
                        if gap < 1e-12:
                            shared.append((p, p2, a, c1))
                        elif gap < best:
                            best = gap
            distances[(p, p2)] = best
    tau_max = (min(distances.values()) / v_max
               if distances and v_max > 0 else math.inf)
    return TauValidation(spec.tau, v_max, distances, tau_max,
                         spec.tau <= tau_max, tuple(sorted(set(shared))))


class _Transitions(Mapping):
    """Read-only map from a model state to its transitions, stored once as
    integer rows and decoded when read; of what is decoded only the
    letters are kept, one per code.

    State id i names ``state(i)``: the model's ``states`` in order, then
    any other state (the sink, a successor outside ``states``).  A
    transition (o, q2) is the pair int ``letter_code(o, aps) * n_ids +
    state_id(q2)``, and ``row(i)`` is the tuple of state i's pair ints in
    transition order, each pair once.  A model from
    ``build_symbolic_model`` computes a row the first time it is read."""

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


def _encode(aps, states, q_in, transitions):
    """The ``_Transitions`` of a model given as a dict state -> tuple of
    (label, successor): states outside ``states`` get ids in the order
    first met among the keys, the successors and ``q_in``.  A repeated
    transition is kept once; a label whose APs are not ``aps`` in order
    raises a ValueError."""
    ids = list(dict.fromkeys(itertools.chain(
        states, transitions,
        (q2 for outs in transitions.values() for _, q2 in outs), (q_in,))))
    index = {q: i for i, q in enumerate(ids)}
    rows = [()] * len(ids)
    for q, outs in transitions.items():
        rows[index[q]] = tuple(dict.fromkeys(
            len(ids) * letter_code(o, aps) + index[q2] for o, q2 in outs))
    return _Transitions(ids, dict.fromkeys(index[q] for q in transitions),
                        index.get, rows.__getitem__, aps)


@dataclass(frozen=True)
class SymbolicModel:
    """A finite symbolic model.  ``transitions`` maps every state, the
    cells in grid order and then the sink if there is one, to a tuple of
    (label, successor), stored once as integer rows (see ``_Transitions``).
    A dict given by hand is encoded into the same rows; its labels must
    list ``aps`` in order.  In a model from ``build_symbolic_model`` a
    state's row is computed when first read; iterating the map
    (``items()``, ``values()``, ``edges()``, ``==``) computes all of them,
    so every reader sees the full model."""
    aps: tuple
    states: tuple             # grid cells; the sink (if any) is extra
    q_in: tuple
    transitions: Mapping      # state -> tuple of (label, successor)
    has_sink: bool

    def __post_init__(self):
        if not isinstance(self.transitions, _Transitions):
            object.__setattr__(self, "transitions", _encode(
                self.aps, self.states, self.q_in, self.transitions))

    @property
    def n_states(self):
        return len(self.states)

    def edges(self):
        for q, outs in self.transitions.items():
            for o, q2 in outs:
                yield q, o, q2


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
                         force=False):
    """Quantize the system into a finite symbolic model.

    States are the grid cells; cells whose reachable box exits the domain
    additionally transition to a demonic sink with unconstrained end
    observations.  Labels with two changing APs are dropped by default
    (single-change assumption; pass drop_multi_change=False to keep them).
    Requires a passing validate_tau unless ``force``.

    A row is made by table lookups.  A half-space reads a cell only
    through the cell's ``axis_interval`` on its axis, so the indices of
    an axis fall into classes by their threshold comparisons there.  A
    signature (every tracked AP classified '+', '-' or '?'; all '?' on
    the sink), numbered by a small int, is computed once per combination
    of classes, and a table gives every cell its signature.  The reach
    box and the grid cut read a cell on an axis only through its index
    and its mode's velocity extent there, so the spec keeps a step table
    per mode and axis (``_step_tables``) that gives every index its first
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
    # spec, not only the tracked ones
    tv = validate_tau(spec)
    if not tv.passed and not force:
        raise TauValidationError(
            f"tau={spec.tau} exceeds tau_max={tv.tau_max:.6g} "
            f"(v_max={tv.v_max}); pass force=True to override")

    cells = spec.cells
    sink = len(cells)            # the sink's id, if there is a sink
    regions = [spec.ap_regions[p] for p in aps]
    intervals = [[spec.axis_interval(a, k) for k in range(kmin, kmax + 1)]
                 for a, (kmin, kmax) in enumerate(spec.grid_ranges)]
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
    steps = spec._steps

    def successors(i):
        """Cell i's successor ids in row-major order, the sink last."""
        cell = cells[i]
        succ = None
        out = False
        for t, k, (kmin, stride) in zip(steps[mode_for_cell(spec, cell)],
                                        cell, shape):
            x = 3 * (k - kmin)
            out = out or t[x + 2]
            ks = range(t[x], t[x + 1], stride)
            succ = ks if succ is None else [j + m for j in succ for m in ks]
        return [*succ, sink] if out else succ

    def exits(cell):
        return any(t[3 * (k - kmin) + 2] for t, k, (kmin, _) in
                   zip(steps[mode_for_cell(spec, cell)], cell, shape))

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
        try:
            i = sum((k - kmin) * stride for k, (kmin, stride) in zip(q, shape))
            return i if 0 <= i < sink and cells[i] == q else None
        except TypeError:
            return None

    has_sink = any(map(exits, cells))
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
    """Integrate one disturbance realization and chop it exactly; return
    (cells at multiples of tau, observation word).

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


def _mode_from_json(obj):
    if "u" in obj:
        return Mode(u=tuple(map(_number, obj["u"])),
                    du=tuple(map(_number, obj.get("du", ()))) or None)
    return Mode(**{k: _number(obj.get(k, 0.0))
                   for k in ("v", "ev", "theta", "etheta")})


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
    modes = {name: _mode_from_json(m) for name, m in modes_obj.items()}
    return modes, field


def _regions_from_json(obj):
    return {p: tuple(tuple((hs["axis"], hs["op"], hs["c"]) for hs in conj)
                     for conj in region)
            for p, region in obj.items()}


def system_spec_from_json(obj):
    """SystemSpec from its JSON form.  A missing or malformed field raises
    a ValueError that names it."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"spec JSON: expected an object, got {type(obj).__name__}")

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
