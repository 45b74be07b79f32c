"""The benchmark's own inputs: drone system specs and query lists.

The specs are generated here, not taken from ``apobs.scenarios``, so that
a change to the program's built-in scenario cannot change a workload.
Each spec is written as spec JSON with one motion mode per distinct
heading and a ``table`` field that names the mode of every cell.

The heading rule below is a frozen copy of the drone patrol rule
(``patrol_theta`` in ``apobs.abstraction`` when this benchmark was
written).  It is applied either to the cell centre in metres, rounded
half-up to the 1 m grid (``field="metre"``), or to the raw cell index
(``field="index"``, which is what ``apobs scenario drone`` does; at
eta < 1 that field "leaks": the same index names a different point).
"""
from __future__ import annotations

import hashlib
import json
import math

# Drone geometry, as in the paper's case study: 33 m x 33 m, step 1 s,
# speed 4 +- 0.1 m/s, heading disturbance +- 0.08 rad.
DOMAIN = [[-16.5, 16.5], [-16.5, 16.5]]
X_IN = [-10.0, 13.0]
TAU = 1.0
SPEED, SPEED_DEV, HEADING_DEV = 4.0, 0.1, 0.08

# ap -> list of conjunctions of (axis, op, threshold); r is the "or" form
REGIONS = {
    "c": [[(1, "ge", 6.21)]],
    "b": [[(0, "ge", 6.21), (1, "ge", 10.32)]],
    "p": [[(0, "le", 6.21), (1, "le", 6.21)]],
    "g": [[(0, "ge", 6.21), (1, "le", 6.21)]],
    "r": [[(0, "ge", 2.1)], [(0, "le", -2.1)],
          [(1, "ge", 2.1)], [(1, "le", -2.1)]],
}

# name -> (field, eta, timed queries, untimed check-only anchor queries).
# Why each workload exists and which layer it loads: see README.md.
WORKLOADS = {
    "drone-fine": ("metre", 0.25,
                   ["G r", "F G r", "G r & F (g & F p)"], []),
    "drone-leaky": ("index", 0.25, ["G r & F (g & F p)"], []),
    "deep-formulas": ("metre", 1.0,
                      ["G r & F (g & F (p & F (c & F b)))",
                       "G F g & G F p & G F c & G r"],
                      ["G r"]),
}


def patrol_theta(cx, cy):
    """Counter-clockwise patrol heading of grid point (cx, cy); frozen
    copy of the seed program's rule with its default parameters."""
    xleft, xright, tilt, strong = -11, 11, 0.1, 0.25
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


def _grid(eta):
    lo, hi = DOMAIN[0]  # square domain
    return range(math.ceil(lo / eta - 1e-9), math.floor(hi / eta + 1e-9) + 1)


def drone_spec_json(field, eta):
    """Spec JSON of the drone with the heading rule applied per cell."""
    if field == "metre":
        def point(k):
            return math.floor(k * eta + 0.5)
    elif field == "index":
        def point(k):
            return k
    else:
        raise ValueError(f"unknown field {field!r}")
    ks = _grid(eta)
    heading = {(kx, ky): patrol_theta(point(kx), point(ky))
               for kx in ks for ky in ks}
    names = {th: f"h{i}" for i, th in enumerate(sorted(set(heading.values())))}
    modes = {"default": {"v": SPEED, "ev": SPEED_DEV, "theta": 0.0,
                         "etheta": HEADING_DEV}}
    for th, name in names.items():
        modes[name] = {"v": SPEED, "ev": SPEED_DEV, "theta": th,
                       "etheta": HEADING_DEV}
    modes["field"] = {
        "kind": "table", "default": "default",
        "cells": {f"{kx},{ky}": names[th]
                  for (kx, ky), th in heading.items()}}
    return {
        "dim": 2, "domain": DOMAIN, "eta": eta, "tau": TAU, "x_in": X_IN,
        "modes": modes,
        "aps": {p: [[{"axis": a, "op": op, "c": c} for a, op, c in conj]
                    for conj in region]
                for p, region in REGIONS.items()},
    }


def spec_bytes(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def spec_hash(data):
    return hashlib.sha256(data).hexdigest()[:16]
