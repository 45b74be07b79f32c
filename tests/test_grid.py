"""Cell geometry checked against exact arithmetic and against a grid three
times finer.

The exact oracle reads every float input as the rational it is
(``fractions.Fraction``), as ``semantics`` does, on specs whose eta is a
decimal that no float holds exactly, with thresholds and ``x_in`` on
decimal cell edges and one ulp either side.  The nested-refinement test
builds the same system at eta and at eta/3 on grids whose edges floats
hold exactly, so every coarse cell is three fine cells per axis.
"""
import itertools
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from apobs.abstraction import (SINK, Mode, SystemSpec, build_symbolic_model,
                               gamma, mode_for_cell)
from conftest import _mode, axis_interval

_NONDYADIC_ETAS = ("0.1", "0.3", "0.7", "0.05", "0.15", "0.6")


@st.composite
def decimal_spec(draw):
    """A small 1- or 2-D spec with a decimal, non-dyadic eta, the domain
    at decimal cell edges (k - 1/2) eta or a fifth of a cell off them,
    and thresholds and ``x_in`` at decimal cell edges and one ulp either
    side of them.  Vector modes only, so that the exact velocity box is
    u +- du; a two-mode table field."""
    dim = draw(st.integers(1, 2))
    eta = Fraction(draw(st.sampled_from(_NONDYADIC_ETAS)))
    ks, domain = [], []
    for _ in range(dim):
        k0 = draw(st.integers(-400, 400))
        k1 = k0 + draw(st.integers(2, 6))
        lo, hi = (draw(st.sampled_from((0, 1, -1))) * eta / 5
                  for _ in range(2))
        ks.append(range(k0, k1 + 1))
        domain.append((float((k0 - Fraction(1, 2)) * eta + lo),
                       float((k1 + Fraction(1, 2)) * eta + hi)))

    def near(a):
        # a decimal edge of axis a, or one ulp either side
        k = draw(st.sampled_from(ks[a])) + draw(st.sampled_from((0, 1)))
        x = float((k - Fraction(1, 2)) * eta)
        return draw(st.sampled_from(
            (x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf))))

    x_in = tuple(min(max(near(a), lo), hi)
                 for a, (lo, hi) in enumerate(domain))
    speed = st.sampled_from((-1.5, -0.7, -0.3, 0.0, 0.1, 0.4, 1.0, 1.3))
    deviation = st.sampled_from((0.0, 0.05, 0.1, 0.3))
    modes = {name: Mode(u=tuple(draw(speed) for _ in range(dim)),
                        du=tuple(draw(deviation) for _ in range(dim)))
             for name in ("default", "other")}
    cells = itertools.product(*(range(r.start - 1, r.stop + 1) for r in ks))
    field = {"kind": "table", "default": "default",
             "cells": {c: "other" for c in cells if draw(st.booleans())}}

    def half_space():
        a = draw(st.integers(0, dim - 1))
        return a, draw(st.sampled_from(("le", "ge"))), near(a)
    aps = {f"p{i}": tuple(tuple(half_space()
                                for _ in range(draw(st.integers(1, 2))))
                          for _ in range(draw(st.integers(1, 2))))
           for i in range(draw(st.integers(1, 2)))}
    tau = float(eta * Fraction(draw(st.sampled_from(("0.5", "1", "2.5")))))
    return SystemSpec(dim, tuple(domain), float(eta), tau, x_in, modes,
                      field, aps)


def _holds(region, x):
    """Exact truth of a region of Fraction thresholds at a point."""
    return any(all(x[a] <= c if op == "le" else x[a] >= c
                   for a, op, c in conj) for conj in region)


def _points(box, region):
    """One point of every face of the arrangement that the region's
    thresholds cut the closed box into: per axis the box ends, every
    threshold inside the box and the midpoints between them.  A region of
    half-spaces is constant on each face, so it holds on the box iff it
    holds at every point."""
    axes = []
    for a, (lo, hi) in enumerate(box):
        cuts = sorted({lo, hi, *(c for conj in region for b, _, c in conj
                                 if b == a and lo < c < hi)})
        axes.append(cuts + [(x + y) / 2 for x, y in zip(cuts, cuts[1:])])
    return itertools.product(*axes)


class TestExactOracle:
    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(spec=decimal_spec())
    def test_cells_against_exact_arithmetic(self, spec):
        F = Fraction
        aps = tuple(sorted(spec.ap_regions))
        regions = {p: tuple(tuple((a, op, F(c)) for a, op, c in conj)
                            for conj in spec.ap_regions[p]) for p in aps}
        domain = [(F(lo), F(hi)) for lo, hi in spec.domain]
        box = {q: [tuple(map(F, axis_interval(spec, a, k)))
                   for a, k in enumerate(q)] for q in spec.cells}

        # every float in the domain lies in the box of its gamma cell:
        # tried at the domain edges, the thresholds, x_in and the decimal
        # cell edges, and one ulp either side of each
        eta = F(repr(spec.eta))
        for a, (lo, hi) in enumerate(spec.domain):
            kmin, kmax = spec.grid_ranges[a]
            xs = {lo, hi, spec.x_in[a],
                  *(float(c) for r in regions.values() for conj in r
                    for b, _, c in conj if b == a),
                  *(float((k - F(1, 2)) * eta)
                    for k in range(kmin, kmax + 2))}
            xs |= {math.nextafter(x, d) for x in xs
                   for d in (-math.inf, math.inf)}
            for x in sorted(x for x in xs if lo <= x <= hi):
                point = list(spec.x_in)
                point[a] = x
                k = gamma(point, spec)[a]
                k_lo, k_hi = axis_interval(spec, a, k)
                assert k_lo <= point[a] <= k_hi, (a, point[a], k)

        model = build_symbolic_model(spec, drop_multi_change=False,
                                     allow_unsound_tau=True)
        for q, outs in model.transitions.items():
            if q == SINK:
                continue
            # a cell whose every step starts with p true (A or Z) is
            # classified '+', with p false (E or N) '-'
            for p in aps:
                starts = {dict(o)[p] in "AZ" for o, _ in outs}
                if len(starts) == 1:
                    truth = starts.pop()
                    assert all(_holds(regions[p], x) == truth
                               for x in _points(box[q], regions[p])), (q, p)
            # the exact reach box: every cell it meets is a successor, and
            # it leaves the domain (beyond the 1e-9 tolerance) only if the
            # sink is one
            mode = mode_for_cell(spec, q)
            reach = [(lo + F(spec.tau) * (F(u) - F(du)),
                      hi + F(spec.tau) * (F(u) + F(du)))
                     for (lo, hi), u, du in zip(box[q], mode.u, mode.du)]
            succ = {q2 for _, q2 in outs}
            for q2, box2 in box.items():
                if all(lo2 <= bhi and blo <= hi2 for (lo2, hi2), (blo, bhi)
                       in zip(box2, reach)):
                    assert q2 in succ, (q, q2)
            if any(blo < dlo - F(1e-9) or bhi > dhi + F(1e-9)
                   for (blo, bhi), (dlo, dhi) in zip(reach, domain)):
                assert SINK in succ, q


@st.composite
def nested_specs(draw):
    """The same system at eta and at eta/3: eta in {3, 1.5, 0.75, 0.375},
    so that every edge of both grids is a float computed exactly, and a
    domain whose edges are coarse cell edges, so that coarse cell k is the
    fine cells 3k - 1, 3k and 3k + 1 per axis.  Each fine cell gets its
    parent's mode through its table field.  Thresholds and ``x_in`` sit
    on coarse edges, on fine edges or in between."""
    dim = draw(st.integers(1, 2))
    eta = draw(st.sampled_from((3.0, 1.5, 0.75, 0.375)))
    ks = []
    for _ in range(dim):
        k0 = draw(st.integers(-3, 2))
        ks.append(range(k0, k0 + draw(st.integers(2, 4))))
    domain = tuple(((r.start - 0.5) * eta, (r.stop - 0.5) * eta)
                   for r in ks)

    def point(a):
        lo, hi = domain[a]
        fine = eta / 3
        edges = [lo + j * fine for j in range(3 * len(ks[a]) + 1)]
        return draw(st.one_of(st.sampled_from(edges), st.floats(lo, hi)))

    modes = {f"m{i}": draw(_mode(dim)) for i in range(3)}
    modes["default"] = modes["m0"]
    coarse = {c: draw(st.sampled_from(sorted(modes)))
              for c in itertools.product(*ks)}
    fine = {tuple(3 * k + d for k, d in zip(c, ds)): name
            for c, name in coarse.items()
            for ds in itertools.product((-1, 0, 1), repeat=dim)}

    def half_space():
        a = draw(st.integers(0, dim - 1))
        return a, draw(st.sampled_from(("le", "ge"))), point(a)
    aps = {f"p{i}": tuple(tuple(half_space()
                                for _ in range(draw(st.integers(1, 2))))
                          for _ in range(draw(st.integers(1, 2))))
           for i in range(draw(st.integers(1, 2)))}
    x_in = tuple(point(a) for a in range(dim))
    tau = draw(st.floats(0.1, 1.5))
    return [SystemSpec(dim, domain, e, tau, x_in, modes,
                       {"kind": "table", "cells": cells}, aps)
            for e, cells in ((eta, coarse), (eta / 3, fine))]


def _parent(q):
    return q if q == SINK else tuple((m + 1) // 3 for m in q)


class TestNestedRefinement:
    @settings(derandomize=True, database=None, max_examples=150,
              deadline=None)
    @given(specs=nested_specs())
    def test_fine_steps_map_to_coarse_ones(self, specs):
        coarse, fine = (build_symbolic_model(s, allow_unsound_tau=True)
                        for s in specs)
        assert fine.n_states == 3 ** specs[0].dim * coarse.n_states
        assert _parent(fine.q_in) == coarse.q_in
        # a fine reach box lies inside its parent's, and a fine cell's
        # classification refines its parent's
        seen, stack = {fine.q_in}, [fine.q_in]
        while stack:
            q = stack.pop()
            outs = set(coarse.transitions[_parent(q)])
            for o, q2 in fine.transitions[q]:
                assert (o, _parent(q2)) in outs, (q, o, q2)
                if q2 not in seen:
                    seen.add(q2)
                    stack.append(q2)
