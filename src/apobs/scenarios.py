"""Built-in system scenarios.

The drone scenario: a surveillance drone over a 33 m x 33 m area, grid
pitch 1 m, step 1 s, starting at (-10, 13), nominal speed 4 m/s with
disturbance 0.1 m/s on speed and 0.08 rad on heading.  Regions:

    c : y >= 6.21
    b : x >= 6.21 and y >= 10.32
    p : x <= 6.21 and y <= 6.21
    g : x >= 6.21 and y <= 6.21
    r : |x| > 2.1 or |y| > 2.1   (r_mode="or", the default)
        |x| > 2.1 and |y| > 2.1  (r_mode="and")

The heading field is a counter-clockwise patrol: climb into the band
8 m <= y <= 15 m, circulate east along y >= 13 m, west along y <= 10 m,
with turns at x = +-11 m.  The band keeps trajectories away from region
boundaries that two APs share, so chopping stays single-change.  The
field is read at each cell centre rounded to whole metres, so every eta
grids the same system.
"""
from __future__ import annotations

from .abstraction import Mode, SystemSpec

__all__ = ["drone_spec"]


def _r_region(r_mode):
    if r_mode == "or":
        return (
            ((0, "ge", 2.1),),
            ((0, "le", -2.1),),
            ((1, "ge", 2.1),),
            ((1, "le", -2.1),),
        )
    if r_mode == "and":
        return (
            ((0, "ge", 2.1), (1, "ge", 2.1)),
            ((0, "ge", 2.1), (1, "le", -2.1)),
            ((0, "le", -2.1), (1, "ge", 2.1)),
            ((0, "le", -2.1), (1, "le", -2.1)),
        )
    raise ValueError(f"r_mode must be 'or' or 'and', got {r_mode!r}")


def drone_spec(eta=1.0, tau=1.0, r_mode="or"):
    regions = {
        "c": (((1, "ge", 6.21),),),
        "b": (((0, "ge", 6.21), (1, "ge", 10.32)),),
        "p": (((0, "le", 6.21), (1, "le", 6.21)),),
        "g": (((0, "ge", 6.21), (1, "le", 6.21)),),
        "r": _r_region(r_mode),
    }
    return SystemSpec(
        dim=2,
        domain=((-16.5, 16.5), (-16.5, 16.5)),
        eta=eta, tau=tau,
        x_in=(-10.0, 13.0),
        modes={"default": Mode(v=4.0, ev=0.1, theta=0.0, etheta=0.08)},
        field={"kind": "patrol"},
        ap_regions=regions,
    )
