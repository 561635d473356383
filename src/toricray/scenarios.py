"""Canonical shipped scenarios used by the verification suite and the CLI.

Each builder returns a Scenario carrying the polytope, the generator (or the
PL data plus its smoothings), the s grid, the lattice points of interest,
and the regions entering the limit statements.  Scenario names are stable
identifiers accepted by the CLI as ``builtin:<name>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction


from .generators import BumpSpec, PLConvex, build_bump_generator, build_wall_sum
from .polytope import Polytope, make_polytope
from .smoothing import build_nice_smoothing
from .testconfig import Decomposition, decompose

__all__ = ["Scenario", "BUILTIN_SCENARIOS", "get_scenario", "segment",
           "segment_narrow", "corrected_segment", "three_bumps", "cp2",
           "cp2_wall", "cp2_corner", "cp2_two_walls", "cp2_wall_sum",
           "subsegment"]


@dataclass
class Scenario:
    name: str
    polytope: Polytope
    generator: object = None
    pl: PLConvex = None
    decomposition: Decomposition = None
    s_grid: tuple = (32, 64, 128, 256, 512, 1024, 2048, 4096)
    lattice_points: tuple = ()
    regions: dict = field(default_factory=dict)
    # the eps values of a PL scenario's nice family
    family_eps: tuple = ()


def subsegment(lo, hi) -> Polytope:
    """1-D sub-polytope [lo, hi] with exact rational endpoints."""
    return make_polytope([[1], [-1]], [Fraction(lo), -Fraction(hi)],
                         require_delzant=False)


def segment(kernel: str = "cosine") -> Scenario:
    """[0, 2] with one even bump at the midpoint; the workhorse 1-D ray."""
    P = make_polytope([[1], [-1]], [0, -2])
    gen = build_bump_generator(P, [BumpSpec(1.0, 0.5, 4.0, kernel)])
    return Scenario(
        name="segment-bump", polytope=P, generator=gen,
        lattice_points=((0,), (1,), (2,)),
        regions={"P1": subsegment(0, Fraction(1, 2)),
                 "P2": subsegment(Fraction(3, 2), 2)})


def segment_narrow(kernel: str = "cosine") -> Scenario:
    """[0, 2] with the narrow unit-mass bump of the affine-tail identity."""
    P = make_polytope([[1], [-1]], [0, -2])
    gen = build_bump_generator(P, [BumpSpec(1.0, 0.25, 1.0, kernel)])
    return Scenario(
        name="segment-narrow", polytope=P, generator=gen,
        lattice_points=((0,), (1,), (2,)),
        regions={"P1": subsegment(0, Fraction(3, 4)),
                 "P2": subsegment(Fraction(5, 4), 2)})


def corrected_segment(kernel: str = "cosine") -> Scenario:
    """Half-form corrected segment [-1/2, 5/2] with the midpoint bump."""
    P = make_polytope([[1], [-1]], [Fraction(-1, 2), Fraction(-5, 2)],
                      corrected=True)
    gen = build_bump_generator(P, [BumpSpec(1.0, 0.5, 4.0, kernel)])
    return Scenario(
        name="corrected-segment", polytope=P, generator=gen,
        lattice_points=((0,), (1,), (2,)),
        regions={"P1": subsegment(Fraction(-1, 2), Fraction(1, 2)),
                 "P2": subsegment(Fraction(3, 2), Fraction(5, 2))})


def three_bumps(kernel: str = "cosine") -> Scenario:
    """[0, 5] with three disjoint bumps; four affine gap components,
    [0, .75], [1.25, 2.25], [2.75, 3.75] and [4.25, 5]."""
    P = make_polytope([[1], [-1]], [0, -5])
    specs = [BumpSpec(1.0, 0.25, 1.0, kernel),
             BumpSpec(2.5, 0.25, 0.5, kernel),
             BumpSpec(4.0, 0.25, 2.0, kernel)]
    gen = build_bump_generator(P, specs)
    return Scenario(
        name="three-bumps", polytope=P, generator=gen,
        lattice_points=tuple((k,) for k in range(6)))


def cp2(N: int = 3) -> Polytope:
    return make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -N])


def cp2_wall() -> Scenario:
    """CP^2 (N=3) with the single wall x1 = 1 and its smooth-kernel nice
    smoothing at eps = 1/10; its family is eps = 1/20, 1/10 and 1/5."""
    eps = Fraction(1, 10)
    P = cp2(3)
    f = PLConvex([((0, 0), 0), ((1, 0), -1)])
    dec = decompose(f, P)
    gen = build_nice_smoothing(f, P, dec, float(eps), kernel="smooth")
    # P2 - W_eps = {x1 >= 1 + eps} inside the simplex
    shrunk = make_polytope([[1, 0], [0, 1], [-1, -1]],
                           [1 + eps, 0, -3], require_delzant=False)
    return Scenario(
        name="cp2-wall", polytope=P, generator=gen, pl=f, decomposition=dec,
        lattice_points=((2, 0), (1, 1)),
        regions={"P2_minus_W": shrunk},
        s_grid=(32, 64, 128, 256, 512, 1024, 2048),
        family_eps=(0.05, 0.1, 0.2))


def cp2_corner() -> Scenario:
    """CP^2 with two crossing kinks meeting at the corner (1, 1)."""
    P = cp2(3)
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1)])
    dec = decompose(f, P)
    return Scenario(name="cp2-corner", polytope=P, pl=f, decomposition=dec)


def cp2_two_walls() -> Scenario:
    """CP^2 cut by the two coordinate walls x1 = 1 and x2 = 1 (four pieces)."""
    P = cp2(3)
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)])
    dec = decompose(f, P)
    return Scenario(name="cp2-two-walls", polytope=P, pl=f, decomposition=dec)


def cp2_wall_sum(kernel: str = "cosine") -> Scenario:
    """CP^2 with a wall-sum generator across x1 = 1 and x2 = 1."""
    P = cp2(3)
    gen = build_wall_sum(P, [((1, 0), BumpSpec(1.0, 0.2, 1.0, kernel)),
                             ((0, 1), BumpSpec(1.0, 0.2, 1.0, kernel))])
    return Scenario(name="cp2-wall-sum", polytope=P, generator=gen,
                    lattice_points=((1, 1), (2, 0)))


BUILTIN_SCENARIOS = {
    "segment-bump": segment,
    "segment-narrow": segment_narrow,
    "corrected-segment": corrected_segment,
    "three-bumps": three_bumps,
    "cp2-wall": cp2_wall,
    "cp2-corner": cp2_corner,
    "cp2-two-walls": cp2_two_walls,
    "cp2-wall-sum": cp2_wall_sum,
}


def get_scenario(name: str) -> Scenario:
    key = name.replace("builtin:", "")
    if key not in BUILTIN_SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; "
                       f"choose from {sorted(BUILTIN_SCENARIOS)}")
    return BUILTIN_SCENARIOS[key]()
