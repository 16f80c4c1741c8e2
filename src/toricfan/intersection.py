"""Wall relations and intersection numbers of invariant curves.

A wall of a smooth complete fan carries a unique integer relation

    u_apex1 + u_apex2 + sum_i a_i u_i = 0

over the wall's own rays u_i.  The a_i are the splitting degrees of the
curve's normal bundle, and the full coefficient vector (1 at the apexes, a_i
at the wall rays, 0 elsewhere) is the curve's numerical class: its entry at
ray r is the intersection number of the curve with the invariant divisor D_r.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fan import Fan, NotAWall, Wall, cone_bases, derived, walls
from .lattice import vdot

CurveClass = tuple[int, ...]


@dataclass(frozen=True)
class WallRelation:
    """The unique relation across a wall; coeffs is indexed by ray."""

    wall: Wall
    coeffs: tuple[int, ...]

    @property
    def normal_degrees(self) -> tuple[int, ...]:
        """The degrees a_i at the wall's own rays, in wall-ray order."""
        return tuple(self.coeffs[i] for i in self.wall.rays)

    def to_dict(self) -> dict:
        return {
            "rays": list(self.wall.rays),
            "apexes": list(self.wall.apexes),
            "coeffs": list(self.coeffs),
        }


def wall_relation(f: Fan, w: Wall) -> WallRelation:
    """Exact integer relation across the wall `w` of the smooth fan `f`."""
    rel = derived(f, _relations_map).get(w)
    if rel is None:
        raise NotAWall(f"{w} is not a wall of the fan")
    return rel


def all_relations(f: Fan) -> tuple[WallRelation, ...]:
    """Wall relations for every wall, in the canonical wall order."""
    return tuple(derived(f, _relations_map).values())


def _relations_map(f: Fan) -> dict[Wall, WallRelation]:
    return {w: _solve_relation(f, w) for w in walls(f)}


def _solve_relation(f: Fan, w: Wall) -> WallRelation:
    """The far apex u_a2 in the basis of the near cone (wall rays, u_a1), from
    its `cone_bases` entry: (u_a2 . col) / det, a ratio free of row order."""
    a1, a2 = w.apexes
    near = tuple(sorted(w.rays + (a1,)))
    det, cols = derived(f, cone_bases)[near]
    if cols is None:
        raise NotAWall(f"wall {w} spans a degenerate configuration")
    num = {i: vdot(f.rays[a2], col) for i, col in zip(near, cols)}
    if num[a1] != -det:
        raise NotAWall(f"apexes of {w} do not lie on opposite sides; fan is not smooth/proper")
    full = [0] * f.n_rays
    full[a1] = full[a2] = 1
    for idx in w.rays:
        if num[idx] % det:
            raise NotAWall(f"non-integral relation across {w}; fan is not smooth")
        full[idx] = -num[idx] // det
    return WallRelation(w, tuple(full))


def anticanonical_degree(rel: WallRelation) -> int:
    """-K . C for the wall curve: 2 plus the sum of the normal degrees."""
    return 2 + sum(rel.normal_degrees)


def is_fano(f: Fan) -> bool:
    """Whether the anticanonical divisor is positive on every invariant curve."""
    return all(anticanonical_degree(rel) > 0 for rel in all_relations(f))


def chi_normal_curve(f: Fan, w: Wall) -> int:
    """Euler characteristic of the curve's normal bundle: -K.C + dim - 3."""
    return anticanonical_degree(wall_relation(f, w)) + f.dim - 3
