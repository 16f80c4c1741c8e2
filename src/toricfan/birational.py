"""Fan surgeries: star subdivision (blow-up), its inverse, and curve blow-ups.

Star subdivision at a cone inserts the primitive sum of its generators and
replaces every maximal cone containing the center by the cones obtained by
swapping one center ray for the new one.  The blow-down takes the
decomposition of the removed ray explicitly and undoes that pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fan import Fan, MalformedInput, NotAWall, Wall, cone_bases, derived, validate, wall_lookup, walls
from .intersection import all_relations
from .lattice import content, vsum


class NotAFace(ValueError):
    """The requested center is not a face of any maximal cone."""


class SumMismatch(ValueError):
    """The blow-down ray is not the exact sum of the decomposition rays."""


class BadStarShape(ValueError):
    """The star of the blow-down ray is not an inverse star subdivision."""


class ResultSingular(ValueError):
    """A blow-down replacement cone is not unimodular."""


@dataclass(frozen=True)
class BlowupRecord:
    """Bookkeeping for a star subdivision.

    `new_ray` indexes the inserted primitive sum inside `result`;
    `exceptional_walls` are the walls of the result whose curves are
    contracted by the blow-down map, and `section_walls` (curve centers only)
    are the walls projecting isomorphically onto the center curve.
    """

    base: Fan
    result: Fan
    center: tuple[int, ...]
    new_ray: int
    exceptional_walls: tuple[Wall, ...]
    section_walls: tuple[Wall, ...] | None = None


def star_subdivision(f: Fan, center) -> BlowupRecord:
    """Blow up the invariant subvariety whose cone is `center`."""
    center = tuple(sorted(center))
    if not all(0 <= i < f.n_rays for i in center):
        raise MalformedInput(f"center {center} has a ray index out of range")
    if len(set(center)) != len(center):
        raise NotAFace(f"{center} is not a valid ray index set")
    if not 2 <= len(center) <= f.dim:
        raise NotAFace(f"center size must be between 2 and {f.dim}, got {len(center)}")
    carriers = [c for c in f.max_cones if set(center) <= set(c)]
    if not carriers:
        raise NotAFace(f"{center} is not a face of any maximal cone")
    e = vsum(f.rays[i] for i in center)
    if content(e) != 1:
        raise MalformedInput(
            f"the sum {e} of the center rays is not primitive; the fan is not smooth"
        )
    if e in f.rays:
        raise MalformedInput(f"the sum {e} of the center rays is already a ray")
    new_ray = f.n_rays
    cones = [c for c in f.max_cones if not set(center) <= set(c)]
    for c in carriers:
        for s in center:
            cones.append(tuple(sorted(set(c) - {s} | {new_ray})))
    result = Fan(f.dim, f.rays + (e,), tuple(cones))
    report = validate(result)
    if not report.valid:
        raise MalformedInput(f"star subdivision produced an invalid fan: {report.failures}")
    star_size = sum(1 for c in result.max_cones if new_ray in c)
    if star_size != len(center) * len(carriers):
        raise AssertionError("star of the inserted ray has the wrong size")
    return BlowupRecord(
        base=f,
        result=result,
        center=center,
        new_ray=new_ray,
        exceptional_walls=_contracted_walls(result, center, new_ray),
    )


def _contracted_walls(result: Fan, center, new_ray) -> tuple[Wall, ...]:
    """Walls whose pushed-forward curve class vanishes on the base.

    Pulling the base divisor D_r back along the blow-down adds the
    exceptional divisor once for each center ray, so the pushforward of a
    class c is c_r + c_e at center rays and c_r elsewhere.
    """
    out = []
    center = set(center)
    for rel in all_relations(result):
        ce = rel.coeffs[new_ray]
        pushed_zero = all(
            c + (ce if r in center else 0) == 0
            for r, c in enumerate(rel.coeffs)
            if r != new_ray
        )
        if pushed_zero:
            out.append(rel.wall)
    return tuple(out)


def blow_up_curve(f: Fan, wall_curve) -> BlowupRecord:
    """Blow up an invariant curve, given as a Wall or a wall ray index set."""
    if isinstance(wall_curve, Wall):
        w = wall_lookup(f, wall_curve.rays)
    else:
        w = wall_lookup(f, wall_curve)
    if len(w.rays) < 2:
        raise NotAWall("curve blow-ups need a wall with at least two rays")
    try:
        rec = star_subdivision(f, w.rays)
    except NotAFace as exc:
        raise NotAWall(str(exc)) from None
    sections = []
    center = set(w.rays)
    for ww in walls(rec.result):
        if rec.new_ray in ww.rays and set(ww.rays) - {rec.new_ray} < center:
            sections.append(ww)
    if len(sections) != len(w.rays):
        raise AssertionError("curve blow-up produced the wrong number of section walls")
    return BlowupRecord(
        base=rec.base,
        result=rec.result,
        center=rec.center,
        new_ray=rec.new_ray,
        exceptional_walls=rec.exceptional_walls,
        section_walls=tuple(sections),
    )


def blow_down(f: Fan, ray: int, decomposition) -> Fan:
    """Inverse star subdivision: contract `ray`, whose generator must be the
    exact sum of the generators of `decomposition`.

    The star of `ray` must split into groups, one per residual index set T,
    each consisting of the |S| cones (S minus one element) + ray + T; every
    group is replaced by the single cone S + T.
    """
    S = tuple(sorted(decomposition))
    if not 0 <= ray < f.n_rays:
        raise MalformedInput(f"ray index {ray} out of range")
    if not all(0 <= i < f.n_rays for i in S):
        raise MalformedInput(f"decomposition {S} has a ray index out of range")
    if ray in S or len(set(S)) != len(S):
        raise SumMismatch("decomposition must be distinct ray indices not containing the ray")
    if vsum(f.rays[i] for i in S) != f.rays[ray]:
        raise SumMismatch(
            f"generator of ray {ray} is not the sum of the generators of {S}"
        )
    star_cones = [c for c in f.max_cones if ray in c]
    if not star_cones:
        raise BadStarShape(f"ray {ray} does not lie in any maximal cone")
    groups: dict[tuple[int, ...], set[int]] = {}
    for c in star_cones:
        members = set(c)
        missing = [s for s in S if s not in members]
        if len(missing) != 1:
            raise BadStarShape(f"cone {c} in the star misses {len(missing)} decomposition rays")
        t = tuple(sorted(members - set(S) - {ray}))
        groups.setdefault(t, set()).add(missing[0])
    for t, seen in groups.items():
        if seen != set(S):
            raise BadStarShape(f"group with residue {t} covers only {sorted(seen)} of {S}")
    replacements = [tuple(sorted(set(S) | set(t))) for t in groups]
    new_cones = [c for c in f.max_cones if ray not in c] + replacements
    # drop the contracted ray and reindex
    remap = {old: old - (old > ray) for old in range(f.n_rays) if old != ray}
    rays = tuple(r for i, r in enumerate(f.rays) if i != ray)
    cones = tuple(tuple(sorted(remap[i] for i in c)) for c in new_cones)
    result = Fan(f.dim, rays, cones)
    bases = derived(result, cone_bases)
    for cone in replacements:
        if abs(bases[tuple(remap[i] for i in cone)][0]) != 1:
            raise ResultSingular(f"replacement cone {cone} is not unimodular")
    report = validate(result)
    if not report.valid:
        raise BadStarShape(f"blow-down produced an invalid fan: {report.failures}")
    return result


def reindex_after_removal(index: int, removed: int) -> int:
    """Ray index in the blown-down fan corresponding to `index` upstairs."""
    if index == removed:
        raise ValueError("the contracted ray has no image")
    return index - (index > removed)
