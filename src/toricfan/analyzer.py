"""Analysis pipeline for pairs (X, C) with X non-projective, B_C(X) projective.

Every Mori-extremal wall curve of the blow-up that meets the exceptional
divisor E and has -K.C > 0 carries a relation u_a + u_b = u_r, where a and b
are its apexes: its degrees are a single -1, at the ray r, and zeros.  Its
contraction is the blow-down of r along the apexes onto the center (a, b),
and the position of r names the phenomenon:

* r = E: a *forbidden flip* -- the curve lies inside E, the contraction
  lands on a projective variety containing the flipped center, and the
  original curve has normal bundle O(-1)^(n-1);
* r a ray of the original curve: an *elementary transformation* through the
  codimension-two center (a, b);
* r an apex of the original curve: a *trivial reduction* -- X is a point
  blow-up of a smaller non-projective pair.

The analyzer verifies rather than re-proves: it performs the blow-down,
reconstructs the blow-up, and validates every fan it produces; any mismatch
raises InvariantViolation instead of guessing.
"""

from __future__ import annotations

from collections import namedtuple

from .birational import BlowupRecord, blow_down, blow_up_curve, reindex_after_removal, star_subdivision
from .fan import (
    Fan,
    InvariantViolation,
    MalformedInput,
    PropertyFailure,
    Wall,
    picard_number,
    validate,
    wall_lookup,
    walls,
)
from .intersection import anticanonical_degree, is_fano, wall_relation
from .lattice import vadd
from .mori import is_extremal, is_projective, mori_extremal_classes


class NoFiberWall(PropertyFailure):
    """The blow-up record has no contracted wall to test."""


TRIVIAL_REDUCTION = "TrivialReduction"
FORBIDDEN_FLIP = "ForbiddenFlip"
ELEMENTARY_TRANSFORMATION = "ElementaryTransformation"


class GuaranteeReport(namedtuple("GuaranteeReport", "guaranteed reason")):
    """`reason` is "fano", "enough_mori_rays" or None."""

    __slots__ = ()


class PhenomenonFinding(namedtuple("PhenomenonFinding", "kind witness_wall e_dot_omega constructed")):
    """One Mori-extremal wall meeting E, classified, with its constructions.

    `constructed` holds the auxiliary fans by name: always the contraction
    image "Y"; for flips the center "Z" (ray indices in Y); for trivial
    reductions "X_prime" with the fixed point "p" (ray indices in X_prime);
    for elementary transformations the codimension-two center "center"
    (ray indices in Y).
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        data = {
            "kind": self.kind,
            "witness_wall": self.witness_wall.to_dict(),
            "e_dot_omega": self.e_dot_omega,
            "constructed": {},
        }
        for key, value in sorted(self.constructed.items()):
            data["constructed"][key] = value.to_dict() if isinstance(value, Fan) else list(value)
        return data


class AnalysisReport(
    namedtuple(
        "AnalysisReport",
        "x_projective xt_projective exceptional_ray findings unclassified blowup",
        defaults=(None,),
    )
):
    """The verdicts on X and its blow-up, the PhenomenonFindings and the
    unclassified walls; equality ignores the `blowup` record."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, AnalysisReport):
            return NotImplemented
        return self[:5] == other[:5]

    def __ne__(self, other):
        if not isinstance(other, AnalysisReport):
            return NotImplemented
        return self[:5] != other[:5]

    def __hash__(self):
        return hash(self[:5])

    def to_dict(self) -> dict:
        return {
            "x_projective": self.x_projective,
            "xt_projective": self.xt_projective,
            "exceptional_ray": self.exceptional_ray,
            "findings": [f.to_dict() for f in self.findings],
            "unclassified": [w.to_dict() for w in self.unclassified],
        }


def fiber_class_extremal(rec: BlowupRecord) -> bool:
    """Whether the class of a curve in a blow-up fiber is extremal downstairs.

    When the blown-up fan is projective this is equivalent to projectivity of
    the base; the equivalence is asserted whenever both sides are available.
    """
    if not rec.exceptional_walls:
        raise NoFiberWall("the record has no contracted walls")
    ext = is_extremal(rec.result, rec.exceptional_walls[0])
    if is_projective(rec.result).projective:
        base_projective = is_projective(rec.base).projective
        if ext != base_projective:
            raise InvariantViolation(
                "fiber-class extremality disagrees with base projectivity "
                f"(extremal={ext}, base projective={base_projective})"
            )
    return ext


def hypothesis_guarantee(rec: BlowupRecord) -> GuaranteeReport:
    """Sufficient conditions for a Mori-extremal curve meeting E to exist.

    Either the blow-up is Fano, or its Mori cone has at least as many
    Mori-extremal edges as the base has Picard rank.
    """
    result = rec.result
    if is_fano(result):
        report = GuaranteeReport(True, "fano")
    else:
        edges = len(mori_extremal_classes(result))
        if edges >= picard_number(rec.base):
            report = GuaranteeReport(True, "enough_mori_rays")
        else:
            report = GuaranteeReport(False, None)
    if (
        report.guaranteed
        and is_projective(result).projective
        and not is_projective(rec.base).projective
    ):
        e = rec.new_ray
        found = False
        for vec, ws in mori_extremal_classes(result):
            if vec[e] != 0:
                found = True
                break
        if not found:
            raise InvariantViolation(
                "guarantee holds but no Mori-extremal class meets the exceptional divisor"
            )
    return report


def analyze_pair(x: Fan, curve) -> AnalysisReport:
    """Classify all Mori-extremal walls of B_C(x) that meet the exceptional
    divisor, constructing and validating the fans each phenomenon prescribes.

    If x is projective the analysis reports that and stops with no findings.
    """
    report = validate(x)
    if not report.valid:
        raise MalformedInput(f"analyze_pair needs a smooth complete fan: {report.failures}")
    curve_wall = wall_lookup(x, curve.rays if isinstance(curve, Wall) else curve)
    x_projective = is_projective(x).projective
    rec = blow_up_curve(x, curve_wall)
    xt = rec.result
    e = rec.new_ray
    xt_projective = is_projective(xt).projective

    findings: list[PhenomenonFinding] = []
    unclassified: list[Wall] = []
    if not x_projective and xt_projective:
        for w in walls(xt):
            if e in w.rays + w.apexes and is_extremal(xt, w):
                rel = wall_relation(xt, w)
                if anticanonical_degree(rel) > 0:
                    findings.append(_finding(x, curve_wall, rec, w, rel))
                else:
                    unclassified.append(w)
    return AnalysisReport(
        x_projective, xt_projective, e, tuple(findings), tuple(unclassified), rec
    )


def _finding(x, curve_wall, rec, w, rel) -> PhenomenonFinding:
    """Classify a Mori-extremal wall `w` of the blow-up that meets E and has
    -K.w > 0 by the position of the -1 in its relation `rel`, after checking
    that the relation is u_a + u_b = u_r over its apexes a, b."""
    xt, e = rec.result, rec.new_ray
    degrees = [rel.coeffs[i] for i in w.rays]
    if sorted(degrees) != [-1] + [0] * (len(degrees) - 1):
        raise InvariantViolation(f"Mori-extremal wall {w.rays} has degrees {degrees}, not a single -1")
    r = w.rays[degrees.index(-1)]
    if e in w.rays and r != e:
        raise InvariantViolation(f"Mori-extremal wall {w.rays} lies in E but has its -1 at ray {r}")
    a, b = w.apexes
    if vadd(xt.rays[a], xt.rays[b]) != xt.rays[r]:
        raise InvariantViolation(f"the apexes {w.apexes} of wall {w.rays} do not sum to ray {r}")
    if r == e:
        kind = FORBIDDEN_FLIP
        base_degrees = wall_relation(x, curve_wall).normal_degrees
        if any(d != -1 for d in base_degrees):
            raise InvariantViolation(
                f"flip case needs normal bundle O(-1)^(n-1) on the curve, got {base_degrees}"
            )
    elif r in rec.center:
        kind = ELEMENTARY_TRANSFORMATION
    elif r in curve_wall.apexes:
        kind = TRIVIAL_REDUCTION
    else:
        raise InvariantViolation(f"the contracted ray {r} is neither E, a curve ray nor a curve apex")
    y = blow_down(xt, r, (a, b))
    if not is_projective(y).projective:
        raise InvariantViolation(f"the {kind} contraction image is not projective")
    center = (reindex_after_removal(a, r), reindex_after_removal(b, r))
    if star_subdivision(y, center).result != xt:
        raise InvariantViolation(f"re-blowing up the {kind} center does not reproduce the blow-up fan")

    constructed = {"Y": y}
    if kind == FORBIDDEN_FLIP:
        constructed["Z"] = center
        if x.dim == 3:
            z = wall_lookup(y, center)
            z_degrees = wall_relation(y, z).normal_degrees
            if z_degrees != (-1, -1):
                raise InvariantViolation(f"flipped curve has degrees {z_degrees}, expected (-1, -1)")
            if is_extremal(y, z):
                raise InvariantViolation("flipped curve class is extremal although X is non-projective")
    elif kind == ELEMENTARY_TRANSFORMATION:
        constructed["center"] = center
    else:
        p_rays = curve_wall.rays + (b if a == e else a,)
        x_prime = blow_down(x, r, p_rays)
        if is_projective(x_prime).projective:
            raise InvariantViolation("the reduced variety is projective although X is not")
        p = tuple(sorted(reindex_after_removal(i, r) for i in p_rays))
        if star_subdivision(x_prime, p).result != x:
            raise InvariantViolation("re-blowing up the fixed point does not reproduce X")
        reduced_curve = tuple(reindex_after_removal(i, r) for i in curve_wall.rays)
        if blow_up_curve(x_prime, reduced_curve).result != y:
            raise InvariantViolation("blowing up the reduced curve does not reproduce Y")
        constructed.update(X_prime=x_prime, p=p)
    return PhenomenonFinding(kind, w, rel.coeffs[e], constructed)
