"""Analysis pipeline for pairs (X, C) with X non-projective, B_C(X) projective.

For every Mori-extremal wall curve of the blow-up that meets the exceptional
divisor E, exactly one of three phenomena occurs, read off from the sign
pattern of the wall relation:

* the curve lies inside E and meets it with degree -1: a *forbidden flip* --
  the contraction lands on a projective variety containing the flipped
  center, and the original curve has normal bundle O(-1)^(n-1);
* the curve crosses E (degree +1) and the relation's -1 sits at an apex of
  the original curve: a *trivial reduction* -- X is a point blow-up of a
  smaller non-projective pair;
* the curve crosses E and the -1 sits at a ray of the original curve: an
  *elementary transformation* through a codimension-two center.

The analyzer verifies rather than re-proves: each branch performs the
prescribed blow-down, reconstructs the blow-up, and validates every fan it
produces; any mismatch raises InvariantViolation instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .birational import BlowupRecord, blow_down, blow_up_curve, reindex_after_removal, star_subdivision
from .fan import Fan, MalformedInput, Wall, picard_number, validate, wall_lookup, walls
from .intersection import anticanonical_degree, is_fano, wall_relation
from .lattice import vadd
from .mori import is_extremal, is_projective, mori_extremal_classes


class InvariantViolation(RuntimeError):
    """A structural guarantee of the trichotomy failed; bug or bad input."""


class NoFiberWall(ValueError):
    """The blow-up record has no contracted wall to test."""


TRIVIAL_REDUCTION = "TrivialReduction"
FORBIDDEN_FLIP = "ForbiddenFlip"
ELEMENTARY_TRANSFORMATION = "ElementaryTransformation"


@dataclass(frozen=True)
class GuaranteeReport:
    guaranteed: bool
    reason: str | None  # "fano" | "enough_mori_rays" | None


@dataclass(frozen=True)
class PhenomenonFinding:
    """One Mori-extremal wall meeting E, classified, with its constructions.

    `constructed` holds the auxiliary fans by name: always the contraction
    image "Y"; for flips the center "Z" (ray indices in Y); for trivial
    reductions "X_prime" with the fixed point "p" (ray indices in X_prime);
    for elementary transformations the codimension-two center "center"
    (ray indices in Y).
    """

    kind: str
    witness_wall: Wall
    e_dot_omega: int
    constructed: dict

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


@dataclass(frozen=True)
class AnalysisReport:
    x_projective: bool
    xt_projective: bool
    exceptional_ray: int
    findings: tuple[PhenomenonFinding, ...]
    unclassified: tuple[Wall, ...]
    blowup: BlowupRecord | None = field(default=None, compare=False)

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
            if e not in w.rays and e not in w.apexes:
                continue
            rel = wall_relation(xt, w)
            if anticanonical_degree(rel) <= 0:
                if is_extremal(xt, w):
                    unclassified.append(w)
                continue
            if not is_extremal(xt, w):
                continue
            if e in w.rays:
                if rel.coeffs[e] >= 0:
                    raise InvariantViolation(
                        f"Mori-extremal wall {w.rays} lies in E with E.w = {rel.coeffs[e]} >= 0"
                    )
                findings.append(_forbidden_flip(x, curve_wall, rec, w, rel))
            else:
                findings.append(_transverse_finding(x, curve_wall, rec, w, rel))
    return AnalysisReport(
        x_projective, xt_projective, e, tuple(findings), tuple(unclassified), rec
    )


def _forbidden_flip(x, curve_wall, rec, w, rel) -> PhenomenonFinding:
    xt = rec.result
    e = rec.new_ray
    if rel.coeffs[e] != -1:
        raise InvariantViolation(f"flip-type wall must meet E with degree -1, got {rel.coeffs[e]}")
    for r in w.rays:
        if r != e and rel.coeffs[r] != 0:
            raise InvariantViolation(f"flip-type wall has nonzero degree {rel.coeffs[r]} at ray {r}")
    a1, a2 = w.apexes
    if vadd(xt.rays[a1], xt.rays[a2]) != xt.rays[e]:
        raise InvariantViolation("apexes of the flip wall do not sum to the exceptional ray")
    base_rel = wall_relation(x, curve_wall)
    if any(d != -1 for d in base_rel.normal_degrees):
        raise InvariantViolation(
            f"flip case needs normal bundle O(-1)^(n-1) on the curve, got {base_rel.normal_degrees}"
        )
    y = blow_down(xt, e, (a1, a2))
    if not is_projective(y).projective:
        raise InvariantViolation("the flip contraction image is not projective")
    z = (reindex_after_removal(a1, e), reindex_after_removal(a2, e))
    if star_subdivision(y, z).result != xt:
        raise InvariantViolation("re-blowing up the flip center does not reproduce the blow-up fan")
    if x.dim == 3:
        z_rel = wall_relation(y, wall_lookup(y, z))
        if z_rel.normal_degrees != (-1, -1):
            raise InvariantViolation(f"flipped curve has degrees {z_rel.normal_degrees}, expected (-1, -1)")
        if is_extremal(y, wall_lookup(y, z)):
            raise InvariantViolation("flipped curve class is extremal although X is non-projective")
    return PhenomenonFinding(FORBIDDEN_FLIP, w, -1, {"Y": y, "Z": z})


def _transverse_finding(x, curve_wall, rec, w, rel) -> PhenomenonFinding:
    xt = rec.result
    e = rec.new_ray
    e_prime = w.apexes[0] if w.apexes[1] == e else w.apexes[1]
    degrees = {r: rel.coeffs[r] for r in w.rays}
    if any(d > 0 for d in degrees.values()):
        raise InvariantViolation(f"transverse Mori-extremal wall has a positive degree: {degrees}")
    negative = [r for r, d in degrees.items() if d < 0]
    if not negative:
        raise InvariantViolation(
            "transverse wall relation is trivial; the base fan would be projective"
        )
    if len(negative) != 1 or degrees[negative[0]] != -1:
        raise InvariantViolation(f"transverse wall degrees {degrees} violate the -K > 0 bound")
    r = negative[0]
    if vadd(xt.rays[e], xt.rays[e_prime]) != xt.rays[r]:
        raise InvariantViolation("exceptional ray plus opposite apex does not sum to the contracted ray")

    elementary = r in rec.center
    if elementary:
        image, center_name = "elementary-transformation", "transformation"
    elif r in curve_wall.apexes:
        image, center_name = "trivial-reduction", "reduction"
    else:
        raise InvariantViolation(f"the contracted ray {r} is neither a curve ray nor a curve apex")
    y = blow_down(xt, r, (e, e_prime))
    if not is_projective(y).projective:
        raise InvariantViolation(f"{image} image is not projective")
    center = tuple(sorted((reindex_after_removal(e, r), reindex_after_removal(e_prime, r))))
    if star_subdivision(y, center).result != xt:
        raise InvariantViolation(f"re-blowing up the {center_name} center does not reproduce the blow-up fan")
    if elementary:
        return PhenomenonFinding(ELEMENTARY_TRANSFORMATION, w, 1, {"Y": y, "center": center})

    x_prime = blow_down(x, r, curve_wall.rays + (e_prime,))
    if is_projective(x_prime).projective:
        raise InvariantViolation("the reduced variety is projective although X is not")
    p = tuple(sorted(reindex_after_removal(i, r) for i in curve_wall.rays + (e_prime,)))
    if star_subdivision(x_prime, p).result != x:
        raise InvariantViolation("re-blowing up the fixed point does not reproduce X")
    reduced_curve = tuple(reindex_after_removal(i, r) for i in curve_wall.rays)
    if blow_up_curve(x_prime, reduced_curve).result != y:
        raise InvariantViolation("blowing up the reduced curve does not reproduce Y")
    return PhenomenonFinding(
        TRIVIAL_REDUCTION, w, 1, {"Y": y, "X_prime": x_prime, "p": p}
    )
