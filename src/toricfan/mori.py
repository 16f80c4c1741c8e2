"""Mori cone generators, projectivity decision and contraction types.

The cone of effective curves of a smooth complete toric variety is generated
by its wall classes.  Projectivity is the feasibility of an exact rational
linear program: a divisor is ample iff it is strictly positive on every wall
curve, so the fan is projective iff {d : <d, class(w)> >= 1 for all walls w}
is nonempty (the system is homogeneous up to scaling, so ">= 1" loses
nothing).  Infeasibility comes with a Gordan-type certificate: a nonnegative,
nonzero combination of wall classes summing to zero.  Both sides of every
verdict are re-verified over the integers before being returned; `Fraction`
appears only in the verdict's witness and certificate.

A class is extremal iff it is not a nonnegative combination of the classes
not proportional to it.  Each class is decided by the cheapest exact proof
that exists, in this order: a sign proof (the class is strictly signed at a
ray i where no other class has that sign, so +-e_i is a Farkas vector:
extremal), a two-sum proof (the class minus another class is a third class:
not extremal), and otherwise the phase-one LP on the rho = n - d rows off
one maximal cone sigma0 of non-zero determinant.  Every class c satisfies
sum_r c_r u_r = 0 and the rays of sigma0 are a basis, so the rows of sigma0
are implied by the others.  Every proof, (feasible, den, integer proof),
goes through one integer re-verification in all n coordinates (`_verified`);
a Farkas vector from the LP is lifted with zeros on sigma0.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from .fan import Fan, PropertyFailure, Wall, cone_bases, derived, walls
from .intersection import CurveClass, all_relations, anticanonical_degree, wall_relation
from .lattice import phase_one, primitive_vector, vdot


class NotExtremal(PropertyFailure):
    """The wall's class is not an edge of the Mori cone."""


class ProjectivityVerdict(
    namedtuple("ProjectivityVerdict", "projective ample_witness degeneracy_certificate", defaults=(None, None))
):
    """Either an ample rational divisor or a degeneracy certificate.

    Exactly one of `ample_witness` (a rational divisor vector with
    <d, class(w)> >= 1 on every wall) and `degeneracy_certificate` (a mapping
    wall -> nonnegative rational, not all zero, whose weighted class sum is
    zero) is present; both hold `Fraction`s.
    """

    __slots__ = ()

    def to_dict(self, f: Fan) -> dict:
        if self.projective:
            return {
                "projective": True,
                "witness": [str(a) for a in self.ample_witness],
            }
        order = {w: i for i, w in enumerate(walls(f))}
        cert = sorted((order[w], y) for w, y in self.degeneracy_certificate.items())
        return {
            "projective": False,
            "certificate": [{"wall": i, "y": str(y)} for i, y in cert],
        }


class Fibration(namedtuple("Fibration", "base_dim")):
    __slots__ = ()


class Birational(namedtuple("Birational", "exceptional_dim image_dim fiber_dim divisorial")):
    __slots__ = ()


class ContractionInfo(namedtuple("ContractionInfo", "alpha beta kind mori_extremal")):
    """Numerical type of the extremal contraction of a wall class; `kind` is
    a Fibration or a Birational."""

    __slots__ = ()


def _combination(coeffs, vectors):
    """sum_j coeffs[j] * vectors[j] over the integers; `vectors` is non-empty."""
    acc = [0] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        if c:
            acc = [a + c * b for a, b in zip(acc, vec)]
    return acc


def mori_generators(f: Fan):
    """Deduplicated wall classes, each with the walls realizing it."""
    return derived(f, _generators_raw)


def _generators_raw(f: Fan):
    grouped: dict[CurveClass, list[Wall]] = {}
    for rel in all_relations(f):
        grouped.setdefault(rel.coeffs, []).append(rel.wall)
    return tuple((vec, tuple(ws)) for vec, ws in sorted(grouped.items()))


def is_projective(f: Fan) -> ProjectivityVerdict:
    """Decide projectivity by exact LP; the verdict carries its own proof."""
    return derived(f, _projectivity_raw)


def _projectivity_raw(f: Fan) -> ProjectivityVerdict:
    """Uncached projectivity decision of `is_projective`."""
    gens = mori_generators(f)
    classes = [vec for vec, _ in gens]
    reps = [ws[0] for _, ws in gens]
    k = f.n_rays
    m = len(classes)
    rows = []
    for i, vec in enumerate(classes):
        row = list(vec) + [-a for a in vec] + [-(int(j == i)) for j in range(m)]
        rows.append(row)
    feasible, den, v = phase_one(rows, [1] * m)
    if feasible:
        # den * witness, and <witness, class> >= 1 iff <den * witness, class> >= den
        scaled = [v[j] - v[k + j] for j in range(k)]
        if any(vdot(scaled, vec) < den for vec in classes):
            raise AssertionError("ample witness failed re-verification")
        return ProjectivityVerdict(True, ample_witness=tuple(Fraction(a, den) for a in scaled))
    if any(c < 0 for c in v) or not any(c > 0 for c in v):
        raise AssertionError("certificate signs are wrong")
    # normalize the certificate to primitive integers
    g = gcd(*v)
    ints = [c // g for c in v]
    if any(_combination(ints, classes)):
        raise AssertionError("degeneracy certificate failed re-verification")
    cert = {reps[i]: Fraction(c) for i, c in enumerate(ints) if c}
    return ProjectivityVerdict(False, degeneracy_certificate=cert)


def is_extremal(f: Fan, w: Wall) -> bool:
    """Whether the wall's class spans an edge of the cone of wall classes.

    Classes proportional (by a positive rational) to the tested one are set
    aside; the test asks for a nonnegative combination of the rest.  The
    cheapest exact proof that exists decides: a sign proof, a two-sum proof,
    or else the LP on the rows off one maximal cone (see `_extremal_raw`).
    The combination, or the Farkas vector showing there is none, is
    re-verified exactly before the verdict is returned.
    """
    return derived(f, _extremal_raw, wall_relation(f, w).coeffs)


def _extremal_raw(f: Fan, target) -> bool:
    """Uncached decision of `is_extremal`: the first of `_sign_proof`,
    `_two_sum_proof` and `_lp_proof` that gives a proof, checked by
    `_verified`."""
    direction = primitive_vector(target)
    others = [
        vec for vec, _ in mori_generators(f) if primitive_vector(vec) != direction
    ]
    if not others:
        return True
    proof = _sign_proof(target, others) or _two_sum_proof(target, others) or _lp_proof(f, target, others)
    return _verified(target, others, *proof)


def _sign_proof(target, others):
    """(False, 1, +-e_i) if target[i] != 0 and no other class has its sign at
    ray i: then +-e_i is positive on the target and nonpositive on the rest."""
    for i, t in enumerate(target):
        if t and all(t * vec[i] <= 0 for vec in others):
            farkas = [0] * len(target)
            farkas[i] = 1 if t > 0 else -1
            return False, 1, farkas
    return None


def _two_sum_proof(target, others):
    """(True, 1, x) if target - a is another class b, x the combination a + b."""
    index = {vec: j for j, vec in enumerate(others)}
    for j, a in enumerate(others):
        k = index.get(tuple(t - v for t, v in zip(target, a)))
        if k is not None:
            combo = [0] * len(others)
            combo[j] = combo[k] = 1
            return True, 1, combo
    return None


def _rho_rows(f: Fan):
    """The rays off one maximal cone sigma0 of non-zero determinant.

    Every class c satisfies sum_r c_r u_r = 0 and the rays of sigma0 are a
    basis, so c's entries on sigma0 follow from the others: two classes, or
    combinations of them, that agree off sigma0 agree everywhere.  Some cone
    has det != 0 whenever there is a class, since each wall relation is
    solved in such a cone.
    """
    sigma0 = next(cone for cone, (det, _) in cone_bases(f).items() if det)
    return tuple(i for i in range(f.n_rays) if i not in sigma0)


def _lp_proof(f: Fan, target, others):
    """The phase-one LP for target = sum x_j others[j], x >= 0, on the
    rho = n - d rows of `_rho_rows`; an infeasible answer's Farkas vector is
    lifted to all n rays with zeros on sigma0."""
    keep = derived(f, _rho_rows)
    rows = [[vec[i] for vec in others] for i in keep]
    feasible, den, v = phase_one(rows, [target[i] for i in keep])
    if feasible:
        return True, den, v
    farkas = [0] * f.n_rays
    for i, a in zip(keep, v):
        farkas[i] = a
    return False, den, farkas


def _verified(target, others, feasible, den, proof) -> bool:
    """`not feasible` once the proof holds over the integers in all n
    coordinates: a nonnegative combination of `others` equal to den times
    the target, or a Farkas vector y with y . target > 0 >= y . c for every
    other class c (its scale, den included, does not matter)."""
    if feasible:
        if any(c < 0 for c in proof) or _combination(proof, others) != [den * t for t in target]:
            raise AssertionError("extremality combination failed re-verification")
    elif any(vdot(proof, vec) > 0 for vec in others) or vdot(proof, target) <= 0:
        raise AssertionError("extremality certificate failed re-verification")
    return not feasible


def classify_contraction(f: Fan, w: Wall) -> ContractionInfo:
    """Numerical contraction type of an extremal wall, after Reid.

    alpha and beta count the negative and nonpositive normal degrees; the
    contraction is a smooth fibration onto a base of dimension beta when
    alpha = 0, and otherwise birational with exceptional locus of dimension
    n - alpha mapping onto a (beta - alpha)-fold with weighted-projective
    fibers of dimension n - beta.
    """
    if not is_extremal(f, w):
        raise NotExtremal(f"wall {w} does not span an edge of the Mori cone")
    rel = wall_relation(f, w)
    degrees = rel.normal_degrees
    alpha = sum(1 for a in degrees if a < 0)
    beta = sum(1 for a in degrees if a <= 0)
    if alpha == 0:
        kind = Fibration(base_dim=beta)
    else:
        kind = Birational(
            exceptional_dim=f.dim - alpha,
            image_dim=beta - alpha,
            fiber_dim=f.dim - beta,
            divisorial=(alpha == 1),
        )
    return ContractionInfo(alpha, beta, kind, anticanonical_degree(rel) > 0)


def extremal_classes(f: Fan):
    """The subset of mori_generators whose class spans an edge of the cone."""
    out = []
    for vec, ws in mori_generators(f):
        if is_extremal(f, ws[0]):
            out.append((vec, ws))
    return tuple(out)


def mori_extremal_classes(f: Fan):
    """Extremal classes with positive anticanonical degree."""
    out = []
    for vec, ws in extremal_classes(f):
        if anticanonical_degree(wall_relation(f, ws[0])) > 0:
            out.append((vec, ws))
    return tuple(out)
