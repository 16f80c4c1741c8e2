"""Fan data model for smooth complete toric varieties.

A fan is stored as primitive ray generators plus maximal cones given as index
sets.  Validation certifies smoothness (unimodular maximal cones),
completeness (every wall bounds exactly two maximal cones) and the fan
property (cones meet in common faces); the three checks together certify
that the data describes a smooth complete toric variety.  For complete data
the fan property is decided locally, from the orientations of the two cones
on each wall and the number of cones containing one generic point; pairwise
cone intersections are examined only for incomplete data and to name the
offending pairs of a rejected fan.  Every cone-basis question (smoothness,
orientations, generic points, facet normals, wall relations) reads one
derived table, `cone_bases`: each maximal cone's determinant and integer
adjugate, computed once per fan data.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .lattice import (
    ZeroVector,
    adjugate,
    phase_one,
    primitive_vector,
    vdot,
    vscale,
    vsum,
)


class MalformedInput(ValueError):
    """Structurally invalid fan data (bad indices, sizes or rays)."""


def _exact_int(value, what: str) -> int:
    # bool is a subclass of int, and JSON true/false or 1.0 must not pass
    if type(value) is not int:
        raise MalformedInput(f"{what} {value!r} is not an integer")
    return value


class NotComplete(ValueError):
    """A wall is not shared by exactly two maximal cones."""


class NotAWall(ValueError):
    """The given index set is not a wall of the fan."""


@dataclass(frozen=True, eq=False)
class Fan:
    """Immutable fan: ray generators plus maximal cones as sorted index sets.

    Rays are canonicalized to primitive vectors on construction; duplicate
    rays are rejected.  Equality ignores the ordering of the rays (and the
    induced relabeling of cones) but nothing else.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if _exact_int(self.dim, "dimension") < 1:
            raise MalformedInput(f"dimension must be positive, got {self.dim}")
        rays = []
        for r in self.rays:
            r = tuple(_exact_int(a, "ray coordinate") for a in r)
            if len(r) != self.dim:
                raise MalformedInput(f"ray {r} does not have dimension {self.dim}")
            try:
                rays.append(primitive_vector(r))
            except ZeroVector:
                raise MalformedInput("the zero vector is not a valid ray") from None
        if len(set(rays)) != len(rays):
            raise MalformedInput("duplicate rays (after canonicalization)")
        cones = set()
        for cone in self.max_cones:
            cone = tuple(sorted(_exact_int(i, "ray index") for i in cone))
            if len(cone) != self.dim or len(set(cone)) != self.dim:
                raise MalformedInput(f"maximal cone {cone} does not have {self.dim} distinct rays")
            if cone and (cone[0] < 0 or cone[-1] >= len(rays)):
                raise MalformedInput(f"cone {cone} references a ray out of range")
            cones.add(cone)
        object.__setattr__(self, "rays", tuple(rays))
        object.__setattr__(self, "max_cones", tuple(sorted(cones)))

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    @cached_property
    def _derived(self) -> dict:
        return _memo(self.dim, self.rays, self.max_cones)

    def __eq__(self, other):
        if not isinstance(other, Fan):
            return NotImplemented
        return derived(self, _canonical_form) == derived(other, _canonical_form)

    def __hash__(self):
        return hash(derived(self, _canonical_form))

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "rays": [list(r) for r in self.rays],
            "max_cones": [list(c) for c in self.max_cones],
        }

    @classmethod
    def from_dict(cls, data) -> "Fan":
        try:
            dim = data["dim"]
            rays = data["rays"]
            cones = data["max_cones"]
        except (TypeError, KeyError) as exc:
            raise MalformedInput(f"fan file is missing field {exc}") from None
        if type(dim) is not int or not isinstance(rays, list) or not isinstance(cones, list):
            raise MalformedInput("fan file fields have the wrong types")
        try:
            return cls(dim, tuple(tuple(r) for r in rays), tuple(tuple(c) for c in cones))
        except (TypeError, ValueError) as exc:
            if isinstance(exc, MalformedInput):
                raise
            raise MalformedInput(str(exc)) from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Fan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MalformedInput(f"invalid JSON: {exc}") from None
        return cls.from_dict(data)


MEMO_SIZE = 256


@lru_cache(maxsize=MEMO_SIZE)
def _memo(dim, rays, cones) -> dict:
    """The derived data of one fan's (canonicalized) data.

    Keyed by the raw data, not by fan equality: walls and relations are
    indexed by ray, and equality ignores the ray order.  Fans built from
    equal data share one dict; at most MEMO_SIZE dicts are kept, and a fan
    keeps the one it bound after it is evicted.
    """
    return {}


def derived(f: Fan, compute, *args):
    """compute(f, *args), computed once per fan data and argument tuple."""
    memo = f._derived
    key = (compute, *args)
    if key not in memo:
        memo[key] = compute(f, *args)
    return memo[key]


def _canonical_form(f: Fan):
    order = sorted(range(f.n_rays), key=lambda i: f.rays[i])
    relabel = {old: new for new, old in enumerate(order)}
    new_rays = tuple(f.rays[i] for i in order)
    new_cones = tuple(sorted(tuple(sorted(relabel[i] for i in c)) for c in f.max_cones))
    return f.dim, new_rays, new_cones


@dataclass(frozen=True)
class Wall:
    """Codimension-one cone shared by two maximal cones (an invariant curve).

    `rays` are the wall's own ray indices, `apexes` the two ray indices that
    complete it to its adjacent maximal cones.
    """

    rays: tuple[int, ...]
    apexes: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(sorted(self.rays)))
        object.__setattr__(self, "apexes", tuple(sorted(self.apexes)))

    def to_dict(self) -> dict:
        return {"rays": list(self.rays), "apexes": list(self.apexes)}


@dataclass(frozen=True)
class ValidationReport:
    smooth: bool
    complete: bool
    proper: bool
    failures: tuple[str, ...] = field(default_factory=tuple)

    @property
    def valid(self) -> bool:
        return self.smooth and self.complete and self.proper


def validate(f: Fan) -> ValidationReport:
    """Check smoothness, completeness and the fan property, exactly."""
    return derived(f, _validate_raw)


def _validate_raw(f: Fan) -> ValidationReport:
    """Uncached validation of the fan data.

    The fan property of complete data whose cones all have non-zero
    determinant is decided locally: such data is a fan iff
    (a) every wall lies in exactly two cones (completeness),
    (b) the two cones on every wall lie on opposite sides of it, and
    (c) a generic point lies in exactly one cone.
    This is the degree-one case of the degree of a multi-fan (Hattori-Masuda,
    "Theory of multi-fans", Osaka J. Math. 40, 2003).

    Argument: by (a) the cones form a pseudomanifold K, mapped to the unit
    sphere so that each cone goes homeomorphically onto a spherical simplex.
    Orient each cone so that this map preserves orientation; by (b) these
    orientations agree across every wall, so every preimage of a generic
    point counts +1 and the number of preimages does not change along paths
    that avoid the images of the codimension-two faces, which do not
    disconnect the sphere.  Each connected component of K therefore covers
    the whole sphere and contributes at least 1, so a count of 1 leaves one
    component, of degree 1.  By induction on dimension the link of every
    face is then a complete fan, so the map is open and locally injective: a
    one-sheeted covering, hence injective, and cones meet exactly in their
    common faces.  Conversely every complete fan satisfies (a)-(c).

    The local verdict stands when it accepts.  The pairwise face test runs
    only on incomplete or degenerate data, where the argument does not
    apply, and after a local rejection, to name the pairs that overlap.
    """
    dim, rays, cones = f.dim, f.rays, f.max_cones
    bases = derived(f, cone_bases)
    failures = []
    smooth = True
    for cone in cones:
        d = bases[cone][0]
        if abs(d) != 1:
            smooth = False
            failures.append(f"cone {cone} has determinant {d}")

    complete = bool(cones)
    if not cones:
        failures.append("fan has no maximal cones")
    facets = _facet_map(dim, cones)
    for facet, adjacent in facets.items():
        if len(adjacent) != 2:
            complete = False
            failures.append(f"wall {facet} bounds {len(adjacent)} maximal cones")

    proper = True
    used = set(itertools.chain.from_iterable(cones))
    for i in range(len(rays)):
        if i not in used:
            proper = False
            failures.append(f"ray {i} is not a face of any maximal cone")
    degenerate = {c for c, (d, _) in bases.items() if d == 0}
    if degenerate:
        proper = False
    local = complete and not degenerate
    if local and _locally_proper(rays, cones, bases, facets):
        return ValidationReport(smooth, complete, proper, tuple(failures))
    live = [c for c in cones if c not in degenerate]
    normals = {c: _facet_normals(*bases[c]) for c in live}
    bad = [
        (sa, sb)
        for sa, sb in itertools.combinations(live, 2)
        if not _pair_is_face(rays, sa, sb, normals[sa], normals[sb])
    ]
    if local and not bad:
        raise AssertionError("local fan-property check rejected a fan whose cones pairwise meet in faces")
    if bad:
        proper = False
        failures.extend(f"cones {sa} and {sb} do not meet in a common face" for sa, sb in bad)
    return ValidationReport(smooth, complete, proper, tuple(failures))


def cone_bases(f: Fan) -> dict:
    """Each maximal cone's (det, cols): det is the determinant of its rays in
    sorted order and cols the columns of their adjugate, so a vector p has
    coordinates (p . cols[k]) / det in the cone's basis; cols is None when
    det == 0."""
    out = {}
    for cone in f.max_cones:
        det, adj = adjugate([f.rays[i] for i in cone])
        out[cone] = (det, None if adj is None else tuple(zip(*adj)))
    return out


def _locally_proper(rays, cones, bases, facets):
    """Conditions (b) and (c) of `_validate_raw` on complete, non-degenerate data."""
    for wall, ((c1, a1), (c2, a2)) in facets.items():
        if _side(wall, a1, bases[c1][0]) == _side(wall, a2, bases[c2][0]):
            return False
    return _covering_number(rays, cones, bases) == 1


def _side(wall, apex, det):
    """Sign of det(wall rays..., apex), as a bool, from the determinant `det`
    of the sorted cone: moving the apex last passes the wall rays above it."""
    flips = sum(1 for i in wall if i > apex)
    return (det > 0) == (flips % 2 == 0)


def _covering_number(rays, cones, bases):
    """Number of cones containing p = sum_k m^k u_k (u_k the rays of the
    first cone) in their interior, for the least m >= 2 that puts p on the
    boundary of no cone.  Such an m exists: each Cramer numerator below is a
    non-zero polynomial in m, since the first cone spans the space."""
    base = [rays[i] for i in cones[0]]
    m = 2
    while True:
        p = vsum(vscale(m**k, u) for k, u in enumerate(base))
        count = 0
        for cone in cones:
            where = _locate(*bases[cone], p)
            if where is None:
                break
            count += where
        else:
            return count
        m += 1


def _locate(det, cols, p):
    """1 if p is interior to the cone, 0 if outside it, None if on its
    boundary: the signs of p's Cramer coordinates (p . cols[k]) / det, where
    p . cols[k] = det(cone rays, row k := p)."""
    on_boundary = False
    for col in cols:
        s = vdot(p, col)
        if s == 0:
            on_boundary = True
        elif (s > 0) != (det > 0):
            return 0
    return None if on_boundary else 1


def _facet_normals(det, cols):
    """Integer functionals h_k with h_k(u_j) = |det| * delta_jk over the cone:
    the columns of the adjugate, scaled by the sign of det.  For a unimodular
    cone they are the dual basis."""
    sign = 1 if det > 0 else -1
    return [tuple(sign * a for a in col) for col in cols]


def _pair_is_face(rays, sa, sb, normals_a, normals_b):
    """Exact test that cone(sa) and cone(sb) intersect in cone(sa & sb)."""
    common = set(sa) & set(sb)
    # cheap certificate: a functional >= 0 on one cone, zero exactly on the
    # common face, and <= 0 on the other cone
    for cone, normals, other in ((sa, normals_a, sb), (sb, normals_b, sa)):
        psi = None
        for pos, idx in enumerate(cone):
            if idx not in common:
                h = normals[pos]
                psi = h if psi is None else tuple(x + y for x, y in zip(psi, h))
        if psi is None:
            return True  # identical index sets cannot occur for distinct cones
        if all(vdot(psi, rays[j]) <= 0 for j in other):
            return True
    # exact fallback: search for a point of cone(sa) inside cone(sb) that uses
    # a generator outside the common face
    n = len(sa)
    m_rows = []
    for j in range(n):
        # row j: coefficients of lambda in the j-th sb-coordinate of sum(lambda_i u_i)
        m_rows.append([vdot(rays[sa[i]], normals_b[j]) for i in range(n)])
    for i_out in range(n):
        if sa[i_out] in common:
            continue
        rows = []
        rhs = []
        for j in range(n):  # sb-coordinates >= 0, written with slacks
            rows.append([m_rows[j][i] for i in range(n)] + [-(int(k == j)) for k in range(n)])
            rhs.append(0)
        rows.append([int(i == i_out) for i in range(n)] + [0] * n)
        rhs.append(1)
        feasible, _, _ = phase_one(rows, rhs)
        if feasible:
            return False
    return True


def _facet_map(dim, cones):
    facets = {}
    for cone in cones:
        for drop in range(dim):
            facet = cone[:drop] + cone[drop + 1 :]
            facets.setdefault(facet, []).append((cone, cone[drop]))
    return facets


def walls(f: Fan) -> tuple[Wall, ...]:
    """All walls of a complete fan, each with its two apex rays."""
    return derived(f, _walls_raw)


def _walls_raw(f: Fan) -> tuple[Wall, ...]:
    out = []
    for facet, adjacent in sorted(_facet_map(f.dim, f.max_cones).items()):
        if len(adjacent) != 2:
            raise NotComplete(f"wall {facet} bounds {len(adjacent)} maximal cones")
        out.append(Wall(facet, (adjacent[0][1], adjacent[1][1])))
    return tuple(out)


def wall_lookup(f: Fan, ray_indices) -> Wall:
    """The wall of `f` with the given ray index set, or NotAWall.

    Indices outside [0, n_rays) are MalformedInput, not a missing wall."""
    key = tuple(sorted(ray_indices))
    if key and not (0 <= key[0] and key[-1] < f.n_rays):
        raise MalformedInput(f"ray indices {key} out of range for {f.n_rays} rays")
    for w in walls(f):
        if w.rays == key:
            return w
    raise NotAWall(f"{key} is not a wall of the fan")


def star(f: Fan, ray: int) -> tuple[tuple[int, ...], ...]:
    """Maximal cones containing the given ray."""
    if not 0 <= ray < f.n_rays:
        raise MalformedInput(f"ray index {ray} out of range")
    return tuple(c for c in f.max_cones if ray in c)


def picard_number(f: Fan) -> int:
    """Rank of the divisor class group: #rays - dim for smooth complete fans."""
    return f.n_rays - f.dim


def lattice_isomorphism(f: Fan, g: Fan):
    """A unimodular matrix M with rays(f) . M = rays(g) as fans, or None.

    The matrix acts on row vectors; it identifies the two fans up to the
    choice of lattice basis and ray numbering.
    """
    if f.dim != g.dim or f.n_rays != g.n_rays or len(f.max_cones) != len(g.max_cones):
        return None
    if not f.max_cones:
        return None
    det, adj = adjugate([f.rays[i] for i in f.max_cones[0]])
    if adj is None:
        return None
    g_ray_set = set(g.rays)
    g_cone_set = set(g.max_cones)
    g_bases = derived(g, cone_bases)
    for target in g.max_cones:
        # det M = +-det(target) / det, so M is unimodular iff |det(target)| = |det|
        if abs(g_bases[target][0]) != abs(det):
            continue
        for perm in itertools.permutations(target):
            img = [g.rays[i] for i in perm]
            # solve base . M = img row-wise: det * M = adj . img
            M = [tuple(vdot(row, col) for col in zip(*img)) for row in adj]
            if any(a % det for row in M for a in row):
                continue
            M = [tuple(a // det for a in row) for row in M]
            mapped = {}
            ok = True
            for idx, r in enumerate(f.rays):
                image = tuple(sum(r[k] * M[k][c] for k in range(f.dim)) for c in range(f.dim))
                if image not in g_ray_set:
                    ok = False
                    break
                mapped[idx] = g.rays.index(image)
            if not ok or len(set(mapped.values())) != f.n_rays:
                continue
            if all(tuple(sorted(mapped[i] for i in c)) in g_cone_set for c in f.max_cones):
                return tuple(tuple(row) for row in M)
    return None

