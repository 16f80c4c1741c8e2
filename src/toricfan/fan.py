"""Fan data model for smooth complete toric varieties.

A fan is stored as primitive ray generators plus maximal cones given as index
sets.  Validation certifies smoothness (unimodular maximal cones),
completeness (every wall bounds exactly two maximal cones) and the fan
property (cones meet in common faces); the three checks together certify
that the data describes a smooth complete toric variety.  For complete data
the fan property is decided locally, from the orientations of the two cones
on each wall and the number of cones containing one generic point; pairwise
cone intersections are examined only for incomplete data and to name the
offending pairs of a rejected fan.  Every wall question (smoothness,
completeness, orientations, generic points, facet normals, wall relations)
reads one derived entry, `_wall_pass`, computed once per fan data by one
walk over the cones' dual graph: each maximal cone's determinant and
integer adjugate (`cone_bases`), the walls, the facets not in two cones,
and the side test.  One full adjugate seeds each connected component; every
other cone follows from a neighbour by one exact, fraction-free exchange,
whose pivot's sign also says on which side of the shared facet its new apex
lies.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple
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


class ToricError(Exception):
    """Base of the library's errors; `exit_code` is the command line's exit
    status for one.  Its three kinds below are its only direct subclasses:
    2 malformed input, 1 a failed property, 3 a violated invariant.  An
    error of no kind is a bug, as is any other exception: 4."""

    exit_code = 4


class MalformedInput(ToricError, ValueError):
    """Structurally invalid fan data (bad indices, sizes or rays)."""

    exit_code = 2


class PropertyFailure(ToricError, ValueError):
    """Well-formed input lacking a property the operation needs."""

    exit_code = 1


class InvariantViolation(ToricError, RuntimeError):
    """A structural guarantee failed during analysis; bug or bad input."""

    exit_code = 3


def _exact_int(value, what: str) -> int:
    # bool is a subclass of int, and JSON true/false or 1.0 must not pass
    if type(value) is not int:
        raise MalformedInput(f"{what} {value!r} is not an integer")
    return value


class NotComplete(PropertyFailure):
    """A wall is not shared by exactly two maximal cones."""


class NotAWall(PropertyFailure):
    """The given index set is not a wall of the fan."""


class Fan:
    """Immutable fan: ray generators plus maximal cones as sorted index sets.

    Rays are canonicalized to primitive vectors on construction; duplicate
    rays are rejected.  Equality ignores the ordering of the rays (and the
    induced relabeling of cones) but nothing else.
    """

    def __init__(self, dim: int, rays, max_cones):
        if _exact_int(dim, "dimension") < 1:
            raise MalformedInput(f"dimension must be positive, got {dim}")
        canonical = []
        for r in rays:
            r = tuple(_exact_int(a, "ray coordinate") for a in r)
            if len(r) != dim:
                raise MalformedInput(f"ray {r} does not have dimension {dim}")
            try:
                canonical.append(primitive_vector(r))
            except ZeroVector:
                raise MalformedInput("the zero vector is not a valid ray") from None
        if len(set(canonical)) != len(canonical):
            raise MalformedInput("duplicate rays (after canonicalization)")
        cones = set()
        for cone in max_cones:
            cone = tuple(sorted(_exact_int(i, "ray index") for i in cone))
            if len(cone) != dim or len(set(cone)) != dim:
                raise MalformedInput(f"maximal cone {cone} does not have {dim} distinct rays")
            if cone and (cone[0] < 0 or cone[-1] >= len(canonical)):
                raise MalformedInput(f"cone {cone} references a ray out of range")
            if cone in cones:
                raise MalformedInput(f"maximal cone {cone} is listed twice")
            cones.add(cone)
        # the fields are set once, here; __setattr__ refuses every later write
        self.__dict__.update(dim=dim, rays=tuple(canonical), max_cones=tuple(sorted(cones)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"Fan(dim={self.dim!r}, rays={self.rays!r}, max_cones={self.max_cones!r})"

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
        except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
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


class Wall(namedtuple("Wall", "rays apexes")):
    """Codimension-one cone shared by two maximal cones (an invariant curve).

    `rays` are the wall's own ray indices, `apexes` the two ray indices that
    complete it to its adjacent maximal cones; both are stored sorted.
    """

    __slots__ = ()

    def __new__(cls, rays, apexes):
        return tuple.__new__(cls, (tuple(sorted(rays)), tuple(sorted(apexes))))

    def to_dict(self) -> dict:
        return {"rays": list(self.rays), "apexes": list(self.apexes)}


class ValidationReport(namedtuple("ValidationReport", "smooth complete proper failures", defaults=((),))):
    """The three verdicts of `validate` (bools) and the failures they list."""

    __slots__ = ()

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
    (b) the two cones on every wall lie on opposite sides of it (read by
        `_wall_pass` off the sign of one Cramer numerator), and
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
    rays, cones = f.rays, f.max_cones
    bases, _, open_facets, opposite = derived(f, _wall_pass)
    failures = []
    smooth = True
    for cone in cones:
        d = bases[cone][0]
        if abs(d) != 1:
            smooth = False
            failures.append(f"cone {cone} has determinant {d}")

    complete = bool(cones) and not open_facets
    if not cones:
        failures.append("fan has no maximal cones")
    failures.extend(f"wall {facet} bounds {count} maximal cones" for facet, count in open_facets)

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
    if local and opposite and _covering_number(rays, cones, bases) == 1:
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
    det == 0.  The table is the first entry of `_wall_pass`."""
    return derived(f, _wall_pass)[0]


def _wall_pass(f: Fan):
    """(bases, walls, open_facets, opposite) of the fan data, from one walk
    over one facet map: `bases` is the `cone_bases` table, `walls` the sorted
    `Wall`s of the facets in exactly two cones, `open_facets` the
    (facet, count) of every other facet in facet-map order, and `opposite`
    whether the cones on each shared facet lie on opposite sides of it,
    which `_validate_raw` reads only on complete, non-degenerate data.

    The first unvisited cone (in sorted order) is a seed and gets one full
    `adjugate`; every unvisited cone sharing a facet with a visited cone of
    non-zero determinant D is derived from it by one fraction-free exchange:
    the apex u of the new cone replaces the ray in slot k, with
    nums[j] = u . cols[j].  The new determinant is nums[k] (cofactor
    expansion along row k); column k is kept, and every other column j
    becomes (nums[k] cols[j] - nums[j] cols[k]) / D, which satisfies the
    adjugate's defining equations for the new rows and is therefore the new
    adjugate, an integer matrix: the division is exact (Sylvester's
    identity, Bareiss 1968).  Moving u to its sorted slot pos is |pos - k|
    adjacent row swaps, each negating the determinant and every column.  A
    cone reached only through degenerate cones, or not at all, is a seed.

    The side test: u is (u . cols[k] / D) times the ray in slot k plus a
    combination of the facet's rays, so u lies across the facet iff
    u . cols[k] and D have opposite signs.  An exchange reads u . cols[k]
    as nums[k]; a facet to a cone already in the table costs that one dot
    product.  The first cone the walk scans on a facet decides it.  Those
    other facets matter only on a non-orientable complex: on an orientable
    one, cones of both orientations meet across some facet the walk crosses.
    """
    dim, rays = f.dim, f.rays
    facets = _facet_map(dim, f.max_cones)
    bases = {}
    scanned = set()
    opposite = True
    for seed in f.max_cones:
        if seed in bases:
            continue
        det, adj = adjugate([rays[i] for i in seed])
        bases[seed] = (det, None if adj is None else tuple(zip(*adj)))
        queue = [seed]
        for cone in queue:
            det, cols = bases[cone]
            if cols is None:
                continue
            scanned.add(cone)
            for k in range(dim):
                for other, apex in facets[cone[:k] + cone[k + 1 :]]:
                    if other in scanned:
                        continue
                    if other not in bases:
                        nums = [vdot(rays[apex], col) for col in cols]
                        bases[other] = _exchange(det, cols, k, nums, other.index(apex))
                        queue.append(other)
                        opposite = opposite and nums[k] * det < 0
                    elif opposite:
                        opposite = vdot(rays[apex], cols[k]) * det < 0
    found = sorted(Wall(facet, (a[0][1], a[1][1])) for facet, a in facets.items() if len(a) == 2)
    open_facets = tuple((facet, len(a)) for facet, a in facets.items() if len(a) != 2)
    return bases, tuple(found), open_facets, opposite


def _exchange(det, cols, k, nums, pos):
    """(det, cols) of the cone whose ray in slot k is replaced by a vector u
    with nums[j] = u . cols[j], moved to slot pos; see `_wall_pass`."""
    new_det = nums[k]
    if new_det == 0:
        return 0, None
    ck = cols[k]
    new = [
        ck if j == k else tuple((new_det * a - nj * b) // det for a, b in zip(col, ck))
        for j, (col, nj) in enumerate(zip(cols, nums))
    ]
    new.insert(pos, new.pop(k))
    if (pos - k) % 2:
        return -new_det, tuple(tuple(-a for a in col) for col in new)
    return new_det, tuple(new)


def _covering_number(rays, cones, bases):
    """Number of cones containing p = sum_k m^k u_k (u_k the rays of the
    first cone) in their interior, for the least m >= 2 that puts p on the
    boundary of no cone.  Such an m exists: each Cramer numerator below is a
    non-zero polynomial of degree < d in m, since the first cone spans the
    space, so at most len(cones) * d * (d - 1) values of m are bad.  A table
    that runs past that bound is wrong, and fails the invariant."""
    base = [rays[i] for i in cones[0]]
    d = len(base)
    tries = len(cones) * d * (d - 1) + 2
    for m in range(2, 2 + tries):
        p = vsum(vscale(m**k, u) for k, u in enumerate(base))
        count = 0
        for cone in cones:
            where = _locate(*bases[cone], p)
            if where is None:
                break
            count += where
        else:
            return count
    raise AssertionError("no generic point found: the cone-basis table has a zero Cramer numerator")


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
    _, out, open_facets, _ = derived(f, _wall_pass)
    if open_facets:
        facet, count = min(open_facets)
        raise NotComplete(f"wall {facet} bounds {count} maximal cones")
    return out


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
    det, cols = cone_bases(f)[f.max_cones[0]]
    if cols is None:
        return None
    adj = tuple(zip(*cols))
    g_ray_set = set(g.rays)
    g_cone_set = set(g.max_cones)
    g_bases = cone_bases(g)
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

