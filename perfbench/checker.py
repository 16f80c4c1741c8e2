"""Independent checks on toricfan's outputs.

This module does not import toricfan.  It takes fans as plain data
(`rays`, `cones` tuples) and results as plain data too (the JSON the command
line prints, or the same shape built from library objects), and checks them
against its own computations:

* wall classes come from its own Cramer-rule solve over its own integer
  determinant;
* projectivity and extremality verdicts come from its own exact simplex, and
  every answer of that simplex is turned into a certificate (an ample
  divisor, a vanishing nonnegative combination, a feasible point or a Farkas
  vector) that is verified exactly before it is trusted;
* ample witnesses and degeneracy certificates reported by the library are
  re-verified against the checker's own wall classes;
* invalid fans are proved invalid by a point covered by two cones, or by a
  point covered by none.

No check compares against saved output: an LP may return any valid witness.
Results of the expensive computations are kept per fan, so a fan seen again
in a later round costs only the comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import gcd


class CheckFailed(Exception):
    """An output of the program disagrees with the independent checks."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------- arithmetic


def det(rows) -> int:
    """Integer determinant by fraction-free elimination with row swaps."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def coordinates(basis, v):
    """Coordinates of v in the given basis of row vectors, by Cramer's rule
    (None when the basis is singular)."""
    d = det(basis)
    if d == 0:
        return None
    out = []
    for j in range(len(basis)):
        swapped = list(basis)
        swapped[j] = v
        out.append(Fraction(det(swapped), d))
    return out


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def primitive(v):
    g = 0
    for a in v:
        g = gcd(g, abs(a))
    return tuple(a // g for a in v) if g else tuple(v)


def simplex(rows, rhs):
    """Decide {x >= 0 : rows x = rhs} exactly with a phase-one simplex.

    Returns ("x", x) with a feasible point or ("y", y) with a Farkas vector
    (y . column <= 0 for every column, y . rhs > 0).  Either answer is
    verified here before it is returned, so callers may rely on it.
    """
    m = len(rows)
    k = len(rows[0]) if m else 0
    sgn = [1 if b >= 0 else -1 for b in rhs]
    tab = [[Fraction(s * a) for a in row] + [Fraction(int(i == j)) for j in range(m)] + [Fraction(s * b)]
           for i, (row, b, s) in enumerate(zip(rows, rhs, sgn))]
    width = k + m
    basis = list(range(k, k + m))
    # reduced costs of "minimise the sum of the artificials"
    red = [-sum(tab[i][j] for i in range(m)) if j < k else Fraction(0) for j in range(width)]
    while True:
        enter = next((j for j in range(width) if red[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                key = (tab[i][-1] / a, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        require(best is not None, "checker simplex: unbounded phase one")
        r = best[1]
        pv = tab[r][enter]
        tab[r] = [a / pv for a in tab[r]]
        for i in range(m):
            f = tab[i][enter]
            if i != r and f:
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        f = red[enter]
        red = [a - f * b for a, b in zip(red, tab[r][:width])]
        basis[r] = enter
    residual = sum(tab[i][-1] for i in range(m) if basis[i] >= k)
    if residual == 0:
        x = [Fraction(0)] * k
        for i, var in enumerate(basis):
            if var < k:
                x[var] = tab[i][-1]
        require(all(v >= 0 for v in x), "checker simplex: negative point")
        for row, b in zip(rows, rhs):
            require(dot(row, x) == b, "checker simplex: point misses a row")
        return "x", x
    y = [sgn[i] * (1 - red[k + i]) for i in range(m)]
    for j in range(k):
        require(sum(y[i] * rows[i][j] for i in range(m)) <= 0, "checker simplex: Farkas column")
    require(dot(y, rhs) > 0, "checker simplex: Farkas value")
    return "y", y


# ---------------------------------------------------------------- fans


def canonical(rays, cones):
    """Fan data up to renumbering of the rays."""
    order = sorted(range(len(rays)), key=lambda i: tuple(rays[i]))
    pos = {old: new for new, old in enumerate(order)}
    return (
        tuple(tuple(rays[i]) for i in order),
        tuple(sorted(tuple(sorted(pos[i] for i in c)) for c in cones)),
    )


def star_subdivide(rays, cones, center):
    """The checker's own star subdivision at the cone `center`."""
    center = set(center)
    new = len(rays)
    e = tuple(sum(rays[i][k] for i in center) for k in range(len(rays[0])))
    out = [tuple(c) for c in cones if not center <= set(c)]
    for c in cones:
        if center <= set(c):
            out.extend(tuple(sorted(set(c) - {s} | {new})) for s in center)
    return tuple(tuple(r) for r in rays) + (e,), tuple(out)


def inside(rays, cone, p):
    """(covered, interior) for the point p and the cone spanned by `cone`."""
    coords = coordinates([rays[i] for i in cone], p)
    if coords is None:
        return False, False
    return all(c >= 0 for c in coords), all(c > 0 for c in coords)


def isomorphic(fan_a, fan_b) -> bool:
    """Whether a unimodular change of basis maps fan_a onto fan_b."""
    (rays_a, cones_a), (rays_b, cones_b) = fan_a, fan_b
    if len(rays_a) != len(rays_b) or len(cones_a) != len(cones_b):
        return False
    n = len(rays_a[0])
    base = [rays_a[i] for i in cones_a[0]]
    if abs(det(base)) != 1:
        return False
    target_rays = {tuple(r): i for i, r in enumerate(rays_b)}
    target_cones = {tuple(sorted(c)) for c in cones_b}
    # M is the matrix with base . M = images (row vectors), so column c of M
    # holds the coordinates of column c of the images in the basis `base`
    for cone in cones_b:
        for perm in permutations(cone):
            images = [rays_b[i] for i in perm]
            cols = []
            for c in range(n):
                coords = _solve_transposed(base, [img[c] for img in images])
                if coords is None or any(x.denominator != 1 for x in coords):
                    break
                cols.append([int(x) for x in coords])
            else:
                mapping = {}
                for i, r in enumerate(rays_a):
                    img = tuple(sum(r[k] * cols[c][k] for k in range(n)) for c in range(n))
                    if img not in target_rays:
                        break
                    mapping[i] = target_rays[img]
                else:
                    if all(tuple(sorted(mapping[i] for i in c)) in target_cones for c in cones_a):
                        return True
    return False


def _solve_transposed(base, values):
    """x with base[i] . x = values[i] for every i (Cramer's rule)."""
    n = len(base)
    cols = [[base[i][k] for i in range(n)] for k in range(n)]  # transpose
    return coordinates(cols, values)


class FanFacts:
    """Independent data of one smooth complete fan: its walls and classes."""

    def __init__(self, rays, cones):
        self.rays = tuple(tuple(r) for r in rays)
        self.cones = tuple(tuple(sorted(c)) for c in cones)
        self.dim = len(self.rays[0])
        self.rho = len(self.rays) - self.dim
        facets = {}
        for cone in self.cones:
            for drop in range(len(cone)):
                facets.setdefault(cone[:drop] + cone[drop + 1:], []).append(cone[drop])
        self.walls = {}
        for facet in sorted(facets):
            apexes = facets[facet]
            require(len(apexes) == 2, f"wall {facet} bounds {len(apexes)} cones")
            a1, a2 = sorted(apexes)
            coords = coordinates([self.rays[i] for i in facet] + [self.rays[a1]], self.rays[a2])
            require(coords is not None, f"wall {facet}: degenerate cone")
            require(coords[-1] == -1, f"wall {facet}: apexes on one side")
            cls = [0] * len(self.rays)
            cls[a1] = cls[a2] = 1
            for idx, c in zip(facet, coords[:-1]):
                require(c.denominator == 1, f"wall {facet}: non-integral relation")
                cls[idx] = int(-c)
            self.walls[facet] = ((a1, a2), tuple(cls))
        self.wall_order = list(self.walls)
        self.classes = sorted({cls for _, cls in self.walls.values()})
        self._projective = None
        self._extremal = {}

    def cls(self, wall_rays):
        wall_rays = tuple(sorted(wall_rays))
        require(wall_rays in self.walls, f"{wall_rays} is not a wall")
        return self.walls[wall_rays][1]

    @property
    def fano(self) -> bool:
        return all(sum(c) > 0 for c in self.classes)

    @property
    def projective(self) -> bool:
        """Decided by the Gordan system y >= 0, sum y = 1, sum y_i c_i = 0,
        whose Farkas vector is an ample divisor; both sides are verified."""
        if self._projective is None:
            k = len(self.rays)
            rows = [[c[r] for c in self.classes] for r in range(k)]
            rows.append([1] * len(self.classes))
            kind, v = simplex(rows, [0] * k + [1])
            if kind == "y":
                # z . c_i + w <= 0 with w > 0, so d = -z / w has d . c_i >= 1
                z, w = v[:k], v[k]
                self.verify_witness([-a / w for a in z])
            self._projective = kind == "y"
        return self._projective

    def extremal(self, target) -> bool:
        """Whether `target` is not a nonnegative combination of the classes
        not positively proportional to it (verified either way)."""
        target = tuple(target)
        if target not in self._extremal:
            direction = primitive(target)
            others = [c for c in self.classes if primitive(c) != direction]
            if not others:
                self._extremal[target] = True
            else:
                rows = [[c[r] for c in others] for r in range(len(self.rays))]
                kind, _ = simplex(rows, list(target))
                self._extremal[target] = kind == "y"
        return self._extremal[target]

    def verify_witness(self, witness):
        require(len(witness) == len(self.rays), "witness has the wrong length")
        for wall, (_, cls) in self.walls.items():
            require(dot(witness, cls) >= 1, f"ample witness is below 1 on wall {wall}")

    def verify_certificate(self, weights):
        """weights: wall rays -> y; nonnegative, nonzero, classes sum to 0."""
        require(weights, "empty degeneracy certificate")
        require(all(y >= 0 for y in weights.values()), "negative certificate weight")
        require(any(y > 0 for y in weights.values()), "zero certificate")
        total = [Fraction(0)] * len(self.rays)
        for wall, y in weights.items():
            for r, c in enumerate(self.cls(wall)):
                total[r] += y * c
        require(all(t == 0 for t in total), "degeneracy certificate does not sum to zero")


def prove_invalid(rays, cones, extra_points=()):
    """Find a point covered by two cones (inside one of them) or by none.

    Candidates are the interior points (ray sums) of the given cones and the
    extra points supplied by the caller.  Returns a description of the proof,
    or raises CheckFailed when no candidate proves anything.
    """
    dim = len(rays[0])
    candidates = [tuple(sum(rays[i][k] for i in c) for k in range(dim)) for c in cones]
    candidates += [tuple(p) for p in extra_points]
    for p in candidates:
        hits = []
        for c in cones:
            covered, interior = inside(rays, c, p)
            if covered:
                hits.append((c, interior))
        if not hits:
            return f"point {p} lies in no cone"
        if len(hits) > 1 and any(interior for _, interior in hits):
            return f"point {p} lies in {len(hits)} cones, inside one of them"
    raise CheckFailed("no point proves the fan invalid")


class Checker:
    """Keeps the independent facts of every fan it has seen, by canonical form."""

    def __init__(self):
        self._facts = {}
        self._invalid = {}

    def facts(self, rays, cones) -> FanFacts:
        key = canonical(rays, cones)
        if key not in self._facts:
            self._facts[key] = FanFacts(rays, cones)
        return self._facts[key]

    def invalid(self, rays, cones, extra_points=()):
        key = canonical(rays, cones)
        if key not in self._invalid:
            self._invalid[key] = prove_invalid(rays, cones, extra_points)
        return self._invalid[key]

    # -- check / mori payloads, shared by the in-process and CLI workloads

    def check_payload(self, rays, cones, payload, expect_projective=None, expect_rho=None):
        """The `check` report of a valid fan; the expectations are what its
        construction fixes (None: not fixed)."""
        facts = self.facts(rays, cones)
        require(payload["smooth"] and payload["complete"] and payload["proper"],
                f"valid fan reported invalid: {payload.get('failures')}")
        require(payload["rho"] == facts.rho, "wrong Picard number")
        require(expect_rho in (None, facts.rho), f"Picard number {facts.rho}, but the construction gives {expect_rho}")
        require(payload["fano"] == facts.fano, "wrong Fano verdict")
        projective = payload["projective"]
        if projective:
            facts.verify_witness([Fraction(a) for a in payload["witness"]])
        else:
            weights = {}
            for item in payload["certificate"]:
                weights[facts.wall_order[item["wall"]]] = Fraction(item["y"])
            facts.verify_certificate(weights)
        if expect_projective is not None:
            require(projective == expect_projective,
                    f"projectivity {projective}, but the construction gives {expect_projective}")

    def mori_payload(self, rays, cones, payload):
        """The `mori` report: every relation, class, extremality verdict and
        contraction type."""
        facts = self.facts(rays, cones)
        reported = payload["walls"]
        require(len(reported) == len(facts.walls), "wrong number of walls")
        for item in reported:
            wall = tuple(item["rays"])
            require(wall in facts.walls, f"{wall} is not a wall")
            apexes, cls = facts.walls[wall]
            require(tuple(item["apexes"]) == apexes, f"wrong apexes on wall {wall}")
            require(tuple(item["coeffs"]) == cls, f"wrong relation on wall {wall}")
        classes = payload["classes"]
        require(sorted(tuple(c["vec"]) for c in classes) == facts.classes, "wrong set of wall classes")
        for item in classes:
            vec = tuple(item["vec"])
            for i in item["walls"]:
                require(tuple(reported[i]["coeffs"]) == vec, "class lists a wall of another class")
            require(item["extremal"] == facts.extremal(vec), f"wrong extremality of {vec}")
            if item["extremal"]:
                self._check_contraction(facts, tuple(reported[item["walls"][0]]["rays"]), item["contraction"])
            else:
                require("contraction" not in item, "contraction of a non-extremal class")
        require(payload["projective"] == facts.projective, "wrong projectivity verdict")

    @staticmethod
    def _check_contraction(facts, wall, info):
        degrees = [facts.cls(wall)[i] for i in wall]
        alpha = sum(1 for a in degrees if a < 0)
        beta = sum(1 for a in degrees if a <= 0)
        require(info["alpha"] == alpha and info["beta"] == beta, f"wrong alpha/beta on {wall}")
        require(info["mori_extremal"] == (sum(facts.cls(wall)) > 0), f"wrong -K sign on {wall}")
        kind = info["kind"]
        if alpha == 0:
            require(kind == {"type": "fibration", "base_dim": beta}, f"wrong fibration on {wall}")
        else:
            require(kind == {
                "type": "birational",
                "exceptional_dim": facts.dim - alpha,
                "image_dim": beta - alpha,
                "fiber_dim": facts.dim - beta,
                "divisorial": alpha == 1,
            }, f"wrong birational contraction on {wall}")

    # -- pair analysis

    def analysis(self, rays, cones, curve, report, named=None):
        """An `analyze` report for the pair (X, curve), X non-projective with
        a projective blow-up along the curve.

        Every Mori-extremal wall of the blow-up meeting E must be reported,
        classified as the sign pattern of its relation prescribes, with its
        auxiliary fans rebuilt by the checker's own star subdivision.
        """
        x = self.facts(rays, cones)
        curve = tuple(sorted(curve))
        x.cls(curve)
        require(report["x_projective"] is False and not x.projective, "X must be non-projective")
        xt_rays, xt_cones = star_subdivide(x.rays, x.cones, curve)
        xt = self.facts(xt_rays, xt_cones)
        e = len(x.rays)
        require(report["exceptional_ray"] == e, "wrong exceptional ray")
        require(report["xt_projective"] is True and xt.projective, "the blow-up must be projective")

        expected = {}
        for wall, (apexes, cls) in xt.walls.items():
            if (e in wall or e in apexes) and xt.extremal(cls):
                expected[wall] = (apexes, cls)
        seen = set()
        for item in report["unclassified"]:
            wall = tuple(item["rays"])
            require(wall in expected and sum(expected[wall][1]) <= 0, f"bad unclassified wall {wall}")
            seen.add(wall)
        for finding in report["findings"]:
            wall = tuple(finding["witness_wall"]["rays"])
            require(wall in expected and wall not in seen, f"bad or repeated witness wall {wall}")
            apexes, cls = expected[wall]
            require(tuple(finding["witness_wall"]["apexes"]) == apexes, "wrong witness apexes")
            require(sum(cls) > 0, f"witness wall {wall} has -K.C <= 0")
            seen.add(wall)
            self._check_finding(x, xt, curve, e, wall, apexes, cls, finding)
        require(seen == set(expected), "some Mori-extremal wall meeting E is missing")
        if named is not None:
            matching = [f for f in report["findings"] if f["kind"] == named["kind"]]
            require(matching, f"expected a {named['kind']} finding")
            for finding in matching:
                for key, fan in named.get("equal", {}).items():
                    got = finding["constructed"][key]
                    require(canonical(got["rays"], got["max_cones"]) == canonical(*fan), f"{key} is not the expected fan")
                for key, fan in named.get("isomorphic", {}).items():
                    got = finding["constructed"][key]
                    require(isomorphic((got["rays"], got["max_cones"]), fan), f"{key} is not isomorphic to the expected fan")

    def _check_finding(self, x, xt, curve, e, wall, apexes, cls, finding):
        built = finding["constructed"]
        y = self._fan(built["Y"])
        require(y.rho == xt.rho - 1, "Y must have Picard number rho(X~) - 1")
        require(y.projective, "Y must be projective")
        if e in wall:
            require(finding["kind"] == "ForbiddenFlip", f"wall {wall} inside E must be a flip")
            require(cls[e] == -1 and finding["e_dot_omega"] == -1, "flip wall must meet E with -1")
            require(all(x.cls(curve)[i] == -1 for i in curve), "flip needs normal bundle O(-1)^(n-1)")
            center = tuple(built["Z"])
        else:
            require(finding["e_dot_omega"] == 1 and cls[e] == 1, "transverse wall must meet E with +1")
            negative = [i for i in wall if cls[i] < 0]
            require(len(negative) == 1 and cls[negative[0]] == -1, f"wrong degrees on {wall}")
            r = negative[0]
            e_prime = apexes[0] if apexes[1] == e else apexes[1]
            center = tuple(sorted(i - (i > r) for i in (e, e_prime)))
            if r in curve:
                require(finding["kind"] == "ElementaryTransformation", f"wall {wall} must be elementary")
                require(tuple(built["center"]) == center, "wrong transformation center")
            else:
                require(finding["kind"] == "TrivialReduction", f"wall {wall} must be a trivial reduction")
                require(r in x.walls[curve][0], f"the contracted ray {r} is not an apex of the curve")
                xp = self._fan(built["X_prime"])
                require(xp.rho == x.rho - 1, "X' must have Picard number rho(X) - 1")
                require(not xp.projective, "X' must be non-projective")
                back = star_subdivide(xp.rays, xp.cones, built["p"])
                require(canonical(*back) == canonical(x.rays, x.cones), "blowing up p on X' does not give X")
                reduced = [i - (i > r) for i in curve]
                down = star_subdivide(xp.rays, xp.cones, reduced)
                require(canonical(*down) == canonical(y.rays, y.cones), "blowing up the reduced curve does not give Y")
        back = star_subdivide(y.rays, y.cones, center)
        require(canonical(*back) == canonical(xt.rays, xt.cones), "re-blowing up Y does not give X~")

    def _fan(self, data) -> FanFacts:
        return self.facts(data["rays"], data["max_cones"])
