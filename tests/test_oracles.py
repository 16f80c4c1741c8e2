"""Differential tests for the exact deciders.

The production feasibility kernel (phase-one simplex) is cross-checked
against Fourier-Motzkin elimination on random systems, the pairwise
fan-property test is cross-checked against a brute-force extreme-ray
enumeration in dimension three, and the local fan-property criterion of
`validate` is cross-checked against the all-pairs face test on a seeded
corpus of complete fans and their mutants.  On the same corpus and the
Ewald tower, the cone-basis table behind the wall relations, the facet
normals and the generic-point test is cross-checked against the Bareiss
determinant and rational Gauss-Jordan elimination, and the
integer-tableau simplex against the rational one on every projectivity,
extremality and pairwise-fallback linear program the library poses.
"""

import itertools
import math
import random

from fm_oracle import feasible_geq_one
from fraction_oracle import determinant, rational_inverse, solve_columns
from fraction_oracle import phase_one as oracle_phase_one
from toricfan.birational import star_subdivision
from toricfan.ewald import ewald_blow_down, suspend
from toricfan.fan import (
    Fan,
    MalformedInput,
    NotAWall,
    _facet_map,
    _facet_normals,
    _locate,
    _pair_is_face,
    cone_bases,
    derived,
    validate,
    walls,
)
from toricfan.gallery import get_fan
from toricfan.intersection import _solve_relation
from toricfan.lattice import phase_one, primitive_vector, vdot, vscale, vsum


def _lp_feasible_geq_one(matrix):
    """The production encoding: A(u - w) - s = 1 with u, w, s >= 0."""
    m = len(matrix)
    rows = []
    for i, vec in enumerate(matrix):
        rows.append(list(vec) + [-a for a in vec] + [-(int(j == i)) for j in range(m)])
    feasible, _, _ = phase_one(rows, [1] * m)
    return feasible


def test_lp_agrees_with_elimination_on_random_systems():
    rng = random.Random(4242)
    for _ in range(300):
        m = rng.randint(1, 6)
        k = rng.randint(1, 4)
        matrix = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(m)]
        assert _lp_feasible_geq_one(matrix) == feasible_geq_one(matrix), matrix


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _oracle_basis(mat):
    """(det, adjugate columns) of a cone from the Bareiss determinant and the
    rational inverse: the oracle for an entry of `cone_bases`."""
    det = determinant(mat)
    inv = rational_inverse(mat)
    if inv is None:
        return det, None
    return det, tuple(tuple(int(det * a) for a in col) for col in zip(*inv))


def _oracle_normals(rays, cone):
    """`_facet_normals` of the cone, fed the oracle's (det, cols)."""
    return _facet_normals(*_oracle_basis([rays[i] for i in cone]))


def _pair_is_face_bruteforce(rays, sa, sb):
    """Decide the common-face property by enumerating extreme rays of
    {lambda >= 0 : lambda in cone(sa)-coordinates maps into cone(sb)}."""
    nb = _oracle_normals(rays, sb)
    # constraints on lambda: identity (lambda >= 0) and B (sb-coordinates >= 0)
    B = [[vdot(rays[sa[i]], nb[j]) for i in range(3)] for j in range(3)]
    constraints = [(1, 0, 0), (0, 1, 0), (0, 0, 1)] + [tuple(row) for row in B]
    extreme = []
    for r1, r2 in itertools.combinations(constraints, 2):
        d = _cross(r1, r2)
        if d == (0, 0, 0):
            continue
        for cand in (d, tuple(-x for x in d)):
            if all(vdot(c, cand) >= 0 for c in constraints):
                extreme.append(cand)
    common = set(sa) & set(sb)
    for lam in extreme:
        for pos, idx in enumerate(sa):
            if idx not in common and lam[pos] > 0:
                return False
    return True


def test_pair_face_check_agrees_with_enumeration():
    rng = random.Random(515)
    tried = 0
    disagreements_checked = 0
    while tried < 250:
        rays = tuple(
            tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(6)
        )
        if any(not any(r) for r in rays) or len(set(rays)) != 6:
            continue
        sa, sb = (0, 1, 2), (3, 4, 5)
        da, db = determinant([rays[i] for i in sa]), determinant([rays[i] for i in sb])
        if da == 0 or db == 0:
            continue
        try:
            fan_rays = Fan(3, rays, (sa,)).rays  # primitivity canonicalization
        except Exception:
            continue
        if fan_rays != rays:
            continue
        tried += 1
        na = _oracle_normals(rays, sa)
        nb = _oracle_normals(rays, sb)
        fast = _pair_is_face(rays, sa, sb, na, nb)
        brute = _pair_is_face_bruteforce(rays, sa, sb)
        assert fast == brute, (rays, fast, brute)
        disagreements_checked += 1
    assert disagreements_checked == 250


def test_overlapping_pair_needs_lp_fallback(monkeypatch):
    # both one-sided certificates fail here, so the exact LP decides
    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (5, 2, -1), (1, -1, 2))
    sa, sb = (0, 1, 2), (0, 3, 4)
    na = _oracle_normals(rays, sa)
    nb = _oracle_normals(rays, sb)
    calls = []
    import toricfan.fan as fan_mod

    original = fan_mod.phase_one

    def counting(rows, rhs):
        calls.append(1)
        return original(rows, rhs)

    monkeypatch.setattr(fan_mod, "phase_one", counting)
    assert not fan_mod._pair_is_face(rays, sa, sb, na, nb)
    assert calls, "expected the LP fallback to run"


def test_touching_pair_through_lp_fallback():
    # proper pair (meets exactly in the shared ray) rejected by both
    # cheap certificates on at least one side
    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (5, 2, -1), (1, -1, -2))
    sa, sb = (0, 1, 2), (0, 3, 4)
    na = _oracle_normals(rays, sa)
    nb = _oracle_normals(rays, sb)
    assert _pair_is_face(rays, sa, sb, na, nb)
    assert _pair_is_face_bruteforce(rays, sa, sb)


def _random_complete_surface_fan(rng):
    """Complete 2D fan: axis rays plus random ones, in exact angular order."""
    from functools import cmp_to_key

    from toricfan.lattice import primitive_vector

    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    for _ in range(rng.randint(0, 4)):
        v = (rng.randint(-5, 5), rng.randint(-5, 5))
        if any(v):
            rays.add(primitive_vector(v))

    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def cmp(u, v):
        if half(u) != half(v):
            return half(u) - half(v)
        cross = u[0] * v[1] - u[1] * v[0]
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    ordered = sorted(rays, key=cmp_to_key(cmp))
    cones = tuple((i, (i + 1) % len(ordered)) for i in range(len(ordered)))
    return Fan(2, tuple(ordered), cones)


def test_random_surface_fans_validate():
    rng = random.Random(77)
    for _ in range(40):
        f = _random_complete_surface_fan(rng)
        report = validate(f)
        assert report.complete and report.proper, report.failures
        # corrupt one cone: link a ray to a non-neighbor
        if f.n_rays >= 5:
            cones = list(f.max_cones)
            a, b = cones[0]
            c = (a, (b + 2) % f.n_rays)
            if len(set(c)) == 2 and tuple(sorted(c)) not in cones:
                cones[0] = c
                broken = Fan(2, f.rays, tuple(cones))
                assert not validate(broken).valid


def _all_pairs_report(f):
    """The validation report as decided by testing every pair of cones with
    `_pair_is_face`: the oracle for the local fan-property criterion."""
    rays, cones = f.rays, f.max_cones
    dets = {c: determinant([rays[i] for i in c]) for c in cones}
    failures = [f"cone {c} has determinant {d}" for c, d in dets.items() if abs(d) != 1]
    smooth = not failures
    complete = bool(cones)
    if not cones:
        failures.append("fan has no maximal cones")
    for facet, adjacent in _facet_map(f.dim, cones).items():
        if len(adjacent) != 2:
            complete = False
            failures.append(f"wall {facet} bounds {len(adjacent)} maximal cones")
    used = set(itertools.chain.from_iterable(cones))
    unused = [i for i in range(len(rays)) if i not in used]
    failures += [f"ray {i} is not a face of any maximal cone" for i in unused]
    live = [c for c in cones if dets[c] != 0]
    normals = {c: _oracle_normals(rays, c) for c in live}
    bad = [
        (sa, sb)
        for sa, sb in itertools.combinations(live, 2)
        if not _pair_is_face(rays, sa, sb, normals[sa], normals[sb])
    ]
    failures += [f"cones {sa} and {sb} do not meet in a common face" for sa, sb in bad]
    proper = not unused and len(live) == len(cones) and not bad
    return smooth, complete, proper, tuple(failures)


def _winding_multifan(rng, dim):
    """A cycle of 2-d cones turning twice around the origin, joined with the
    two directions of each further coordinate up to `dim`: every wall lies in
    exactly two cones, with opposite orientations, yet every generic point
    lies in two cones."""
    while True:
        n = rng.randint(5, 7)
        angles = [0.0] + sorted(rng.uniform(0, 4 * math.pi) for _ in range(n - 1))
        gaps = [b - a for a, b in zip(angles, angles[1:] + [4 * math.pi])]
        rays = [primitive_vector((round(9 * math.cos(t)), round(9 * math.sin(t)))) for t in angles]
        turns = [rays[i][0] * rays[(i + 1) % n][1] - rays[i][1] * rays[(i + 1) % n][0] for i in range(n)]
        if len(set(rays)) == n and max(gaps) < 3 and all(t > 0 for t in turns):
            break
    cones = [(i, (i + 1) % n) for i in range(n)]
    for d in range(2, dim):
        up, down = len(rays), len(rays) + 1
        rays = [r + (0,) for r in rays] + [(0,) * d + (1,), (0,) * d + (-1,)]
        cones = [c + (up,) for c in cones] + [c + (down,) for c in cones]
    return Fan(dim, tuple(rays), tuple(cones))


def _differential_corpus(seed=2024, size=40):
    """Seeded fans in dims 2-5 (star chains and Ewald lifts of gallery fans),
    each followed by two mutants: a negated ray and a perturbed coordinate;
    then winding multi-fans of degree at least two in dims 2-4."""
    rng = random.Random(seed)
    bases = [
        get_fan("pn", 2).fan,
        get_fan("hirzebruch", 2).fan,
        get_fan("pn", 3).fan,
        get_fan("oda3").fan,
        get_fan("xab", 1, 2).fan,
        get_fan("pn", 4).fan,
    ]
    out = []
    for _ in range(size):
        f = rng.choice(bases)
        for _ in range(rng.randint(0, 2)):
            cone = rng.choice(f.max_cones)
            f = star_subdivision(f, tuple(sorted(rng.sample(cone, rng.randint(2, f.dim))))).result
        if f.dim < 5 and rng.random() < 0.5:
            r = rng.randrange(f.n_rays)
            f = ewald_blow_down(suspend(f, f.rays[r]), r)
        out.append(f)
        r = rng.randrange(f.n_rays)
        negated = tuple(-a for a in f.rays[r])
        r2, k = rng.randrange(f.n_rays), rng.randrange(f.dim)
        shifted = tuple(a + (rng.choice((-1, 1)) if i == k else 0) for i, a in enumerate(f.rays[r2]))
        for i, ray in ((r, negated), (r2, shifted)):
            try:
                out.append(Fan(f.dim, f.rays[:i] + (ray,) + f.rays[i + 1 :], f.max_cones))
            except MalformedInput:
                pass  # zero or duplicate ray
    out.extend(_winding_multifan(rng, dim) for dim in (2, 2, 3, 3, 4))
    return out


def test_local_fan_property_agrees_with_all_pairs_oracle():
    checked = improper = 0
    dims = set()
    for f in _differential_corpus():
        if any(determinant([f.rays[i] for i in c]) == 0 for c in f.max_cones):
            continue
        expected = _all_pairs_report(f)
        if not expected[1]:
            continue
        report = validate(f)
        assert (report.smooth, report.complete, report.proper, report.failures) == expected, f.to_json()
        checked += 1
        improper += not expected[2]
        dims.add(f.dim)
    assert checked >= 90
    assert improper >= 30
    assert dims == {2, 3, 4, 5}


def _tower_levels():
    return [get_fan("ewald-tower", k).fan for k in range(5)]  # dims 3-7


def _oracle_relation(f, w):
    """The wall relation by rational elimination, or the NotAWall message."""
    a1, a2 = w.apexes
    coeffs = solve_columns([f.rays[i] for i in w.rays] + [f.rays[a1]], f.rays[a2])
    if coeffs is None:
        return f"wall {w} spans a degenerate configuration"
    *ray_coeffs, apex_coeff = coeffs
    if apex_coeff != -1:
        return f"apexes of {w} do not lie on opposite sides; fan is not smooth/proper"
    if any(c.denominator != 1 for c in ray_coeffs):
        return f"non-integral relation across {w}; fan is not smooth"
    full = [0] * f.n_rays
    full[a1] = full[a2] = 1
    for idx, c in zip(w.rays, ray_coeffs):
        full[idx] = int(-c)
    return tuple(full)


def test_wall_relations_agree_with_rational_elimination():
    outcomes = {}
    dims = set()
    for f in _differential_corpus() + _tower_levels():
        if not all(len(adjacent) == 2 for adjacent in _facet_map(f.dim, f.max_cones).values()):
            continue
        for w in walls(f):
            try:
                got = _solve_relation(f, w).coeffs
            except NotAWall as exc:
                got = str(exc)
            near = [f.rays[i] for i in w.rays + (w.apexes[0],)]
            if determinant(near) == 0:
                assert got == f"wall {w} spans a degenerate configuration"
                kind = "degenerate"
            else:
                assert got == _oracle_relation(f, w), f.to_json()
                kind = "relation" if isinstance(got, tuple) else got.split()[0]
            outcomes[kind] = outcomes.get(kind, 0) + 1
            dims.add(f.dim)
    assert dims == {2, 3, 4, 5, 6, 7}
    assert outcomes["relation"] >= 2000
    assert outcomes["apexes"] >= 300 and outcomes["degenerate"] >= 50 and outcomes["non-integral"] >= 5


def test_facet_normals_are_scaled_dual_bases():
    checked = non_unimodular = 0
    for f in _differential_corpus() + _tower_levels():
        for cone, (det, cols) in derived(f, cone_bases).items():
            mat = [f.rays[i] for i in cone]
            assert det == determinant(mat)
            if det == 0:
                assert cols is None
                continue
            normals = _facet_normals(det, cols)
            assert [[vdot(h, u) for u in mat] for h in normals] == [
                [abs(det) * int(j == k) for j in range(f.dim)] for k in range(f.dim)
            ]
            checked += 1
            non_unimodular += abs(det) != 1
    assert checked >= 1400 and non_unimodular >= 80


def test_degree_two_multifan_is_complete_but_not_proper():
    # five rays about 144 degrees apart: the cycle of cones winds twice
    rays = ((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3))
    f = Fan(2, rays, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    assert all(len(adjacent) == 2 for adjacent in _facet_map(2, f.max_cones).values())
    report = validate(f)
    assert report.complete and not report.proper
    assert report.failures == _all_pairs_report(f)[3]


def test_generic_point_moves_off_cone_boundaries():
    # a twice-winding cycle whose first trial point u0 + 2 u1 = (1, 2) is a
    # ray: it lies on the boundary of two cones and must not decide the count
    rays = ((1, 0), (0, 1), (-3, -1), (2, -3), (1, 2), (-5, 1), (1, -5))
    f = Fan(2, rays, tuple((i, (i + 1) % 7) for i in range(7)))
    report = validate(f)
    assert report.complete and not report.proper
    assert report.failures == _all_pairs_report(f)[3]


def test_valid_tower_level_validates_without_lp(monkeypatch):
    import toricfan.fan as fan_mod

    level = get_fan("ewald-tower", 2).fan
    fan_mod._memo.cache_clear()
    f = Fan(level.dim, level.rays, level.max_cones)
    calls = []
    for name in ("phase_one", "_facet_normals", "adjugate"):
        original = getattr(fan_mod, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(fan_mod, name, counting)
    assert validate(f).valid
    assert calls == ["adjugate"] * len(f.max_cones)


def test_locate_numerators_agree_with_cramer_determinants():
    """The table's p . cols[k] equals the Cramer numerator det(cone rays,
    row k := p) of the Bareiss oracle, and `_locate` reads the right signs
    from it, for the points the generic-point test tries with m = 2..4."""
    outcomes = {0: 0, 1: 0, None: 0}
    for f in _differential_corpus() + _tower_levels():
        first = [f.rays[i] for i in f.max_cones[0]]
        points = [vsum(vscale(m**k, u) for k, u in enumerate(first)) for m in (2, 3, 4)]
        for cone, (det, cols) in derived(f, cone_bases).items():
            if det == 0:
                continue
            mat = [f.rays[i] for i in cone]
            for p in points:
                nums = [determinant(mat[:k] + [p] + mat[k + 1 :]) for k in range(f.dim)]
                assert [vdot(p, col) for col in cols] == nums, f.to_json()
                if any(s != 0 and (s > 0) != (det > 0) for s in nums):
                    expected = 0
                else:
                    expected = None if 0 in nums else 1
                assert _locate(det, cols, p) == expected
                outcomes[expected] += 1
    assert outcomes[0] >= 3000 and outcomes[1] >= 400 and outcomes[None] >= 1


def _differential_phase_one(module, monkeypatch):
    """Make `module.phase_one` run the integer kernel and the Fraction oracle
    on every system it is given and require exactly equal (feasible, x, y);
    returns the list of outcomes, one per system."""
    outcomes = []

    def both(rows, rhs):
        got = phase_one(rows, rhs)
        assert got == oracle_phase_one(rows, rhs), (rows, rhs)
        outcomes.append(got[0])
        return got

    monkeypatch.setattr(module, "phase_one", both)
    return outcomes


def test_mori_lps_agree_with_fraction_oracle(monkeypatch):
    import toricfan.mori as mori_mod

    outcomes = _differential_phase_one(mori_mod, monkeypatch)
    dims = set()
    verdicts = []
    for f in _differential_corpus() + _tower_levels():
        if not validate(f).valid:
            continue
        verdicts.append(mori_mod._projectivity_raw(f).projective)
        for vec, _ in mori_mod.mori_generators(f):
            mori_mod._extremal_raw(f, vec)
        dims.add(f.dim)
    assert dims == {2, 3, 4, 5, 6, 7}
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 10
    assert outcomes.count(True) >= 250 and outcomes.count(False) >= 150


def test_pair_fallback_lps_agree_with_fraction_oracle(monkeypatch):
    import toricfan.fan as fan_mod

    outcomes = _differential_phase_one(fan_mod, monkeypatch)
    for f in _differential_corpus():
        _all_pairs_report(f)
    assert outcomes.count(True) >= 600 and outcomes.count(False) >= 1200
