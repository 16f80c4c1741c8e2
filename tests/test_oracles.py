"""Differential tests for the exact deciders.

The production feasibility kernel (phase-one simplex) is cross-checked
against Fourier-Motzkin elimination on random systems, the pairwise
fan-property test is cross-checked against a brute-force extreme-ray
enumeration in dimension three, and the local fan-property criterion of
`validate` is cross-checked against the all-pairs face test on a seeded
corpus of complete fans and their mutants, and on folded data that only its
side test rejects.  On the same corpus and the
Ewald tower, the cone-basis table behind the wall relations, the facet
normals and the generic-point test is cross-checked against the Bareiss
determinant and rational Gauss-Jordan elimination, and its dual-graph walk
against one `adjugate` per cone (also on hand-built data that needs several
seeds), the proof-first extremality test against one full-row LP per class,
and the integer-tableau simplex against the rational one on every
projectivity, extremality and pairwise-fallback linear program the library
poses and on every full-row extremality LP; the Mori verdicts are also
required not to change when the simplex's integer answer (den, v) is handed
over scaled.  The fans come from `corpus.py`.
"""

import itertools
import math
import random

import fraction_oracle
from corpus import _differential_corpus, _tower_levels
from fm_oracle import feasible_geq_one
from fraction_oracle import as_fractions, determinant, full_row_extremal, pivot_branches, rational_inverse, solve_columns
from fraction_oracle import phase_one as oracle_phase_one
from toricfan.fan import (
    Fan,
    NotAWall,
    _covering_number,
    _facet_map,
    _facet_normals,
    _locate,
    _pair_is_face,
    _wall_pass,
    cone_bases,
    validate,
    walls,
)
from toricfan.gallery import get_fan
from toricfan.intersection import _solve_relation
from toricfan.lattice import adjugate, phase_one, vdot, vscale, vsum


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
        for cone, (det, cols) in cone_bases(f).items():
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


def _per_cone_bases(f):
    """The cone-basis table with one `adjugate` per cone: the oracle for the
    walk of `cone_bases`."""
    out = {}
    for cone in f.max_cones:
        det, adj = adjugate([f.rays[i] for i in cone])
        out[cone] = (det, None if adj is None else tuple(zip(*adj)))
    return out


def _seed_fans():
    """Hand-built data on which the walk needs its `adjugate` seeds, with
    the number of seeds it takes; none of it goes through validation."""
    octants = [tuple(i + 3 * (s >> i & 1) for i in range(3)) for s in range(8)]
    cube = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1))
    return [
        (Fan(3, cube, tuple(octants)), 1),
        (Fan(3, cube, tuple(octants[1:])), 1),  # incomplete: a dropped cone
        # (1, 2) is degenerate and the only link between (0, 1) and (2, 3)
        (Fan(2, ((1, 0), (1, 1), (-1, -1), (0, -1)), ((0, 1), (1, 2), (2, 3))), 2),
        # the first cone is degenerate and cuts the other two apart
        (Fan(2, ((1, 1), (-1, -1), (1, 0), (0, -1)), ((0, 1), (0, 2), (1, 3))), 3),
        (Fan(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), ((0, 1), (2, 3))), 2),  # two components
        (Fan(3, cube, (octants[0], octants[7])), 2),  # two components
        (Fan(1, ((1,), (-1,)), ((0,), (1,))), 1),
        (Fan(1, ((1,),), ((0,),)), 1),
        # five rays about 144 degrees apart: the cycle of cones winds twice
        (Fan(2, ((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3)), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))), 1),
    ]


def test_walked_cone_bases_agree_with_per_cone_adjugate(monkeypatch):
    """The walk's table equals the per-cone `adjugate` table and the Bareiss
    determinant with the rational inverse, entry by entry; a complete,
    non-degenerate fan costs one `adjugate` call, and each hand-built fan
    exactly its seeds."""
    import toricfan.fan as fan_mod

    seeds = []

    def counting(rows):
        seeds.append(rows)
        return adjugate(rows)

    monkeypatch.setattr(fan_mod, "adjugate", counting)

    def walked(f):
        seeds.clear()
        table = _wall_pass(f)[0]  # uncached, so that every fan counts its seeds
        assert table == _per_cone_bases(f), f.to_json()
        for cone, basis in table.items():
            assert basis == _oracle_basis([f.rays[i] for i in cone]), f.to_json()
        return table, len(seeds)

    # the hand-built fans first: the corpus is built through validation,
    # which a broken table can stall
    for f, expected in _seed_fans():
        assert walked(f)[1] == expected, f.to_json()
    cones = degenerate = non_unimodular = 0
    for f in _differential_corpus() + _tower_levels():
        table, n_seeds = walked(f)
        complete = all(len(adjacent) == 2 for adjacent in _facet_map(f.dim, f.max_cones).values())
        if complete and all(det for det, _ in table.values()):
            assert n_seeds == 1, f.to_json()
        cones += len(table)
        degenerate += sum(1 for det, _ in table.values() if det == 0)
        non_unimodular += sum(1 for det, _ in table.values() if abs(det) > 1)
    assert cones >= 1450 and degenerate >= 40 and non_unimodular >= 80


def test_degree_two_multifan_is_complete_but_not_proper():
    # five rays about 144 degrees apart: the cycle of cones winds twice
    rays = ((1, 0), (-4, 3), (1, -3), (1, 3), (-4, -3))
    f = Fan(2, rays, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)))
    assert all(len(adjacent) == 2 for adjacent in _facet_map(2, f.max_cones).values())
    report = validate(f)
    assert report.complete and not report.proper
    assert report.failures == _all_pairs_report(f)[3]


def _folded(f):
    """Check `validate` on complete, non-degenerate data that is not a fan
    against the oracle; return whether one cone lies over the generic point,
    so that only the side test, condition (b), can reject the data."""
    bases = cone_bases(f)
    assert all(det for det, _ in bases.values())
    report = validate(f)
    assert report.complete and not report.proper, f.to_json()
    assert report.failures == _all_pairs_report(f)[3], f.to_json()
    return _covering_number(f.rays, f.max_cones, bases) == 1


def test_folded_cycle_is_rejected_by_the_side_test_alone():
    # smooth, winds once and its generic point lies in one cone, but the
    # cycle folds back: (1, 2) and (2, 3) lie on one side of ray 2, (2, 3)
    # and (3, 4) on one side of ray 3.  Under some relabelings of the rays
    # the walk crosses both folds, under others one of them closes a cycle,
    # so every relabeling is checked.
    rays = ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1))
    cones = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    up, down = len(rays), len(rays) + 1
    suspended = Fan(
        3,
        tuple(r + (0,) for r in rays) + ((0, 0, 1), (0, 0, -1)),
        tuple(c + (e,) for c in cones for e in (up, down)),
    )
    assert _folded(Fan(2, rays, cones)) and _folded(suspended)
    alone = 0
    for perm in itertools.permutations(range(5)):
        relabeled = [None] * 5
        for old, new in enumerate(perm):
            relabeled[new] = rays[old]
        alone += _folded(Fan(2, relabeled, [[perm[i] for i in c] for c in cones]))
    assert alone == 72  # the others put the generic point where three cones overlap


def test_projective_plane_is_rejected_by_the_side_test_alone():
    # The six-vertex real projective plane, whose cones all have non-zero
    # determinant and whose generic point lies in one cone.  On an orientable
    # complex a fold is always met on a tree edge of the walk, since cones of
    # both orientations are joined by one; this complex is not orientable,
    # and here it folds only on walls that close a cycle.
    rays = ((1, -1, 1), (0, 1, 1), (-1, 0, -1), (0, 1, -2), (-1, -2, -2), (-1, -2, 1))
    cones = ((0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5))
    assert _folded(Fan(3, rays, cones))


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
    assert calls == ["adjugate"]


def test_locate_numerators_agree_with_cramer_determinants():
    """The table's p . cols[k] equals the Cramer numerator det(cone rays,
    row k := p) of the Bareiss oracle, and `_locate` reads the right signs
    from it, for the points the generic-point test tries with m = 2..4."""
    outcomes = {0: 0, 1: 0, None: 0}
    for f in _differential_corpus() + _tower_levels():
        first = [f.rays[i] for i in f.max_cones[0]]
        points = [vsum(vscale(m**k, u) for k, u in enumerate(first)) for m in (2, 3, 4)]
        for cone, (det, cols) in cone_bases(f).items():
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


def _differential_phase_one(monkeypatch, *modules):
    """Make `phase_one` in each of `modules` run the integer kernel and the
    Fraction oracle on every system it is given and require the kernel's
    (feasible, den, v), read as fractions, to equal the oracle's (feasible,
    x, y) exactly; each module gets the answer in its own shape, the
    oracle's for `fraction_oracle` and the kernel's otherwise.  Returns the
    list of the oracle's answers, one per system, and the number of systems
    on which the kernel makes a pivot of each kind
    (`fraction_oracle.pivot_branches`)."""
    answers = []
    branches = {"p = D": 0, "p != D": 0}

    def both(module):
        def run(rows, rhs):
            got = phase_one(rows, rhs)
            pivots = []
            expected = oracle_phase_one(rows, rhs, pivots)
            assert as_fractions(got) == expected, (rows, rhs)
            for branch in pivot_branches(pivots):
                branches[branch] += 1
            answers.append(expected)
            return expected if module is fraction_oracle else got

        return run

    for module in modules:
        monkeypatch.setattr(module, "phase_one", both(module))
    return answers, branches


def _primitive(values):
    """The primitive integer vector positively proportional to the rationals
    `values`."""
    den = math.lcm(*(v.denominator for v in values))
    ints = [int(v * den) for v in values]
    g = math.gcd(*ints)
    return [a // g for a in ints]


def test_mori_lps_agree_with_fraction_oracle(monkeypatch):
    """Every LP of `_projectivity_raw` and `_extremal_raw`, and the full-row
    LP of the extremality oracle for every class, through both simplexes;
    the ample witness is the oracle's x read as a divisor, and the
    certificate its y made primitive."""
    import toricfan.mori as mori_mod

    answers, branches = _differential_phase_one(monkeypatch, mori_mod, fraction_oracle)
    dims = set()
    verdicts = []
    for f in _differential_corpus() + _tower_levels():
        if not validate(f).valid:
            continue
        verdict = mori_mod._projectivity_raw(f)
        feasible, x, y = answers[-1]
        k = f.n_rays
        if verdict.projective:
            assert verdict.ample_witness == tuple(x[j] - x[k + j] for j in range(k)), f.to_json()
        else:
            reps = [ws[0] for _, ws in mori_mod.mori_generators(f)]
            cert = [verdict.degeneracy_certificate.get(w, 0) for w in reps]
            assert cert == _primitive(y), f.to_json()
        verdicts.append(verdict.projective)
        for vec, _ in mori_mod.mori_generators(f):
            mori_mod._extremal_raw(f, vec)
            full_row_extremal(f, vec)
        dims.add(f.dim)
    assert dims == {2, 3, 4, 5, 6, 7}
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 10
    outcomes = [answer[0] for answer in answers]
    assert outcomes.count(True) >= 250 and outcomes.count(False) >= 150
    assert branches["p = D"] >= 700 and branches["p != D"] >= 400


def test_extremality_agrees_with_full_row_lp(monkeypatch):
    """Each class's verdict equals the full-row LP's, and each of the four
    ways `_extremal_raw` decides (sign proof, two-sum proof, feasible and
    infeasible LP on the rho rows) is taken on the corpus."""
    import toricfan.mori as mori_mod

    paths = {"sign": 0, "two_sum": 0, "lp_feasible": 0, "lp_infeasible": 0}

    def count(name, path):
        fn = getattr(mori_mod, name)

        def wrapped(*args):
            got = fn(*args)
            if got is not None:
                paths[path(got)] += 1
            return got

        monkeypatch.setattr(mori_mod, name, wrapped)

    count("_sign_proof", lambda got: "sign")
    count("_two_sum_proof", lambda got: "two_sum")
    count("phase_one", lambda got: "lp_feasible" if got[0] else "lp_infeasible")
    dims = set()
    for f in _differential_corpus() + _tower_levels():
        if not validate(f).valid:
            continue
        for vec, _ in mori_mod.mori_generators(f):
            assert mori_mod._extremal_raw(f, vec) == full_row_extremal(f, vec), (f.to_json(), vec)
        dims.add(f.dim)
    assert dims == {2, 3, 4, 5, 6, 7}
    assert paths["sign"] >= 100 and paths["two_sum"] >= 199
    assert paths["lp_feasible"] >= 95 and paths["lp_infeasible"] >= 87


def test_verdicts_read_the_simplex_answer_as_v_over_den(monkeypatch):
    """Each LP answer of `_projectivity_raw` and `_extremal_raw` handed over
    as (feasible, 3 den, 3 v), which stands for the same x or y, leaves every
    verdict, witness and certificate as it is.  The projectivity LPs of the
    corpus all end with den = 1, so the witness's division by den is seen
    only here."""
    import toricfan.mori as mori_mod

    real = mori_mod.phase_one
    dens = []

    def tripled(rows, rhs):
        feasible, den, v = real(rows, rhs)
        dens.append(den)
        return feasible, 3 * den, [3 * a for a in v]

    def verdicts(f):
        classes = [vec for vec, _ in mori_mod.mori_generators(f)]
        return mori_mod._projectivity_raw(f), [mori_mod._extremal_raw(f, vec) for vec in classes]

    projective = 0
    for f in _differential_corpus() + _tower_levels():
        if not validate(f).valid:
            continue
        expected = verdicts(f)
        monkeypatch.setattr(mori_mod, "phase_one", tripled)
        assert verdicts(f) == expected, f.to_json()
        monkeypatch.setattr(mori_mod, "phase_one", real)
        projective += expected[0].projective
    assert projective >= 25 and len(dens) >= 200 and sum(den > 1 for den in dens) >= 100


def test_pair_fallback_lps_agree_with_fraction_oracle(monkeypatch):
    import toricfan.fan as fan_mod

    answers, branches = _differential_phase_one(monkeypatch, fan_mod)
    for f in _differential_corpus():
        _all_pairs_report(f)
    outcomes = [answer[0] for answer in answers]
    assert outcomes.count(True) >= 600 and outcomes.count(False) >= 1200
    assert branches["p = D"] >= 1800 and branches["p != D"] >= 1700
