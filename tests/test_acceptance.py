"""Acceptance suite: one test per criterion, all tolerances exact.

Run with `pytest -v tests/test_acceptance.py`; a PASS/FAIL line per criterion
is printed in the terminal summary.
"""

import time

import pytest

from fm_oracle import fan_is_projective
from fraction_oracle import rational_rank
from toricfan.analyzer import (
    ELEMENTARY_TRANSFORMATION,
    FORBIDDEN_FLIP,
    TRIVIAL_REDUCTION,
    analyze_pair,
    fiber_class_extremal,
)
from toricfan.birational import blow_down, blow_up_curve, star_subdivision
from toricfan.ewald import ewald_blow_down, ewald_tower, suspend
from toricfan.fan import Fan, lattice_isomorphism, picard_number, validate, wall_lookup, walls
from toricfan.gallery import get_fan
from toricfan.intersection import all_relations, anticanonical_degree, is_fano, wall_relation
from toricfan.lattice import vadd, vscale
from toricfan.mori import _projectivity_raw, is_projective

from conftest import make_random_records

GALLERY_BASES = (
    ("pn", 2),
    ("pn", 3),
    ("p1xp1",),
    ("hirzebruch", 1),
    ("oda3",),
    ("xab", 1, 0),
    ("xab", 0, 0),
)

# finite stand-in for "every 3-dimensional non-projective gallery fan"
NON_PROJECTIVE_3FOLDS = (
    ("oda3",),
    ("xab", 1, -2),
    ("xab", 1, 0),
    ("xab", 1, 1),
    ("xab", -1, -2),
    ("xab", -1, 0),
    ("xab", -1, 1),
    ("xab", 2, 0),
    ("xab", -3, 2),
)


def _assert_valid(f: Fan):
    report = validate(f)
    assert report.smooth and report.complete and report.proper, report.failures


def _verify_certificate(f: Fan, verdict):
    cert = verdict.degeneracy_certificate
    assert cert, "non-projective verdict must carry a certificate"
    assert all(y > 0 for y in cert.values())
    relations = {rel.wall: rel.coeffs for rel in all_relations(f)}
    total = [0] * f.n_rays
    for w, y in cert.items():
        for i, c in enumerate(relations[w]):
            total[i] += y * c
    assert all(v == 0 for v in total), "certificate does not sum to zero"


@pytest.fixture(scope="module")
def touched_fans():
    """Every fan exercised by criteria 1 through 8, deduplicated."""
    fans = []

    def add(f):
        fans.append(f)

    oda = get_fan("oda3")
    add(oda.fan)
    for rays in oda.notes.distinguished_walls:  # criterion 1
        rec = blow_up_curve(oda.fan, rays)
        add(rec.result)
        for finding in analyze_pair(oda.fan, rays).findings:
            add(finding.constructed["Y"])
    for a in range(-3, 4):  # criterion 2
        for b in range(-3, 4):
            add(get_fan("xab", a, b).fan)
    for params in ((1, 0), (-1, 0)):  # criterion 3
        entry = get_fan("xab", *params)
        report = analyze_pair(entry.fan, entry.notes.distinguished_walls[0])
        add(report.blowup.result)
        for finding in report.findings:
            add(finding.constructed["Y"])
    bp = star_subdivision(oda.fan, (0, 1, 4))  # criterion 4
    add(bp.result)
    for finding in analyze_pair(bp.result, (1, 4)).findings:
        add(finding.constructed["Y"])
        if "X_prime" in finding.constructed:
            add(finding.constructed["X_prime"])
    for key in GALLERY_BASES:  # criterion 5
        base = get_fan(*key).fan
        add(base)
        for r in range(base.n_rays):
            rec = suspend(base, base.rays[r])
            add(rec.suspended)
            add(ewald_blow_down(rec, r))
    for fan, wall in ewald_tower(oda.fan, oda.notes.distinguished_walls[0], 2):  # criterion 6
        add(fan)
        add(blow_up_curve(fan, wall).result)
    for key in NON_PROJECTIVE_3FOLDS:  # criterion 7
        f = get_fan(*key).fan
        add(f)
        for w in walls(f):
            add(blow_up_curve(f, w).result)
    for rec in make_random_records():  # criterion 8
        add(rec.base)
        add(rec.result)
    unique = []
    seen = set()
    for f in fans:
        key = (f.dim, f.rays, f.max_cones)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def test_criterion_01_oda_threefold():
    oda = get_fan("oda3")
    f = oda.fan
    _assert_valid(f)
    assert picard_number(f) == 4
    verdict = is_projective(f)
    assert not verdict.projective
    _verify_certificate(f, verdict)
    distinguished = [
        w for w in walls(f) if wall_relation(f, w).normal_degrees == (-1, -1)
    ]
    assert len(distinguished) == 3
    assert tuple(sorted(w.rays for w in distinguished)) == oda.notes.distinguished_walls
    for w in distinguished:
        rec = blow_up_curve(f, w)
        assert is_projective(rec.result).projective
        report = analyze_pair(f, w)
        flips = [fd for fd in report.findings if fd.kind == FORBIDDEN_FLIP]
        assert flips, "expected a forbidden-flip finding"
        for finding in flips:
            y = finding.constructed["Y"]
            _assert_valid(y)
            assert is_projective(y).projective


def test_criterion_02_projectivity_grid():
    for a in range(-3, 4):
        for b in range(-3, 4):
            f = get_fan("xab", a, b).fan
            assert is_projective(f).projective == (a == 0 or b == -1), (a, b)


def test_criterion_03_elementary_transformations():
    x00 = get_fan("xab", 0, 0).fan
    for params in ((1, 0), (-1, 0)):
        entry = get_fan("xab", *params)
        report = analyze_pair(entry.fan, entry.notes.distinguished_walls[0])
        assert not report.x_projective and report.xt_projective
        transforms = [f for f in report.findings if f.kind == ELEMENTARY_TRANSFORMATION]
        assert transforms, f"no elementary transformation found for {params}"
        for finding in transforms:
            y = finding.constructed["Y"]
            _assert_valid(y)
            assert lattice_isomorphism(y, x00) is not None


def test_criterion_04_trivial_reduction():
    oda = get_fan("oda3")
    rec = star_subdivision(oda.fan, (0, 1, 4))  # fixed point on the curve (1, 4)
    assert not is_projective(rec.result).projective
    report = analyze_pair(rec.result, (1, 4))
    assert report.xt_projective
    reductions = [f for f in report.findings if f.kind == TRIVIAL_REDUCTION]
    assert reductions, "expected a trivial-reduction finding"
    for finding in reductions:
        y = finding.constructed["Y"]
        x_prime = finding.constructed["X_prime"]
        _assert_valid(y)
        _assert_valid(x_prime)
        assert is_projective(y).projective
        assert x_prime == oda.fan


def test_criterion_05_ewald_equivalence():
    p1 = Fan(1, ((1,), (-1,)), ((0,), (1,)))
    f1 = get_fan("hirzebruch", 1).fan
    rec = suspend(p1, (1,))
    assert lattice_isomorphism(rec.suspended, f1) is not None
    p2 = get_fan("pn", 2).fan
    assert lattice_isomorphism(ewald_blow_down(rec, 0), p2) is not None
    for key in GALLERY_BASES:
        base = get_fan(*key).fan
        base_projective = is_projective(base).projective
        for r in range(base.n_rays):
            srec = suspend(base, base.rays[r])
            result = ewald_blow_down(srec, r)
            assert picard_number(result) == picard_number(base), (key, r)
            assert is_projective(result).projective == base_projective, (key, r)


def test_criterion_06_towers():
    oda = get_fan("oda3")
    trajectory = ewald_tower(oda.fan, oda.notes.distinguished_walls[0], 2)
    assert [f.dim for f, _ in trajectory] == [3, 4, 5]
    for fan, wall in trajectory[1:]:
        _assert_valid(fan)
        assert picard_number(fan) == 4
        assert not is_projective(fan).projective
        blown = blow_up_curve(fan, wall).result
        assert is_projective(blown).projective
    top, top_wall = trajectory[-1]
    blown = blow_up_curve(top, top_wall).result
    for f in (top, blown):
        start = time.perf_counter()
        _projectivity_raw(f)  # uncached run
        assert time.perf_counter() - start < 10.0


def test_criterion_07_no_fano_blowups_in_dim3():
    checked = 0
    for key in NON_PROJECTIVE_3FOLDS:
        f = get_fan(*key).fan
        assert not is_projective(f).projective
        for w in walls(f):
            rec = blow_up_curve(f, w)
            if is_projective(rec.result).projective:
                checked += 1
                assert not is_fano(rec.result), (key, w.rays)
    assert checked >= 3  # the three distinguished curves of the rank-4 fan at least


def test_criterion_08_fiber_class_equivalence(random_records):
    records = list(random_records)
    oda = get_fan("oda3")
    for rays in oda.notes.distinguished_walls:
        records.append(blow_up_curve(oda.fan, rays))
    for params in ((1, 0), (-1, 0)):
        entry = get_fan("xab", *params)
        records.append(blow_up_curve(entry.fan, entry.notes.distinguished_walls[0]))
    p3 = get_fan("pn", 3).fan
    records.append(blow_up_curve(p3, (0, 1)))
    for fan, wall in ewald_tower(oda.fan, oda.notes.distinguished_walls[0], 2):
        records.append(blow_up_curve(fan, wall))
    for rec in records:
        assert blow_down(rec.result, rec.new_ray, rec.center) == rec.base
        if is_projective(rec.result).projective:
            assert fiber_class_extremal(rec) == is_projective(rec.base).projective


def test_criterion_09_oracle_agreement(touched_fans):
    assert len(touched_fans) > 100
    for f in touched_fans:
        assert fan_is_projective(f) == is_projective(f).projective, f.to_dict()


def test_criterion_10_identity_suite(touched_fans):
    for f in touched_fans:
        relations = all_relations(f)
        for rel in relations:
            total = (0,) * f.dim
            for idx, c in enumerate(rel.coeffs):
                total = vadd(total, vscale(c, f.rays[idx]))
            assert total == (0,) * f.dim
            assert anticanonical_degree(rel) == 2 + sum(rel.normal_degrees)
            assert anticanonical_degree(rel) == sum(rel.coeffs)
        rank = rational_rank([list(rel.coeffs) for rel in relations])
        assert rank == f.n_rays - f.dim
