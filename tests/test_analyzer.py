import pytest

from toricfan.analyzer import (
    ELEMENTARY_TRANSFORMATION,
    FORBIDDEN_FLIP,
    TRIVIAL_REDUCTION,
    NoFiberWall,
    analyze_pair,
    fiber_class_extremal,
    hypothesis_guarantee,
)
from toricfan.birational import BlowupRecord, blow_up_curve, star_subdivision
from toricfan.fan import MalformedInput, validate, wall_lookup
from toricfan.gallery import get_fan
from toricfan.intersection import wall_relation
from toricfan.mori import is_projective


def test_fiber_class_extremal_p3(p3):
    assert fiber_class_extremal(blow_up_curve(p3, (0, 1)))


def test_fiber_class_extremal_point_center(p3):
    assert fiber_class_extremal(star_subdivision(p3, (0, 1, 2)))


def test_fiber_class_not_extremal_on_oda(oda):
    rec = blow_up_curve(oda.fan, oda.notes.distinguished_walls[0])
    assert not fiber_class_extremal(rec)


def test_no_fiber_wall():
    p2 = get_fan("pn", 2).fan
    rec = star_subdivision(p2, (0, 1))
    hollow = BlowupRecord(rec.base, rec.result, rec.center, rec.new_ray, ())
    with pytest.raises(NoFiberWall):
        fiber_class_extremal(hollow)


def test_guarantee_fano(p3):
    report = hypothesis_guarantee(star_subdivision(p3, (0, 1)))
    assert report.guaranteed and report.reason == "fano"


def test_guarantee_enough_mori_rays():
    f2 = get_fan("hirzebruch", 2).fan
    report = hypothesis_guarantee(star_subdivision(f2, (0, 1)))
    assert report.guaranteed and report.reason == "enough_mori_rays"


def test_guarantee_neither(oda):
    rec = blow_up_curve(oda.fan, oda.notes.distinguished_walls[0])
    report = hypothesis_guarantee(rec)
    assert not report.guaranteed and report.reason is None


def test_projective_input_reported_and_stopped(p3):
    report = analyze_pair(p3, (0, 1))
    assert report.x_projective
    assert report.findings == ()


def test_invalid_input_rejected(p2):
    from toricfan.fan import Fan

    broken = Fan(2, p2.rays, p2.max_cones[:2])
    with pytest.raises(MalformedInput):
        analyze_pair(broken, (0,))


def test_forbidden_flip_on_oda(oda):
    report = analyze_pair(oda.fan, oda.notes.distinguished_walls[0])
    assert not report.x_projective and report.xt_projective
    kinds = {f.kind for f in report.findings}
    assert kinds == {FORBIDDEN_FLIP}
    for finding in report.findings:
        assert finding.e_dot_omega == -1
        y = finding.constructed["Y"]
        assert validate(y).valid
        assert is_projective(y).projective
        rel = wall_relation(y, wall_lookup(y, finding.constructed["Z"]))
        assert rel.normal_degrees == (-1, -1)
    assert len(report.unclassified) == 1


def test_elementary_transformation_on_xab():
    entry = get_fan("xab", 1, 0)
    report = analyze_pair(entry.fan, entry.notes.distinguished_walls[0])
    kinds = [f.kind for f in report.findings]
    assert ELEMENTARY_TRANSFORMATION in kinds
    assert FORBIDDEN_FLIP in kinds  # the same pair carries a flip wall too
    for finding in report.findings:
        assert validate(finding.constructed["Y"]).valid


def test_trivial_reduction_instance(oda):
    curve = oda.notes.distinguished_walls[1]  # (1, 4), adjacent cone (0, 1, 4)
    rec = star_subdivision(oda.fan, (0, 1, 4))
    report = analyze_pair(rec.result, curve)
    reductions = [f for f in report.findings if f.kind == TRIVIAL_REDUCTION]
    assert reductions
    for finding in reductions:
        assert finding.e_dot_omega == 1
        assert finding.constructed["X_prime"] == oda.fan
        assert finding.constructed["p"] == (0, 1, 4)
        assert is_projective(finding.constructed["Y"]).projective


def test_no_mori_extremal_curve_inside_e_meets_it_nonnegatively(oda):
    # every Mori-extremal finding inside E carries degree -1 by construction;
    # the transverse ones have the exceptional ray as an apex, not a wall ray
    report = analyze_pair(oda.fan, oda.notes.distinguished_walls[0])
    e = report.exceptional_ray
    for finding in report.findings:
        w = finding.witness_wall
        if e in w.rays:
            assert finding.e_dot_omega < 0


def test_report_serialization(oda):
    report = analyze_pair(oda.fan, oda.notes.distinguished_walls[0])
    data = report.to_dict()
    assert data["x_projective"] is False and data["xt_projective"] is True
    assert all({"kind", "witness_wall", "e_dot_omega", "constructed"} <= set(f) for f in data["findings"])


def test_report_equality_ignores_the_blowup_record(oda):
    report = analyze_pair(oda.fan, (1, 4))
    bare = report._replace(blowup=None)
    assert report.blowup is not None
    assert report == bare and not report != bare
    assert hash(report._replace(findings=())) == hash(bare._replace(findings=()))
    assert report != report._replace(exceptional_ray=report.exceptional_ray + 1)
