import json

import pytest

from corpus import _differential_corpus
from fm_oracle import fan_is_projective
from toricfan import analyzer
from toricfan.analyzer import (
    ELEMENTARY_TRANSFORMATION,
    FORBIDDEN_FLIP,
    TRIVIAL_REDUCTION,
    NoFiberWall,
    analyze_pair,
    fiber_class_extremal,
    hypothesis_guarantee,
)
from toricfan.birational import BlowupRecord, blow_down, blow_up_curve, star_subdivision
from toricfan.fan import InvariantViolation, MalformedInput, picard_number, validate, wall_lookup, walls
from toricfan.gallery import get_fan
from toricfan.intersection import wall_relation
from toricfan.mori import is_extremal, is_projective


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


def _oda_fans():
    """oda3 ("X"), its blow-up along the curve (1, 4) ("Xt", E is ray 7) and
    the image ("Y") of the flip contraction of the wall (1, 7)."""
    x = get_fan("oda3").fan
    xt = blow_up_curve(x, (1, 4)).result
    return {"X": x, "Xt": xt, "Y": blow_down(xt, 7, (0, 5))}


@pytest.mark.parametrize(
    "fan, rays, changes, message",
    [
        # the flip witness (1, 7) with a +1 next to its -1 at E: -K.C = 2 > 0
        ("Xt", (1, 7), {1: 1}, "not a single -1"),
        # the same wall inside E, its -1 moved from E to ray 1
        ("Xt", (1, 7), {1: -1, 7: 0}, "lies in E"),
        # the transverse wall (4, 5), apexes 3 and E, has degrees (-1, -1) and
        # -K.C = 0; with the -1 left only at ray 5 it is classified, but
        # u_3 + u_E is not u_5
        ("Xt", (4, 5), {4: 0}, "do not sum"),
        # the curve (1, 4) of X no longer has normal bundle O(-1) + O(-1)
        ("X", (1, 4), {4: 0}, r"O\(-1\)\^\(n-1\)"),
        # the flipped curve (0, 5) of Y no longer has degrees (-1, -1)
        ("Y", (0, 5), {0: 0}, "flipped curve has degrees"),
    ],
    ids=[
        "positive_degree", "minus_one_off_e", "apexes_miss_ray", "base_curve_degrees", "flipped_curve_degrees",
    ],
)
def test_tampered_relation_raises_invariant_violation(monkeypatch, fan, rays, changes, message):
    fans = _oda_fans()
    target, real = fans[fan], analyzer.wall_relation

    def tampered(f, w):
        rel = real(f, w)
        if w.rays == rays and f == target:
            rel = rel._replace(coeffs=tuple(changes.get(i, c) for i, c in enumerate(rel.coeffs)))
        return rel

    monkeypatch.setattr(analyzer, "wall_relation", tampered)
    with pytest.raises(InvariantViolation, match=message):
        analyze_pair(fans["X"], (1, 4))


def test_trichotomy_on_the_corpus():
    """Every corpus pair (X, C) with X non-projective and B_C(X) projective:
    the analysis raises nothing, lists every Mori-extremal wall meeting E as a
    finding or unclassified, names each finding by the position of the -1 in
    its witness wall's relation, and builds each Y valid and projective with
    Picard number one less than the blow-up's."""
    pairs, kinds = 0, set()
    for x in _differential_corpus():
        if not validate(x).valid or is_projective(x).projective:
            continue
        for c in walls(x):
            report = analyze_pair(x, c)
            if not report.xt_projective:
                continue
            pairs += 1
            xt, e = report.blowup.result, report.exceptional_ray
            meeting = {w for w in walls(xt) if e in w.rays + w.apexes and is_extremal(xt, w)}
            assert meeting == {f.witness_wall for f in report.findings} | set(report.unclassified)
            for finding in report.findings:
                w = finding.witness_wall
                (r,) = [i for i in w.rays if wall_relation(xt, w).coeffs[i] == -1]
                if r == e:
                    assert finding.kind == FORBIDDEN_FLIP
                elif r in c.rays:
                    assert finding.kind == ELEMENTARY_TRANSFORMATION
                else:
                    assert r in c.apexes and finding.kind == TRIVIAL_REDUCTION
                y = finding.constructed["Y"]
                assert validate(y).valid and picard_number(y) == picard_number(xt) - 1
                assert fan_is_projective(y)
                kinds.add(finding.kind)
            data = report.to_dict()
            assert json.loads(json.dumps(data)) == data
    assert pairs >= 25
    assert kinds == {FORBIDDEN_FLIP, ELEMENTARY_TRANSFORMATION, TRIVIAL_REDUCTION}
