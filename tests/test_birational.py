import itertools
import random

import pytest

from toricfan.birational import (
    BadStarShape,
    NotAFace,
    ResultSingular,
    SumMismatch,
    blow_down,
    blow_up_curve,
    star_subdivision,
)
from toricfan.fan import Fan, NotAWall, lattice_isomorphism, picard_number, validate, walls
from toricfan.gallery import get_fan
from toricfan.intersection import wall_relation
from toricfan.mori import is_projective


def test_p3_line_blowup_cone_list(p3):
    rec = blow_up_curve(p3, (0, 1))
    assert rec.new_ray == 4
    assert rec.result.rays[4] == (1, 1, 0)
    expected = {(0, 2, 3), (1, 2, 3), (0, 2, 4), (1, 2, 4), (0, 3, 4), (1, 3, 4)}
    assert set(rec.result.max_cones) == expected
    assert {w.rays for w in rec.exceptional_walls} == {(2, 4), (3, 4)}
    assert {w.rays for w in rec.section_walls} == {(0, 4), (1, 4)}


def test_p2_point_blowup_is_hirzebruch(p2, f1):
    rec = star_subdivision(p2, (0, 1))
    assert lattice_isomorphism(rec.result, f1) is not None


def test_not_a_face(p1xp1, p2):
    with pytest.raises(NotAFace):
        star_subdivision(p1xp1, (0, 1))  # opposite rays, not a cone
    with pytest.raises(NotAFace):
        star_subdivision(p2, (0,))  # centers need at least two rays


def test_dim2_wall_blowup_rejected(p2):
    with pytest.raises(NotAWall):
        blow_up_curve(p2, (0,))


def test_subdivision_preserves_validity_and_counts(p3):
    rec = star_subdivision(p3, (0, 1, 2))
    report = validate(rec.result)
    assert report.smooth and report.complete and report.proper
    assert len(rec.result.max_cones) == len(p3.max_cones) + (3 - 1) * 1
    assert picard_number(rec.result) == picard_number(p3) + 1


def test_oda_distinguished_blowup_projective(oda):
    rec = blow_up_curve(oda.fan, oda.notes.distinguished_walls[0])
    assert is_projective(rec.result).projective


def test_exceptional_fiber_meets_new_ray(p3, oda):
    for fan, curve in ((p3, (0, 1)), (oda.fan, oda.notes.distinguished_walls[0])):
        rec = blow_up_curve(fan, curve)
        for w in rec.exceptional_walls:
            rel = wall_relation(rec.result, w)
            assert rel.coeffs[rec.new_ray] == -1


def test_round_trip_over_gallery(p2, p3, p1xp1, f1, oda):
    rng = random.Random(23)
    for f in (p2, p3, p1xp1, f1, oda.fan):
        for _ in range(5):
            cone = rng.choice(f.max_cones)
            size = rng.randint(2, f.dim)
            center = tuple(sorted(rng.sample(list(cone), size)))
            rec = star_subdivision(f, center)
            assert blow_down(rec.result, rec.new_ray, rec.center) == f


def find_decomposition(f, ray):
    """Brute-force decomposition search, cheap enough for dimensions <= 3."""
    assert f.dim <= 3
    others = [i for i in range(f.n_rays) if i != ray]
    for size in (2, 3):
        for subset in itertools.combinations(others, size):
            total = (0,) * f.dim
            for i in subset:
                total = tuple(a + b for a, b in zip(total, f.rays[i]))
            if total == f.rays[ray]:
                try:
                    return subset, blow_down(f, ray, subset)
                except (BadStarShape, ResultSingular):
                    continue
    return None


def test_decomposition_search(f1, p3, oda):
    subset, result = find_decomposition(f1, 1)
    assert subset == (0, 2)
    rec = blow_up_curve(p3, (0, 1))
    subset, result = find_decomposition(rec.result, rec.new_ray)
    assert subset == (0, 1) and result == p3
    assert find_decomposition(oda.fan, 0) is None  # basis rays decompose nowhere


def test_f1_blowdown_examples(f1):
    result = blow_down(f1, 1, (0, 2))
    assert result.rays == ((1, 0), (-1, 1), (0, -1))
    assert lattice_isomorphism(result, get_fan("pn", 2).fan) is not None
    with pytest.raises(SumMismatch):
        blow_down(f1, 1, (3, 0))
    # fewer than two rays; the empty sum has no dimension and must not be taken
    for decomposition in ((), (0,)):
        with pytest.raises(SumMismatch, match="two or more"):
            blow_down(f1, 1, decomposition)


def test_bad_star_shape(p2):
    first = star_subdivision(p2, (0, 1)).result      # inserts (1, 1) as ray 3
    second = star_subdivision(first, (0, 3)).result  # star of 3 no longer pairs over {0, 1}
    with pytest.raises(BadStarShape):
        blow_down(second, 3, (0, 1))


def test_result_singular_on_nonsmooth_input():
    # (2, 1) = (1, -1) + (1, 2) but the pair spans a determinant-3 cone
    f = Fan(2, ((1, -1), (2, 1), (1, 2), (-1, 0)), ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert not validate(f).smooth and validate(f).complete
    with pytest.raises(ResultSingular):
        blow_down(f, 1, (0, 2))


def test_nonprimitive_center_sum_rejected():
    from toricfan.fan import MalformedInput

    f = Fan(2, ((1, -1), (2, 1), (1, 2), (-1, 0)), ((0, 1), (1, 2), (2, 3), (0, 3)))
    with pytest.raises(MalformedInput):
        star_subdivision(f, (1, 2))  # (2,1) + (1,2) = (3,3), not primitive


def test_projectivity_monotone_under_subdivision(p3):
    rng = random.Random(31)
    f = p3
    for _ in range(4):
        cone = rng.choice(f.max_cones)
        size = rng.randint(2, f.dim)
        rec = star_subdivision(f, tuple(sorted(rng.sample(list(cone), size))))
        assert is_projective(rec.result).projective
        f = rec.result
