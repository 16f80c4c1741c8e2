import json
import random

import pytest

import toricfan.fan as fan_mod
from toricfan.fan import (
    MEMO_SIZE,
    Fan,
    MalformedInput,
    NotAWall,
    NotComplete,
    Wall,
    lattice_isomorphism,
    picard_number,
    star,
    validate,
    wall_lookup,
    walls,
)
from toricfan.birational import blow_up_curve
from toricfan.gallery import get_fan
from toricfan.intersection import all_relations


def test_p2_validates(p2):
    report = validate(p2)
    assert report.smooth and report.complete and report.proper
    assert not report.failures


def test_nonunimodular_cone_flagged():
    f = Fan(2, ((1, 0), (1, 2), (0, -1)), ((0, 1), (1, 2), (0, 2)))
    assert not validate(f).smooth


def test_oda_fan_validates(oda):
    report = validate(oda.fan)
    assert report.smooth and report.complete and report.proper


def test_incomplete_fan_detected(p2):
    f = Fan(2, p2.rays, p2.max_cones[:2])
    report = validate(f)
    assert not report.complete
    with pytest.raises(NotComplete):
        walls(f)


def test_overlapping_cones_not_proper():
    f = Fan(2, ((1, 0), (0, 1), (-1, -1), (1, 1)), ((0, 1), (1, 2), (0, 2), (0, 3)))
    assert not validate(f).proper


def test_wall_counts(p2, p1xp1, p3):
    assert len(walls(p2)) == 3
    assert len(walls(p1xp1)) == 4
    assert len(walls(blow_up_curve(p3, (0, 1)).result)) == 9


def test_wall_count_identity(p2, p3, p1xp1, f1, oda):
    for f in (p2, p3, p1xp1, f1, oda.fan):
        assert 2 * len(walls(f)) == f.dim * len(f.max_cones)


def test_star(p2, p3):
    assert len(star(p2, 0)) == 2
    rec = blow_up_curve(p3, (0, 1))
    assert len(star(rec.result, rec.new_ray)) == 4  # 2n - 2 with n = 3


def test_unused_ray_flagged(p2):
    f = Fan(2, p2.rays + ((1, 1),), p2.max_cones)
    report = validate(f)
    assert not report.proper
    assert any("ray 3" in msg for msg in report.failures)


def test_picard_numbers(p2, f1, oda):
    assert picard_number(p2) == 1
    assert picard_number(f1) == 2
    assert picard_number(oda.fan) == 4


def test_malformed_inputs():
    with pytest.raises(MalformedInput):
        Fan(2, ((1, 0), (0, 1)), ((0, 2),))  # index out of range
    with pytest.raises(MalformedInput):
        Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1, 2),))  # wrong cone size
    with pytest.raises(MalformedInput):
        Fan(2, ((1, 0), (2, 0), (0, 1)), ((0, 2),))  # duplicate ray after canonicalization
    with pytest.raises(MalformedInput):
        Fan(2, ((0, 0), (0, 1)), ((0, 1),))  # zero ray


def test_rays_canonicalized():
    f = Fan(2, ((2, 0), (0, 3), (-1, -1)), ((0, 1), (1, 2), (0, 2)))
    assert f.rays == ((1, 0), (0, 1), (-1, -1))


def test_fan_equality_up_to_ray_reordering(p2):
    permuted = Fan(2, (p2.rays[2], p2.rays[0], p2.rays[1]), ((1, 2), (0, 2), (0, 1)))
    assert permuted == p2
    assert hash(permuted) == hash(p2)
    different = Fan(2, ((1, 0), (0, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2)))
    assert different != p2


def test_validate_order_independent(oda):
    rng = random.Random(5)
    perm = list(range(oda.fan.n_rays))
    rng.shuffle(perm)
    inverse = {old: new for new, old in enumerate(perm)}
    rays = tuple(oda.fan.rays[i] for i in perm)
    cones = tuple(tuple(sorted(inverse[i] for i in c)) for c in oda.fan.max_cones)
    shuffled = Fan(3, rays, cones)
    report = validate(shuffled)
    assert report.smooth and report.complete and report.proper
    assert shuffled == oda.fan


def test_wall_lookup(p2):
    w = wall_lookup(p2, (0,))
    assert isinstance(w, Wall)
    assert w.apexes == (1, 2)
    with pytest.raises(NotAWall):
        wall_lookup(p2, (0, 1))


def test_json_round_trip(oda):
    text = oda.fan.to_json()
    again = Fan.from_json(text)
    assert again == oda.fan
    assert again.to_json() == text
    with pytest.raises(MalformedInput):
        Fan.from_json("{not json")
    with pytest.raises(MalformedInput):
        Fan.from_json(json.dumps({"dim": 2, "rays": [[1, 0]]}))


def test_lattice_isomorphism(p2):
    skewed = Fan(2, ((1, 1), (0, 1), (-1, -2)), ((0, 1), (1, 2), (0, 2)))
    m = lattice_isomorphism(skewed, p2)
    assert m is not None
    assert lattice_isomorphism(p2, get_fan("hirzebruch", 1).fan) is None


@pytest.mark.parametrize(
    "data",
    [
        {"dim": True, "rays": [[True]], "max_cones": [[0]]},
        {"dim": 1, "rays": [[True], [-1]], "max_cones": [[0], [1]]},
        {"dim": 1, "rays": [[1.0], [-1]], "max_cones": [[0], [1]]},
        {"dim": 1, "rays": [[1], [-1]], "max_cones": [[False], [1]]},
        {"dim": 1, "rays": [[1], [-1]], "max_cones": [[0.0], [1]]},
        {"dim": 2.0, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]},
    ],
)
def test_json_booleans_and_floats_are_not_integers(data):
    with pytest.raises(MalformedInput):
        Fan.from_json(json.dumps(data))


def test_constructor_rejects_non_integer_dimension():
    with pytest.raises(MalformedInput):
        Fan(True, ((1,), (-1,)), ((0,), (1,)))


def test_equal_data_shares_derived_data(oda, monkeypatch):
    fan_mod._memo.cache_clear()
    calls = []
    solve = fan_mod.adjugate

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(fan_mod, "adjugate", counting)
    data = (oda.fan.dim, oda.fan.rays, oda.fan.max_cones)
    first, second = Fan(*data), Fan(*data)
    assert first is not second
    relations = all_relations(first)
    assert len(calls) == len(first.max_cones)  # one basis per cone, not one per wall
    assert all_relations(second) == relations
    assert len(calls) == len(first.max_cones)


def test_ray_permuted_copy_has_its_own_indices(oda):
    f = oda.fan
    perm = list(reversed(range(f.n_rays)))  # new ray k is old ray perm[k]
    new_index = {old: new for new, old in enumerate(perm)}
    g = Fan(f.dim, tuple(f.rays[i] for i in perm),
            tuple(tuple(sorted(new_index[i] for i in c)) for c in f.max_cones))
    assert g == f
    relabeled = {Wall(tuple(new_index[i] for i in w.rays), tuple(new_index[a] for a in w.apexes))
                 for w in walls(f)}
    assert set(walls(g)) == relabeled
    assert walls(g) != walls(f)
    for rel in all_relations(g):
        assert all(rel.coeffs[a] == 1 for a in rel.wall.apexes)
        assert all(sum(c * r[k] for c, r in zip(rel.coeffs, g.rays)) == 0 for k in range(g.dim))
        for a in rel.wall.apexes:
            assert tuple(sorted(rel.wall.rays + (a,))) in g.max_cones


def test_memo_is_bounded_and_evicted_fans_still_answer():
    cones = ((0, 1), (1, 2), (2, 3), (0, 3))
    fans = [Fan(2, ((1, 0), (0, 1), (-1, a), (0, -1)), cones) for a in range(MEMO_SIZE + 1)]
    for f in fans:
        assert validate(f).valid
    assert fan_mod._memo.cache_info().currsize <= MEMO_SIZE
    evicted = fans[0]
    fresh = Fan(evicted.dim, evicted.rays, evicted.max_cones)
    assert fresh._derived is not evicted._derived
    assert validate(evicted).valid
    assert walls(evicted) == walls(fresh)
    assert all_relations(evicted) == all_relations(fresh)
