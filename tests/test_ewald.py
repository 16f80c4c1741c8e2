import random

import pytest
from corpus import _differential_corpus

from toricfan.birational import blow_down, blow_up_curve
from toricfan.ewald import VMismatch, ewald_blow_down, ewald_lift, ewald_tower, suspend
from toricfan.fan import Fan, MalformedInput, lattice_isomorphism, picard_number, validate, wall_lookup
from toricfan.gallery import get_fan
from toricfan.mori import is_projective


def p1():
    return Fan(1, ((1,), (-1,)), ((0,), (1,)))


def test_suspend_p1_is_hirzebruch(f1):
    rec = suspend(p1(), (1,))
    assert rec.suspended.n_rays == 4
    assert lattice_isomorphism(rec.suspended, f1) is not None


def test_suspend_p1_zero_is_product(p1xp1):
    rec = suspend(p1(), (0,))
    assert rec.suspended == p1xp1


def test_suspend_p2(p2):
    rec = suspend(p2, p2.rays[0])
    assert rec.suspended.n_rays == 5
    assert validate(rec.suspended).valid
    # cone structure: each base cone appears coned up and coned down
    assert len(rec.suspended.max_cones) == 2 * len(p2.max_cones)


def test_ewald_blow_down_p1_gives_p2(p2):
    rec = suspend(p1(), (1,))
    assert lattice_isomorphism(ewald_blow_down(rec, 0), p2) is not None


def test_ewald_blow_down_mismatch(p2):
    rec = suspend(p2, (1, 1))
    with pytest.raises(VMismatch):
        ewald_blow_down(rec, 0)


def test_picard_and_projectivity_preserved(oda, p3):
    for base in (p3, oda.fan):
        for r in range(base.n_rays):
            rec = suspend(base, base.rays[r])
            result = ewald_blow_down(rec, r)
            assert result.dim == base.dim + 1
            assert picard_number(result) == picard_number(base)
            assert is_projective(result).projective == is_projective(base).projective


def test_tower_steps(oda):
    curve = oda.notes.distinguished_walls[0]
    trajectory = ewald_tower(oda.fan, curve, 0)
    assert trajectory == [(oda.fan, wall_lookup(oda.fan, curve))]
    trajectory = ewald_tower(oda.fan, curve, 2)
    assert [f.dim for f, _ in trajectory] == [3, 4, 5]
    for fan, wall in trajectory:
        assert picard_number(fan) == 4
        assert not is_projective(fan).projective
        assert is_projective(blow_up_curve(fan, wall).result).projective


def test_tower_rejects_projective_base(p3):
    for _ in range(2):  # a failing pair check is not memoized
        with pytest.raises(ValueError):
            ewald_tower(p3, (0, 1), 1)


def test_disjoint_divisor_keeps_codimension(oda):
    # ray 2 is disjoint from the curve (1, 4) (not one of its rays or apexes),
    # so the lifted curve cone keeps its size, hence its codimension
    curve = wall_lookup(oda.fan, (1, 4))
    assert 2 not in curve.rays and 2 not in curve.apexes
    rec = suspend(oda.fan, oda.fan.rays[2])
    result = ewald_blow_down(rec, 2)
    lifted = tuple(i - (i > 2) for i in curve.rays)
    carriers = [c for c in result.max_cones if set(lifted) <= set(c)]
    assert carriers  # still a cone of the fan, codimension 2 in dimension 4
    assert not is_projective(result).projective
    from toricfan.birational import star_subdivision

    blown = star_subdivision(result, lifted)
    assert is_projective(blown.result).projective


@pytest.mark.parametrize("v", [(1.9, True), (1.0, 0), (1, True)])
def test_suspend_rejects_non_integer_directions(p2, v):
    with pytest.raises(MalformedInput):
        suspend(p2, v)


@pytest.mark.parametrize("steps", [-2, 1.5, True])
def test_tower_rejects_bad_step_counts(oda, steps):
    with pytest.raises(MalformedInput):
        ewald_tower(oda.fan, (1, 4), steps)


def _checked_lift(f, i):
    """`ewald_lift(f, i)`, after checking that it has exactly the rays and
    the cones, in their order, of blowing the suspension by u_i down."""
    lifted = ewald_lift(f, i)
    rec = suspend(f, f.rays[i])
    oracle = blow_down(rec.suspended, i, (rec.ray_up, rec.ray_down))
    assert (lifted.rays, lifted.max_cones) == (oracle.rays, oracle.max_cones), (f, i)
    return lifted


def test_lift_matches_suspension_blow_down_on_towers(oda):
    # each oda3 curve carried up to dimension 7, and that level lifted once more
    for curve in oda.notes.distinguished_walls:
        f, rays = oda.fan, curve
        while f.dim <= 7:
            divisor = min(rays)
            rays = [j - (j > divisor) for j in rays if j != divisor] + [f.n_rays - 1, f.n_rays]
            f = _checked_lift(f, divisor)


def test_lift_matches_suspension_blow_down_on_corpus_and_gallery():
    lifts = []

    def lift(f, i):
        lifts.append(i)
        return _checked_lift(f, i)

    _differential_corpus(lift=lift)
    assert len(lifts) >= 10
    rng = random.Random(4117)
    dim3 = [get_fan("pn", 3).fan, get_fan("oda3").fan]
    dim3 += [get_fan("xab", a, b).fan for a in range(-3, 4) for b in range(-3, 4)]
    for f in dim3:
        _checked_lift(f, rng.randrange(f.n_rays))


@pytest.mark.parametrize("edit", ["drop first cone", "negate ray 0"])
def test_invalid_base_is_malformed_input(oda, edit):
    data = oda.fan.to_dict()
    if edit == "drop first cone":
        del data["max_cones"][0]
    else:
        data["rays"][0] = [-a for a in data["rays"][0]]
    bad = Fan.from_dict(data)
    with pytest.raises(MalformedInput, match="invalid fan"):
        suspend(bad, bad.rays[2])
    with pytest.raises(MalformedInput, match="invalid fan"):
        ewald_lift(bad, 2)
