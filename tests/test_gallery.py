import pytest

import toricfan.gallery as gallery_mod

from toricfan.birational import blow_down, blow_up_curve
from toricfan.fan import MEMO_SIZE, lattice_isomorphism, picard_number, validate, walls
from toricfan.gallery import BadParams, UnknownName, get_fan, xab_rays
from toricfan.mori import is_projective


def test_basic_entries():
    e = get_fan("pn", 2)
    assert e.notes.projective and e.notes.rho == 1 and e.fan.n_rays == 3
    e = get_fan("pn", 4)
    assert len(e.fan.max_cones) == 5 and validate(e.fan).valid
    e = get_fan("hirzebruch", 3)
    assert e.notes.rho == 2 and validate(e.fan).valid
    e = get_fan("p1xp1")
    assert e.notes.projective


def test_oda_entry(oda):
    assert oda.fan.n_rays == 7
    assert len(oda.fan.max_cones) == 10
    assert oda.notes.rho == 4
    assert not oda.notes.projective
    assert len(oda.notes.distinguished_walls) == 3


def test_xab_entries():
    e = get_fan("xab", 1, 0)
    assert e.fan.n_rays == 8 and not e.notes.projective
    assert get_fan("xab", 0, 5).notes.projective
    assert get_fan("xab", -2, -1).notes.projective
    assert not get_fan("xab", 3, 2).notes.projective


def test_entry_errors():
    with pytest.raises(UnknownName):
        get_fan("nope")
    with pytest.raises(BadParams):
        get_fan("pn")
    with pytest.raises(BadParams):
        get_fan("xab", 1)
    with pytest.raises(BadParams):
        get_fan("pn", 0)


def test_tower_entry():
    e = get_fan("ewald-tower", 1)
    assert e.notes.dim == 4 and e.notes.rho == 4 and not e.notes.projective
    assert get_fan("ewald-tower", 0).fan == get_fan("oda3").fan


@pytest.mark.parametrize("a,b", [(0, 0), (1, 1), (-1, 0), (2, -2)])
def test_elementary_transformation_neighbors(a, b):
    """Each of the four neighbor fans is one blow-up-then-blow-down away."""
    fan = get_fan("xab", a, b).fan
    moves = {
        (a + 1, b): ((2, 7), 7, 4),  # insert n+n'+(a+1)n'', contract r7 = e + (-n'')
        (a - 1, b): ((4, 7), 7, 2),
        (a, b + 1): ((1, 6), 6, 3),
        (a, b - 1): ((3, 6), 6, 1),
    }
    for target, (curve, ray, partner) in moves.items():
        rec = blow_up_curve(fan, curve)
        image = blow_down(rec.result, ray, (rec.new_ray, partner))
        expected = get_fan("xab", *target).fan
        assert lattice_isomorphism(image, expected) is not None


def test_xab_rays_formula():
    assert xab_rays(2, -1)[6] == (-1, -1, 0)
    assert xab_rays(2, -1)[7] == (1, 1, 2)


@pytest.mark.parametrize("params", [(2.7,), (True,), (1, 0.0)])
def test_non_integer_params_are_rejected(params):
    name = "xab" if len(params) == 2 else "pn"
    with pytest.raises(BadParams):
        get_fan(name, *params)


def test_cache_is_bounded_and_evicted_entries_are_recomputed():
    gallery_mod._entry.cache_clear()
    first = get_fan("hirzebruch", 0)
    for a in range(1, MEMO_SIZE + 1):
        get_fan("hirzebruch", a)
    info = gallery_mod._entry.cache_info()
    assert info.currsize <= MEMO_SIZE
    again = get_fan("hirzebruch", 0)
    assert gallery_mod._entry.cache_info().misses == info.misses + 1
    assert again is not first and again == first
