from toricfan.birational import blow_up_curve
from toricfan.fan import picard_number, wall_lookup, walls
from toricfan.intersection import (
    all_relations,
    anticanonical_degree,
    chi_normal_curve,
    is_fano,
    wall_relation,
)
from fraction_oracle import rational_rank
from toricfan.lattice import vadd, vscale


def test_p2_line_relation(p2):
    rel = wall_relation(p2, wall_lookup(p2, (0,)))
    assert rel.normal_degrees == (1,)
    assert rel.coeffs == (1, 1, 1)
    assert anticanonical_degree(rel) == 3


def test_f1_exceptional_relation(f1):
    rel = wall_relation(f1, wall_lookup(f1, (1,)))
    assert rel.normal_degrees == (-1,)
    assert anticanonical_degree(rel) == 1


def test_f1_degree_spectrum(f1):
    degrees = sorted(anticanonical_degree(rel) for rel in all_relations(f1))
    assert degrees == [1, 2, 2, 3]
    assert is_fano(f1)


def test_blowup_fiber_relation(p3):
    rec = blow_up_curve(p3, (0, 1))
    fiber = next(w for w in rec.exceptional_walls if w.rays == (2, rec.new_ray))
    rel = wall_relation(rec.result, fiber)
    assert rel.coeffs[rec.new_ray] == -1
    assert rel.coeffs[2] == 0
    assert anticanonical_degree(rel) == 1


def test_fano_flags(p2, oda):
    assert is_fano(p2)
    assert not is_fano(oda.fan)


def test_oda_distinguished_degrees(oda):
    for rays in oda.notes.distinguished_walls:
        rel = wall_relation(oda.fan, wall_lookup(oda.fan, rays))
        assert rel.normal_degrees == (-1, -1)
        assert anticanonical_degree(rel) == 0
        assert chi_normal_curve(oda.fan, rel.wall) == 0


def test_chi_line_in_p3(p3):
    assert chi_normal_curve(p3, wall_lookup(p3, (0, 1))) == 4


def test_p2_degeneracy(p2):
    classes = {rel.coeffs for rel in all_relations(p2)}
    assert classes == {(1, 1, 1)}


def test_relations_sum_to_zero(p2, p3, f1, p1xp1, oda):
    for f in (p2, p3, f1, p1xp1, oda.fan):
        for rel in all_relations(f):
            total = (0,) * f.dim
            for idx, c in enumerate(rel.coeffs):
                total = vadd(total, vscale(c, f.rays[idx]))
            assert total == (0,) * f.dim


def test_anticanonical_is_all_ones_pairing(oda):
    for rel in all_relations(oda.fan):
        assert anticanonical_degree(rel) == sum(rel.coeffs)


def test_class_rank_equals_picard(p2, p3, f1, p1xp1, oda):
    for f in (p2, p3, f1, p1xp1, oda.fan):
        rank = rational_rank([list(rel.coeffs) for rel in all_relations(f)])
        assert rank == picard_number(f)
