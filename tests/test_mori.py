from fractions import Fraction
from math import lcm

import pytest

from fm_oracle import fan_is_projective
from fraction_oracle import solve_columns
from toricfan.fan import wall_lookup, walls
from toricfan.gallery import get_fan
from toricfan.intersection import all_relations
from toricfan.lattice import vdot
import toricfan.mori as mori_mod
from toricfan.mori import (
    Birational,
    Fibration,
    NotExtremal,
    classify_contraction,
    extremal_classes,
    is_extremal,
    is_projective,
    mori_generators,
)


def test_p2_generators(p2):
    gens = mori_generators(p2)
    assert len(gens) == 1
    vec, ws = gens[0]
    assert vec == (1, 1, 1) and len(ws) == 3
    assert is_extremal(p2, ws[0])


def test_p1xp1_generators(p1xp1):
    gens = mori_generators(p1xp1)
    assert len(gens) == 2
    assert all(len(ws) == 2 for _, ws in gens)


def test_f1_classes_and_extremality(f1):
    gens = dict(mori_generators(f1))
    exceptional = (1, -1, 1, 0)
    fiber = (0, 1, 0, 1)
    section = (1, 0, 1, 1)
    assert set(gens) == {exceptional, fiber, section}
    extremal = {vec for vec, _ in extremal_classes(f1)}
    assert extremal == {exceptional, fiber}
    # the non-extremal generator decomposes explicitly
    assert section == tuple(a + b for a, b in zip(exceptional, fiber))
    assert not is_extremal(f1, wall_lookup(f1, (3,)))


def test_projectivity_witness_p2(p2):
    verdict = is_projective(p2)
    assert verdict.projective and verdict.degeneracy_certificate is None
    for rel in all_relations(p2):
        assert vdot(verdict.ample_witness, rel.coeffs) >= 1


def test_oda_certificate(oda):
    verdict = is_projective(oda.fan)
    assert not verdict.projective and verdict.ample_witness is None
    cert = verdict.degeneracy_certificate
    assert cert and all(y > 0 for y in cert.values())
    total = [0] * oda.fan.n_rays
    for w, y in cert.items():
        rel = next(r for r in all_relations(oda.fan) if r.wall == w)
        for i, c in enumerate(rel.coeffs):
            total[i] += y * c
    assert all(v == 0 for v in total)


def test_verdict_serialization(p2, oda):
    d = is_projective(p2).to_dict(p2)
    assert d["projective"] is True
    assert all(isinstance(s, str) for s in d["witness"])
    d = is_projective(oda.fan).to_dict(oda.fan)
    assert d["projective"] is False
    assert all(set(item) == {"wall", "y"} for item in d["certificate"])


def test_xab_non_projective():
    assert not is_projective(get_fan("xab", 1, 0).fan).projective


def test_contraction_classification(p2, f1, p1xp1):
    info = classify_contraction(p2, wall_lookup(p2, (0,)))
    assert info.alpha == 0 and info.beta == 0
    assert info.kind == Fibration(base_dim=0)
    assert info.mori_extremal

    info = classify_contraction(f1, wall_lookup(f1, (1,)))
    assert info.kind == Birational(exceptional_dim=1, image_dim=0, fiber_dim=1, divisorial=True)
    assert info.mori_extremal

    info = classify_contraction(p1xp1, wall_lookup(p1xp1, (0,)))
    assert info.kind == Fibration(base_dim=1)

    with pytest.raises(NotExtremal):
        classify_contraction(f1, wall_lookup(f1, (3,)))


def test_contraction_bounds(oda):
    f = oda.fan
    for vec, ws in extremal_classes(f):
        info = classify_contraction(f, ws[0])
        assert 0 <= info.alpha <= info.beta <= f.dim - 1
        if isinstance(info.kind, Birational):
            assert info.alpha >= 1
            assert info.kind.exceptional_dim == f.dim - info.alpha
            assert info.kind.divisorial == (info.alpha == 1)


def test_fm_oracle_agrees_on_small_set(p2, p3, f1, p1xp1, oda):
    for f in (p2, p3, f1, p1xp1, oda.fan, get_fan("xab", 1, 0).fan, get_fan("xab", 0, 2).fan):
        assert fan_is_projective(f) == is_projective(f).projective


# two classes of xab(-2, -2) that neither cheap proof decides: both need the LP
XAB22_EXTREMAL = (-1, 0, 0, 1, -2, 0, 0, 1)
XAB22_NOT_EXTREMAL = (-1, 0, 2, 1, 0, 0, 0, 1)


def _wrong_answers():
    """phase_one stand-ins that return a wrong verdict or a wrong proof, in
    its shape (feasible, den, integer v)."""

    def negative_combination(rows, rhs):
        # an exact rational combination of the other classes, but with a
        # negative coefficient: only possible when the target is extremal
        columns = [tuple(row[j] for row in rows) for j in range(len(rows[0]))]
        x = solve_columns(columns, rhs)
        den = lcm(*(c.denominator for c in x))
        return True, den, [int(c * den) for c in x]

    def zero_combination(rows, rhs):
        return True, 1, [0] * len(rows[0])

    def zero_certificate(rows, rhs):
        return False, 1, [0] * len(rows)

    def target_as_certificate(rows, rhs):
        # y . target > 0, so y is positive on some other class whenever the
        # target is a nonnegative combination of them
        return False, 1, list(rhs)

    return {
        "negative_combination": (negative_combination, XAB22_EXTREMAL),
        "zero_combination": (zero_combination, XAB22_EXTREMAL),
        "zero_certificate": (zero_certificate, XAB22_NOT_EXTREMAL),
        "target_as_certificate": (target_as_certificate, XAB22_NOT_EXTREMAL),
    }


@pytest.fixture
def xab22():
    return get_fan("xab", -2, -2).fan


@pytest.mark.parametrize("name", sorted(_wrong_answers()))
def test_extremality_verdict_is_reverified(monkeypatch, xab22, name):
    fake, target = _wrong_answers()[name]
    assert mori_mod._extremal_raw(xab22, target) == (target == XAB22_EXTREMAL)
    calls = []
    monkeypatch.setattr(mori_mod, "phase_one", lambda rows, rhs: calls.append(rows) or fake(rows, rhs))
    with pytest.raises(AssertionError, match="extremality"):
        mori_mod._extremal_raw(xab22, target)
    assert calls, "the class must reach the LP"


def test_wrong_extremality_answer_exits_3(monkeypatch, capsys, tmp_path, xab22):
    import toricfan.fan as fan_mod
    from toricfan.cli import run

    path = tmp_path / "xab.json"
    path.write_text(xab22.to_json())
    monkeypatch.setattr(mori_mod, "phase_one", _wrong_answers()["zero_certificate"][0])
    fan_mod._memo.cache_clear()  # pose the extremality LPs afresh
    assert run(["mori", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant violation: extremality")


def _wrong_cheap_proofs():
    """Stand-ins for the sign and two-sum proofs that claim a proof for the
    non-extremal class of xab(-2, -2), where neither cheap proof exists."""

    def sign(target, others):
        # e_i at a positive entry of the target: some class it is a
        # nonnegative combination of is positive there too
        i = next(i for i, t in enumerate(target) if t > 0)
        return False, 1, [int(j == i) for j in range(len(target))]

    def two_sum(target, others):
        return True, 1, [1, 1] + [0] * (len(others) - 2)

    return {"_sign_proof": sign, "_two_sum_proof": two_sum}


@pytest.mark.parametrize("name", sorted(_wrong_cheap_proofs()))
def test_wrong_cheap_proof_is_rejected(monkeypatch, xab22, name):
    target = XAB22_NOT_EXTREMAL
    others = [vec for vec, _ in mori_generators(xab22) if vec != target]
    assert mori_mod._sign_proof(target, others) is None
    assert mori_mod._two_sum_proof(target, others) is None
    assert tuple(a + b for a, b in zip(*others[:2])) != target
    monkeypatch.setattr(mori_mod, name, _wrong_cheap_proofs()[name])
    with pytest.raises(AssertionError, match="extremality"):
        mori_mod._extremal_raw(xab22, target)


@pytest.mark.parametrize("scale", [Fraction(0), Fraction(1, 2)])
def test_projectivity_witness_is_reverified(monkeypatch, p2, scale):
    real = mori_mod.phase_one

    def shrunk(rows, rhs):
        # the answer times scale: numerators times its numerator, den times its denominator
        feasible, den, x = real(rows, rhs)
        return feasible, den * scale.denominator, [scale.numerator * a for a in x]

    assert mori_mod._projectivity_raw(p2).projective
    monkeypatch.setattr(mori_mod, "phase_one", shrunk)
    with pytest.raises(AssertionError, match="ample witness"):
        mori_mod._projectivity_raw(p2)


def test_zero_projectivity_certificate_is_rejected(monkeypatch, oda):
    # an all-zero Farkas vector has gcd 0: it must fail the sign check, not divide by it
    monkeypatch.setattr(mori_mod, "phase_one", lambda rows, rhs: (False, 1, [0] * len(rows)))
    with pytest.raises(AssertionError, match="certificate signs"):
        mori_mod._projectivity_raw(oda.fan)
