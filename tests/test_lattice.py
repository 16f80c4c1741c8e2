import itertools
import random
from fractions import Fraction

import pytest

from fraction_oracle import determinant, rational_inverse, rational_rank, solve_columns, unimodular_inverse
from fraction_oracle import phase_one as oracle_phase_one
from toricfan.lattice import (
    DimensionMismatch,
    ZeroVector,
    adjugate,
    phase_one,
    primitive_vector,
    vadd,
    vdot,
    vscale,
    vsum,
)


def test_primitive_vector_examples():
    assert primitive_vector((2, 4)) == (1, 2)
    assert primitive_vector((-3, 6, -9)) == (-1, 2, -3)
    with pytest.raises(ZeroVector):
        primitive_vector((0, 0))


def test_primitive_vector_idempotent():
    rng = random.Random(3)
    for _ in range(100):
        v = tuple(rng.randint(-40, 40) for _ in range(rng.randint(1, 5)))
        if not any(v):
            continue
        p = primitive_vector(v)
        assert primitive_vector(p) == p


def test_determinant_examples():
    assert determinant([(1, 0), (0, 1)]) == 1
    assert determinant([(1, 0), (1, 2)]) == 2
    assert determinant([(-1, -1, -1), (0, -1, -1), (-1, 0, -1)]) == -1
    with pytest.raises(DimensionMismatch):
        determinant([(1, 0, 0), (0, 1, 0)])


def test_determinant_alternating_and_exact():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 5)
        rows = [tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n)]
        d = determinant(rows)
        i, j = rng.sample(range(n), 2)
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert determinant(swapped) == -d
        # multilinearity in one row: scaling row i by c scales det by c
        c = rng.randint(-3, 3)
        scaled = list(rows)
        scaled[i] = vscale(c, rows[i])
        assert determinant(scaled) == c * d


def test_solve_columns_examples():
    assert solve_columns([(1, 0)], vsum([(0, 1), (-1, -1)])) == [-1]
    assert solve_columns([(1, 1, 0)], vsum([(1, 0, 0), (0, 1, 0)])) == [1]
    assert solve_columns([(0, 1)], vsum([(1, 0)])) is None


def test_solve_columns_resubstitutes():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 4)
        basis = []
        while rational_rank(basis) < n:
            basis = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)]
        targets = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        total = vsum(targets)
        coeffs = solve_columns(basis, total)
        rebuilt = (Fraction(0),) * n
        for c, b in zip(coeffs, basis):
            rebuilt = vadd(rebuilt, vscale(c, b))
        assert tuple(rebuilt) == tuple(Fraction(x) for x in total)


def test_unimodular_inverse():
    mat = [(1, 0, 0), (2, 1, 0), (3, 4, 1)]
    inv = unimodular_inverse(mat)
    for i in range(3):
        for j in range(3):
            assert vdot(mat[i], tuple(inv[k][j] for k in range(3))) == (i == j)
    with pytest.raises(ValueError):
        unimodular_inverse([(1, 0), (0, 2)])


def test_phase_one_feasible_and_infeasible():
    # x0 + x1 = 2, x0 - x1 = 0 has x = (1, 1)
    feasible, x, y = phase_one([[1, 1], [1, -1]], [2, 0])
    assert feasible and y is None
    assert x[0] + x[1] == 2 and x[0] - x[1] == 0
    # x0 + x1 = -1 with x >= 0 is infeasible; Farkas vector must certify it
    feasible, x, y = phase_one([[1, 1]], [-1])
    assert not feasible and x is None
    assert y[0] * 1 <= 0 and y[0] * (-1) > 0


def test_phase_one_farkas_certificate_random():
    rng = random.Random(19)
    for _ in range(60):
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        feasible, x, y = phase_one(rows, rhs)
        if feasible:
            assert all(v >= 0 for v in x)
            for i in range(m):
                assert sum(rows[i][j] * x[j] for j in range(k)) == rhs[i]
        else:
            for j in range(k):
                assert sum(y[i] * rows[i][j] for i in range(m)) <= 0
            assert sum(y[i] * rhs[i] for i in range(m)) > 0



def _first_pivot_tied(rows, rhs):
    """Whether the ratio test of the first Bland pivot has a tie."""
    signed = [[-a for a in r] + [-b] if b < 0 else list(r) + [b] for r, b in zip(rows, rhs)]
    enter = next((j for j in range(len(rows[0])) if sum(r[j] for r in signed) > 0), None)
    if enter is None:
        return False
    ratios = [Fraction(r[-1], r[enter]) for r in signed if r[enter] > 0]
    return ratios.count(min(ratios)) > 1


def test_phase_one_agrees_with_fraction_oracle_on_random_systems():
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    tied = negative = 0
    for trial in range(1500):
        m, n = rng.randint(1, 8), rng.randint(1, 12)
        rows = [[rng.choice((-2, -1, 0, 0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(m)]
        if trial % 2:
            # rhs = rows . x0 for a sparse x0 >= 0: feasible and often degenerate
            x0 = [rng.choice((0, 0, 0, 1, 2)) for _ in range(n)]
            rhs = [sum(a * b for a, b in zip(row, x0)) for row in rows]
        else:
            rhs = [rng.randint(-3, 3) for _ in range(m)]
        if m > 1 and rng.random() < 0.4:
            # a row repeated with a multiple of its right-hand side: ratio ties
            i, j = rng.sample(range(m), 2)
            c = rng.choice((1, 2, -1))
            rows[j], rhs[j] = [c * a for a in rows[i]], c * rhs[i]
        got = phase_one(rows, rhs)
        assert got == oracle_phase_one(rows, rhs), (rows, rhs)
        outcomes[got[0]] += 1
        tied += _first_pivot_tied(rows, rhs)
        negative += any(b < 0 for b in rhs)
    assert min(outcomes.values()) >= 300
    assert tied >= 150 and negative >= 500

def _minor_rank(rows):
    """Size of the largest non-zero minor, by Bareiss determinants."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rs in itertools.combinations(range(m), k):
            for cs in itertools.combinations(range(n), k):
                if determinant([[rows[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _random_matrix(rng, m, n):
    """An m x n integer matrix, of deficient rank about half the time."""
    if rng.random() < 0.5:
        r = rng.randint(0, min(m, n) - 1)
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(m)]
        right = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        return _matmul(left, right) if r else [[0] * n for _ in range(m)]
    return [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]


def _random_unimodular(rng, n):
    """A product of random elementary integer row operations and a sign."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    if rng.random() < 0.5:
        mat[0] = [-a for a in mat[0]]
    return mat


def test_elimination_agrees_with_bareiss_oracle():
    rng = random.Random(23)
    identity = {n: [[Fraction(int(i == j)) for j in range(n)] for i in range(n)] for n in range(1, 7)}
    inconsistent = 0
    for trial in range(240):
        m = rng.randint(1, 6)
        n = m if trial % 2 else rng.randint(1, 6)
        rows = _random_matrix(rng, m, n)
        rank = _minor_rank(rows)
        assert rational_rank(rows) == rank

        # the columns of `rows` against a target in their span, then an arbitrary one
        columns = [tuple(row[j] for row in rows) for j in range(n)]
        x = [rng.randint(-3, 3) for _ in range(n)]
        for target in ([sum(r * c for r, c in zip(row, x)) for row in rows],
                       [rng.randint(-4, 4) for _ in range(m)]):
            coeffs = solve_columns(columns, target)
            consistent = _minor_rank([row + [t] for row, t in zip(rows, target)]) == rank
            assert (coeffs is not None) == consistent
            if coeffs is None:
                inconsistent += 1
            else:
                assert [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(m)] == target

        if m != n:
            continue
        d = determinant(rows)
        inv = rational_inverse(rows)
        assert (inv is None) == (d == 0)
        if inv is not None:
            assert _matmul(inv, rows) == identity[n]
        for mat in (rows, _random_unimodular(rng, n)):
            if abs(determinant(mat)) != 1:
                with pytest.raises(ValueError):
                    unimodular_inverse(mat)
            else:
                assert _matmul(unimodular_inverse(mat), mat) == identity[n]
    assert inconsistent >= 20


def test_adjugate_agrees_with_fraction_oracle():
    rng = random.Random(29)
    singular = unimodular = 0
    for trial in range(420):
        n = trial % 7 + 1
        for rows in (_random_matrix(rng, n, n), _random_unimodular(rng, n)):
            det, adj = adjugate(rows)
            assert det == determinant(rows)
            inv = rational_inverse(rows)
            if det == 0:
                assert adj is None and inv is None
                singular += 1
                continue
            assert _matmul(rows, adj) == [[det * int(i == j) for j in range(n)] for i in range(n)]
            assert adj == [[det * a for a in row] for row in inv]
            if abs(det) == 1:
                assert adj == [[det * a for a in row] for row in unimodular_inverse(rows)]
                unimodular += 1
    assert singular >= 150 and unimodular >= 420
    assert adjugate([]) == (1, [])
    with pytest.raises(DimensionMismatch):
        adjugate([(1, 0, 0), (0, 1, 0)])
