"""Exact integer and rational linear algebra underlying all fan computations.

Elimination (determinants, adjugates) is fraction-free over Python ints;
`fractions.Fraction` is used only by the exact simplex `phase_one`.  No
floating point is used anywhere.  Vectors are plain tuples, matrices are
sequences of row vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

LatticePoint = tuple[int, ...]


class ZeroVector(ValueError):
    """The zero vector has no direction."""


class DimensionMismatch(ValueError):
    """Vectors of incompatible lengths were combined."""


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def vdot(u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"dot of lengths {len(u)} and {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def vsum(vectors, dim=None):
    """Componentwise sum; `dim` is required for an empty sequence."""
    vectors = list(vectors)
    if not vectors:
        if dim is None:
            raise DimensionMismatch("empty sum without explicit dimension")
        return (0,) * dim
    acc = vectors[0]
    for v in vectors[1:]:
        acc = vadd(acc, v)
    return acc


def content(v) -> int:
    """gcd of the absolute values of the coordinates (0 for the zero vector)."""
    return gcd(*v)


def primitive_vector(v: LatticePoint) -> LatticePoint:
    """Divide an integer vector by its content, keeping the direction."""
    g = content(v)
    if g == 0:
        raise ZeroVector("cannot normalize the zero vector")
    if g == 1:
        return tuple(v)
    return tuple(a // g for a in v)


def determinant(vs) -> int:
    """Exact determinant of the integer matrix whose rows are `vs`.

    Uses fraction-free Bareiss elimination, so intermediate values stay
    integral regardless of size.
    """
    rows = [list(r) for r in vs]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise DimensionMismatch(f"need {n} vectors of dimension {n}")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k] != 0:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[n - 1][n - 1]


def adjugate(rows):
    """(det, adj) of a square integer matrix, with rows . adj == det * I
    exactly; adj is None when det == 0.

    Fraction-free Gauss-Jordan on [rows | I]: each step divides exactly by
    the previous pivot (Bareiss), so every entry stays an integer minor, and
    the matrix ends as [d I | d rows^-1], d the determinant of the
    row-permuted matrix.
    """
    n = len(rows)
    aug = []
    for i, r in enumerate(rows):
        if len(r) != n:
            raise DimensionMismatch(f"need {n} vectors of dimension {n}")
        aug.append(list(r) + [int(i == j) for j in range(n)])
    sign = prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if aug[i][k] != 0), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            aug[k], aug[pivot] = aug[pivot], aug[k]
            sign = -sign
        top = aug[k]
        pk = top[k]
        for i in range(n):
            if i != k:
                f = aug[i][k]
                aug[i] = [(pk * a - f * b) // prev for a, b in zip(aug[i], top)]
        prev = pk
    return sign * prev, [[sign * a for a in row[n:]] for row in aug]


def phase_one(rows, rhs):
    """Exact phase-one simplex: decide whether {x >= 0 : rows . x = rhs} is nonempty.

    Minimizes the sum of artificial variables with Bland's rule, so the run
    always terminates.  Returns a triple (feasible, x, y):

    * feasible: whether the system has a solution,
    * x: a solution (length = number of columns) when feasible, else None,
    * y: a Farkas certificate when infeasible, else None.  It satisfies
      y . rows[:, j] <= 0 for every column j and y . rhs > 0, exactly.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    tab = []
    b = []
    flip = []
    for i in range(m):
        if rhs[i] < 0:
            tab.append([Fraction(-a) for a in rows[i]])
            b.append(Fraction(-rhs[i]))
            flip.append(-1)
        else:
            tab.append([Fraction(a) for a in rows[i]])
            b.append(Fraction(rhs[i]))
            flip.append(1)
    # append artificial identity columns
    for i in range(m):
        tab[i] += [Fraction(int(i == j)) for j in range(m)]
    total = ncols + m
    basis = list(range(ncols, total))
    # reduced costs for min(sum of artificials): c_j - 1^T A_j
    cost = [Fraction(0)] * total
    for j in range(ncols):
        cost[j] = -sum(tab[i][j] for i in range(m))
    value = -sum(b)

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = b[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-one objective is bounded; no pivot row found")
        pv = tab[leave][enter]
        tab[leave] = [a / pv for a in tab[leave]]
        b[leave] /= pv
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * c for a, c in zip(tab[i], tab[leave])]
                b[i] -= f * b[leave]
        f = cost[enter]
        cost = [a - f * c for a, c in zip(cost, tab[leave])]
        value -= f * b[leave]
        basis[leave] = enter

    optimum = -value
    if optimum == 0:
        x = [Fraction(0)] * ncols
        for i, var in enumerate(basis):
            if var < ncols:
                x[var] = b[i]
        return True, x, None
    # dual from the reduced costs of the artificial columns: y'_i = 1 - cost[art_i]
    y = [flip[i] * (1 - cost[ncols + i]) for i in range(m)]
    return False, None, y
