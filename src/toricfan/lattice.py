"""Exact integer and rational linear algebra underlying all fan computations.

The one elimination routine, `adjugate` (which also yields the determinant),
and the exact simplex `phase_one` are fraction-free over Python ints: the
simplex keeps an integer tableau over one common denominator, and
`fractions.Fraction` appears only in the solution and the Farkas certificate
it returns.  No floating point is used anywhere.
Vectors are plain tuples, matrices are sequences of row vectors.
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

    The tableau, its right-hand side and the reduced-cost row are integers
    over one common denominator D > 0, the determinant of the current basis
    (Edmonds 1967).  A pivot at (r, e) keeps row r, maps every other row a,
    the cost row included, to (p a - f a_r) / D with p = tab[r][e] and
    f = a[e], and makes p the new D; the division is exact by Sylvester's
    identity (Bareiss 1968).  Since D > 0 the signs, the ratio comparisons
    and so the pivots are those of the rational simplex.  Fractions are
    built only for the returned x and y.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    total = ncols + m
    # row i: the row (negated if rhs[i] < 0), its artificial unit column, rhs
    tab = []
    flip = []
    for i in range(m):
        s = -1 if rhs[i] < 0 else 1
        unit = [0] * m
        unit[i] = 1
        tab.append([s * a for a in rows[i]] + unit + [s * rhs[i]])
        flip.append(s)
    # reduced costs of min(sum of artificials), then minus its value
    cost = [-sum(row[j] for row in tab) for j in range(ncols)] + [0] * m
    cost.append(-sum(row[total] for row in tab))
    basis = list(range(ncols, total))
    denom = 1

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i, row in enumerate(tab):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # b_i / a_i against the best b_l / a_l, both a > 0
                ours = row[total] * tab[leave][enter]
                theirs = tab[leave][total] * a
                if ours < theirs or (ours == theirs and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise AssertionError("phase-one objective is bounded; no pivot row found")
        top = tab[leave]
        p = top[enter]
        for i, row in enumerate(tab):
            if i != leave:
                f = row[enter]
                if f:
                    tab[i] = [(p * a - f * c) // denom for a, c in zip(row, top)]
                elif p != denom:
                    tab[i] = [p * a // denom for a in row]
        f = cost[enter]
        cost = [(p * a - f * c) // denom for a, c in zip(cost, top)]
        basis[leave] = enter
        denom = p

    if cost[total] == 0:
        x = [Fraction(0)] * ncols
        for i, var in enumerate(basis):
            if var < ncols:
                x[var] = Fraction(tab[i][total], denom)
        return True, x, None
    # dual from the reduced costs of the artificial columns: y'_i = 1 - cost[art_i]
    y = [flip[i] * (1 - Fraction(cost[ncols + i], denom)) for i in range(m)]
    return False, None, y
