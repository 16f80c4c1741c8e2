"""Exact integer linear algebra underlying all fan computations.

The one elimination routine, `adjugate` (which also yields the determinant),
and the exact simplex `phase_one` are fraction-free over Python ints: the
simplex keeps an integer tableau over one common denominator, updating only
the pivot row's non-zero columns when a pivot keeps that denominator, and
returns that denominator with the integer numerators of its solution or its
Farkas certificate.  There are no fractions and no floating point here.
Vectors are plain tuples, matrices are sequences of row vectors.
"""

from __future__ import annotations

from math import gcd
from operator import mul

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
    return sum(map(mul, u, v))


def vsum(vectors):
    """Componentwise sum of a non-empty sequence of vectors."""
    vectors = list(vectors)
    if not vectors:
        raise DimensionMismatch("empty sum has no dimension")
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

    Gauss-Jordan on [rows | I] without fractions: each step divides exactly by
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
    always terminates.  Returns a triple (feasible, den, v) of integers, den
    the final common denominator D > 0 (see below):

    * feasible: whether the system has a solution,
    * v when feasible: D x for a solution x >= 0 (one entry per column), so
      rows . v = D rhs;
    * v when infeasible: D y for a Farkas certificate y (one entry per row),
      so v . rows[:, j] <= 0 for every column j and v . rhs > 0.

    The tableau, its right-hand side and the reduced-cost row are integers
    over one common denominator D > 0, the determinant of the current basis
    (Edmonds 1967).  A pivot at (r, e) keeps row r, maps every other row a,
    the cost row included, to (p a - f a_r) / D with p = tab[r][e] and
    f = a[e], and makes p the new D; the division is exact by Sylvester's
    identity (Bareiss 1968).  Most pivots have p = D (the rational pivot
    element is 1); the update is then a - f a_r / D, exact because D a is
    divisible by D, so it touches only the columns where a_r != 0, in place,
    and only in the rows with f != 0 and the cost row.  Since D > 0 the
    signs, the ratio comparisons and so the pivots are those of the
    rational simplex.  x is read off the basic rows' right-hand sides and
    y_i = flip_i (1 - cost[art_i] / D), flip_i the sign row i was multiplied
    by; both are returned times D.
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
    cost = [-sum(col) for col in zip(*tab)] if m else [0]
    cost[ncols:total] = [0] * m
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
        if p == denom:
            # (p a - f c) / D = a - f c / D: only the entries where c != 0 move
            nonzero = [(j, c) for j, c in enumerate(top) if c]
            for i, row in enumerate(tab):
                f = row[enter]
                if f and i != leave:
                    for j, c in nonzero:
                        row[j] -= f * c // denom
            f = cost[enter]
            for j, c in nonzero:
                cost[j] -= f * c // denom
        else:
            for i, row in enumerate(tab):
                if i != leave:
                    f = row[enter]
                    if f:
                        tab[i] = [(p * a - f * c) // denom for a, c in zip(row, top)]
                    else:
                        tab[i] = [p * a // denom for a in row]
            f = cost[enter]
            cost = [(p * a - f * c) // denom for a, c in zip(cost, top)]
            denom = p
        basis[leave] = enter

    if cost[total] == 0:
        x = [0] * ncols
        for i, var in enumerate(basis):
            if var < ncols:
                x[var] = tab[i][total]
        return True, denom, x
    return False, denom, [flip[i] * (denom - cost[ncols + i]) for i in range(m)]
