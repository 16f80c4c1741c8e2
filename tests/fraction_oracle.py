"""Rational Gauss-Jordan elimination, the Bareiss `determinant`, the
rational phase-one simplex over `fractions.Fraction` and the full-row
extremality LP: the test oracles for the fraction-free
`toricfan.lattice.adjugate`, the cone-basis table `toricfan.fan.cone_bases`
built on it, `toricfan.lattice.phase_one` and `toricfan.mori._extremal_raw`.

These routines solved the library's cone-basis systems, determinants and
linear programs before the integer adjugate, the integer-tableau simplex and
the proof-first extremality test replaced them; they are kept, outside the
library, so the tests can run the new code differentially against the old.
The only change since is that `phase_one` skips the zero entries of its
pivot row, which changes no value and no pivot.  Only public names of the
library are used here.
"""

from fractions import Fraction
from math import lcm

from toricfan.lattice import DimensionMismatch, primitive_vector, vdot
from toricfan.mori import mori_generators


def _gauss_jordan(aug, ncols):
    """Reduce the Fraction rows of `aug` in place to reduced row echelon form
    in their first `ncols` columns; later columns are carried along.

    Returns the pivot columns; the k-th is the leading column of row k, and
    rows from len(pivots) on vanish in the first `ncols` columns.
    """
    m = len(aug)
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == m:
            break
        pivot = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pv = aug[row][col]
        aug[row] = [a / pv for a in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
    return pivots


def solve_columns(columns, target):
    """Solve sum_j c_j * columns[j] = target exactly over the rationals.

    Returns the coefficient list (free coefficients set to 0) or None if the
    system is inconsistent.
    """
    m = len(target)
    k = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(target[i])] for i in range(m)]
    pivots = _gauss_jordan(aug, k)
    if any(aug[r][k] != 0 for r in range(len(pivots), m)):
        return None
    coeffs = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        coeffs[c] = aug[r][k]
    return coeffs


def rational_rank(rows) -> int:
    """Rank over Q of the matrix with the given rows."""
    mat = [[Fraction(a) for a in r] for r in rows]
    return len(_gauss_jordan(mat, len(mat[0]) if mat else 0))


def rational_inverse(rows):
    """Inverse of a square integer matrix as rows of Fractions, or None if
    the matrix is singular."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    if len(_gauss_jordan(aug, n)) < n:
        return None
    return [row[n:] for row in aug]


def unimodular_inverse(rows):
    """Integer inverse of a unimodular integer matrix (|det| = 1)."""
    inv = rational_inverse(rows)
    if inv is None:
        raise ValueError("matrix is singular")
    if any(a.denominator != 1 for row in inv for a in row):
        raise ValueError("matrix is not unimodular")
    return [tuple(int(a) for a in row) for row in inv]


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


def phase_one(rows, rhs, pivots=None):
    """Exact phase-one simplex: decide whether {x >= 0 : rows . x = rhs} is nonempty.

    Minimizes the sum of artificial variables with Bland's rule, so the run
    always terminates.  Returns a triple (feasible, x, y):

    * feasible: whether the system has a solution,
    * x: a solution (length = number of columns) when feasible, else None,
    * y: a Farkas certificate when infeasible, else None.  It satisfies
      y . rows[:, j] <= 0 for every column j and y . rhs > 0, exactly.

    Each pivot element is appended to the list `pivots` when one is given
    (see `pivot_branches`).
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
        if pivots is not None:
            pivots.append(pv)
        tab[leave] = [a / pv for a in tab[leave]]
        b[leave] /= pv
        # a - f * 0 = a: only the pivot row's non-zero entries change a row
        support = [(j, c) for j, c in enumerate(tab[leave]) if c != 0]
        for i in range(m):
            f = tab[i][enter]
            if i != leave and f != 0:
                row = tab[i]
                for j, c in support:
                    row[j] -= f * c
                b[i] -= f * b[leave]
        f = cost[enter]
        for j, c in support:
            cost[j] -= f * c
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


def as_fractions(answer):
    """The integer kernel's answer (feasible, den, v) in the shape of
    `phase_one` above, (feasible, x, y) with x or y = v / den."""
    feasible, den, v = answer
    assert den > 0, den
    v = [Fraction(a, den) for a in v]
    return (True, v, None) if feasible else (False, None, v)


def _clear_denominators(values):
    """(den, ints): den > 0 the lcm of the denominators of the rationals
    `values`, and ints[i] == den * values[i]."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def pivot_branches(pivots):
    """The kinds of pivot `toricfan.lattice.phase_one` makes on a system,
    given the pivot elements `phase_one` above recorded on it: the integer
    pivot p equals the common denominator D exactly when the rational pivot
    element p / D is 1."""
    return {"p = D" if pv == 1 else "p != D" for pv in pivots}


def full_row_extremal(f, target) -> bool:
    """Whether the class `target` spans an edge of the cone of wall classes,
    by one phase-one LP with a row per ray of `f`, its answer re-verified
    over the integers.  This was the library's `mori._extremal_raw`; here
    `phase_one` is the rational simplex above."""
    direction = primitive_vector(target)
    others = [
        vec for vec, _ in mori_generators(f) if primitive_vector(vec) != direction
    ]
    if not others:
        return True
    rows = [[vec[i] for vec in others] for i in range(f.n_rays)]
    feasible, x, y = phase_one(rows, list(target))
    # re-verify over the integers: both proofs are invariant under scaling by den > 0
    if feasible:
        den, coeffs = _clear_denominators(x)
        combo = [sum(c * vec[i] for c, vec in zip(coeffs, others)) for i in range(f.n_rays)]
        if any(c < 0 for c in coeffs) or combo != [den * t for t in target]:
            raise AssertionError("extremality combination failed re-verification")
    else:
        _, farkas = _clear_denominators(y)
        if any(vdot(farkas, vec) > 0 for vec in others) or vdot(farkas, target) <= 0:
            raise AssertionError("extremality certificate failed re-verification")
    return not feasible
