"""Rational Gauss-Jordan elimination and the rational phase-one simplex over
`fractions.Fraction`: the test oracles for the fraction-free
`toricfan.lattice.adjugate` and `toricfan.lattice.phase_one`.

These routines solved the library's cone-basis systems and linear programs
before the integer adjugate and the integer-tableau simplex replaced them;
they are kept unchanged, outside the library, so the tests can run the new
kernels differentially against the old ones.
"""

from fractions import Fraction


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
