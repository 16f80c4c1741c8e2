"""Rational Gauss-Jordan elimination over `fractions.Fraction`: the test
oracle for the fraction-free `toricfan.lattice.adjugate`.

These routines solved the library's cone-basis systems before the integer
adjugate replaced them; they are kept unchanged, outside the library, so the
tests can run the new elimination differentially against the old one.
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
