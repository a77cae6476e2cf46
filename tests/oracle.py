"""Fraction Gauss-Jordan elimination: the tests' oracle for rank and linear
solving.

It shares no code with the package, whose row reduction is a fraction-free
integer echelon, so tests may check the package's ``rank``,
``solve_linear_system`` and enumerations against it.
"""

from __future__ import annotations

from fractions import Fraction

UNDERDETERMINED = "UNDERDETERMINED"
INCONSISTENT = "INCONSISTENT"


def _forward_eliminate(rows: list, ncols: int) -> list:
    """Reduce ``rows`` in place to reduced row-echelon form over the first
    ``ncols`` columns; returns the pivot column of each eliminated row."""
    pivots: list = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        prow = rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(vectors) -> int:
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    if not rows:
        return 0
    return len(_forward_eliminate(rows, len(rows[0])))


def solve(a, b):
    """The unique solution of ``a @ x == b`` as a tuple of Fractions, else
    ``INCONSISTENT`` (checked first) or ``UNDERDETERMINED``."""
    ncols = len(a[0]) if a else 0
    rows = [[Fraction(v) for v in row] + [Fraction(rhs)] for row, rhs in zip(a, b)]
    pivots = _forward_eliminate(rows, ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return INCONSISTENT
    if len(pivots) < ncols:
        return UNDERDETERMINED
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return tuple(x)
