"""The tests' Fraction oracles.

* Gauss-Jordan elimination for rank and linear solving.  The package's row
  reduction is a fraction-free integer echelon, so tests may check its
  ``rank``, ``solve_linear_system`` and enumerations against this one.
* The sampled universal-optimality loop, prior by prior in Fractions.  The
  package scores its sampled priors in integers, so tests may check its
  sampled verdicts against this one.

Neither shares code with the package.
"""

from __future__ import annotations

import random
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


def kernel_rows(kernel) -> tuple:
    """A kernel's channel rows by Bayes inversion: ``C[x][j]`` is
    ``outer_j * inner_j[x] / prior[x]``, where the prior is the mean posterior.
    """
    rows = []
    for x in range(len(kernel.x_labels)):
        px = sum(o * inner[x] for o, inner in zip(kernel.outers, kernel.inners))
        rows.append(tuple(o * inner[x] / px for o, inner in zip(kernel.outers, kernel.inners)))
    return tuple(rows)


def uncertainty(table, probs, rows) -> Fraction:
    """Sum over output columns of the smallest expected loss of an action."""
    total = Fraction(0)
    for j in range(len(rows[0])):
        joint = [p * row[j] for p, row in zip(probs, rows)]
        total += min(sum(v * q for v, q in zip(lrow, joint)) for lrow in table)
    return total


def sampled_verdict(channel, loss, kernels, samples: int, seed: int) -> tuple:
    """``(kind, prior probs, rival, margin, detail)`` of a sampled check.

    The battery is the uniform prior, every point prior, then ``samples``
    seeded priors ``w / sum(w)`` with integer ``w`` in 0..20; kernels are
    tried in canonical order, and for each kernel the priors in battery
    order.  The first prior at which the kernel's uncertainty is lower
    than the channel's is the counterexample.
    """
    n = len(channel.x_labels)
    rng = random.Random(seed)
    priors = [(Fraction(1, n),) * n]
    priors += [tuple(Fraction(int(i == x)) for i in range(n)) for x in range(n)]
    for _ in range(samples):
        weights = [rng.randint(0, 20) for _ in range(n)]
        if sum(weights) == 0:
            weights[rng.randrange(n)] = 1
        priors.append(tuple(Fraction(w, sum(weights)) for w in weights))
    ordered = sorted(kernels, key=lambda h: (h.inners, h.outers))
    for k in ordered:
        rows = kernel_rows(k)
        for probs in priors:
            mine = uncertainty(loss.table, probs, channel.rows)
            theirs = uncertainty(loss.table, probs, rows)
            if mine > theirs:
                return "counterexample", probs, k, mine - theirs, None
    detail = (
        f"sampled {len(priors)} priors against {len(ordered)} kernels "
        "without finding a violation; sampling cannot certify optimality"
    )
    return "unknown", None, None, None, detail
