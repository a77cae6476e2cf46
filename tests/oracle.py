"""The tests' Fraction oracles.

* Gauss-Jordan elimination for rank and linear solving.  The package's row
  reduction is a fraction-free integer echelon, so tests may check its
  ``rank``, ``solve_linear_system`` and enumerations against this one.
* The sampled universal-optimality loop, prior by prior in Fractions.  The
  package scores its sampled priors in integers, so tests may check its
  sampled verdicts against this one.
* The exact universal-optimality loop, cell by cell in Fractions, with each
  cell maximised by brute force over its vertices.  The package states its
  cells in integers and solves them with its simplex, so tests may check its
  exact verdicts against this one.
* The row-ratio privacy check over every pair of secrets.  The package
  checks only a space's tight pairs, so tests may check its violations
  against this one's, restricted to those pairs.
* A significant-digit rounding of ``base**exponent`` in ``mpmath`` at twice
  the digits plus 40.  The package rounds its irrational stretches with the
  standard library's ``decimal`` and certifies the result, so tests may
  check that rounding against this one.

None of them shares code with the package.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import mpmath

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


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _kept_columns(table, rows) -> list:
    """Per output column, the expected-loss vectors ``L[w][x] * C[x][j]`` of
    the actions that can still win the column minimum, with their action
    indices: strictly dominated actions and later duplicates are dropped."""
    columns = []
    for j in range(len(rows[0])):
        vecs = [tuple(l * row[j] for l, row in zip(lrow, rows)) for lrow in table]
        kept = [
            w
            for w, s in enumerate(vecs)
            if vecs.index(s) == w
            and not any(t != s and all(a <= b for a, b in zip(t, s)) for t in vecs)
        ]
        columns.append([(w, vecs[w]) for w in kept])
    return columns


def _primitive(row) -> tuple:
    """A hyperplane's normal scaled to coprime integers, first nonzero
    entry positive, so that equal hyperplanes compare equal."""
    scale = math.lcm(*(v.denominator for v in row))
    ints = [int(v * scale) for v in row]
    g = math.gcd(*ints)
    sign = next(1 if v > 0 else -1 for v in ints if v)
    return tuple(sign * v // g for v in ints)


def _cell_maximum(mine, theirs, rows, n: int):
    """Maximise ``sum_y min_a mine[y][a] . p - theirs . p`` over the priors
    ``p`` with ``r . p <= 0`` for every ``r`` in ``rows``, by brute force.

    ``mine`` is the candidate's kept expected-loss vectors per column,
    ``theirs`` the rival strategy's summed expected-loss vector and ``rows``
    its best-reply rows.  The objective is concave and piecewise linear, so
    its maximum over the cell sits at a point fixed by ``sum(p) = 1`` and
    ``n - 1`` independent hyperplanes among ``p_x = 0``, the best-reply rows
    and the candidate's ties ``a . p = b . p``.  Every choice is solved with
    :func:`solve`.  Returns ``(value, p)`` at the first best point, or None
    if the cell is empty.
    """
    planes = [tuple(Fraction(int(i == x)) for i in range(n)) for x in range(n)]
    planes += rows
    for vecs in mine:
        for a, b in itertools.combinations(vecs, 2):
            planes.append(tuple(u - v for u, v in zip(a, b)))
    distinct = {}
    for plane in planes:
        if any(plane):
            distinct.setdefault(_primitive(plane), plane)
    best = None
    ones = (Fraction(1),) * n
    for chosen in itertools.combinations(distinct.values(), n - 1):
        p = solve((ones,) + chosen, (Fraction(1),) + (Fraction(0),) * (n - 1))
        if not isinstance(p, tuple) or min(p) < 0:
            continue
        if any(_dot(r, p) > 0 for r in rows):
            continue
        value = sum(min(_dot(v, p) for v in vecs) for vecs in mine)
        value -= _dot(theirs, p)
        if best is None or value > best[0]:
            best = (value, p)
    return best


def exact_verdict(channel, loss, kernels) -> tuple:
    """``(kind, rival, margin, cell)`` of an exact check, where ``cell`` is
    the rival strategy (one action per rival column) whose cell first holds
    a prior at which the rival beats the channel.

    Kernels are tried in canonical order and, for each, the strategies over
    its kept actions in product order; the first cell with a positive
    maximum gap gives the counterexample and that maximum is its margin.
    """
    n = len(channel.x_labels)
    mine = [[v for _, v in col] for col in _kept_columns(loss.table, channel.rows)]
    for k in sorted(kernels, key=lambda h: (h.inners, h.outers)):
        cols = _kept_columns(loss.table, kernel_rows(k))
        for strategy in itertools.product(*cols):
            rows = []
            for (s, vec), col in zip(strategy, cols):
                rows += [
                    tuple(a - b for a, b in zip(vec, other))
                    for w, other in col
                    if w != s
                ]
            theirs = tuple(sum(c) for c in zip(*(vec for _, vec in strategy)))
            best = _cell_maximum(mine, theirs, rows, n)
            if best is not None and best[0] > 0:
                return "counterexample", k, best[0], tuple(s for s, _ in strategy)
    return "optimal", None, None, None


def dx_violations(channel, space) -> tuple:
    """Every ``(x, x', y, ratio)`` where row ``x`` exceeds the stretch of
    ``(x, x')`` times row ``x'`` at output ``y`` (``ratio`` None where row
    ``x'`` is 0), over all pairs i < j in label order, then outputs in
    order, then ``x = i`` before ``x = j``."""
    rows, labels, n = channel.rows, channel.x_labels, len(channel.x_labels)
    found = []
    for i, j in itertools.combinations(range(n), 2):
        s = space.stretch[i][j]
        for y, label in enumerate(channel.y_labels):
            for x, other in ((i, j), (j, i)):
                a, b = rows[x][y], rows[other][y]
                if a > s * b:
                    ratio = a / b if b else None
                    found.append((labels[x], labels[other], label, ratio))
    return tuple(found)


def rounded_power(base: Fraction, exponent, digits: int) -> Fraction:
    """``base**exponent`` rounded half-even to ``digits`` significant digits.
    ``exponent`` is a Fraction, or ``("sqrt", k)`` for the square root of the
    integer k."""
    with mpmath.workdps(2 * digits + 40):
        if isinstance(exponent, tuple):
            power = mpmath.sqrt(exponent[1])
        else:
            power = mpmath.mpf(exponent.numerator) / exponent.denominator
        x = mpmath.power(mpmath.mpf(base.numerator) / base.denominator, power)
        e = int(mpmath.floor(mpmath.log10(x))) - digits + 1
        while True:
            m = int(mpmath.nint(x / mpmath.mpf(10) ** e))
            if m >= 10**digits:  # a carry, or log10 fell just short
                e += 1
            elif m < 10 ** (digits - 1):
                e -= 1
            else:
                return Fraction(m) * Fraction(10) ** e
