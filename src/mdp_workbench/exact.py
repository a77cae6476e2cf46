"""Exact rational vectors, matrices, integer elimination, and a small simplex.

Every quantity in this package is an arbitrary-precision rational
(:class:`fractions.Fraction`).  Floats never enter a result path: text input
is parsed exactly, and the only irrational values, a metric's stretches,
are rounded *once* to a stated number of significant digits (certified
correctly rounded, see ``metrics``) and kept as rationals from then on.

Linear algebra runs in integers.  One fraction-free echelon routine (as in
Bareiss 1968, but each row is divided by the gcd of its entries rather than
by the previous pivot) does all the row reduction in the package: for
:func:`rank`, for :func:`solve_linear_system`, and for the vertex and kernel
enumerations in ``geometry``, which keep an echelon of integer rows as they
walk their subsets.

The linear-programming solver is a dense two-phase simplex on a
fraction-free integer tableau (Bareiss pivoting over a common determinant),
with Dantzig's entering rule and a Bland fallback on degenerate stalls.  Its
variables are all nonnegative, and its pivot budget is a module constant.  It
is deterministic — the same problem yields the same optimal basic solution, bit
for bit — and every optimum it returns is certified first, in the integers of
its starting rows: the point against every stated row and bound, and the row
multipliers read off the final cost row as a dual solution with the same
objective value.  Problems may be stated with ``int`` entries as well as
Fractions; a caller whose rows are integers already saves the scaling.

>>> from fractions import Fraction
>>> parse_scalar("0.25")
Fraction(1, 4)
>>> parse_scalar("-4/6")
Fraction(-2, 3)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

__all__ = [
    "Scalar",
    "Vector",
    "Matrix",
    "ZERO",
    "ONE",
    "DimensionError",
    "parse_scalar",
    "format_scalar",
    "as_vector",
    "as_matrix",
    "dot",
    "mat_mul",
    "transpose",
    "primitive_row",
    "reduce_row",
    "echelon_row",
    "nullspace_vector",
    "rank",
    "Unique",
    "UNDERDETERMINED",
    "INCONSISTENT",
    "solve_linear_system",
    "LPProblem",
    "LPOptimal",
    "LP_INFEASIBLE",
    "LP_UNBOUNDED",
    "SimplexIterationLimit",
    "lp_optimize",
]

Scalar = Fraction
Vector = tuple  # tuple[Fraction, ...]
Matrix = tuple  # tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionError(ValueError):
    """Shapes do not line up for the requested operation."""


def parse_scalar(value: Union[int, str, Fraction]) -> Fraction:
    """Parse an exact rational from an int, Fraction, or text.

    Text accepts integers (``"7"``), ratios (``"2/3"``, ``"-4/6"`` which
    normalises to -2/3), and decimal literals (``"0.25"`` which is read as
    exactly 1/4, not through binary floating point).

    Floats are refused outright so that no caller can smuggle in a rounding
    error; a zero denominator raises ``ZeroDivisionError`` and malformed text
    raises ``ValueError``, both straight from the Fraction constructor.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError(f"cannot build a scalar from {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError(
            "refusing to build an exact scalar from a float; pass a string instead"
        )
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot build a scalar from {type(value).__name__}")


def format_scalar(value: Fraction) -> str:
    """Render a rational in its canonical ``p/q`` (or integer ``p``) text form."""
    return str(value)


def as_vector(values: Iterable) -> Vector:
    return tuple(parse_scalar(v) for v in values)


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    out = tuple(as_vector(r) for r in rows)
    if out:
        width = len(out[0])
        for r in out:
            if len(r) != width:
                raise DimensionError("ragged matrix rows")
    return out


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"dot of lengths {len(u)} and {len(v)}")
    total = ZERO
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionError(f"multiplying {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


# --------------------------------------------------------------------------
# Fraction-free integer elimination: one echelon routine behind rank, linear
# solving, and both enumerations in geometry.
# --------------------------------------------------------------------------


def primitive_row(values: Sequence[Fraction]) -> list:
    """The primitive integer multiple of a rational row: scaled by the lcm
    of its denominators and divided by the gcd of the result (sign kept)."""
    scale = lcm(*(v.denominator for v in values))
    row = [v.numerator * (scale // v.denominator) for v in values]
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def reduce_row(row: list, echelon: Iterable) -> list:
    """Eliminate each ``(erow, p)`` of an integer echelon from ``row``,
    fraction-free: ``row <- erow[p] * row - row[p] * erow``, then divided by
    the gcd of its entries.  Never changes its arguments; a row with nothing
    to eliminate comes back as the same list.
    """
    for erow, p in echelon:
        c = row[p]
        if c:
            m = erow[p]
            row = [m * a - c * b for a, b in zip(row, erow)]
            g = gcd(*row)
            if g > 1:
                row = [v // g for v in row]
    return row


def echelon_row(row: list, echelon: Iterable, width: int):
    """``row`` reduced against ``echelon`` as a new ``(row, pivot)`` entry:
    the pivot is its first nonzero column below ``width``, made positive by
    negating the row.  None if those columns reduce to zero.

    Every entry made this way has a positive pivot and zeros at the pivots
    of the entries before it, which is all :func:`reduce_row` and
    :func:`nullspace_vector` need.
    """
    row = reduce_row(row, echelon)
    for p in range(width):
        v = row[p]
        if v:
            return (row if v > 0 else [-a for a in row]), p
    return None


def nullspace_vector(echelon: Sequence, ncols: int) -> list:
    """An integer vector spanning the nullspace of an echelon of rank
    ``ncols - 1`` over ``ncols`` columns, positive at its one free column.

    Back-substitutes from the last entry: before solving for a pivot, what
    is known is scaled by that (positive) pivot so that it divides.  No gcd
    is taken on the way; callers that need the vector reduced reduce it.
    """
    pivots = {p for _, p in echelon}
    u = [0] * ncols
    u[next(c for c in range(ncols) if c not in pivots)] = 1
    for row, p in reversed(echelon):
        t = sum(map(mul, row, u))  # u[p] is still 0
        m = row[p]
        if m != 1:
            u = [m * v for v in u]
        u[p] = -t
    return u


def rank(vectors: Iterable[Sequence[Fraction]]) -> int:
    echelon: list = []
    for v in vectors:
        entry = echelon_row(primitive_row(v), echelon, len(v))
        if entry:
            echelon.append(entry)
    return len(echelon)


@dataclass(frozen=True)
class Unique:
    """A linear system with exactly one solution."""

    x: Vector


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self._name


UNDERDETERMINED = _Marker("UNDERDETERMINED")
INCONSISTENT = _Marker("INCONSISTENT")

LinearOutcome = Union[Unique, _Marker]


def solve_linear_system(a: Matrix, b: Sequence[Fraction]) -> LinearOutcome:
    """Solve ``a @ x == b`` exactly.

    Returns :class:`Unique` with the solution vector, or one of the module
    markers ``UNDERDETERMINED`` / ``INCONSISTENT``.  The three-way answer is
    exact — there is no tolerance involved.

    The rows ``[a | b]`` are brought to an integer echelon.  A pivot in the
    ``b`` column means no solution; otherwise a rank of ``ncols`` leaves a
    one-dimensional nullspace ``(u, t)`` with ``t > 0``, and ``x = -u / t``.
    """
    if len(a) != len(b):
        raise DimensionError(f"{len(a)} equations but {len(b)} right-hand sides")
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise DimensionError("ragged coefficient rows")
    echelon: list = []
    for row, rhs in zip(a, b):
        entry = echelon_row(primitive_row((*row, rhs)), echelon, ncols + 1)
        if entry:
            if entry[1] == ncols:
                return INCONSISTENT
            echelon.append(entry)
    if len(echelon) < ncols:
        return UNDERDETERMINED
    u = nullspace_vector(echelon, ncols + 1)
    t = u[ncols]
    return Unique(tuple(Fraction(-v, t) for v in u[:ncols]))


# --------------------------------------------------------------------------
# Linear programming: two-phase simplex on a fraction-free integer tableau,
# with a primal and a dual check of every optimum it returns, both in the
# integers of the starting rows.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LPProblem:
    """``optimize objective . x`` subject to equality rows and <= rows, over
    ``x >= 0``.

    Other bounds are stated as ordinary rows by the caller, and a free
    variable as the difference of two columns.  Entries are Fractions or
    ``int``s (both exact); each row is scaled to integers by the lcm of its
    denominators, which for an ``int`` row is 1.
    """

    objective: Vector
    maximize: bool = False
    eq_rows: Matrix = ()
    eq_rhs: Vector = ()
    ub_rows: Matrix = ()
    ub_rhs: Vector = ()


@dataclass(frozen=True)
class LPOptimal:
    value: Fraction
    point: Vector


LP_INFEASIBLE = _Marker("LP_INFEASIBLE")
LP_UNBOUNDED = _Marker("LP_UNBOUNDED")

LPOutcome = Union[LPOptimal, _Marker]


class SimplexIterationLimit(RuntimeError):
    """The pivot budget ran out before the solver reached a verdict.

    Deliberately distinct from an infeasibility result: hitting the limit
    says nothing about the problem, only about the budget.
    """


# After this many pivots without the objective moving, the entering rule
# drops from Dantzig to Bland until progress resumes (see _Tableau.run).
_STALL_LIMIT = 20

# The pivots one lp_optimize call may make, over both phases.
_PIVOT_LIMIT = 100_000


class _Tableau:
    """The integer tableau ``det * B^-1 [A | b]`` of a basis ``B`` of integer
    rows ``[A | b]``; the last row is the cost row, carried the same way.

    Every entry is a minor of the starting rows, so the Bareiss pivot
    divides exactly (Edmonds 1967; Bareiss 1968), and ``det`` is kept
    positive.  A pivot replaces rows and never changes one in place, so a
    caller may keep the starting rows by reference.
    """

    __slots__ = ("rows", "basis", "det", "pivots_left")

    def __init__(self, rows: list, basis: list):
        self.rows, self.basis, self.det = rows, basis, 1
        self.pivots_left = _PIVOT_LIMIT

    def pivot(self, r: int, c: int) -> None:
        """Bring column ``c`` into the basis at row ``r``: every other row
        becomes ``(p * row - row[c] * rows[r]) // det``, and ``det`` becomes
        the pivot entry ``p``."""
        rows, det = self.rows, self.det
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(p * a - f * b) // det for a, b in zip(row, prow)]
            elif p != det:
                rows[i] = [a * p // det if a else 0 for a in row]
        if p < 0:  # only an artificial drive-out pivots on a negative entry
            rows[:] = [[-a for a in row] for row in rows]
            p = -p
        self.det = p
        self.basis[r] = c

    def run(self, weight: Sequence[int], phase: int) -> bool:
        """Pivot until no column in ``weight``'s range prices in (True), or
        until an entering column has no leaving row (False: unbounded).

        Entering column: the most negative reduced cost, each weighted by
        its column's scale so the choice is the one an unscaled tableau
        makes (Dantzig); after _STALL_LIMIT pivots without the objective
        moving, the first negative one until it moves again (Bland), so a
        degenerate plateau cannot cycle.  Leaving row: the least ratio,
        ties to the smallest basic column.  Comparisons cross-multiply.
        """
        rows, basis = self.rows, self.basis
        stall = 0
        while True:
            cost = rows[-1]
            enter, best, bland = -1, 0, stall >= _STALL_LIMIT
            for j, w in enumerate(weight):
                v = cost[j]
                if v < 0:
                    if bland:
                        enter = j
                        break
                    v *= w
                    if v < best:
                        enter, best = j, v
            if enter < 0:
                return True
            leave = -1
            for i, b in enumerate(basis):
                row = rows[i]
                a = row[enter]
                if a > 0:
                    rhs = row[-1]
                    if leave >= 0:
                        cross = rhs * best_a - best_rhs * a
                        if cross > 0 or (cross == 0 and b > basis[leave]):
                            continue
                    leave, best_a, best_rhs = i, a, rhs
            if leave < 0:
                return False
            if self.pivots_left == 0:
                raise SimplexIterationLimit(
                    f"simplex exceeded {_PIVOT_LIMIT} pivots (phase {phase})"
                )
            self.pivots_left -= 1
            before, det = cost[-1], self.det
            self.pivot(leave, enter)
            stall = stall + 1 if rows[-1][-1] * det == before * self.det else 0


def lp_optimize(problem: LPProblem) -> LPOutcome:
    """Solve a small LP over ``x >= 0`` exactly.

    Returns :class:`LPOptimal` (value and one optimal basic point, both exact),
    or ``LP_INFEASIBLE`` / ``LP_UNBOUNDED``.  Raises
    :class:`SimplexIterationLimit` if the module's pivot budget
    (``_PIVOT_LIMIT``) is exhausted first.  Pivoting is Dantzig's rule with a
    Bland fallback on degenerate stalls, so the budget only runs out on
    genuinely huge inputs, never on a cycle.

    An optimum is certified before it is returned, in the integers of the
    starting rows: the basic values must be nonnegative and satisfy every
    starting row exactly (so the point satisfies every stated row and
    bound), and the multipliers read off the final cost row must be dual
    feasible with the same objective value.  A failed check raises
    ``AssertionError``.  The value is read off the certified integers.
    """
    n = len(problem.objective)
    if len(problem.eq_rows) != len(problem.eq_rhs):
        raise DimensionError("eq rows/rhs mismatch")
    if len(problem.ub_rows) != len(problem.ub_rhs):
        raise DimensionError("ub rows/rhs mismatch")
    constraints = list(problem.eq_rows) + list(problem.ub_rows)
    for row in constraints:
        if len(row) != n:
            raise DimensionError("constraint row width mismatch")

    n_eq = len(problem.eq_rows)
    width = n + len(problem.ub_rows)  # structural + slack columns

    sense = -1 if problem.maximize else 1  # internally always minimize
    obj = [sense * c for c in problem.objective] + [0] * len(problem.ub_rows)

    m = len(constraints)

    # Starting rows: each constraint with its rhs made nonnegative, scaled
    # to integers by the lcm of its denominators.  A ub row whose rhs was
    # already nonnegative starts with its slack basic, and every other row
    # with an artificial.  Both stay unit columns, so a slack's variable is
    # its row's scale times the slack, and `weight` prices it back at the
    # slack's own reduced cost.
    rhss = list(problem.eq_rhs) + list(problem.ub_rhs)
    art_rows = [i for i, rhs in enumerate(rhss) if i < n_eq or rhs < 0]
    ncols = width + len(art_rows)
    unit = [n + i - n_eq for i in range(m)]  # ub rows' slacks
    for k, i in enumerate(art_rows):
        unit[i] = width + k
    weight = [1] * width
    start, scales = [], []
    for i, (row, rhs) in enumerate(zip(constraints, rhss)):
        scale = lcm(rhs.denominator, *[c.denominator for c in row])
        signed = -scale if rhs < 0 else scale
        t = [c.numerator * (signed // c.denominator) for c in row]
        t += [0] * (ncols - n)
        t.append(rhs.numerator * (signed // rhs.denominator))
        if i >= n_eq:
            t[n + i - n_eq] = -1 if rhs < 0 else 1
            weight[n + i - n_eq] = scale
        t[unit[i]] = 1
        start.append(t)  # pivots replace rows, so these stay as they are
        scales.append(scale)

    # Phase 1 minimises the sum of the artificials.  An artificial is its
    # row's scale times the unscaled one, so it is weighted by 1/scale;
    # `big` clears those weights' denominators.
    big = lcm(*(scales[i] for i in art_rows))
    cost = [0] * (ncols + 1)
    for i in art_rows:
        f = big // scales[i]
        cost = [c - f * v for c, v in zip(cost, start[i])]
    cost[width:-1] = [0] * len(art_rows)
    tab = _Tableau(start + [cost], list(unit))
    if not tab.run(weight, 1):  # pragma: no cover - phase 1 is bounded below
        raise AssertionError("phase-1 objective cannot be unbounded")
    if tab.rows[-1][-1]:
        return LP_INFEASIBLE

    # Drive any leftover (degenerate, value-zero) artificials out of the basis;
    # rows that offer no structural pivot are redundant and get dropped.
    keep: list[int] = []
    for i in range(m):
        if tab.basis[i] >= width:
            row = tab.rows[i]
            target = next((j for j in range(width) if row[j]), None)
            if target is None:
                continue  # redundant constraint row
            tab.pivot(i, target)
        keep.append(i)
    rows = [tab.rows[i] for i in keep]
    basis = [tab.basis[i] for i in keep]

    # Phase 2: the true objective, in integers, reduced against the basis.
    obj_scale = lcm(*(c.denominator for c in obj))
    costs = [c.numerator * (obj_scale // c.denominator) for c in obj]
    cost = [tab.det * c for c in costs] + [0] * (len(art_rows) + 1)
    for row, b in zip(rows, basis):
        f = costs[b]
        if f:
            cost = [c - f * v for c, v in zip(cost, row)]
    tab.rows, tab.basis = rows + [cost], basis
    if not tab.run(weight, 2):
        return LP_UNBOUNDED

    # Primal check, in the integers of the starting rows: each basic column
    # is its row's last entry over det and every other column is 0.  No
    # value may be negative (so every bound and slack holds), no artificial
    # may be basic, and each starting row must hold exactly (so every eq and
    # ub row of the stated problem does).
    det = tab.det
    basic = [(b, row[-1]) for row, b in zip(tab.rows, basis)]
    if any(v < 0 or b >= width for b, v in basic):
        raise AssertionError("simplex returned an infeasible point (bound)")
    for i, row in enumerate(start):
        if sum([row[b] * v for b, v in basic]) != row[-1] * det:
            kind = "eq" if i < n_eq else "ub"
            raise AssertionError(f"simplex returned an infeasible point ({kind})")

    # Dual certificate, in the integers of the starting rows: the final cost
    # row holds -det * y at each row's unit column, where y are the row
    # multipliers times the objective's lcm.  They must price every column
    # at or below its cost, and y . b must equal the point's value.
    cost = tab.rows[-1]
    reduced = [det * c for c in costs]
    dual = 0
    for row, u in zip(start, unit):
        y = -cost[u]
        if y:
            dual += y * row[-1]
            reduced = [r - y * a for r, a in zip(reduced, row)]
    if any(r < 0 for r in reduced):
        raise AssertionError("simplex optimum failed its dual check (reduced cost)")
    primal = sum([costs[b] * v for b, v in basic])
    if dual != primal:
        raise AssertionError("simplex optimum failed its dual check (objective)")

    # The point and its value, read off the certified integers.
    num = [0] * width
    for b, v in basic:
        num[b] = v
    x = tuple(Fraction(v, det) for v in num[:n])
    return LPOptimal(Fraction(sense * primal, obj_scale * det), x)
