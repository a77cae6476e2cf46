"""Exact rational vectors, matrices, linear solving, and a small simplex core.

Every quantity in this package is an arbitrary-precision rational
(:class:`fractions.Fraction`).  Floats never enter a result path: text input
is parsed exactly, irrational values elsewhere are rounded *once* to a stated
number of significant digits and kept as rationals from then on.

The linear-programming solver is a plain dense two-phase simplex with Bland's
anti-cycling rule.  It is deliberately simple — every consumer in this package
has at most a few hundred variables — and deterministic: the same problem
yields the same optimal basic solution, bit for bit.

>>> from fractions import Fraction
>>> parse_scalar("0.25")
Fraction(1, 4)
>>> parse_scalar("-4/6")
Fraction(-2, 3)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
    "identity",
    "dot",
    "mat_vec",
    "mat_mul",
    "transpose",
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


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise DimensionError(f"dot of lengths {len(u)} and {len(v)}")
    total = ZERO
    for a, b in zip(u, v):
        if a and b:
            total += a * b
    return total


def mat_vec(a: Matrix, x: Sequence[Fraction]) -> Vector:
    return tuple(dot(row, x) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise DimensionError(f"multiplying {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


# --------------------------------------------------------------------------
# Gaussian elimination: rank and linear solving share one forward pass.
# --------------------------------------------------------------------------


def _forward_eliminate(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce ``rows`` in place to row-echelon form over the first ``ncols``
    columns; returns the pivot column of each eliminated row, in order.

    Pivot choice is deterministic: scan columns left to right, take the first
    remaining row with a nonzero entry.  No magnitude heuristics are needed —
    arithmetic is exact.
    """
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        inv = ONE / prow[c]
        if inv != 1:
            rows[r] = prow = [v * inv for v in prow]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(vectors: Iterable[Sequence[Fraction]]) -> int:
    rows = [list(v) for v in vectors]
    if not rows:
        return 0
    return len(_forward_eliminate(rows, len(rows[0])))


@dataclass(frozen=True)
class Unique:
    """A linear system with exactly one solution."""

    x: Vector


class _SolveMarker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self._name


UNDERDETERMINED = _SolveMarker("UNDERDETERMINED")
INCONSISTENT = _SolveMarker("INCONSISTENT")

LinearOutcome = Union[Unique, _SolveMarker]


def solve_linear_system(a: Matrix, b: Sequence[Fraction]) -> LinearOutcome:
    """Solve ``a @ x == b`` exactly.

    Returns :class:`Unique` with the solution vector, or one of the module
    markers ``UNDERDETERMINED`` / ``INCONSISTENT``.  The three-way answer is
    exact — there is no tolerance involved.
    """
    if len(a) != len(b):
        raise DimensionError(f"{len(a)} equations but {len(b)} right-hand sides")
    ncols = len(a[0]) if a else 0
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for row in rows:
        if len(row) != ncols + 1:
            raise DimensionError("ragged coefficient rows")
    if not rows:
        return Unique(()) if ncols == 0 else UNDERDETERMINED
    pivots = _forward_eliminate(rows, ncols)
    for i in range(len(pivots), len(rows)):
        if rows[i][ncols]:
            return INCONSISTENT
    if len(pivots) < ncols:
        return UNDERDETERMINED
    # After full reduction each pivot row reads x[pivot] = rhs.
    x = [ZERO] * ncols
    for i, c in enumerate(pivots):
        x[c] = rows[i][ncols]
    return Unique(tuple(x))


# --------------------------------------------------------------------------
# Linear programming: dense two-phase simplex, Bland's rule.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class LPProblem:
    """``optimize objective . x`` subject to equality rows, <= rows, and
    per-variable lower bounds (``None`` entry = free variable).

    The default bound is 0 for every variable.  Upper bounds, where needed,
    are expressed as ordinary <= rows by the caller.
    """

    objective: Vector
    maximize: bool = False
    eq_rows: Matrix = ()
    eq_rhs: Vector = ()
    ub_rows: Matrix = ()
    ub_rhs: Vector = ()
    lower_bounds: "tuple | None" = None


@dataclass(frozen=True)
class LPOptimal:
    value: Fraction
    point: Vector


class _LPMarker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self._name


LP_INFEASIBLE = _LPMarker("LP_INFEASIBLE")
LP_UNBOUNDED = _LPMarker("LP_UNBOUNDED")

LPOutcome = Union[LPOptimal, _LPMarker]


class SimplexIterationLimit(RuntimeError):
    """The pivot budget ran out before the solver reached a verdict.

    Deliberately distinct from an infeasibility result: hitting the limit
    says nothing about the problem, only about the budget.
    """


# After this many pivots without the objective moving, the step rule drops
# from Dantzig to Bland until progress resumes (see _simplex_phase).
_STALL_LIMIT = 20


def _ratio_test(
    rows: list[list[Fraction]], basis: list[int], enter: int
) -> int:
    """Leaving row for the entering column: minimal ratio, ties broken by the
    smallest basic-variable index (the Bland tie-break, harmless otherwise)."""
    leave = -1
    best_ratio = None
    for i, row in enumerate(rows):
        coef = row[enter]
        if coef > 0:
            ratio = row[-1] / coef
            if (
                best_ratio is None
                or ratio < best_ratio
                or (ratio == best_ratio and basis[i] < basis[leave])
            ):
                best_ratio = ratio
                leave = i
    return leave


def _bland_step(
    rows: list[list[Fraction]],
    cost: list[Fraction],
    basis: list[int],
    enterable: int,
) -> "tuple[int, int] | str":
    """One simplex ratio test under Bland's rule.

    Entering variable: the smallest column index < ``enterable`` with a
    negative reduced cost.  Returns (row, col), or ``"optimal"`` /
    ``"unbounded"``.  Never cycles.
    """
    enter = -1
    for j in range(enterable):
        if cost[j] < 0:
            enter = j
            break
    if enter < 0:
        return "optimal"
    leave = _ratio_test(rows, basis, enter)
    if leave < 0:
        return "unbounded"
    return leave, enter


def _dantzig_step(
    rows: list[list[Fraction]],
    cost: list[Fraction],
    basis: list[int],
    enterable: int,
) -> "tuple[int, int] | str":
    """Most-negative-reduced-cost entering rule: far fewer pivots than Bland
    in practice, but no termination guarantee of its own, so the caller must
    watch for stalls."""
    enter = -1
    best = ZERO
    for j in range(enterable):
        c = cost[j]
        if c < best:
            best = c
            enter = j
    if enter < 0:
        return "optimal"
    leave = _ratio_test(rows, basis, enter)
    if leave < 0:
        return "unbounded"
    return leave, enter


def _pivot(
    rows: list[list[Fraction]],
    cost: list[Fraction],
    basis: list[int],
    r: int,
    c: int,
) -> None:
    prow = rows[r]
    piv = prow[c]
    if piv != 1:
        inv = ONE / piv
        rows[r] = prow = [v * inv for v in prow]
    # Only touch the pivot row's nonzero columns: the tableaus here start out
    # extremely sparse and bignum no-op subtractions are not free.
    nz = [j for j, v in enumerate(prow) if v]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            f = row[c]
            for j in nz:
                row[j] -= f * prow[j]
    if cost[c]:
        f = cost[c]
        for j in nz:
            cost[j] -= f * prow[j]
    basis[r] = c


def lp_optimize(problem: LPProblem, *, iteration_limit: int = 100_000) -> LPOutcome:
    """Solve a small LP exactly.

    Returns :class:`LPOptimal` (value and one optimal basic point, both exact),
    or ``LP_INFEASIBLE`` / ``LP_UNBOUNDED``.  Raises
    :class:`SimplexIterationLimit` if the pivot budget is exhausted first.
    Pivoting is Dantzig's rule with a Bland fallback on degenerate stalls, so
    the budget only runs out on genuinely huge inputs, never on a cycle.
    """
    n = len(problem.objective)
    if problem.lower_bounds is not None and len(problem.lower_bounds) != n:
        raise DimensionError("lower_bounds length mismatch")
    if len(problem.eq_rows) != len(problem.eq_rhs):
        raise DimensionError("eq rows/rhs mismatch")
    if len(problem.ub_rows) != len(problem.ub_rhs):
        raise DimensionError("ub rows/rhs mismatch")
    for row in list(problem.eq_rows) + list(problem.ub_rows):
        if len(row) != n:
            raise DimensionError("constraint row width mismatch")

    lower = problem.lower_bounds if problem.lower_bounds is not None else (ZERO,) * n

    # Transformed variables: x[j] = shift[j] + y[pos[j]] - y[neg[j]] where the
    # negative part exists only for free variables.
    shift = [lb if lb is not None else ZERO for lb in lower]
    pos = list(range(n))
    neg: list[int] = [-1] * n
    next_col = n
    for j, lb in enumerate(lower):
        if lb is None:
            neg[j] = next_col
            next_col += 1
    n_slack = len(problem.ub_rows)
    width = next_col + n_slack  # structural + slack columns

    def transform_row(row: Sequence[Fraction], rhs: Fraction) -> tuple[list[Fraction], Fraction]:
        out = [ZERO] * width
        for j, coef in enumerate(row):
            if coef:
                out[pos[j]] = coef
                if neg[j] >= 0:
                    out[neg[j]] = -coef
        return out, rhs - dot(row, shift)

    rows: list[list[Fraction]] = []
    rhss: list[Fraction] = []
    for row, rhs in zip(problem.eq_rows, problem.eq_rhs):
        t, r = transform_row(row, rhs)
        rows.append(t)
        rhss.append(r)
    for k, (row, rhs) in enumerate(zip(problem.ub_rows, problem.ub_rhs)):
        t, r = transform_row(row, rhs)
        t[next_col + k] = ONE
        rows.append(t)
        rhss.append(r)

    m = len(rows)
    sense = -1 if problem.maximize else 1  # internally always minimize
    obj = [ZERO] * width
    for j, coef in enumerate(problem.objective):
        if coef:
            obj[pos[j]] += sense * coef
            if neg[j] >= 0:
                obj[neg[j]] -= sense * coef

    if m == 0:
        # Only bounds.  Any objective direction with a push is unbounded
        # (positive costs pinned at the bound, negatives run away).
        if any(c < 0 for c in obj) or any(
            obj[neg[j]] < 0 for j in range(n) if neg[j] >= 0
        ):
            return LP_UNBOUNDED
        x = tuple(shift)
        return LPOptimal(dot(problem.objective, x), x)

    # Phase 1: minimize the artificial mass.  A ub row whose rhs is already
    # nonnegative keeps its +1 slack as the starting basic variable, so
    # artificials are only spent on equality rows and sign-flipped rows.
    n_eq = len(problem.eq_rows)
    signed_rows = []
    signed_rhss = []
    art_of = [-1] * m
    art_count = 0
    basis = [0] * m
    for i in range(m):
        row = list(rows[i])
        rhs = rhss[i]
        if rhs < 0:
            row = [-v for v in row]
            rhs = -rhs
        if i >= n_eq and row[next_col + (i - n_eq)] == ONE:
            basis[i] = next_col + (i - n_eq)
        else:
            art_of[i] = art_count
            art_count += 1
        signed_rows.append(row)
        signed_rhss.append(rhs)
    tableau = []
    for i in range(m):
        art = [ZERO] * art_count
        if art_of[i] >= 0:
            art[art_of[i]] = ONE
            basis[i] = width + art_of[i]
        tableau.append(signed_rows[i] + art + [signed_rhss[i]])
    cost = [ZERO] * (width + art_count + 1)
    for i in range(m):
        if art_of[i] >= 0:
            cost = [a - b for a, b in zip(cost, tableau[i])]
    for j in range(width, width + art_count):
        cost[j] = ZERO

    pivots_left = iteration_limit
    stall = 0
    bland = False
    while True:
        chooser = _bland_step if bland else _dantzig_step
        step = chooser(tableau, cost, basis, width)
        if step == "optimal":
            break
        if step == "unbounded":  # pragma: no cover - phase 1 is bounded below
            raise AssertionError("phase-1 objective cannot be unbounded")
        if pivots_left == 0:
            raise SimplexIterationLimit(
                f"simplex exceeded {iteration_limit} pivots (phase 1)"
            )
        pivots_left -= 1
        before = cost[-1]
        _pivot(tableau, cost, basis, *step)
        # Dantzig until the objective stalls, Bland until it moves again:
        # every stalled plateau ends under Bland's no-cycling guarantee.
        if cost[-1] == before:
            stall += 1
            bland = bland or stall >= _STALL_LIMIT
        else:
            stall = 0
            bland = False

    if -cost[-1] != 0:
        return LP_INFEASIBLE

    # Drive any leftover (degenerate, value-zero) artificials out of the basis;
    # rows that offer no structural pivot are redundant and get dropped.
    keep: list[int] = []
    for i in range(m):
        if basis[i] >= width:
            target = None
            for j in range(width):
                if tableau[i][j]:
                    target = j
                    break
            if target is None:
                continue  # redundant constraint row
            _pivot(tableau, cost, basis, i, target)
        keep.append(i)
    tableau = [tableau[i][:width] + [tableau[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    # Phase 2: true objective, reduced against the current basis.
    cost = obj + [ZERO]
    for row, b in zip(tableau, basis):
        if cost[b]:
            f = cost[b]
            cost = [a - f * v for a, v in zip(cost, row)]

    stall = 0
    bland = False
    while True:
        chooser = _bland_step if bland else _dantzig_step
        step = chooser(tableau, cost, basis, width)
        if step == "optimal":
            break
        if step == "unbounded":
            return LP_UNBOUNDED
        if pivots_left == 0:
            raise SimplexIterationLimit(
                f"simplex exceeded {iteration_limit} pivots (phase 2)"
            )
        pivots_left -= 1
        before = cost[-1]
        _pivot(tableau, cost, basis, *step)
        if cost[-1] == before:
            stall += 1
            bland = bland or stall >= _STALL_LIMIT
        else:
            stall = 0
            bland = False

    y = [ZERO] * width
    for row, b in zip(tableau, basis):
        y[b] = row[-1]
    x = tuple(
        shift[j] + y[pos[j]] - (y[neg[j]] if neg[j] >= 0 else ZERO) for j in range(n)
    )

    # Exact feasibility re-check: cheap insurance that the bookkeeping above
    # never drifts from the stated problem.
    for row, rhs in zip(problem.eq_rows, problem.eq_rhs):
        if dot(row, x) != rhs:
            raise AssertionError("simplex returned an infeasible point (eq)")
    for row, rhs in zip(problem.ub_rows, problem.ub_rhs):
        if dot(row, x) > rhs:
            raise AssertionError("simplex returned an infeasible point (ub)")
    for j, lb in enumerate(lower):
        if lb is not None and x[j] < lb:
            raise AssertionError("simplex returned an infeasible point (bound)")

    return LPOptimal(dot(problem.objective, x), x)
