"""Exact arithmetic, linear solves, and the rational simplex."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from mdp_workbench import exact
from mdp_workbench.exact import (
    DimensionError,
    INCONSISTENT,
    LP_INFEASIBLE,
    LP_UNBOUNDED,
    LPOptimal,
    LPProblem,
    SimplexIterationLimit,
    UNDERDETERMINED,
    Unique,
    ZERO,
    as_matrix,
    as_vector,
    dot,
    format_scalar,
    lp_optimize,
    mat_mul,
    parse_scalar,
    rank,
    solve_linear_system,
    transpose,
)

F = Fraction


def identity(n):
    return tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))


def mat_vec(a, x):
    return tuple(dot(row, x) for row in a)


# -- scalars ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("1/3", F(1, 3)),
        ("7", F(7)),
        ("-2/5", F(-2, 5)),
        ("0.25", F(1, 4)),
        ("2.5", F(5, 2)),
        ("0", F(0)),
    ],
)
def test_parse_scalar(text, value):
    assert parse_scalar(text) == value


def test_parse_scalar_rejects_floats():
    with pytest.raises(TypeError):
        parse_scalar(0.25)


def test_parse_scalar_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse_scalar("1/0")


@pytest.mark.parametrize("value,text", [(F(1, 3), "1/3"), (F(4), "4"), (F(-7, 2), "-7/2")])
def test_format_scalar(value, text):
    assert format_scalar(value) == text


def test_format_parse_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        v = F(rng.randint(-300, 300), rng.randint(1, 120))
        assert parse_scalar(format_scalar(v)) == v


# -- vectors and matrices --------------------------------------------------


def test_as_matrix_rejects_ragged():
    with pytest.raises(DimensionError):
        as_matrix([[1, 2], [3]])


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionError):
        dot(as_vector([1, 2]), as_vector([1, 2, 3]))


def test_mat_mul_identity():
    a = as_matrix([["1/2", "1/2"], ["1/3", "2/3"]])
    assert mat_mul(a, identity(2)) == a
    assert mat_mul(identity(2), a) == a


def test_transpose_involution():
    a = as_matrix([[1, 2, 3], [4, 5, 6]])
    assert transpose(transpose(a)) == a


# -- rank ------------------------------------------------------------------


def test_rank_examples():
    assert rank(as_matrix([[1, 0, 0], [0, 1, 0]])) == 2
    assert rank(as_matrix([["4/7", "2/7", "1/7"], ["1/4", "1/2", "1/4"], ["1/7", "2/7", "4/7"]])) == 3
    assert rank(as_matrix([[1, 1], [2, 2]])) == 1
    assert rank(()) == 0


# -- linear solves ---------------------------------------------------------


def test_solve_identity():
    res = solve_linear_system(identity(2), as_vector(["1/3", "2/3"]))
    assert isinstance(res, Unique)
    assert res.x == (F(1, 3), F(2, 3))


def test_solve_underdetermined():
    res = solve_linear_system(as_matrix([[1, 1], [2, 2]]), as_vector([1, 2]))
    assert res is UNDERDETERMINED


def test_solve_inconsistent():
    res = solve_linear_system(as_matrix([[1, 1], [2, 2]]), as_vector([1, 3]))
    assert res is INCONSISTENT


def test_solve_hand_case():
    res = solve_linear_system(as_matrix([[1, 1], [1, -1]]), as_vector([1, "1/3"]))
    assert isinstance(res, Unique)
    assert res.x == (F(2, 3), F(1, 3))


def test_solve_round_trip_random_invertible():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 5)
        while True:
            a = tuple(
                tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n))
                for _ in range(n)
            )
            if rank(a) == n:
                break
        x = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n))
        res = solve_linear_system(a, mat_vec(a, x))
        assert isinstance(res, Unique)
        assert res.x == x


def test_echelon_rows_have_positive_pivots_and_span_the_nullspace():
    # The enumerations rely on both: a kernel's residual keeps d > 0 only
    # because every pivot is positive.
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(2, 6)
        echelon = []
        while len(echelon) < n - 1:
            entry = exact.echelon_row([rng.randint(-4, 4) for _ in range(n)], echelon, n)
            if entry:
                row, p = entry
                assert row[p] > 0 and not any(row[:p])
                assert all(row[q] == 0 for _, q in echelon)
                echelon.append(entry)
        u = exact.nullspace_vector(echelon, n)
        free = next(c for c in range(n) if c not in {q for _, q in echelon})
        assert u[free] > 0
        assert all(sum(a * b for a, b in zip(row, u)) == 0 for row, _ in echelon)


def _outcome(res):
    return res.x if isinstance(res, Unique) else repr(res)


def _random_system(rng, m, n, r):
    """An m x n system of rank at most r with small, often zero, entries;
    its right-hand side is consistent half the time."""
    left = tuple(tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(r)) for _ in range(m))
    right = tuple(tuple(F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)) for _ in range(r))
    a = mat_mul(left, right)
    if rng.random() < 0.5:
        b = mat_vec(a, tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)))
    else:
        b = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m))
    return a, b


@pytest.mark.parametrize(
    "shape",
    [
        lambda rng: (rng.randint(1, 5),) * 3,  # square, full rank when lucky
        lambda rng: (rng.randint(4, 7), rng.randint(1, 3), 3),  # tall
        lambda rng: (rng.randint(1, 3), rng.randint(4, 7), 3),  # wide
        lambda rng: (rng.randint(2, 6), rng.randint(2, 6), 1),  # rank-deficient
    ],
    ids=["square", "tall", "wide", "deficient"],
)
def test_rank_and_solve_match_the_fraction_oracle(shape):
    rng = random.Random(29)
    seen = set()
    for _ in range(150):
        m, n, r = shape(rng)
        a, b = _random_system(rng, m, n, min(r, m, n))
        assert rank(a) == oracle.rank(a)
        got = _outcome(solve_linear_system(a, b))
        assert got == oracle.solve(a, b)
        seen.add(got if isinstance(got, str) else "unique")
    assert len(seen) >= 2


@pytest.mark.parametrize(
    "a,b,expected",
    [
        (((1, 1), (1, 1)), (1, 2), "INCONSISTENT"),  # also underdetermined
        (((1, 1, 1), (2, 2, 2)), (1, 3), "INCONSISTENT"),  # also underdetermined
        (((0, 0), (1, 2), (0, 0)), (0, 3, 0), "UNDERDETERMINED"),  # zero rows
        (((0, 0), (0, 0)), (0, 1), "INCONSISTENT"),  # zero rows, nonzero rhs
        (((0, 3), (2, 0), (0, 0)), (1, 1, 0), (F(1, 2), F(1, 3))),  # zero row
        (((), ()), (0, 0), ()),  # no columns
        (((),), (5,), "INCONSISTENT"),  # no columns, nonzero rhs
        ((), (), ()),  # the empty system
    ],
)
def test_solve_edge_cases_match_the_fraction_oracle(a, b, expected):
    a = tuple(tuple(F(v) for v in row) for row in a)
    b = tuple(F(v) for v in b)
    assert _outcome(solve_linear_system(a, b)) == oracle.solve(a, b) == expected
    assert rank(a) == oracle.rank(a)


# -- the simplex -----------------------------------------------------------


def test_lp_single_variable_box():
    problem = LPProblem(
        objective=(F(1),),
        maximize=True,
        ub_rows=((F(1),),),
        ub_rhs=(F(2, 3),),
    )
    res = lp_optimize(problem)
    assert isinstance(res, LPOptimal)
    assert res.value == F(2, 3)
    assert res.point == (F(2, 3),)


def test_lp_box_corner_family():
    # maximize sum(x) over 0 <= x_i <= b_i lands on the corner (b_1..b_n).
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        bounds = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        rows = tuple(
            tuple(F(1) if j == i else ZERO for j in range(n)) for i in range(n)
        )
        res = lp_optimize(
            LPProblem(
                objective=tuple(F(1) for _ in range(n)),
                maximize=True,
                ub_rows=rows,
                ub_rhs=tuple(bounds),
            )
        )
        assert isinstance(res, LPOptimal)
        assert res.value == sum(bounds)
        assert res.point == tuple(bounds)


def test_lp_equality_blend():
    # minimize x + 2y subject to x + y = 1: all mass on x.
    res = lp_optimize(
        LPProblem(
            objective=(F(1), F(2)),
            eq_rows=((F(1), F(1)),),
            eq_rhs=(F(1),),
        )
    )
    assert isinstance(res, LPOptimal)
    assert res.value == F(1)
    assert res.point == (F(1), F(0))


def test_lp_infeasible():
    # x <= -1 with x >= 0 has no solution.
    res = lp_optimize(
        LPProblem(objective=(F(1),), ub_rows=((F(1),),), ub_rhs=(F(-1),))
    )
    assert res is LP_INFEASIBLE


def test_lp_unbounded():
    res = lp_optimize(LPProblem(objective=(F(1),), maximize=True))
    assert res is LP_UNBOUNDED


def test_lp_free_variables():
    # minimize x with x free, stated as x = u - v over u, v >= 0, and
    # x >= -5 expressed as a row: -x <= 5.
    res = lp_optimize(
        LPProblem(
            objective=(F(1), F(-1)),
            ub_rows=((F(-1), F(1)),),
            ub_rhs=(F(5),),
        )
    )
    assert isinstance(res, LPOptimal)
    assert res.value == F(-5)
    assert res.point[0] - res.point[1] == F(-5)


def test_lp_iteration_limit_reported_distinctly(monkeypatch):
    rng = random.Random(7)
    n = 6
    rows = tuple(
        tuple(F(rng.randint(0, 5)) for _ in range(n)) for _ in range(8)
    )
    rhs = tuple(F(rng.randint(3, 9)) for _ in range(8))
    problem = LPProblem(
        objective=tuple(F(1) for _ in range(n)),
        maximize=True,
        ub_rows=rows,
        ub_rhs=rhs,
    )
    monkeypatch.setattr(exact, "_PIVOT_LIMIT", 1)
    with pytest.raises(SimplexIterationLimit):
        lp_optimize(problem)


def test_lp_degenerate_redundant_equalities():
    # The same equality twice must not confuse the phase-1 cleanup.
    res = lp_optimize(
        LPProblem(
            objective=(F(1), F(1)),
            eq_rows=((F(1), F(1)), (F(1), F(1))),
            eq_rhs=(F(1), F(1)),
        )
    )
    assert isinstance(res, LPOptimal)
    assert res.value == F(1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=5))
def test_lp_simplex_feasibility_property(bounds):
    # Optimal points returned by the solver always satisfy the constraints
    # they were solved under, with exact comparisons.
    n = len(bounds)
    rows = tuple(tuple(F(1) if j == i else ZERO for j in range(n)) for i in range(n))
    rhs = tuple(F(b, 2) for b in bounds)
    res = lp_optimize(
        LPProblem(
            objective=tuple(F(i + 1) for i in range(n)),
            maximize=True,
            ub_rows=rows,
            ub_rhs=rhs,
        )
    )
    assert isinstance(res, LPOptimal)
    for row, bound in zip(rows, rhs):
        assert dot(row, res.point) <= bound
    assert all(v >= 0 for v in res.point)
    assert res.value == dot(tuple(F(i + 1) for i in range(n)), res.point)


# -- the simplex against a brute-force oracle ----------------------------------


def _brute_force_lp(p: LPProblem):
    """(status, optimal value) from every basis of the LP's standard form.

    Every variable is >= 0 and ub rows get a slack.  A basis is primal
    feasible when its basic solution is >= 0 and solves every row; the LP
    is bounded iff some feasible basis is also dual feasible, and then the
    least basic value is the optimum.
    """
    rows = list(p.eq_rows) + list(p.ub_rows)
    rhs = list(p.eq_rhs) + list(p.ub_rhs)
    sense = -1 if p.maximize else 1
    cols = [[r[j] for r in rows] for j in range(len(p.objective))]
    cost = [sense * c for c in p.objective]
    for k in range(len(p.ub_rows)):
        cols.append([F(int(i == len(p.eq_rows) + k)) for i in range(len(rows))])
        cost.append(F(0))
    keep: list = []  # a maximal independent set of rows
    for i in range(len(rows)):
        if oracle.rank([[c[t] for c in cols] for t in keep + [i]]) == len(keep) + 1:
            keep.append(i)
    best, bounded = None, False
    for basis in itertools.combinations(range(len(cols)), len(keep)):
        b = tuple(tuple(cols[j][i] for j in basis) for i in keep)
        sol = oracle.solve(b, tuple(rhs[i] for i in keep))
        if not isinstance(sol, tuple):
            continue
        y = [F(0)] * len(cols)
        for j, v in zip(basis, sol):
            y[j] = v
        if min(y, default=0) < 0 or any(
            dot([c[i] for c in cols], y) != rhs[i] for i in range(len(rows))
        ):
            continue
        value = dot(cost, y)
        best = value if best is None else min(best, value)
        prices = oracle.solve(transpose(b), tuple(cost[j] for j in basis))
        bounded = bounded or all(
            cost[j] >= sum(pi * cols[j][i] for pi, i in zip(prices, keep))
            for j in range(len(cols))
        )
    if best is None:
        return "infeasible", None
    if not bounded:
        return "unbounded", None
    return "optimal", sense * best


def _random_lp(rng: random.Random) -> LPProblem:
    n = rng.randint(1, 3)

    def q():
        return F(rng.randint(-4, 4), rng.randint(1, 3))

    # Zero right-hand sides make degenerate vertices; negative ones need an
    # artificial in phase 1.
    def rhs():
        return F(0) if rng.random() < 0.3 else q()

    eq_rows = [tuple(q() for _ in range(n)) for _ in range(rng.randint(0, 2))]
    eq_rhs = [rhs() for _ in eq_rows]
    if eq_rows and rng.random() < 0.4:  # a redundant (scaled) copy of a row
        k, f = rng.randrange(len(eq_rows)), F(rng.choice([-2, 1, 3]), rng.randint(1, 2))
        eq_rows.append(tuple(f * v for v in eq_rows[k]))
        eq_rhs.append(f * eq_rhs[k])
    ub_rows = tuple(tuple(q() for _ in range(n)) for _ in range(rng.randint(0, 3)))
    ub_rhs = tuple(rhs() for _ in ub_rows)
    return LPProblem(
        objective=tuple(q() for _ in range(n)),
        maximize=rng.random() < 0.5,
        eq_rows=tuple(eq_rows),
        eq_rhs=tuple(eq_rhs),
        ub_rows=ub_rows,
        ub_rhs=ub_rhs,
    )


def _status(res) -> tuple:
    if res is LP_INFEASIBLE:
        return "infeasible", None
    if res is LP_UNBOUNDED:
        return "unbounded", None
    return "optimal", res.value


def _assert_feasible(p: LPProblem, res: LPOptimal) -> None:
    for row, b in zip(p.eq_rows, p.eq_rhs):
        assert dot(row, res.point) == b
    for row, b in zip(p.ub_rows, p.ub_rhs):
        assert dot(row, res.point) <= b
    assert all(v >= 0 for v in res.point)
    assert res.value == dot(p.objective, res.point)


@pytest.mark.parametrize("seed", range(12))
def test_lp_matches_brute_force_on_random_problems(seed):
    rng = random.Random(seed)
    for _ in range(15):
        p = _random_lp(rng)
        res = lp_optimize(p)
        assert _status(res) == _brute_force_lp(p), p
        if isinstance(res, LPOptimal):
            _assert_feasible(p, res)


def _integer_multiple(rng, row, rhs=()):
    """``(row, rhs, k)``: both times ``k``, a random positive multiple of
    the lcm of their denominators, as ints."""
    k = math.lcm(*(v.denominator for v in (*row, *rhs))) * rng.randint(1, 4)
    return tuple(int(v * k) for v in row), tuple(int(v * k) for v in rhs), k


@pytest.mark.parametrize("seed", range(8))
def test_lp_stated_in_integer_multiples_matches_fractions(seed):
    rng = random.Random(f"integer-rows-{seed}")
    for _ in range(20):
        p = _random_lp(rng)
        eq = [_integer_multiple(rng, r, (b,)) for r, b in zip(p.eq_rows, p.eq_rhs)]
        ub = [_integer_multiple(rng, r, (b,)) for r, b in zip(p.ub_rows, p.ub_rhs)]
        objective, _, k = _integer_multiple(rng, p.objective)
        q = LPProblem(
            objective=objective,
            maximize=p.maximize,
            eq_rows=tuple(r for r, _, _ in eq),
            eq_rhs=tuple(b for _, (b,), _ in eq),
            ub_rows=tuple(r for r, _, _ in ub),
            ub_rhs=tuple(b for _, (b,), _ in ub),
        )
        assert all(
            type(v) is int
            for row in (*q.eq_rows, *q.ub_rows, q.eq_rhs, q.ub_rhs, q.objective)
            for v in row
        )
        want, got = lp_optimize(p), lp_optimize(q)
        assert _status(got)[0] == _status(want)[0], p
        if isinstance(got, LPOptimal):
            assert isinstance(got.value, Fraction)
            assert got.value == k * want.value
            _assert_feasible(q, got)
            _assert_feasible(p, LPOptimal(got.value / k, got.point))


def test_lp_brute_force_covers_every_outcome():
    seen = {
        _brute_force_lp(_random_lp(rng))[0]
        for rng in (random.Random(seed) for seed in range(12))
    }
    assert seen == {"optimal", "infeasible", "unbounded"}


# Beale's example: Dantzig's rule with the smallest-index ratio tie-break
# cycles through six degenerate bases at the origin.
BEALE = LPProblem(
    objective=(F(-3, 4), F(20), F(-1, 2), F(6)),
    ub_rows=(
        (F(1, 4), F(-8), F(-1), F(9)),
        (F(1, 2), F(-12), F(-1, 2), F(3)),
        (F(0), F(0), F(1), F(0)),
    ),
    ub_rhs=(F(0), F(0), F(1)),
)


def test_lp_bland_fallback_breaks_a_dantzig_cycle(monkeypatch):
    res = lp_optimize(BEALE)
    assert res == LPOptimal(F(-5, 4), (F(1), F(0), F(1), F(0)))
    assert _brute_force_lp(BEALE) == ("optimal", F(-5, 4))
    monkeypatch.setattr(exact, "_STALL_LIMIT", 10**9)  # Dantzig only
    monkeypatch.setattr(exact, "_PIVOT_LIMIT", 1000)
    with pytest.raises(SimplexIterationLimit, match="phase 2"):
        lp_optimize(BEALE)


def test_lp_points_are_pinned():
    # Scaling a row to integers scales its slack; the entering rule must
    # still pick the column the unscaled tableau picks, or the same optimal
    # value is reached at another vertex.
    res = lp_optimize(
        LPProblem(
            objective=(F(-3, 2), F(2), F(-3, 2)),
            eq_rows=((F(1), F(2), F(1)),),
            eq_rhs=(F(3),),
            ub_rows=((F(-1), F(-1, 2), F(-3, 2)),),
            ub_rhs=(F(-3),),
        )
    )
    assert res == LPOptimal(F(-9, 2), (F(0), F(0), F(3)))


# -- the optimality certificate ------------------------------------------------


# minimise x + 2y subject to x + y = 1: all mass on x.
EQUALITY_BLEND = LPProblem(
    objective=(F(1), F(2)), eq_rows=((F(1), F(1)),), eq_rhs=(F(1),)
)

# Phase 1 ends at a feasible basis from which phase 2 still has to pivot.
NEEDS_PHASE_TWO = LPProblem(
    objective=(F(1), F(2)),
    maximize=True,
    ub_rows=((F(1), F(1)), (F(1), F(3))),
    ub_rhs=(F(4), F(6)),
)


def test_lp_certificate_rejects_an_unfinished_phase_two(monkeypatch):
    assert lp_optimize(NEEDS_PHASE_TWO) == LPOptimal(F(5), (F(3), F(1)))
    run = exact._Tableau.run

    def stop_phase_two(self, weight, phase):
        return True if phase == 2 else run(self, weight, phase)

    monkeypatch.setattr(exact._Tableau, "run", stop_phase_two)
    with pytest.raises(AssertionError, match="dual check \\(reduced cost\\)"):
        lp_optimize(NEEDS_PHASE_TWO)


@pytest.mark.parametrize(
    "problem,shift,kind",
    [
        (NEEDS_PHASE_TWO, 1, "ub"),
        (NEEDS_PHASE_TWO, -4, "bound"),
        (EQUALITY_BLEND, 1, "eq"),
    ],
    ids=["ub", "bound", "eq"],
)
def test_lp_primal_check_rejects_a_moved_point(monkeypatch, problem, shift, kind):
    # After phase 2, move the first variable (basic at the optimum) by
    # `shift`: the point leaves the stated problem.  The dual check sees
    # only the objective, which moves too, so without the primal check the
    # raise would name the wrong check.
    run = exact._Tableau.run

    def move_first_variable(self, weight, phase):
        done = run(self, weight, phase)
        if phase == 2:
            i = self.basis.index(0)
            row = self.rows[i]
            self.rows[i] = row[:-1] + [row[-1] + shift * self.det]
        return done

    monkeypatch.setattr(exact._Tableau, "run", move_first_variable)
    with pytest.raises(AssertionError, match=f"infeasible point \\({kind}\\)"):
        lp_optimize(problem)


def test_lp_certificate_checks_the_objective(monkeypatch):
    # minimise x + y over x + y >= 1: the multiplier of the row is 1.
    problem = LPProblem(
        objective=(F(1), F(1)), ub_rows=((F(-1), F(-1)),), ub_rhs=(F(-1),)
    )
    assert lp_optimize(problem).value == 1
    run = exact._Tableau.run

    def drop_multipliers(self, weight, phase):
        done = run(self, weight, phase)
        if phase == 2:
            # The row's multiplier is stored negated; clipping it to 0
            # leaves every reduced cost at its (nonnegative) cost, but y . b
            # falls from 1 to 0.
            self.rows[-1] = [max(v, 0) for v in self.rows[-1]]
        return done

    monkeypatch.setattr(exact._Tableau, "run", drop_multipliers)
    with pytest.raises(AssertionError, match="dual check \\(objective\\)"):
        lp_optimize(problem)
