"""Utility, refinement, and leakage capacities — per channel and per space.

Uncertainty here is the loss-flavoured utility: an adversary picks one action
per observation to minimise expected loss, and ``posterior_uncertainty`` is
the best they can achieve.  Refinement (`refines`) is the structural order that
preserves every such comparison: B is refined by A exactly when some
post-processing of B reproduces A, and the LP below finds the witness or
proves there is none.

Capacities: ``mult_capacity_channel`` / ``add_capacity_channel`` score one
channel (sum of column maxima; one minus the sum of column minima).  The
space-level programs maximise/minimise the same scores over *every* private
channel at once, via an exact LP over an n x n matrix constrained by the
space's stretch factors.

The space-level LP is solved on a quotient: a verified group of metric
automorphisms acts on matrix entries, and averaging any optimum over the
group preserves both feasibility and the trace objective, so an invariant
optimum exists and one variable per entry-orbit suffices.  Constraints are
added lazily (violated ones in batches) until the relaxed optimum satisfies
every constraint; the expanded witness is then re-verified exactly against
the full, unreduced system.  None of this changes the optimum — it is what
makes the larger grids tractable in exact arithmetic.

A note on the discrete space's additive closed form: a commonly printed
formula drops a factor of n (reading 1 - 1/(1+(n-1)*base)); that version
contradicts the dual response channel's actual column minima, which sum to
n/(1+(n-1)*base).  The implementation uses the latter, and the LP path
agrees with it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, TYPE_CHECKING

from .exact import (
    LPOptimal,
    LPProblem,
    ONE,
    ZERO,
    dot,
    lp_optimize,
    mat_mul,
)
from .mechanisms import (
    Channel,
    Prior,
    channel_to_json,
    check_dx_private,
    geometric_truncated,
    random_response,
    random_response_dual,
)
from .metrics import MetricSpace

if TYPE_CHECKING:  # pragma: no cover
    from .optimality import LossFunction

__all__ = [
    "prior_uncertainty",
    "posterior_uncertainty",
    "refines",
    "mult_capacity_channel",
    "add_capacity_channel",
    "CapacityReport",
    "type_capacity_lp",
    "type_capacity_closed_form",
    "capacity_report_to_json",
]


def prior_uncertainty(loss: "LossFunction", prior: Prior) -> Fraction:
    """Best expected loss an adversary gets from the prior alone."""
    if loss.x_labels != prior.x_labels:
        raise ValueError("loss and prior secrets do not match")
    return min(dot(row, prior.probs) for row in loss.table)


def posterior_uncertainty(loss: "LossFunction", prior: Prior, channel: Channel) -> Fraction:
    """Best expected loss given the channel's output, summed over outputs.

    Computed column by column: each observation contributes the smallest
    action score against the joint column, so no explicit posterior needs to
    be formed.
    """
    if loss.x_labels != prior.x_labels:
        raise ValueError("loss and prior secrets do not match")
    if channel.x_labels != prior.x_labels:
        raise ValueError("channel and prior secrets do not match")
    total = ZERO
    for j in range(len(channel.y_labels)):
        joint = tuple(p * row[j] for p, row in zip(prior.probs, channel.rows))
        if not any(joint):
            continue
        total += min(dot(lrow, joint) for lrow in loss.table)
    return total


def refines(b: Channel, a: Channel) -> Optional[Channel]:
    """Does post-processing ``b`` reproduce ``a``?  Returns the row-stochastic
    witness (rows = b's outputs, columns = a's outputs) or None.

    The feasibility LP is exact, and a found witness is re-verified by an
    exact matrix product before it is returned.
    """
    if b.x_labels != a.x_labels:
        raise ValueError("channels must share their secret labels")
    nb, na = len(b.y_labels), len(a.y_labels)
    nvars = nb * na
    eq_rows = []
    eq_rhs = []
    for x in range(len(a.x_labels)):
        brow = b.rows[x]
        for ya in range(na):
            row = [ZERO] * nvars
            for yb in range(nb):
                if brow[yb]:
                    row[yb * na + ya] = brow[yb]
            eq_rows.append(tuple(row))
            eq_rhs.append(a.rows[x][ya])
    for yb in range(nb):
        row = [ZERO] * nvars
        for ya in range(na):
            row[yb * na + ya] = ONE
        eq_rows.append(tuple(row))
        eq_rhs.append(ONE)

    res = lp_optimize(
        LPProblem(
            objective=(ZERO,) * nvars,
            eq_rows=tuple(eq_rows),
            eq_rhs=tuple(eq_rhs),
        )
    )
    if not isinstance(res, LPOptimal):
        return None
    rows = tuple(
        tuple(res.point[yb * na + ya] for ya in range(na)) for yb in range(nb)
    )
    if mat_mul(b.rows, rows) != a.rows:
        raise AssertionError("refinement witness failed re-check")
    return Channel(b.y_labels, a.y_labels, rows)


def mult_capacity_channel(channel: Channel) -> Fraction:
    """Sum of column maxima — the worst-case multiplicative leakage factor."""
    return sum(max(column) for column in zip(*channel.rows))


def add_capacity_channel(channel: Channel) -> Fraction:
    """One minus the sum of column minima — the worst-case additive leak."""
    return 1 - sum(min(column) for column in zip(*channel.rows))


def _capacity_score(channel: Channel, mode: str) -> Fraction:
    if mode == "mult":
        return mult_capacity_channel(channel)
    return add_capacity_channel(channel)


@dataclass(frozen=True)
class CapacityReport:
    mode: str  # "mult" | "add"
    method: str  # "lp" | "closed_form" | "per_channel"
    value: Fraction
    witness: Channel
    precision_digits: int


def capacity_report_to_json(report: CapacityReport) -> dict:
    return {
        "mode": report.mode,
        "method": report.method,
        "value": str(report.value),
        "precision_digits": report.precision_digits,
        "witness": channel_to_json(report.witness),
    }


# --------------------------------------------------------------------------
# Metric automorphisms and the entry-orbit quotient.
# --------------------------------------------------------------------------


def _swap_bits(i: int, a: int, b: int) -> int:
    x = (i >> a) & 1
    y = (i >> b) & 1
    if x != y:
        i ^= (1 << a) | (1 << b)
    return i


def _automorphism_generators(space: MetricSpace) -> list:
    """Index permutations that provably preserve the stretch matrix.

    Every candidate below is checked against the matrix before being used,
    so a bug here could only ever cost symmetry, never correctness.
    """
    n = space.n
    candidates: list = []
    if space.kind == "line":
        candidates.append(tuple(n - 1 - i for i in range(n)))
    elif space.kind == "discrete":
        if n >= 2:
            swap = list(range(n))
            swap[0], swap[1] = swap[1], swap[0]
            candidates.append(tuple(swap))
            candidates.append(tuple((i + 1) % n for i in range(n)))
    elif space.kind == "hamming":
        bits = space.dims[0]
        for b in range(bits):
            mask = 1 << b
            candidates.append(tuple(i ^ mask for i in range(n)))
        for b in range(bits - 1):
            candidates.append(tuple(_swap_bits(i, b, b + 1) for i in range(n)))
    elif space.kind == "grid":
        width, height = space.dims
        cols, rows_n = width + 1, height + 1

        def idx(r: int, c: int) -> int:
            return r * cols + c

        coords = [(r, c) for r in range(rows_n) for c in range(cols)]
        candidates.append(tuple(idx(r, width - c) for r, c in coords))
        candidates.append(tuple(idx(height - r, c) for r, c in coords))
        if width == height:
            candidates.append(tuple(idx(c, r) for r, c in coords))

    gens = []
    for g in candidates:
        if all(
            space.stretch[g[i]][g[j]] == space.stretch[i][j]
            for i in range(n)
            for j in range(n)
        ):
            gens.append(g)
    return gens


def _orbits(n_items: int, images) -> list:
    """Union-find orbit partition; ``images(item)`` yields generator images.

    Returns a list mapping item -> orbit id, with orbit ids numbered by each
    orbit's smallest member (so the numbering is canonical).
    """
    parent = list(range(n_items))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for item in range(n_items):
        for img in images(item):
            a, b = find(item), find(img)
            if a != b:
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
    roots = sorted({find(i) for i in range(n_items)})
    number = {r: k for k, r in enumerate(roots)}
    return [number[find(i)] for i in range(n_items)]


# The most violated constraints added to the capacity program per round.
_CUT_BATCH = 32


def type_capacity_lp(space: MetricSpace, mode: str) -> CapacityReport:
    """Exact worst-case capacity over every private channel for the space.

    The program optimises the trace of an n x n row-stochastic matrix whose
    columns obey the stretch constraints (max trace for ``mult``; for ``add``
    the capacity is one minus the *minimised* trace).  See the module
    docstring for how the quotient + lazy constraints keep this exact and
    still fast; the returned witness is the optimal matrix as a channel,
    re-verified against the full constraint system.
    """
    if mode not in ("mult", "add"):
        raise ValueError("mode must be 'mult' or 'add'")
    n = space.n
    gens = _automorphism_generators(space)

    pair_of = [(i, j) for i in range(n) for j in range(n)]
    orbit_of = _orbits(
        n * n,
        lambda t: [
            g[pair_of[t][0]] * n + g[pair_of[t][1]] for g in gens
        ],
    )
    nvars = max(orbit_of) + 1 if orbit_of else 0
    row_orbit = _orbits(n, lambda i: [g[i] for g in gens])

    objective = [ZERO] * nvars
    for i in range(n):
        objective[orbit_of[i * n + i]] += 1

    eq_rows = []
    seen_rows = set()
    for i in range(n):
        if row_orbit[i] in seen_rows:
            continue
        seen_rows.add(row_orbit[i])
        row = [ZERO] * nvars
        for j in range(n):
            row[orbit_of[i * n + j]] += 1
        eq_rows.append(tuple(row))
    eq_rhs = (ONE,) * len(eq_rows)

    # Full constraint pool in reduced coordinates, deduplicated, canonical
    # order.  Entry (i, k, j): m[i][j] - stretch(i,k) * m[k][j] <= 0.
    pool: list = []
    pool_keys = set()
    seed: list = []
    ordered_pairs = []
    for i, k in space.tight_pairs:
        ordered_pairs.append((i, k))
        ordered_pairs.append((k, i))
    for i, k in ordered_pairs:
        s = space.stretch[i][k]
        for j in range(n):
            coeffs: dict = {}
            a = orbit_of[i * n + j]
            b = orbit_of[k * n + j]
            coeffs[a] = coeffs.get(a, ZERO) + 1
            coeffs[b] = coeffs.get(b, ZERO) - s
            key = tuple(sorted(coeffs.items()))
            if key in pool_keys:
                continue
            pool_keys.add(key)
            row = [ZERO] * nvars
            for var, c in coeffs.items():
                row[var] = c
            pool.append(tuple(row))
            if j == i or j == k:
                seed.append(len(pool) - 1)

    active: list = sorted(set(seed))
    active_set = set(active)
    while True:
        res = lp_optimize(
            LPProblem(
                objective=tuple(objective),
                maximize=(mode == "mult"),
                eq_rows=tuple(eq_rows),
                eq_rhs=eq_rhs,
                ub_rows=tuple(pool[t] for t in active),
                ub_rhs=(ZERO,) * len(active),
            )
        )
        if not isinstance(res, LPOptimal):  # pragma: no cover - always feasible
            raise AssertionError("capacity program must be feasible and bounded")
        x = res.point
        violated = []
        for t, row in enumerate(pool):
            if t in active_set:
                continue
            amount = dot(row, x)
            if amount > 0:
                violated.append((amount, t))
        if not violated:
            break
        violated.sort(key=lambda av: (-av[0], av[1]))
        for _, t in violated[:_CUT_BATCH]:
            active.append(t)
            active_set.add(t)
        active.sort()

    trace = res.value
    entries = [x[t] for t in orbit_of]
    rows = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(n))
    witness = Channel(space.labels, tuple(f"y{j}" for j in range(n)), rows)
    if not check_dx_private(witness, space).ok:
        raise AssertionError("capacity witness failed the privacy re-check")
    if sum(rows[i][i] for i in range(n)) != trace:
        raise AssertionError("capacity witness trace differs from the LP optimum")
    value = trace if mode == "mult" else 1 - trace
    # The witness's own capacity score must hit the programme's optimum on
    # the nose: >= is forced by the diagonal, <= by privacy of the witness.
    if _capacity_score(witness, mode) != value:
        raise AssertionError("capacity witness score differs from the LP optimum")
    return CapacityReport(
        mode=mode,
        method="lp",
        value=value,
        witness=witness,
        precision_digits=space.precision_digits,
    )


def type_capacity_closed_form(space: MetricSpace, mode: str) -> CapacityReport:
    """Closed-form capacities for the line and discrete families.

    The witness channel is the known optimal mechanism (the truncated
    geometric on the line; the response channel or its dual on the discrete
    space), and the formula value is checked against the witness's own
    capacity before being returned.
    """
    if mode not in ("mult", "add"):
        raise ValueError("mode must be 'mult' or 'add'")
    b = space.base
    n = space.n
    if space.kind == "line":
        witness = geometric_truncated(n, 1 / b) if n >= 2 else None
        if witness is None:
            raise ValueError("line closed form needs n >= 2")
        if mode == "mult":
            value = (n * (b - 1) + 2) / (b + 1)
        else:
            value = add_capacity_channel(witness)
    elif space.kind == "discrete":
        if mode == "mult":
            witness = random_response(n, 1 / b)
            value = Fraction(n) * b / (b + n - 1)
        else:
            witness = random_response_dual(n, 1 / b)
            value = 1 - Fraction(n) / (1 + (n - 1) * b)
    else:
        raise ValueError(
            f"no closed form for kind {space.kind!r}; use type_capacity_lp"
        )
    if _capacity_score(witness, mode) != value:
        raise AssertionError("closed-form capacity differs from its witness's score")
    witness = Channel(space.labels, witness.y_labels, witness.rows)
    return CapacityReport(
        mode=mode,
        method="closed_form",
        value=value,
        witness=witness,
        precision_digits=space.precision_digits,
    )
