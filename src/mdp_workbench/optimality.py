"""Loss functions and universal-optimality verdicts.

A loss table scores actions against secrets; the consumer of a private
channel picks, per observation, the action minimising expected loss.  A
channel is *universally optimal* for a loss (over a space) when no kernel
mechanism beats it at any prior.  Because every private channel refines a
convex combination of kernels, sweeping the kernels is a complete test — and
each kernel comparison reduces to finitely many exact LPs, one per region of
prior space on which the kernel's best strategy is constant.

Verdicts are three-valued and honest: ``optimal`` (every cell certified),
``counterexample`` (a prior and rival kernel, re-verified by direct utility
evaluation before being returned), or ``unknown`` (the work bound was hit, or
sampling found nothing — sampling alone can never certify optimality).

Both modes prune each output column's actions by integer score vectors (loss
and channel scaled once to integers), and both work in those integers.
Exact mode states every cell LP with them, so the simplex gets integer rows
and no Fraction is built until a cell shows a counterexample.  Sampled mode
scores its priors with them: every sampled prior is an integer vector over
its sum, so a channel's utility there is an integer dot-product sum over a
known denominator.  In both modes only the counterexample returned is
recomputed in Fractions.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .analysis import posterior_uncertainty
from .exact import (
    LPOptimal,
    LPProblem,
    LP_INFEASIBLE,
    Matrix,
    ONE,
    ZERO,
    as_matrix,
    lp_optimize,
    parse_scalar,
)
from .mechanisms import Channel, Hyper, Prior, from_hyper
from .metrics import MetricSpace

__all__ = [
    "LossFunction",
    "make_loss",
    "loss_to_json",
    "loss_from_json",
    "restrict_loss",
    "extend_loss",
    "add_losses",
    "scale_loss",
    "is_trivial",
    "LossClass",
    "classify_monotone",
    "Verdict",
    "check_universal_l_optimal",
    "impossibility_sweep",
    "min_pair_mechanism",
]


@dataclass(frozen=True)
class LossFunction:
    """Action-by-secret table of non-negative rational losses."""

    w_labels: tuple
    x_labels: tuple
    table: Matrix

    def __post_init__(self):
        if len(set(self.w_labels)) != len(self.w_labels):
            raise ValueError("duplicate action labels")
        if len(set(self.x_labels)) != len(self.x_labels):
            raise ValueError("duplicate secret labels")
        if len(self.table) != len(self.w_labels):
            raise ValueError("row count does not match action labels")
        for row in self.table:
            if len(row) != len(self.x_labels):
                raise ValueError("loss row width does not match secret labels")
            if any(v < 0 for v in row):
                raise ValueError("losses must be non-negative")
        if not self.w_labels:
            raise ValueError("a loss needs at least one action")


def make_loss(
    kind: str,
    *,
    labels: Optional[Sequence[str]] = None,
    space: Optional[MetricSpace] = None,
    w_labels: Optional[Sequence[str]] = None,
    x_labels: Optional[Sequence[str]] = None,
    table=None,
    assignment: Optional[Mapping] = None,
    profile: Optional[Mapping] = None,
) -> LossFunction:
    """Build one of the stock losses.

    ``bin``, ``nib`` and ``avg`` are over ``labels``, which serve as both
    actions and secrets:

    * ``bin``: 0 for a correct guess, 1 otherwise.
    * ``nib``: the perverse flip — 1 for a correct guess, 0 otherwise.
    * ``avg``: absolute numeric distance |w - x| (labels must be integers).
    * ``monotone``: ``profile[d(assignment[w], x)]`` over a space with
      integer distances; ``assignment`` injectively relabels actions as
      secrets and ``profile`` maps each occurring distance to a loss.
    * ``custom``: explicit ``w_labels`` / ``x_labels`` / ``table``.
    """
    if kind in ("bin", "nib", "avg"):
        if labels is None:
            raise ValueError(f"{kind} loss needs labels")
        labels = tuple(str(s) for s in labels)
        if kind == "avg":
            try:
                nums = [int(s) for s in labels]
            except ValueError:
                raise ValueError("avg loss needs integer labels") from None
            rows = tuple(
                tuple(Fraction(abs(a - b)) for b in nums) for a in nums
            )
        else:
            hit = ZERO if kind == "bin" else ONE
            miss = ONE if kind == "bin" else ZERO
            rows = tuple(
                tuple(hit if i == j else miss for j in range(len(labels)))
                for i in range(len(labels))
            )
        return LossFunction(labels, labels, rows)

    if kind == "monotone":
        if space is None or assignment is None or profile is None:
            raise ValueError("monotone loss needs space, assignment and profile")
        if space.base == 1:
            raise ValueError(
                "distances are not recoverable at base 1; use a custom table"
            )
        w_out = tuple(str(w) for w in assignment)
        targets = [str(assignment[w]) for w in assignment]
        if len(set(targets)) != len(targets):
            raise ValueError("assignment must be injective")
        idx = [space.index(t) for t in targets]
        items = profile.items() if isinstance(profile, Mapping) else profile
        prof = {int(k): parse_scalar(v) for k, v in items}
        rows = []
        for a in idx:
            row = []
            for x in range(space.n):
                d = _integer_distance(space, a, x)
                if d is None:
                    raise ValueError(
                        f"no integer distance between {space.labels[a]!r} "
                        f"and {space.labels[x]!r}"
                    )
                if d not in prof:
                    raise ValueError(f"profile is missing distance {d}")
                row.append(prof[d])
            rows.append(tuple(row))
        return LossFunction(w_out, space.labels, tuple(rows))

    if kind == "custom":
        if w_labels is None or x_labels is None or table is None:
            raise ValueError("custom loss needs w_labels, x_labels and table")
        return LossFunction(
            tuple(str(w) for w in w_labels),
            tuple(str(x) for x in x_labels),
            as_matrix(table),
        )

    raise ValueError(f"unknown loss kind {kind!r}")


def _integer_distance(space: MetricSpace, i: int, j: int) -> Optional[int]:
    """Recover d(i, j) from the stretch matrix when it is an exact integer
    power of the base (always true for line/discrete/hamming spaces)."""
    s = space.stretch[i][j]
    if s == 1:
        return 0
    cur = ONE
    for d in range(1, 512):
        cur *= space.base
        if cur == s:
            return d
        if cur > s:
            return None
    return None


def loss_to_json(loss: LossFunction) -> dict:
    return {
        "w_labels": list(loss.w_labels),
        "x_labels": list(loss.x_labels),
        "table": [[str(v) for v in row] for row in loss.table],
    }


def loss_from_json(data: Mapping) -> LossFunction:
    return LossFunction(
        tuple(data["w_labels"]),
        tuple(data["x_labels"]),
        as_matrix(data["table"]),
    )


def restrict_loss(loss: LossFunction, keep_x: Sequence[str]) -> LossFunction:
    """Drop secret columns outside ``keep_x`` (actions all stay)."""
    keep = [x for x in loss.x_labels if x in set(keep_x)]
    if not keep:
        raise ValueError("cannot restrict to an empty secret set")
    cols = [loss.x_labels.index(x) for x in keep]
    return LossFunction(
        loss.w_labels,
        tuple(keep),
        tuple(tuple(row[c] for c in cols) for row in loss.table),
    )


def extend_loss(loss: LossFunction, full_x: Sequence[str]) -> LossFunction:
    """Zero-pad the loss onto a larger secret set: new secrets cost nothing
    whatever is guessed, so utility statements transfer scaled by the mass
    the prior leaves on the original secrets."""
    full = tuple(str(x) for x in full_x)
    missing = set(loss.x_labels) - set(full)
    if missing:
        raise ValueError(f"extension drops existing secrets {sorted(missing)!r}")
    pos = {x: k for k, x in enumerate(loss.x_labels)}
    rows = tuple(
        tuple(row[pos[x]] if x in pos else ZERO for x in full)
        for row in loss.table
    )
    return LossFunction(loss.w_labels, full, rows)


def add_losses(a: LossFunction, b: LossFunction) -> LossFunction:
    """Sum of two losses over paired actions.

    The consumer picks one action from each component; the combined table is
    the pointwise sum over the shared secret set.
    """
    if a.x_labels != b.x_labels:
        raise ValueError("losses must share their secret labels")
    w = tuple(f"{wa}|{wb}" for wa in a.w_labels for wb in b.w_labels)
    rows = tuple(
        tuple(ra[x] + rb[x] for x in range(len(a.x_labels)))
        for ra in a.table
        for rb in b.table
    )
    return LossFunction(w, a.x_labels, rows)


def scale_loss(loss: LossFunction, per_secret: Mapping) -> LossFunction:
    """Scale each secret's column by a non-negative factor."""
    factors = []
    for x in loss.x_labels:
        if x not in per_secret:
            raise ValueError(f"missing scale factor for secret {x!r}")
        f = parse_scalar(per_secret[x])
        if f < 0:
            raise ValueError("scale factors must be non-negative")
        factors.append(f)
    rows = tuple(
        tuple(f * v for f, v in zip(factors, row)) for row in loss.table
    )
    return LossFunction(loss.w_labels, loss.x_labels, rows)


def is_trivial(loss: LossFunction) -> bool:
    """One action is at least as good as every other for every secret."""
    colmin = tuple(min(col) for col in zip(*loss.table))
    return any(tuple(row) == colmin for row in loss.table)


@dataclass(frozen=True)
class LossClass:
    kind: str  # "trivial" | "strictly_monotone" | "monotone" | "none"
    note: Optional[str] = None


def classify_monotone(loss: LossFunction, space: MetricSpace) -> LossClass:
    """Smallest class the loss falls into, by exhausting action relabellings.

    A loss is monotone when some injective relabelling of actions as secrets
    makes the table a non-decreasing function of distance alone; strictly
    monotone when that function can be strictly increasing.  Distances are
    compared through the stretch matrix (equivalent for base > 1; at base 1
    every pair collapses to a single level, which is the right degenerate
    reading).
    """
    if loss.x_labels != space.labels:
        raise ValueError("loss secrets do not match the space's labels")
    if is_trivial(loss):
        return LossClass("trivial")
    nw, nx = len(loss.w_labels), len(loss.x_labels)
    if nw > nx:
        return LossClass(
            "none", note="more actions than secrets; no secret relabelling exists"
        )
    found_monotone = False
    for image in itertools.permutations(range(nx), nw):
        levels: dict = {}
        ok = True
        for w, a in enumerate(image):
            for x in range(nx):
                s = space.stretch[a][x]
                v = loss.table[w][x]
                if s in levels:
                    if levels[s] != v:
                        ok = False
                        break
                else:
                    levels[s] = v
            if not ok:
                break
        if not ok:
            continue
        ordered = [levels[s] for s in sorted(levels)]
        if all(u <= v for u, v in zip(ordered, ordered[1:])):
            if all(u < v for u, v in zip(ordered, ordered[1:])):
                return LossClass("strictly_monotone")
            found_monotone = True
    if found_monotone:
        return LossClass("monotone")
    return LossClass("none")


# --------------------------------------------------------------------------
# Universal optimality.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    kind: str  # "optimal" | "counterexample" | "unknown"
    prior: Optional[Prior] = None
    rival: Optional[Hyper] = None
    margin: Optional[Fraction] = None
    detail: Optional[str] = None


def _integer_rows(rows: Matrix) -> tuple:
    """``(d, int_rows)``: the rows times ``d``, the lcm of their entries'
    denominators, as Python ints."""
    d = math.lcm(*(v.denominator for row in rows for v in row))
    return d, tuple(
        tuple(v.numerator * (d // v.denominator) for v in row) for row in rows
    )


def _column_actions(channel: Channel, scaled_loss: tuple) -> tuple:
    """Per output column, the actions that can still win the per-column
    minimum, with their integer score vectors.

    ``scaled_loss`` is ``_integer_rows(loss.table)``.  Returns ``(d,
    columns)``: ``columns[j]`` is ``(kept, vecs)``, where ``vecs[i][x]`` is
    ``d * L[kept[i]][x] * C[x][j]`` and ``d`` is the loss's integer scale
    times the channel's.  Strictly dominated actions and later duplicates
    are dropped; positive scaling changes neither relation.  The surviving
    set realises the same column minimum at every prior.
    """
    d_loss, loss_rows = scaled_loss
    d_channel, channel_rows = _integer_rows(channel.rows)
    columns = []
    for j in range(len(channel.y_labels)):
        col = [row[j] for row in channel_rows]
        vecs = [tuple(c * v for c, v in zip(col, lrow)) for lrow in loss_rows]
        kept = [
            w
            for w, vec in enumerate(vecs)
            if not any(
                w2 != w
                and all(a <= b for a, b in zip(vec2, vec))
                and (vec2 != vec or w2 < w)
                for w2, vec2 in enumerate(vecs)
            )
        ]
        columns.append((kept, [vecs[w] for w in kept]))
    return d_loss * d_channel, columns


def _score(columns: list, weights: tuple) -> int:
    """Sum over columns of the smallest kept score vector's dot product with
    the integer prior weights."""
    total = 0
    for _, vecs in columns:
        total += min([sum(map(operator.mul, vec, weights)) for vec in vecs])
    return total


def _strategy_count(columns: list) -> int:
    total = 1
    for kept, _ in columns:
        total *= len(kept)
    return total


def check_universal_l_optimal(
    channel: Channel,
    loss: LossFunction,
    kernels: Sequence[Hyper],
    *,
    mode: str = "exact",
    budget: int = 2_000_000,
    samples: int = 200,
    seed: int = 7,
) -> Verdict:
    """Is ``channel`` at least as useful as every kernel, at every prior?

    Exact mode sweeps, for each kernel, the finitely many prior regions on
    which one strategy is the kernel's best reply, and maximises the utility
    gap on each region with an exact LP.  Each cell's LP is stated in
    integers, straight from the score vectors of the candidate and the
    kernel (scales ``d_m`` and ``d_k``), so its value is the gap times
    ``d_k``.  Only a cell with a positive value builds Fractions: its prior,
    and the margin ``value / d_k``.  Ties count as optimal; any strict win
    for a kernel is returned as a counterexample after an independent
    re-evaluation of both utilities at the found prior.  If the pruned
    strategy count exceeds ``budget``, the verdict is ``unknown`` — never a
    silent truncation.

    Sampled mode evaluates a seeded battery of priors (uniform, every point
    prior, and ``samples`` random ones, each ``w / sum(w)`` for an integer
    vector ``w``) and can only ever return ``counterexample`` or
    ``unknown``.  It scores every prior in integers: the loss and each
    channel are scaled once to integers, so a channel's score at ``w`` is
    a sum of integer dot products, and two channels are compared by
    cross-multiplying their scales.  The first prior at which a kernel wins
    is re-verified with ``posterior_uncertainty`` before it is returned.
    A negative ``samples`` or ``budget`` raises ``ValueError``.
    """
    if channel.x_labels != loss.x_labels:
        raise ValueError("channel and loss secrets do not match")
    for k in kernels:
        if k.x_labels != channel.x_labels:
            raise ValueError("kernel secrets do not match the channel")
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be 'exact' or 'sampled'")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")

    n = len(channel.x_labels)
    ordered = sorted(kernels, key=lambda h: (h.inners, h.outers))
    rivals = [(k, from_hyper(k)[0]) for k in ordered]
    scaled_loss = _integer_rows(loss.table)
    d_m, cand_cols = _column_actions(channel, scaled_loss)

    if mode == "sampled":
        return _check_sampled(
            channel, loss, scaled_loss, d_m, cand_cols, rivals, samples, seed
        )

    rival_cols = [(k, kc, *_column_actions(kc, scaled_loss)) for k, kc in rivals]
    total = _strategy_count(cand_cols) + sum(
        _strategy_count(cols) for _, _, _, cols in rival_cols
    )
    if total > budget:
        return Verdict(
            "unknown",
            detail=(
                f"{total} strategy cells exceed the budget of {budget}; "
                "raise the budget or use sampled mode"
            ),
        )

    # Every cell is an LP over (pi, t) in integers: maximise
    # d_k * sum(t) - sum_y v_k[s_y] . pi, where the candidate's epigraph
    # rows d_m * t_y - v_m . pi <= 0 (shared by every cell) hold each t_y
    # at its column minimum, and the rival's best-reply rows
    # (v_k[s_y] - v_k[w]) . pi <= 0 keep pi in the strategy's cell.
    ym = len(channel.y_labels)
    epi_rows = []
    for y, (_, vecs) in enumerate(cand_cols):
        for vec in vecs:
            tail = [0] * ym
            tail[y] = d_m
            epi_rows.append(tuple([-v for v in vec] + tail))
    eq_row = tuple([1] * n + [0] * ym)
    zeros = [0] * ym

    for k, kc, d_k, cols in rival_cols:
        # replies[y][s]: the best-reply rows of choosing s in column y.
        replies = [
            [
                [
                    tuple([a - b for a, b in zip(vec, other)] + zeros)
                    for w, other in enumerate(vecs)
                    if w != s
                ]
                for s, vec in enumerate(vecs)
            ]
            for _, vecs in cols
        ]
        t_part = [d_k] * ym
        for strategy in itertools.product(*(range(len(v)) for _, v in cols)):
            ub_rows = list(epi_rows)
            for rows, s in zip(replies, strategy):
                ub_rows += rows[s]
            chosen = [vecs[s] for (_, vecs), s in zip(cols, strategy)]
            res = lp_optimize(
                LPProblem(
                    objective=tuple([-sum(c) for c in zip(*chosen)] + t_part),
                    maximize=True,
                    eq_rows=(eq_row,),
                    eq_rhs=(1,),
                    ub_rows=tuple(ub_rows),
                    ub_rhs=(0,) * len(ub_rows),
                )
            )
            if res is LP_INFEASIBLE:
                continue  # no prior makes this strategy the kernel's best
            if not isinstance(res, LPOptimal):
                raise AssertionError("a strategy cell's LP is unbounded")
            if res.value > 0:
                prior = Prior(channel.x_labels, tuple(res.point[:n]))
                return _counterexample(loss, channel, prior, (k, kc), res.value / d_k)
    return Verdict("optimal")


def _counterexample(
    loss: LossFunction, channel: Channel, prior: Prior, rival: tuple, margin: Fraction
) -> Verdict:
    """The counterexample verdict against ``rival``, a kernel and its
    channel, once the utility gap recomputed with ``posterior_uncertainty``
    at ``prior`` equals the margin found."""
    kernel, kernel_channel = rival
    gap = posterior_uncertainty(loss, prior, channel) - (
        posterior_uncertainty(loss, prior, kernel_channel)
    )
    if gap != margin:
        raise AssertionError("counterexample failed re-verification")
    return Verdict("counterexample", prior=prior, rival=kernel, margin=gap)


def _check_sampled(
    channel: Channel,
    loss: LossFunction,
    scaled_loss: tuple,
    d_mine: int,
    mine_cols: list,
    rivals: list,
    samples: int,
    seed: int,
) -> Verdict:
    n = len(channel.x_labels)
    rng = random.Random(seed)
    # Each prior is an integer weight vector over its sum: the uniform prior,
    # every point prior, then the seeded random ones.
    battery = [(1,) * n]
    battery += [tuple(int(i == x) for i in range(n)) for x in range(n)]
    for _ in range(samples):
        weights = [rng.randint(0, 20) for _ in range(n)]
        if sum(weights) == 0:
            weights[rng.randrange(n)] = 1
        battery.append(tuple(weights))
    # A channel's posterior uncertainty at weights w is _score(w) / (d * Σw);
    # the weight sum is shared, so the comparison cross-multiplies the d's.
    mine = [_score(mine_cols, weights) for weights in battery]
    for k, kc in rivals:
        d_k, k_cols = _column_actions(kc, scaled_loss)
        for weights, s_mine in zip(battery, mine):
            excess = s_mine * d_k - _score(k_cols, weights) * d_mine
            if excess > 0:
                total = sum(weights)
                prior = Prior(
                    channel.x_labels, tuple(Fraction(w, total) for w in weights)
                )
                margin = Fraction(excess, d_mine * d_k * total)
                return _counterexample(loss, channel, prior, (k, kc), margin)
    return Verdict(
        "unknown",
        detail=(
            f"sampled {len(battery)} priors against {len(rivals)} kernels "
            "without finding a violation; sampling cannot certify optimality"
        ),
    )


def impossibility_sweep(
    space: MetricSpace,
    loss: LossFunction,
    kernels: Optional[Sequence[Hyper]] = None,
    **kwargs,
) -> tuple:
    """Run the optimality check with every kernel in the candidate seat.

    Returns ``((kernel, verdict), ...)`` in canonical kernel order.  On
    spaces where no mechanism can be optimal for the loss, every verdict
    comes back a counterexample — that is the point of the sweep.  When
    ``kernels`` is omitted they are enumerated from the space (at the
    default resource limits).
    """
    if kernels is None:
        from .geometry import build_constraints, enumerate_kernels, enumerate_vertices

        cs = build_constraints(space)
        kernels = enumerate_kernels(space, enumerate_vertices(cs))
    ordered = sorted(kernels, key=lambda h: (h.inners, h.outers))
    out = []
    for k in ordered:
        channel, _ = from_hyper(k)
        out.append((k, check_universal_l_optimal(channel, loss, kernels, **kwargs)))
    return tuple(out)


def min_pair_mechanism(space: MetricSpace) -> tuple:
    """A two-column mechanism that is universally optimal for the lifted
    two-secret loss over its own pair — built over the closest pair.

    Returns ``(channel, loss)``.  The pair is the stretch-minimising pair of
    points, first in label order on ties; the loss scores 1 for naming the
    pair secret exactly and 0 otherwise, zero-padded to the whole space; the
    mechanism's two posteriors tilt the uniform prior towards each endpoint
    by the pair's full stretch factor.
    """
    n = space.n
    if n < 2:
        raise ValueError("need at least two points")
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            s = space.stretch[i][j]
            if best is None or s < best[0]:
                best = (s, i, j)
    s, i, j = best
    alpha = 1 / s
    k = 1 + (n - 1) * alpha
    m = alpha + (n - 1)
    inner1 = tuple(1 / k if x == i else alpha / k for x in range(n))
    inner2 = tuple(alpha / m if x == i else 1 / m for x in range(n))
    hyper = Hyper(
        space.labels,
        (k / (k + m), m / (k + m)),
        (inner1, inner2),
    )
    channel, _ = from_hyper(hyper)
    pair = (space.labels[i], space.labels[j])
    base_loss = make_loss("nib", labels=pair)
    return channel, extend_loss(base_loss, space.labels)
