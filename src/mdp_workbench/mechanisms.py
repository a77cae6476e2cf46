"""Channels, priors, hyper-distributions, and the stock private mechanisms.

A channel is a row-stochastic matrix from secrets to observations.  Pushing a
prior through a channel and conditioning yields a *hyper*: a distribution
over posterior distributions, stored canonically (zero-mass observations
dropped, equal posteriors merged, posteriors sorted).  Two channels that give
every adversary the same information always produce the same hyper, which is
why most of the geometry in this package works on hypers rather than raw
matrices.

Privacy here is multiplicative: a channel respects a metric space when every
pair of rows is within the pair's stretch factor, column by column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Sequence

from .exact import Matrix, ONE, Vector, ZERO, as_matrix, as_vector, parse_scalar
from .metrics import MetricSpace

__all__ = [
    "Channel",
    "Prior",
    "Hyper",
    "uniform_prior",
    "geometric_truncated",
    "random_response",
    "random_response_dual",
    "binary_optimal",
    "trivial_channel",
    "DpReport",
    "check_dx_private",
    "to_hyper",
    "from_hyper",
    "restrict",
    "external_choice",
    "channel_to_json",
    "channel_from_json",
    "prior_to_json",
    "prior_from_json",
    "hyper_to_json",
    "hyper_from_json",
]


@dataclass(frozen=True)
class Channel:
    """Row-stochastic matrix with named rows (secrets) and columns (outputs)."""

    x_labels: tuple
    y_labels: tuple
    rows: Matrix

    def __post_init__(self):
        if len(set(self.x_labels)) != len(self.x_labels):
            raise ValueError("duplicate secret labels")
        if len(set(self.y_labels)) != len(self.y_labels):
            raise ValueError("duplicate output labels")
        if len(self.rows) != len(self.x_labels):
            raise ValueError("row count does not match secret labels")
        width = len(self.y_labels)
        for label, row in zip(self.x_labels, self.rows):
            if len(row) != width:
                raise ValueError(f"row {label!r} has wrong width")
            total = ZERO
            for v in row:
                if v < 0:
                    raise ValueError(f"negative entry in row {label!r}")
                total += v
            if total != 1:
                raise ValueError(f"row {label!r} sums to {total}, not 1")

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)


@dataclass(frozen=True)
class Prior:
    x_labels: tuple
    probs: Vector

    def __post_init__(self):
        if len(self.x_labels) != len(self.probs):
            raise ValueError("prior length mismatch")
        if any(p < 0 for p in self.probs):
            raise ValueError("negative prior probability")
        if sum(self.probs) != 1:
            raise ValueError("prior does not sum to 1")


def uniform_prior(labels: Sequence[str]) -> Prior:
    n = len(labels)
    return Prior(tuple(labels), (Fraction(1, n),) * n)


@dataclass(frozen=True)
class Hyper:
    """Distribution over posteriors, in canonical form.

    ``inners[k]`` is a posterior over ``x_labels`` carried with probability
    ``outers[k]``.  The constructor canonicalises: posteriors of mass zero are
    dropped, equal posteriors are merged (outers added), and the posteriors
    are sorted lexicographically — so dataclass equality is semantic equality.
    """

    x_labels: tuple
    outers: Vector
    inners: Matrix

    def __post_init__(self):
        if len(self.outers) != len(self.inners):
            raise ValueError("outer/inner count mismatch")
        n = len(self.x_labels)
        pairs = []
        order = ZERO
        for w, inner in zip(self.outers, self.inners):
            if w < 0:
                raise ValueError("negative outer probability")
            if w == 0:
                continue
            inner = tuple(inner)
            if len(inner) != n:
                raise ValueError("posterior length mismatch")
            if any(p < 0 for p in inner):
                raise ValueError("negative posterior entry")
            if sum(inner) != 1:
                raise ValueError("posterior does not sum to 1")
            pairs.append((inner, w))
            order += w
        if order != 1:
            raise ValueError(f"outers sum to {order}, not 1")
        # Sort and merge runs of equal posteriors: comparing Fractions is
        # far cheaper than hashing them for a dict.
        pairs.sort(key=itemgetter(0))
        inners: list = []
        outers: list = []
        for inner, w in pairs:
            if inners and inners[-1] == inner:
                outers[-1] += w
            else:
                inners.append(inner)
                outers.append(w)
        object.__setattr__(self, "inners", tuple(inners))
        object.__setattr__(self, "outers", tuple(outers))

    @property
    def support_size(self) -> int:
        return len(self.outers)

    def expected_inner(self) -> Vector:
        """The barycentre: the prior this hyper came from."""
        n = len(self.x_labels)
        out = [ZERO] * n
        for w, inner in zip(self.outers, self.inners):
            for i, p in enumerate(inner):
                if p:
                    out[i] += w * p
        return tuple(out)


# --------------------------------------------------------------------------
# Stock mechanisms.
# --------------------------------------------------------------------------


def geometric_truncated(n: int, alpha) -> Channel:
    """Truncated geometric channel on the n-point line.

    ``alpha`` is the per-step decay (the reciprocal of the per-unit stretch),
    a rational in (0, 1].  Interior columns fall off geometrically in the
    distance |x - y|; the two boundary columns absorb the clipped tails, which
    keeps the rows exactly stochastic.
    """
    alpha = parse_scalar(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if n < 1:
        raise ValueError("need at least one point")
    if n == 1:
        return Channel(("0",), ("0",), ((ONE,),))
    labels = tuple(str(i) for i in range(n))
    interior = (1 - alpha) / (1 + alpha)
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            if y == 0:
                row.append(alpha**x / (1 + alpha))
            elif y == n - 1:
                row.append(alpha ** (n - 1 - x) / (1 + alpha))
            else:
                row.append(interior * alpha ** abs(x - y))
        rows.append(tuple(row))
    return Channel(labels, labels, tuple(rows))


def _response(n: int, alpha, dual: bool) -> Channel:
    """The n-point channel with diagonal 1/k and off-diagonal r/k, where
    k = 1 + (n-1) r and r is ``alpha`` (or 1/alpha for the dual)."""
    alpha = parse_scalar(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0, 1]")
    if n < 1:
        raise ValueError("need at least one point")
    labels = tuple(str(i) for i in range(n))
    r = 1 / alpha if dual else alpha
    k = 1 + (n - 1) * r
    diag = 1 / k
    off = r / k
    rows = tuple(
        tuple(diag if i == j else off for j in range(n)) for i in range(n)
    )
    return Channel(labels, labels, rows)


def random_response(n: int, alpha) -> Channel:
    """Uniform-offdiagonal response channel: diagonal 1/k, off-diagonal
    alpha/k with k = 1 + (n-1) alpha.  Meets the discrete metric's stretch
    1/alpha with equality on every pair."""
    return _response(n, alpha, dual=False)


def random_response_dual(n: int, alpha) -> Channel:
    """The additive-capacity twin of :func:`random_response`: off-diagonal
    entries *larger* than the diagonal by the full stretch 1/alpha.  Its
    column minima sit on the diagonal, which is what the additive bound
    needs."""
    return _response(n, alpha, dual=True)


def binary_optimal(space: MetricSpace) -> Channel:
    """The canonical two-secret channel: diagonal weight s/(1+s) where s is
    the pair's stretch factor.  At stretch 1 it collapses to the half/half
    channel, as it must."""
    if space.n != 2:
        raise ValueError("binary_optimal needs a two-point space")
    s = space.stretch[0][1]
    hi = s / (1 + s)
    lo = 1 / (1 + s)
    return Channel(space.labels, space.labels, ((hi, lo), (lo, hi)))


def trivial_channel(labels) -> Channel:
    """One output, no information: every secret maps to the same column.

    Accepts either a label sequence or a secret count (labels "0".."n-1").
    """
    if isinstance(labels, int):
        labels = [str(i) for i in range(labels)]
    return Channel(tuple(labels), ("y0",), ((ONE,),) * len(labels))


# --------------------------------------------------------------------------
# Privacy checking.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DpReport:
    ok: bool
    violations: tuple  # of (x_label, x'_label, y_label, ratio or None)


def check_dx_private(channel: Channel, space: MetricSpace) -> DpReport:
    """Row-ratio privacy check against the space's stretch factors.

    Only the space's tight pairs are checked — the rest follow by chaining,
    since stretch factors multiply along chains.  Each violation is
    ``(x, x', y, ratio)``: the channel's row ``x`` exceeds the pair's stretch
    times row ``x'`` at output ``y``, with ``ratio`` None where row ``x'`` is
    0 there.  Pairs come in ``tight_pairs`` order, outputs in column order.
    """
    if channel.x_labels != space.labels:
        raise ValueError("channel secrets do not match the space's labels")
    rows, x_labels, y_labels = channel.rows, channel.x_labels, channel.y_labels
    bad = []
    for i, j in space.tight_pairs:
        bound = space.stretch[i][j]
        for y, (a, b) in enumerate(zip(rows[i], rows[j])):
            if a > bound * b:
                ratio = a / b if b else None
                bad.append((x_labels[i], x_labels[j], y_labels[y], ratio))
            if b > bound * a:
                ratio = b / a if a else None
                bad.append((x_labels[j], x_labels[i], y_labels[y], ratio))
    return DpReport(ok=not bad, violations=tuple(bad))


# --------------------------------------------------------------------------
# Hyper construction and inversion.
# --------------------------------------------------------------------------


def to_hyper(channel: Channel, prior: Prior) -> Hyper:
    """Push ``prior`` through ``channel`` and condition on the output.

    Zero-probability outputs vanish, equal posteriors merge, and the result
    is sorted — the canonical abstract view of the channel at that prior.
    """
    if channel.x_labels != prior.x_labels:
        raise ValueError("channel and prior label mismatch")
    outers = []
    inners = []
    for j in range(len(channel.y_labels)):
        joint = [p * row[j] for p, row in zip(prior.probs, channel.rows)]
        mass = sum(joint)
        if mass == 0:
            continue
        outers.append(mass)
        inners.append(tuple(v / mass for v in joint))
    return Hyper(channel.x_labels, tuple(outers), tuple(inners))


def from_hyper(hyper: Hyper) -> tuple[Channel, Prior]:
    """Invert a hyper back to a channel and its prior (Bayes inversion).

    The prior is the barycentre of the posteriors.  Every secret must get
    positive prior mass — a posterior column cannot be rebuilt for a secret
    the hyper never mentions — otherwise this raises ``ValueError``.
    Columns come out in the hyper's canonical posterior order, labelled
    ``y0, y1, ...``.
    """
    prior_vec = hyper.expected_inner()
    for label, p in zip(hyper.x_labels, prior_vec):
        if p == 0:
            raise ValueError(
                f"secret {label!r} has zero probability in the implied prior"
            )
    rows = []
    for i in range(len(hyper.x_labels)):
        px = prior_vec[i]
        rows.append(
            tuple(w * inner[i] / px for w, inner in zip(hyper.outers, hyper.inners))
        )
    y_labels = tuple(f"y{k}" for k in range(len(hyper.outers)))
    channel = Channel(hyper.x_labels, y_labels, tuple(rows))
    return channel, Prior(hyper.x_labels, prior_vec)


def restrict(channel: Channel, keep_labels: Sequence[str]) -> Channel:
    """Drop the rows outside ``keep_labels`` (kept in channel order).

    Columns are left exactly as they were — no renormalisation — so each kept
    row still sums to 1 and utility statements about the restricted channel
    line up with the full channel's on the surviving secrets.
    """
    keep = set(keep_labels)
    missing = keep - set(channel.x_labels)
    if missing:
        raise KeyError(f"unknown labels {sorted(missing)!r}")
    pairs = [
        (label, row)
        for label, row in zip(channel.x_labels, channel.rows)
        if label in keep
    ]
    if not pairs:
        raise ValueError("cannot restrict to an empty secret set")
    return Channel(
        tuple(label for label, _ in pairs),
        channel.y_labels,
        tuple(row for _, row in pairs),
    )


def external_choice(a: Channel, b: Channel, p) -> Channel:
    """Run ``a`` with probability ``p``, else ``b``, remembering which ran.

    Output labels are prefixed ``l:`` / ``r:`` to keep the two sides apart;
    columns that can never occur (probability-0 side) are dropped.
    """
    p = parse_scalar(p)
    if not (0 <= p <= 1):
        raise ValueError("choice probability must lie in [0, 1]")
    if a.x_labels != b.x_labels:
        raise ValueError("channels must share their secret labels")
    y_labels = []
    columns = []
    if p > 0:
        for j, y in enumerate(a.y_labels):
            col = tuple(p * row[j] for row in a.rows)
            if any(col):
                y_labels.append(f"l:{y}")
                columns.append(col)
    q = 1 - p
    if q > 0:
        for j, y in enumerate(b.y_labels):
            col = tuple(q * row[j] for row in b.rows)
            if any(col):
                y_labels.append(f"r:{y}")
                columns.append(col)
    rows = tuple(
        tuple(col[i] for col in columns) for i in range(len(a.x_labels))
    )
    return Channel(a.x_labels, tuple(y_labels), rows)


# --------------------------------------------------------------------------
# JSON forms.  All scalars travel as exact "p/q" (or decimal) strings.
# --------------------------------------------------------------------------


def channel_to_json(channel: Channel) -> dict:
    return {
        "x_labels": list(channel.x_labels),
        "y_labels": list(channel.y_labels),
        "rows": [[str(v) for v in row] for row in channel.rows],
    }


def channel_from_json(data: Mapping) -> Channel:
    return Channel(
        tuple(data["x_labels"]),
        tuple(data["y_labels"]),
        as_matrix(data["rows"]),
    )


def prior_to_json(prior: Prior) -> dict:
    return {
        "x_labels": list(prior.x_labels),
        "probs": [str(v) for v in prior.probs],
    }


def prior_from_json(data: Mapping) -> Prior:
    return Prior(tuple(data["x_labels"]), as_vector(data["probs"]))


def hyper_to_json(hyper: Hyper) -> dict:
    return {
        "x_labels": list(hyper.x_labels),
        "outers": [str(v) for v in hyper.outers],
        "inners": [[str(v) for v in inner] for inner in hyper.inners],
    }


def hyper_from_json(data: Mapping) -> Hyper:
    return Hyper(
        tuple(data["x_labels"]),
        as_vector(data["outers"]),
        as_matrix(data["inners"]),
    )
