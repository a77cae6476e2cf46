"""Finite metric spaces for privacy analysis, stored as *stretch factors*.

A space here is a finite label set plus, for every pair of points, the
multiplicative bound ``base**d(x, x')`` that a private channel's rows must
respect (``base`` plays the role of e^eps, folded into the metric).  Raw
distances are not kept: every consumer downstream — privacy checks, polytope
constraints, capacity programs — works off the stretch matrix alone, so that
is the single source of truth.

Exactness: every kind states the squared distance ``d**2`` of each pair as
an exact rational (a grid's ``dr**2 + dc**2``), and one routine turns each
distinct value into a stretch.  When ``base**d`` is rational (``d`` rational
and its roots come out rational) the stretch is stored exactly.  Otherwise
it is irrational and is rounded *once*, at construction, half-even to
``precision_digits`` significant digits with the standard library's
``decimal``; the rounding carries its own error bound and raises its
working precision until the bound shows the rounded digits are the true
ones.  The space is then tagged ``mode="approximate"``.  All later
arithmetic is exact over the rounded values, so every result is a faithful
statement about the rounded space.

Naming convention: ``grid(w, h)`` is the integer lattice of ``(w+1)*(h+1)``
points with corners (0,0) and (h,w) under the Euclidean metric, i.e. the
named dimensions count lattice *steps*, not points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, Overflow, localcontext
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .exact import Matrix, ONE, ZERO, as_matrix, parse_scalar

__all__ = [
    "MetricSpace",
    "make_metric",
    "restrict_space",
    "metric_to_json",
    "metric_from_json",
    "canonical_metric_json",
]

_KINDS = ("line", "discrete", "grid", "hamming", "custom")


@dataclass(frozen=True)
class MetricSpace:
    """A finite metric space in stretch-factor form.

    ``stretch[i][j]`` is the (possibly rounded) value of ``base**d(i, j)``;
    the diagonal is exactly 1 and the matrix is symmetric.  ``tight_pairs``
    lists the index pairs (i < j) whose constraint is not already implied by
    a chain through a third point — the only pairs privacy checks and
    polytope constraints need to look at.
    """

    kind: str
    labels: tuple
    base: Fraction
    precision_digits: int
    mode: str  # "exact" | "approximate"
    stretch: Matrix
    tight_pairs: tuple
    dims: tuple = ()
    distances: Optional[Matrix] = None  # retained for custom input round-trips

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown label {label!r}") from None


def _int_root(value: int, k: int) -> Optional[int]:
    """Exact integer k-th root of a non-negative int, or None."""
    if value < 2 or k == 1:
        return value
    if value.bit_length() <= k:  # 1 < value < 2**k: the root lies in (1, 2)
        return None
    # Newton's method from a power of two above the root descends
    # monotonically to the floor of the root.
    x = 1 << -(-value.bit_length() // k)
    while True:
        y = ((k - 1) * x + value // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == value else None
        x = y


def _rational_power(base: Fraction, exponent: Fraction) -> Optional[Fraction]:
    """``base**exponent`` for ``base > 0`` when that is exactly rational,
    else None.

    With ``exponent = p/q`` in lowest terms, ``x**p`` is a q-th power iff
    ``x`` is one, so the roots are taken before the power is raised.
    """
    q = exponent.denominator
    rn = _int_root(base.numerator, q)
    rd = _int_root(base.denominator, q)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd) ** exponent.numerator


_GUARD_DIGITS = 25


def _rounded_power(base: Fraction, d2: Fraction, digits: int) -> Fraction:
    """``base**sqrt(d2)`` for ``base > 1``, rounded half-even to ``digits``
    significant digits.  Call only when the power is irrational: it then
    never sits on a rounding tie.  A power past ``decimal``'s largest
    exponent raises ``ValueError``.

    The result is certified: every decimal step below is correctly rounded
    at ``prec`` digits, so the computed value lies within relative error
    ``10**(2-prec) * (exponent + root + 1) / 2`` of the true one.  Both ends
    of twice that interval (the factor also covers rounding the two ends)
    must round to the same result, or the precision is raised.
    """
    rounding = Context(prec=digits, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    guard = _GUARD_DIGITS
    while True:
        ctx = Context(prec=digits + guard, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
        with localcontext(ctx):
            root = (Decimal(d2.numerator) / d2.denominator).sqrt()
            exponent = root * (Decimal(base.numerator) / base.denominator).ln()
            try:
                value = exponent.exp()
            except Overflow:
                raise ValueError(
                    f"the stretch {base}**{root} is beyond decimal's exponent range"
                ) from None
            slack = Decimal(1).scaleb((exponent + root + 1).adjusted() + 3 - ctx.prec)
            if slack < 1:
                low = rounding.plus(value * (1 - slack))
                if low == rounding.plus(value * (1 + slack)):
                    return Fraction(low)
        guard *= 2


def _stretch(base: Fraction, d2: Fraction, digits: int) -> tuple[Fraction, bool]:
    """Return (stretch, rounded) for ``base**sqrt(d2)``: exact when it is
    rational, else rounded to ``digits`` significant digits."""
    if base == 1:
        return ONE, False
    d = _rational_power(d2, Fraction(1, 2))
    if d is not None:
        exact = _rational_power(base, d)
        if exact is not None:
            return exact, False
    return _rounded_power(base, d2, digits), True


def _grid_labels(width: int, height: int) -> tuple:
    return tuple(f"{r},{c}" for r in range(height + 1) for c in range(width + 1))


def _hamming_labels(bits: int) -> tuple:
    return tuple(format(i, f"0{bits}b") for i in range(2**bits))


def make_metric(
    kind: str,
    *,
    n: Optional[int] = None,
    width: Optional[int] = None,
    height: Optional[int] = None,
    bits: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    distances: Optional[Iterable[Iterable]] = None,
    base,
    precision_digits: int = 30,
) -> MetricSpace:
    """Construct one of the supported spaces.

    * ``line``: points 0..n-1, absolute-difference distance.
    * ``discrete``: n points, all pairs at distance 1.
    * ``grid``: the (width+1) x (height+1) integer lattice, Euclidean distance.
    * ``hamming``: bit strings of the given length, Hamming distance.
    * ``custom``: explicit labels + rational distance matrix.

    ``base`` is the privacy stretch per unit distance (e^eps); it must be a
    rational >= 1 (``base == 1`` is the degenerate everything-indistinguishable
    budget).  Irrational stretch values are rounded once to
    ``precision_digits`` significant digits; the space then reports
    ``mode="approximate"``.
    """
    base = parse_scalar(base)
    if base < 1:
        raise ValueError(f"base must be >= 1, got {base}")
    if precision_digits < 1:
        raise ValueError("precision_digits must be a positive integer")
    if kind not in _KINDS:
        raise ValueError(f"unknown metric kind {kind!r}; expected one of {_KINDS}")

    dist_matrix: Optional[Matrix] = None
    dims: tuple = ()

    if kind == "line":
        if n is None or n < 1:
            raise ValueError("line metric needs n >= 1 points")
        labels_out = tuple(str(i) for i in range(n))
        dims = (n,)
        squared = lambda i, j: Fraction((i - j) ** 2)
        tight = tuple((i, i + 1) for i in range(n - 1))
    elif kind == "discrete":
        if n is None or n < 1:
            raise ValueError("discrete metric needs n >= 1 points")
        labels_out = tuple(str(i) for i in range(n))
        dims = (n,)
        squared = lambda i, j: ONE
        tight = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    elif kind == "grid":
        if width is None or height is None or width < 1 or height < 1:
            raise ValueError("grid metric needs width >= 1 and height >= 1")
        labels_out = _grid_labels(width, height)
        dims = (width, height)
        coords = [(r, c) for r in range(height + 1) for c in range(width + 1)]
        m = len(coords)
        squared = lambda i, j: Fraction(
            (coords[i][0] - coords[j][0]) ** 2 + (coords[i][1] - coords[j][1]) ** 2
        )
        tight = tuple(
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if math.gcd(abs(coords[i][0] - coords[j][0]), abs(coords[i][1] - coords[j][1])) == 1
        )
    elif kind == "hamming":
        if bits is None or bits < 1:
            raise ValueError("hamming metric needs bits >= 1")
        labels_out = _hamming_labels(bits)
        dims = (bits,)
        m = 2**bits
        squared = lambda i, j: Fraction((i ^ j).bit_count() ** 2)
        tight = tuple(
            (i, j) for i in range(m) for j in range(i + 1, m) if (i ^ j).bit_count() == 1
        )
    else:  # custom
        if distances is None:
            raise ValueError("custom metric needs a distance matrix")
        dist_matrix = as_matrix(distances)
        m = len(dist_matrix)
        if labels is not None:
            labels_out = tuple(str(s) for s in labels)
            if len(labels_out) != m:
                raise ValueError("labels / distance matrix size mismatch")
        else:
            labels_out = tuple(str(i) for i in range(m))
        for i in range(m):
            if len(dist_matrix[i]) != m:
                raise ValueError("distance matrix must be square")
            if dist_matrix[i][i] != 0:
                raise ValueError("distance matrix diagonal must be zero")
            for j in range(m):
                if dist_matrix[i][j] != dist_matrix[j][i]:
                    raise ValueError("distance matrix must be symmetric")
                if i != j and dist_matrix[i][j] <= 0:
                    raise ValueError("off-diagonal distances must be positive")
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if dist_matrix[i][j] + dist_matrix[j][k] < dist_matrix[i][k]:
                        raise ValueError(
                            f"triangle inequality fails at indices ({i},{j},{k})"
                        )
        dist = [list(row) for row in dist_matrix]
        squared = lambda i, j: dist[i][j] * dist[i][j]
        tight = tuple(
            (i, j)
            for i in range(m)
            for j in range(i + 1, m)
            if not any(
                k not in (i, j) and dist[i][k] + dist[k][j] == dist[i][j]
                for k in range(m)
            )
        )

    if len(set(labels_out)) != len(labels_out):
        raise ValueError("labels must be unique")

    # ``squared(i, j)`` is the exact squared distance of a pair i < j.  One
    # stretch per distinct value: a grid has few, and each rounded one costs
    # a certified decimal exp.
    size = len(labels_out)
    memo: dict = {}
    stretch_rows = [[ONE] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d2 = squared(i, j)
            if d2 not in memo:
                memo[d2] = _stretch(base, d2, precision_digits)
            stretch_rows[i][j] = stretch_rows[j][i] = memo[d2][0]

    stretch = tuple(tuple(row) for row in stretch_rows)
    mode = "approximate" if any(rounded for _, rounded in memo.values()) else "exact"
    space = MetricSpace(
        kind=kind,
        labels=labels_out,
        base=base,
        precision_digits=precision_digits,
        mode=mode,
        stretch=stretch,
        tight_pairs=tight,
        dims=dims,
        distances=dist_matrix,
    )
    _check_stretch_triangle(space)
    return space


def _check_stretch_triangle(space: MetricSpace) -> None:
    """Multiplicative triangle inequality over the stored stretch matrix.

    Exact spaces satisfy it exactly; rounded spaces get relative slack
    10**(2 - precision_digits) (two guard digits over the rounding grain).
    """
    s = space.stretch
    size = space.n
    slack = (
        ZERO
        if space.mode == "exact"
        else Fraction(10) ** (2 - space.precision_digits)
    )
    for i in range(size):
        row_i = s[i]
        for j in range(size):
            sij = row_i[j]
            row_j = s[j]
            for k in range(size):
                bound = sij * row_j[k]
                if row_i[k] > bound * (1 + slack):
                    raise AssertionError(
                        f"stretch triangle inequality broken at ({i},{j},{k})"
                    )


def restrict_space(space: MetricSpace, keep_labels: Sequence[str]) -> MetricSpace:
    """The sub-space on a subset of labels (kept in the parent's order).

    Stretch values are copied; tight pairs are recomputed over the subset by
    checking whether any remaining third point sits exactly on a chain
    (``stretch[i][k] * stretch[k][j] == stretch[i][j]``).  In-memory helper:
    the result serialises only if the parent carried explicit distances.
    """
    idx = sorted({space.index(s) for s in keep_labels})
    if not idx:
        raise ValueError("cannot restrict to an empty label set")
    labels = tuple(space.labels[i] for i in idx)
    stretch = tuple(tuple(space.stretch[i][j] for j in idx) for i in idx)
    m = len(idx)
    tight = tuple(
        (a, b)
        for a in range(m)
        for b in range(a + 1, m)
        if not any(
            c not in (a, b) and stretch[a][c] * stretch[c][b] == stretch[a][b]
            for c in range(m)
        )
    )
    distances = None
    if space.distances is not None:
        distances = tuple(tuple(space.distances[i][j] for j in idx) for i in idx)
    return MetricSpace(
        kind="custom",
        labels=labels,
        base=space.base,
        precision_digits=space.precision_digits,
        mode=space.mode,
        stretch=stretch,
        tight_pairs=tight,
        dims=(),
        distances=distances,
    )


def stretch(space: MetricSpace, a: str, b: str) -> Fraction:
    """The stored row-ratio bound between two labelled points."""
    return space.stretch[space.index(a)][space.index(b)]


def tight_pairs(space: MetricSpace) -> tuple:
    """The non-implied constraint pairs, as label pairs in canonical order."""
    return tuple(
        (space.labels[i], space.labels[j]) for i, j in sorted(space.tight_pairs)
    )


def metric_to_json(space: MetricSpace) -> dict:
    """The constructor arguments as a JSON-ready dict (round-trips through
    :func:`metric_from_json`)."""
    out: dict = {
        "kind": space.kind,
        "base": str(space.base),
        "precision_digits": space.precision_digits,
    }
    if space.kind in ("line", "discrete"):
        out["n"] = space.dims[0]
    elif space.kind == "grid":
        out["width"], out["height"] = space.dims
    elif space.kind == "hamming":
        out["bits"] = space.dims[0]
    else:
        if space.distances is None:
            raise ValueError(
                "this space was built in memory (restriction) and does not serialise"
            )
        out["labels"] = list(space.labels)
        out["distances"] = [[str(v) for v in row] for row in space.distances]
    return out


def _int_field(data: Mapping, field: str) -> int:
    """An integer field of a metric's JSON form.  JSON floats and booleans
    are refused rather than truncated, as :func:`parse_scalar` refuses
    floats; integers and integer strings are read by ``int``."""
    value = data[field]
    if isinstance(value, (bool, float)):
        raise ValueError(
            f"metric field {field!r} must be an integer, got {json.dumps(value)}"
        )
    return int(value)


def metric_from_json(data: Mapping) -> MetricSpace:
    if not isinstance(data, Mapping):
        raise ValueError("a metric must be a JSON object")
    kind = data.get("kind")
    kwargs: dict = {"base": data.get("base", "1"), "precision_digits": 30}
    if "precision_digits" in data:
        kwargs["precision_digits"] = _int_field(data, "precision_digits")
    if kind in ("line", "discrete"):
        kwargs["n"] = _int_field(data, "n")
    elif kind == "grid":
        kwargs["width"] = _int_field(data, "width")
        kwargs["height"] = _int_field(data, "height")
    elif kind == "hamming":
        kwargs["bits"] = _int_field(data, "bits")
    elif kind == "custom":
        kwargs["labels"] = data.get("labels")
        kwargs["distances"] = data["distances"]
    else:
        raise ValueError(f"unknown metric kind {kind!r}")
    return make_metric(kind, **kwargs)


def canonical_metric_json(space: MetricSpace) -> str:
    """Deterministic one-line JSON form, used for cache keys."""
    return json.dumps(metric_to_json(space), sort_keys=True, separators=(",", ":"))
