"""Independent answer checks, in plain Fraction arithmetic.

Nothing here imports the program or its tests: stretch factors, tight
pairs, vertices, kernels, capacities and utilities are recomputed from the
metric spec with this module's own code, so a defect in the program cannot
hide by being shared with its checker.  Each ``check_*`` returns ``None`` for
a correct answer and a one-line reason otherwise.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

# Published values (README and paper) at base 2: vertex count, kernel count,
# multiplicative and additive capacity.  Rationals are exact; decimals are
# the two-place figures, compared within 1/100.  None: not published.
PUBLISHED = {
    ("line", 2): (2, 1, "4/3", "1/3"),
    ("line", 3): (4, 2, "5/3", "1/2"),
    ("line", 4): (8, 11, "2", "2/3"),
    ("line", 5): (16, 187, "7/3", "3/4"),
    ("line", 6): (32, 15346, "8/3", "5/6"),
    ("discrete", 2): (2, 1, "4/3", "1/3"),
    ("discrete", 3): (6, 5, "3/2", "2/5"),
    ("discrete", 4): (14, 41, "8/5", "3/7"),
    ("discrete", 5): (30, 1291, "5/3", "4/9"),
    ("hamming", 2): (6, 4, "1.78", "0.56"),
    ("hamming", 3): (38, 29275, "2.37", "0.70"),
    ("hamming", 4): (None, None, "3.16", "0.80"),
    ("grid", 1): (18, 403, "1.68", "0.48"),
    ("grid", 2): (4798, None, "2.5", "0.62"),
    ("grid", 3): (None, None, "3.53", "0.79"),
}

TOLERANCE = Fraction(1, 100)
ROUNDING_DIGITS = 30  # make_metric's default precision_digits
# Relative slack for row ratios on rounded (grid) spaces: two guard digits
# over the rounding grain, as pairs off the tight set chain through
# separately rounded stretches.
ROUNDED_SLACK = Fraction(1, 10 ** (ROUNDING_DIGITS - 2))


def published(spec: dict):
    if Fraction(spec["base"]) != 2:
        return None
    kind = spec["kind"]
    if kind in ("line", "discrete"):
        return PUBLISHED.get((kind, spec["n"]))
    if kind == "hamming":
        return PUBLISHED.get((kind, spec["bits"]))
    if kind == "grid" and spec["width"] == spec["height"]:
        return PUBLISHED.get((kind, spec["width"]))
    return None


class Space:
    """Own model of a metric spec: stretch matrix and tight pairs."""

    def __init__(self, spec: dict):
        base = Fraction(spec["base"])
        kind = spec["kind"]
        self.rounded = False
        if kind == "grid":
            cols = spec["width"] + 1
            coords = [(r, c) for r in range(spec["height"] + 1) for c in range(cols)]
            self.n = len(coords)
            self.stretch = [[None] * self.n for _ in range(self.n)]
            self.tight = []
            for i, (ri, ci) in enumerate(coords):
                for j, (rj, cj) in enumerate(coords):
                    k = (ri - rj) ** 2 + (ci - cj) ** 2
                    root = isqrt(k)
                    if root * root == k:
                        s = base**root
                    else:
                        s = _rounded_power(base, k)
                        self.rounded = True
                    self.stretch[i][j] = s
                    # Lattice steps with coprime offsets have no point on
                    # the segment between them.
                    if i < j and gcd(ri - rj, ci - cj) == 1:
                        self.tight.append((i, j))
            return
        if kind == "line":
            dist = [[abs(i - j) for j in range(spec["n"])] for i in range(spec["n"])]
        elif kind == "discrete":
            dist = [[int(i != j) for j in range(spec["n"])] for i in range(spec["n"])]
        elif kind == "hamming":
            m = 2 ** spec["bits"]
            dist = [[(i ^ j).bit_count() for j in range(m)] for i in range(m)]
        else:
            dist = [[int(v) for v in row] for row in spec["distances"]]
        self.n = len(dist)
        self.stretch = [[base ** d for d in row] for row in dist]
        self.tight = [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if not any(
                k not in (i, j) and dist[i][k] + dist[k][j] == dist[i][j]
                for k in range(self.n)
            )
        ]

    def halfspaces(self) -> list:
        """(i, j, s): delta[i] <= s * delta[j], both ways round each tight pair."""
        out = []
        for i, j in self.tight:
            out.append((i, j, self.stretch[i][j]))
            out.append((j, i, self.stretch[i][j]))
        return out

    def private(self, rows) -> bool:
        """Row-ratio privacy over every pair, not only the tight ones."""
        slack = 1 + ROUNDED_SLACK if self.rounded else 1
        for i in range(self.n):
            for j in range(self.n):
                if i == j:
                    continue
                bound = self.stretch[i][j] * slack
                for a, b in zip(rows[i], rows[j]):
                    if a > bound * b:
                        return False
        return True

    def in_polytope(self, point) -> bool:
        if len(point) != self.n or any(v <= 0 for v in point) or sum(point) != 1:
            return False
        return self.private([[v] for v in point])

    def is_vertex(self, point) -> bool:
        if not self.in_polytope(point):
            return False
        normals = []
        for i, j, s in self.halfspaces():
            if point[i] == s * point[j]:
                row = [Fraction(0)] * self.n
                row[i] += 1
                row[j] -= s
                normals.append(row)
        return rank(normals) == self.n - 1


def _rounded_power(base: Fraction, k: int) -> Fraction:
    """base ** sqrt(k), rounded once to ROUNDING_DIGITS significant digits."""
    with localcontext() as ctx:
        ctx.prec = ROUNDING_DIGITS + 30
        value = (Decimal(base.numerator) / Decimal(base.denominator)) ** Decimal(k).sqrt()
        grain = Decimal(1).scaleb(value.adjusted() - ROUNDING_DIGITS + 1)
        return Fraction(value.quantize(grain))


# --------------------------------------------------------------------------
# Exact linear algebra.
# --------------------------------------------------------------------------


def _echelon(rows: list, ncols: int) -> list:
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _int_echelon(rows: list, ncols: int) -> list:
    """Fraction-free Gauss-Jordan over integer rows (gcd-normalised)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                row = [prow[c] * a - f * b for a, b in zip(rows[i], prow)]
                g = gcd(*row)
                rows[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(rows) -> int:
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0]))[1])


# --------------------------------------------------------------------------
# Brute-force enumerations, for specs without published counts.
# --------------------------------------------------------------------------


def own_vertices(space: Space) -> set:
    """Every feasible point where n-1 halfspaces are tight, by trying each
    subset of n-1 of them with the simplex equation (integer elimination)."""
    n = space.n
    normals = []
    for i, j, s in space.halfspaces():
        row = [0] * n
        row[i] += s.denominator
        row[j] -= s.numerator
        normals.append(row)
    found = set()
    for subset in combinations(normals, n - 1):
        rows, pivots = _int_echelon([*(r + [0] for r in subset), [1] * n + [1]], n)
        if len(pivots) < n:
            continue
        point = tuple(Fraction(rows[r][-1], rows[r][pivots[r]]) for r in range(n))
        if space.in_polytope(point):
            found.add(point)
    return found


def own_kernels(vertices, n: int) -> set:
    """Every independent vertex subset with unique all-positive weights
    averaging to uniform, as frozensets of posteriors.

    Depth first over subsets in sorted order.  Supersets of a dependent
    subset are dependent, and once a subset spans the uniform point every
    independent superset gives its extra vertices weight 0, so neither kind
    is extended.  Vertices are scaled to integers first (positive column
    scaling keeps the signs of the weights)."""
    verts = sorted(vertices)
    scaled = [[int(x * lcm(*(y.denominator for y in v))) for x in v] for v in verts]
    found = set()

    def extend(start: int, chosen: list) -> None:
        for i in range(start, len(verts)):
            cols = chosen + [i]
            k = len(cols)
            rows, pivots = _int_echelon([[scaled[j][x] for j in cols] + [1] for x in range(n)], k)
            if len(pivots) < k:
                continue
            if not any(row[-1] for row in rows[k:]):
                # Row r now reads pivot * w_r = rhs.
                if all(rows[r][-1] * rows[r][pivots[r]] > 0 for r in range(k)):
                    found.add(frozenset(verts[j] for j in cols))
                continue
            if k < n:
                extend(i + 1, cols)

    extend(0, [])
    return found


# --------------------------------------------------------------------------
# Enumeration answers.
# --------------------------------------------------------------------------


def check_vertices(spec: dict, vertices) -> "str | None":
    space = Space(spec)
    if len(set(vertices)) != len(vertices):
        return "duplicate vertices"
    for v in vertices:
        if not space.is_vertex(v):
            return f"not a vertex: {v}"
    ref = published(spec)
    if ref is not None and ref[0] is not None:
        if len(vertices) != ref[0]:
            return f"{len(vertices)} vertices, published {ref[0]}"
    elif set(vertices) != own_vertices(space):
        return "vertex set differs from brute-force enumeration"
    return None


def check_kernels(spec: dict, kernels) -> "str | None":
    """``kernels``: (outers, inners) pairs."""
    space = Space(spec)
    n = space.n
    uniform = tuple(Fraction(1, n) for _ in range(n))
    posteriors = {inner for _, inners in kernels for inner in inners}
    if any(not space.is_vertex(inner) for inner in posteriors):
        return "kernel posterior is not a vertex"
    seen = set()
    for outers, inners in kernels:
        if any(o <= 0 for o in outers) or sum(outers) != 1:
            return "kernel weights are not a positive distribution"
        if rank(inners) != len(inners):
            return "kernel posteriors are dependent"
        bary = tuple(
            sum(o * inner[x] for o, inner in zip(outers, inners)) for x in range(n)
        )
        if bary != uniform:
            return "kernel does not average to the uniform prior"
        key = frozenset(inners)
        if key in seen:
            return "duplicate kernel"
        seen.add(key)
    ref = published(spec)
    if ref is not None and ref[1] is not None:
        if len(kernels) != ref[1]:
            return f"{len(kernels)} kernels, published {ref[1]}"
    elif seen != own_kernels(own_vertices(space), n):
        return "kernel set differs from brute-force enumeration"
    return None


# --------------------------------------------------------------------------
# Capacities.
# --------------------------------------------------------------------------


def mult_score(rows) -> Fraction:
    return sum(max(col) for col in zip(*rows))


def add_score(rows) -> Fraction:
    return 1 - sum(min(col) for col in zip(*rows))


def closed_form(spec: dict, mode: str) -> "Fraction | None":
    b = Fraction(spec["base"])
    kind = spec["kind"]
    if kind == "line":
        n = spec["n"]
        if mode == "mult":
            return (n * (b - 1) + 2) / (b + 1)
        alpha = 1 / b
        interior = (1 - alpha) / (1 + alpha)
        mins = [alpha ** (n - 1) / (1 + alpha)] * 2
        mins += [interior * alpha ** max(y, n - 1 - y) for y in range(1, n - 1)]
        return 1 - sum(mins)
    if kind == "discrete":
        n = spec["n"]
        if mode == "mult":
            return n * b / (b + n - 1)
        return 1 - Fraction(n) / (1 + (n - 1) * b)
    return None


def _stochastic(rows) -> bool:
    return all(v >= 0 for r in rows for v in r) and all(sum(r) == 1 for r in rows)


def _pivot(rows: list, basis: list, r: int, c: int) -> None:
    """Fraction-free pivot: each row keeps a positive scale of its own."""
    prow, p = rows[r], rows[r][c]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            f = row[c]
            row = [a * p - f * b for a, b in zip(row, prow)]
            g = gcd(*row)
            rows[i] = [v // g for v in row] if g > 1 else row
    basis[r] = c


def _simplex(rows: list, basis: list, obj: list, allowed: int) -> Fraction:
    """Maximise ``obj`` over an integer tableau (rows of [coefficients...,
    rhs], row i scaled by its basic column's positive entry) from the
    feasible ``basis``, letting only the first ``allowed`` columns enter
    (Bland's rule, so it terminates).  Returns the optimum."""
    scale = lcm(*(row[b] for b, row in zip(basis, rows)))
    reduced = [
        o * scale - sum(obj[b] * (scale // row[b]) * row[j] for b, row in zip(basis, rows))
        for j, o in enumerate(obj)
    ]
    while True:
        enter = next((j for j in range(allowed) if reduced[j] > 0), None)
        if enter is None:
            return sum(Fraction(obj[b] * row[-1], row[b]) for b, row in zip(basis, rows))
        _, _, r = min(
            (Fraction(row[-1], row[enter]), basis[i], i)
            for i, row in enumerate(rows) if row[enter] > 0
        )
        _pivot(rows, basis, r, enter)
        p, f = rows[r][enter], reduced[enter]
        reduced = [d * p - f * v for d, v in zip(reduced, rows[r])]
        g = gcd(*reduced)
        reduced = [v // g for v in reduced] if g > 1 else reduced


def own_capacity(space: Space, mode: str, vertices=None) -> Fraction:
    """Capacity from the hyper view, independent of the program's channel LP.

    A private channel's columns are scaled polytope points, so it is a
    distribution on the polytope averaging to uniform, and it scores n E[max]
    (mult) or 1 - n E[min] (add).  Both are optimal on vertices, so with each
    vertex v scaled to integers a = L v and y = n w / L, the capacity is
    max sum_v y_v max(a) (mult; add: 1 + max sum_v -y_v min(a)) subject to
    sum_v y_v a = (1, ..., 1) and y >= 0.  Solved by a two-phase simplex."""
    cols = [
        [int(x * lcm(*(y.denominator for y in v))) for x in v]
        for v in sorted(vertices if vertices is not None else own_vertices(space))
    ]
    n, m = space.n, len(cols)
    # Columns: one weight per vertex, then one artificial per equation.
    rows = [[a[x] for a in cols] + [int(i == x) for i in range(n)] + [1] for x in range(n)]
    basis = list(range(m, m + n))
    if _simplex(rows, basis, [0] * m + [-1] * n, m + n) != 0:
        raise ValueError("uniform prior outside the hull of the own vertices")
    for r, b in enumerate(basis):
        if b >= m:  # a degenerate artificial (rhs 0): swap in a vertex column
            c = next(j for j in range(m) if rows[r][j])
            if rows[r][c] < 0:
                rows[r] = [-v for v in rows[r]]
            _pivot(rows, basis, r, c)
    gain = [max(a) if mode == "mult" else -min(a) for a in cols]
    best = _simplex(rows, basis, gain + [0] * n, m)
    return best if mode == "mult" else 1 + best


def check_capacity(spec: dict, answers: dict) -> "str | None":
    """``answers``: mode -> (value, witness rows, closed-form value or None).

    Specs with neither a closed form nor a published row are compared
    with ``own_capacity``, so a private but suboptimal witness fails."""
    space = Space(spec)
    ref = published(spec)
    vertices = None
    for mode, (value, witness, closed) in answers.items():
        if len(witness) != space.n or not _stochastic(witness):
            return f"{mode} witness is not a channel on the space"
        if not space.private(witness):
            return f"{mode} witness fails the row-ratio privacy check"
        score = mult_score(witness) if mode == "mult" else add_score(witness)
        if score != value:
            return f"{mode} witness scores {score}, not the reported {value}"
        own = closed_form(spec, mode)
        if own is not None and value != own:
            return f"{mode} capacity {value} differs from the closed form {own}"
        if closed is not None and closed != own:
            return f"{mode} closed form {closed} differs from {own}"
        if ref is not None:
            want = ref[2] if mode == "mult" else ref[3]
            if "." in want:
                if abs(value - Fraction(want)) > TOLERANCE:
                    return f"{mode} capacity {float(value):.4f}, published {want}"
            elif value != Fraction(want):
                return f"{mode} capacity {value}, published {want}"
        if own is None and ref is None:
            if vertices is None:
                vertices = own_vertices(space)
            best = own_capacity(space, mode, vertices)
            if value != best:
                return f"{mode} capacity {value} differs from the own vertex LP {best}"
    if "mult" in answers and "add" in answers:
        mult, add = answers["mult"][0], answers["add"][0]
        if not (1 <= mult <= space.n and 0 <= add < 1):
            return "capacities out of range"
        # Each optimum must beat the other mode's witness on its own score.
        if mult < mult_score(answers["add"][1]) or add < add_score(answers["mult"][1]):
            return "a witness of one mode beats the optimum of the other"
    return None


# --------------------------------------------------------------------------
# Refinement.
# --------------------------------------------------------------------------


def mat_mul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def check_refines(b, a, witness, expect: bool) -> "str | None":
    if witness is None:
        if expect:
            return "refinement refused, but a = b . R by construction"
        if rank(a) <= rank(b):
            return "refusal not certified: rank(a) <= rank(b)"
        return None
    if len(witness) != len(b[0]) or not _stochastic(witness):
        return "refinement witness is not row-stochastic"
    if mat_mul(b, witness) != tuple(tuple(r) for r in a):
        return "b . witness != a"
    return None


# --------------------------------------------------------------------------
# Utility and optimality verdicts.
# --------------------------------------------------------------------------


def uncertainty(table, prior, rows) -> Fraction:
    """Bayes-optimal expected loss after observing the channel's output."""
    total = Fraction(0)
    for y in range(len(rows[0])):
        joint = [p * row[y] for p, row in zip(prior, rows)]
        if any(joint):
            total += min(sum(l * j for l, j in zip(lrow, joint)) for lrow in table)
    return total


def prior_uncertainty(table, prior) -> Fraction:
    return min(sum(l * p for l, p in zip(lrow, prior)) for lrow in table)


def kernel_channel(outers, inners) -> tuple:
    n = len(inners[0])
    bary = [sum(o * inner[x] for o, inner in zip(outers, inners)) for x in range(n)]
    return tuple(
        tuple(o * inner[x] / bary[x] for o, inner in zip(outers, inners))
        for x in range(n)
    )


def prior_battery(rng, n: int, extra: int = 8) -> list:
    """Uniform, every point prior, and ``extra`` seeded interior priors."""
    out = [tuple(Fraction(1, n) for _ in range(n))]
    out += [tuple(Fraction(int(i == x)) for i in range(n)) for x in range(n)]
    for _ in range(extra):
        w = [rng.randint(1, 30) for _ in range(n)]
        out.append(tuple(Fraction(v, sum(w)) for v in w))
    return out


def check_verdict(
    rows, table, kernels, verdict, *, mode: str, expect, battery
) -> "str | None":
    """``kernels``: (outers, inners) pairs; ``verdict``: (kind, prior, rival
    (outers, inners) or None, margin)."""
    kind, prior, rival, margin = verdict
    if kind == "unknown":
        if mode == "exact":
            return "exact verdict came back unknown (refused)"
        if expect == "counterexample":
            return "sampled mode missed a known counterexample"
        return None
    if expect is not None and kind != expect and not (
        mode == "sampled" and expect == "optimal"
    ):
        return f"verdict {kind}, expected {expect}"
    if kind == "counterexample":
        n = len(rows)
        if len(prior) != n or any(p < 0 for p in prior) or sum(prior) != 1:
            return "counterexample prior is not a distribution"
        if rival not in kernels:
            return "counterexample rival is not a kernel"
        gap = uncertainty(table, prior, rows) - uncertainty(
            table, prior, kernel_channel(*rival)
        )
        if gap != margin or gap <= 0:
            return f"counterexample margin {margin} recomputes to {gap}"
        return None
    if kind != "optimal" or mode != "exact":
        return f"unexpected verdict {kind} in {mode} mode"
    for outers, inners in kernels:
        rival_rows = kernel_channel(outers, inners)
        for p in battery:
            if uncertainty(table, p, rows) > uncertainty(table, p, rival_rows):
                return f"'optimal' refuted at prior {p}"
    return None


def check_hyper(rows, prior, hyper) -> "str | None":
    """``hyper``: (outers, inners) claimed for pushing ``prior`` through
    ``rows``; compared with an own Bayes update, merged and sorted."""
    merged = {}
    for y in range(len(rows[0])):
        joint = [p * row[y] for p, row in zip(prior, rows)]
        mass = sum(joint)
        if mass:
            inner = tuple(v / mass for v in joint)
            merged[inner] = merged.get(inner, 0) + mass
    want = sorted(merged)
    outers, inners = hyper
    if list(inners) != want or list(outers) != [merged[i] for i in want]:
        return "hyper differs from an own Bayes update"
    return None


def check_anti_refine(space: Space, rows, hyper, battery) -> "str | None":
    """The vertex mechanism must sit on polytope vertices, average to the
    uniform prior, and be at least as useful as the channel it splits."""
    outers, inners = hyper
    n = space.n
    if any(o <= 0 for o in outers) or sum(outers) != 1:
        return "anti-refinement weights are not a positive distribution"
    if any(not space.is_vertex(inner) for inner in inners):
        return "anti-refinement posterior is not a vertex"
    bary = tuple(sum(o * inner[x] for o, inner in zip(outers, inners)) for x in range(n))
    if bary != tuple(Fraction(1, n) for _ in range(n)):
        return "anti-refinement does not average to the uniform prior"
    finer = kernel_channel(outers, inners)
    guess = [[Fraction(int(i != j)) for j in range(n)] for i in range(n)]
    for p in battery:
        if uncertainty(guess, p, finer) > uncertainty(guess, p, rows):
            return "anti-refinement is less useful than the channel"
    return None


def violations(space: Space, rows) -> set:
    """(x, x', y) with rows[x][y] > stretch(x, x') * rows[x'][y], tight pairs."""
    out = set()
    for i, j in space.tight:
        s = space.stretch[i][j]
        for y, (a, b) in enumerate(zip(rows[i], rows[j])):
            if a > s * b:
                out.add((i, j, y))
            if b > s * a:
                out.add((j, i, y))
    return out
