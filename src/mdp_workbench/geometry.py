"""Privacy polytopes: vertex enumeration, kernel mechanisms, decompositions.

For a metric space the set of distributions a private channel may post as a
uniform-prior posterior is a polytope: the probability simplex cut by
``delta[i] <= stretch(i,j) * delta[j]`` for every (tight) pair, both ways
round.  Its vertices are the extreme posteriors; a *kernel* is a minimal
private mechanism built from them — linearly independent vertices carrying
the unique all-positive weights that average back to the uniform prior.

Everything in here is exact.  The two enumerations run a depth-first search
over subsets (of halfspaces, of vertices) with an incremental integer
row-echelon.  The echelon is ``exact``'s: each chosen row is reduced by
:func:`~mdp_workbench.exact.echelon_row`, and a vertex leaf reads its point
off :func:`~mdp_workbench.exact.nullspace_vector`.  Every decision is taken
in machine integers.  A vertex candidate is tested against the halfspaces
as an integer vector; a kernel candidate's echelon rows carry their integer
combinations of the chosen vertices, so a vanishing residual of the uniform
target is itself an integer certificate of the weights and their signs.
Fractions are built only for accepted answers.

Budgets: both enumerations refuse up front — with the bound and the limit in
the exception — when the worst-case subset count exceeds the caller's limit.
Nothing is ever silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import (
    ONE,
    Vector,
    ZERO,
    LPOptimal,
    LPProblem,
    echelon_row,
    lp_optimize,
    nullspace_vector,
    primitive_row,
    rank,
    reduce_row,
)
from .mechanisms import Channel, Hyper, to_hyper, uniform_prior
from .metrics import MetricSpace

__all__ = [
    "ConstraintSystem",
    "build_constraints",
    "EnumerationBudgetExceeded",
    "ensure_vertex_budget",
    "ensure_kernel_budget",
    "enumerate_vertices",
    "enumerate_kernels",
    "is_polytope_point",
    "is_vertex",
    "is_vertex_mechanism",
    "is_kernel",
    "anti_refine",
    "decompose_vertex_mechanism",
]


@dataclass(frozen=True)
class ConstraintSystem:
    """Halfspace list for one space's posterior polytope.

    Each entry ``(i, j, f)`` reads ``delta[i] <= f * delta[j]``.  Both
    orientations of every tight pair are present; simplex membership
    (nonnegative, sums to 1) is implicit.
    """

    n: int
    halfspaces: tuple


def build_constraints(space: MetricSpace) -> ConstraintSystem:
    half = []
    for i, j in space.tight_pairs:
        f = space.stretch[i][j]
        half.append((i, j, f))
        half.append((j, i, f))
    return ConstraintSystem(n=space.n, halfspaces=tuple(half))


class EnumerationBudgetExceeded(RuntimeError):
    """An enumeration's worst-case work bound exceeds the configured limit."""

    def __init__(self, what: str, bound: int, limit: int):
        super().__init__(
            f"{what} would explore up to {bound} constraint subsets, "
            f"over the limit of {limit}; raise the limit to run it anyway"
        )
        self.bound = bound
        self.limit = limit


def ensure_vertex_budget(cs: ConstraintSystem, limit: int) -> None:
    """Raise EnumerationBudgetExceeded iff enumerate_vertices would refuse.

    The gauge is an upfront bound (the number of halfspace subsets the walk
    could touch), so callers can refuse *before* doing any work — or before
    deciding to serve a cached answer, which must not depend on cache state.
    """
    bound = sum(math.comb(len(cs.halfspaces), k) for k in range(1, cs.n))
    if bound > limit:
        raise EnumerationBudgetExceeded("vertex enumeration", bound, limit)


def ensure_kernel_budget(n_vertices: int, n_secrets: int, limit: int) -> None:
    """Raise EnumerationBudgetExceeded iff enumerate_kernels would refuse."""
    bound = sum(
        math.comb(n_vertices, k)
        for k in range(1, min(n_vertices, n_secrets) + 1)
    )
    if bound > limit:
        raise EnumerationBudgetExceeded("kernel enumeration", bound, limit)


def enumerate_vertices(
    cs: ConstraintSystem, *, limit: int = 5_000_000
) -> tuple:
    """All vertices of the polytope, deduplicated and sorted.

    Walks independent subsets of n-1 halfspace normals; each leaf pins the
    one-dimensional nullspace, which together with "sums to 1" is a single
    candidate point, kept iff it satisfies every halfspace.  The point is
    back-substituted and tested in integers, and scaled to sum 1 only once
    accepted.  Strict positivity of every accepted vertex is checked (it is
    implied by the constraint chains, so a failure would mean a bug, not bad
    input).
    """
    n = cs.n
    if n == 1:
        return ((ONE,),)
    ensure_vertex_budget(cs, limit)
    H = len(cs.halfspaces)

    normals = []
    checks = []  # (i, j, p, q): require q*u[i] <= p*u[j]
    for i, j, f in cs.halfspaces:
        p, q = f.numerator, f.denominator
        vec = [0] * n
        vec[i] = q
        vec[j] = -p
        normals.append(vec)
        checks.append((i, j, p, q))

    found = set()
    echelon: list = []

    def leaf():
        # The scale of the nullspace vector is irrelevant to the tests below
        # and the final Fractions reduce it.
        u = nullspace_vector(echelon, n)
        total = sum(u)
        if total == 0:
            return
        if total < 0:
            u = [-v for v in u]
            total = -total
        for i, j, p, q in checks:
            if q * u[i] > p * u[j]:
                return
        if any(v <= 0 for v in u):
            raise AssertionError("vertex with a non-positive coordinate")
        found.add(tuple(Fraction(v, total) for v in u))

    def dfs(start: int):
        if len(echelon) == n - 1:
            leaf()
            return
        for h in range(start, H):
            entry = echelon_row(normals[h], echelon, n)
            if entry:
                echelon.append(entry)
                dfs(h + 1)
                echelon.pop()

    dfs(0)
    return tuple(sorted(found))


def enumerate_kernels(
    space: MetricSpace, vertices: Sequence[Vector], *, limit: int = 2_000_000
) -> tuple:
    """All kernels over the given vertex list, in canonical order.

    Searches vertex subsets depth-first in index order, keeping an integer
    echelon of the chosen vertices' primitive integer multiples ``ivec``.
    Each echelon row also carries its integer combination of the chosen
    ``ivec``s, and the uniform target is reduced alongside as a residual
    ``d*1 - sum(a_j * ivec_j)`` that carries its ``a``.  Only positive
    multiples of the target enter it (every pivot is positive), so ``d > 0``
    without being stored.  The moment the residual vanishes, the identity
    ``sum(a_j * ivec_j) = d*1`` certifies the subset's unique (by
    independence) weights ``a_j * sum(ivec_j) / (d * n)``, where summing the
    identity's coordinates gives ``d * n = sum(a_j * sum(ivec_j))`` (a vertex
    sums to 1, so ``ivec_j = sum(ivec_j) * v_j``), and the subset is a
    kernel iff every ``a_j > 0``.  Fractions are built for accepted
    subsets only.  Either way no superset is explored — a strict superset
    would assign the extra vertices weight zero, so none of them can be
    kernels.
    """
    n = space.n
    V = len(vertices)
    ensure_kernel_budget(V, n, limit)

    if any(len(v) != n for v in vertices):
        raise ValueError("vertex length does not match the space")
    ivecs = [primitive_row(v) for v in vertices]
    sums = [sum(ivec) for ivec in ivecs]

    kernels: list[Hyper] = []
    # Rows are length 2n, ``[x | k]`` with ``x + sum(k_j * ivec_j) = 0``:
    # the reduced vector, then minus its combination of the chosen ivecs,
    # indexed by depth.  The residual ``[x | a]`` reads
    # ``x + sum(a_j * ivec_j) = d*1``; both identities survive elimination.
    echelon: list = []
    chosen: list = []

    def accept(resid: list):
        a = resid[n : n + len(chosen)]
        if any(x <= 0 for x in a):
            return
        mass = [x * sums[v] for x, v in zip(a, chosen)]
        dn = sum(mass)
        kernels.append(
            Hyper(
                space.labels,
                tuple(Fraction(w, dn) for w in mass),
                tuple(vertices[v] for v in chosen),
            )
        )

    def dfs(start: int, resid: list):
        depth = len(chosen)
        for v in range(start, V):
            row = ivecs[v] + [0] * n
            row[n + depth] = -1
            entry = echelon_row(row, echelon, n)
            if entry is None:  # the vector part reduced to zero: dependent
                continue
            echelon.append(entry)
            chosen.append(v)
            new_resid = reduce_row(resid, (entry,))
            if not any(new_resid[:n]):
                accept(new_resid)
            elif depth + 1 < n:
                dfs(v + 1, new_resid)
            chosen.pop()
            echelon.pop()

    dfs(0, [1] * n + [0] * n)
    kernels.sort(key=lambda h: (h.inners, h.outers))
    return tuple(kernels)


def is_polytope_point(cs: ConstraintSystem, point: Sequence) -> bool:
    if len(point) != cs.n:
        raise ValueError("point length does not match the constraint system")
    if any(v < 0 for v in point) or sum(point) != 1:
        return False
    return all(point[i] <= f * point[j] for i, j, f in cs.halfspaces)


def is_vertex(cs: ConstraintSystem, point: Sequence) -> bool:
    """Polytope membership plus tight-constraint rank n-1 (with the simplex
    equation that pins a zero-dimensional face)."""
    if not is_polytope_point(cs, point):
        return False
    n = cs.n
    tight_normals = []
    for i, j, f in cs.halfspaces:
        if point[i] == f * point[j]:
            row = [ZERO] * n
            row[i] += 1
            row[j] -= f
            tight_normals.append(tuple(row))
    return rank(tight_normals) == n - 1


def is_vertex_mechanism(hyper: Hyper, cs: ConstraintSystem) -> bool:
    return all(is_vertex(cs, inner) for inner in hyper.inners)


def is_kernel(hyper: Hyper, cs: ConstraintSystem) -> bool:
    """Vertex mechanism + linearly independent posteriors + averages to the
    uniform prior.  (Weights are then automatically the unique ones, and the
    hyper's canonical form guarantees they are positive.)"""
    if not is_vertex_mechanism(hyper, cs):
        return False
    if rank(hyper.inners) != len(hyper.inners):
        return False
    n = cs.n
    return hyper.expected_inner() == (Fraction(1, n),) * n


def anti_refine(channel: Channel, vertices: Sequence[Vector]) -> Hyper:
    """Split every uniform-prior posterior of ``channel`` into polytope
    vertices, producing a vertex mechanism the channel refines.

    Each posterior is expressed as a convex combination of vertices by a
    small exact feasibility LP over the canonical vertex order (the simplex
    is deterministic, so the result is too).  Raises ``ValueError`` if a
    posterior lies outside the vertex hull — i.e. the channel is not private
    for the space those vertices came from.
    """
    n = len(channel.x_labels)
    h = to_hyper(channel, uniform_prior(channel.x_labels))
    V = len(vertices)
    weight: dict = {}
    for outer, inner in zip(h.outers, h.inners):
        problem = LPProblem(
            objective=(ZERO,) * V,
            eq_rows=tuple(
                tuple(vertices[v][x] for v in range(V)) for x in range(n)
            ),
            eq_rhs=tuple(inner),
        )
        res = lp_optimize(problem)
        if not isinstance(res, LPOptimal):
            raise ValueError(
                "a posterior lies outside the vertex hull; "
                "the channel is not private for this space"
            )
        for v, b in enumerate(res.point):
            if b:
                weight[v] = weight.get(v, ZERO) + outer * b
    result = Hyper(
        channel.x_labels,
        tuple(weight[v] for v in sorted(weight)),
        tuple(vertices[v] for v in sorted(weight)),
    )
    if result.expected_inner() != (Fraction(1, n),) * n:
        raise AssertionError("anti-refinement does not average to the uniform prior")
    return result


def decompose_vertex_mechanism(hyper: Hyper, kernels: Sequence[Hyper]) -> tuple:
    """Write a uniform-averaging vertex mechanism as a convex combination of
    kernels: returns ``((t, kernel), ...)`` with positive ts summing to 1.

    Greedy and deterministic: at each step take the first kernel (canonical
    order) whose posteriors all still carry mass, and remove as much of it as
    possible.  Every step zeroes at least one posterior's remaining mass, so
    the loop ends; the exact reconstruction is checked before returning.
    """
    n = len(hyper.x_labels)
    if hyper.expected_inner() != (Fraction(1, n),) * n:
        raise ValueError("decomposition needs a uniform-prior vertex mechanism")
    ordered = sorted(kernels, key=lambda h: (h.inners, h.outers))
    remaining = dict(zip(hyper.inners, hyper.outers))
    parts = []
    while True:
        support = {inner for inner, w in remaining.items() if w > 0}
        if not support:
            break
        step = None
        for k in ordered:
            if all(inner in support for inner in k.inners):
                t = min(
                    remaining[inner] / w for inner, w in zip(k.inners, k.outers)
                )
                step = (t, k)
                break
        if step is None:
            raise ValueError(
                "no kernel fits the remaining support; "
                "either the mechanism is not a vertex mechanism for this "
                "space or the kernel list is incomplete"
            )
        t, k = step
        for inner, w in zip(k.inners, k.outers):
            remaining[inner] -= t * w
        parts.append((t, k))

    if sum(t for t, _ in parts) != 1:
        raise AssertionError("decomposition weights do not sum to 1")
    rebuilt: dict = {}
    for t, k in parts:
        for inner, w in zip(k.inners, k.outers):
            rebuilt[inner] = rebuilt.get(inner, ZERO) + t * w
    original = dict(zip(hyper.inners, hyper.outers))
    if {i: w for i, w in rebuilt.items() if w} != original:
        raise AssertionError("decomposition does not rebuild the mechanism exactly")
    return tuple(parts)
