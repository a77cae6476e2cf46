"""Polytope vertices, kernel enumeration, anti-refinement, decomposition."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import oracle
from conftest import rand_dx_channel, space_and_kernels
from mdp_workbench import geometry
from mdp_workbench import (
    Channel,
    ConstraintSystem,
    LPOptimal,
    EnumerationBudgetExceeded,
    Hyper,
    anti_refine,
    binary_optimal,
    build_constraints,
    decompose_vertex_mechanism,
    enumerate_kernels,
    enumerate_vertices,
    from_hyper,
    geometric_truncated,
    is_kernel,
    is_polytope_point,
    is_vertex,
    is_vertex_mechanism,
    make_metric,
    random_response,
    random_response_dual,
    refines,
    to_hyper,
    trivial_channel,
    uniform_prior,
)

F = Fraction

LINE3_VERTICES = (
    (F(1, 7), F(2, 7), F(4, 7)),
    (F(1, 4), F(1, 2), F(1, 4)),
    (F(2, 5), F(1, 5), F(2, 5)),
    (F(4, 7), F(2, 7), F(1, 7)),
)


def test_line3_vertices_exact():
    sp = make_metric("line", n=3, base=2)
    assert enumerate_vertices(build_constraints(sp)) == LINE3_VERTICES


def test_discrete3_vertices_exact():
    sp = make_metric("discrete", n=3, base=2)
    got = set(enumerate_vertices(build_constraints(sp)))
    want = set()
    for perm in ((0, 1, 2), (1, 0, 2), (1, 2, 0)):
        a = (F(1, 2), F(1, 4), F(1, 4))
        b = (F(1, 5), F(2, 5), F(2, 5))
        want.add(tuple(a[p] for p in perm))
        want.add(tuple(b[p] for p in perm))
    assert got == want


def test_halfspace_counts():
    assert len(build_constraints(make_metric("line", n=3, base=2)).halfspaces) == 4
    assert len(build_constraints(make_metric("discrete", n=3, base=2)).halfspaces) == 6
    assert len(build_constraints(make_metric("hamming", bits=3, base=2)).halfspaces) == 24


@pytest.mark.parametrize(
    "kind,n,vertices,kernels",
    [
        ("line", 2, 2, 1),
        ("line", 3, 4, 2),
        ("line", 4, 8, 11),
        ("line", 5, 16, 187),
        ("discrete", 2, 2, 1),
        ("discrete", 3, 6, 5),
        ("discrete", 4, 14, 41),
        ("hamming", 2, 6, 4),
    ],
)
def test_enumeration_counts(kind, n, vertices, kernels):
    _, vs, ks = space_and_kernels(kind, n)
    assert (len(vs), len(ks)) == (vertices, kernels)


def test_grid_1x1_counts():
    _, vs, ks = space_and_kernels("grid", 1)
    assert (len(vs), len(ks)) == (18, 403)


def test_base_one_has_single_uniform_vertex():
    sp = make_metric("discrete", n=4, base=1)
    assert enumerate_vertices(build_constraints(sp)) == ((F(1, 4),) * 4,)


def test_line3_kernels_with_weights():
    sp, _, kernels = space_and_kernels("line", 3)
    geo = to_hyper(geometric_truncated(3, "1/2"), uniform_prior(sp.labels))
    other = Hyper(
        sp.labels,
        (F(4, 9), F(5, 9)),
        ((F(1, 4), F(1, 2), F(1, 4)), (F(2, 5), F(1, 5), F(2, 5))),
    )
    assert kernels == (geo, other)


def test_discrete3_kernels():
    sp, _, kernels = space_and_kernels("discrete", 3)
    u = uniform_prior(sp.labels)
    assert to_hyper(random_response(3, "1/2"), u) in kernels
    assert to_hyper(random_response_dual(3, "1/2"), u) in kernels
    mixed = [k for k in kernels if len(k.outers) == 2]
    assert len(mixed) == 3
    assert all(sorted(k.outers) == [F(4, 9), F(5, 9)] for k in mixed)


def test_two_label_space_has_one_kernel():
    sp, _, kernels = space_and_kernels("line", 2)
    assert kernels == (to_hyper(binary_optimal(sp), uniform_prior(sp.labels)),)


def test_enumerated_vertices_are_vertices():
    sp, vs, _ = space_and_kernels("discrete", 3)
    cs = build_constraints(sp)
    for v in vs:
        assert all(c > 0 for c in v)
        assert is_polytope_point(cs, v)
        assert is_vertex(cs, v)


def test_uniform_is_interior_not_vertex():
    sp = make_metric("line", n=3, base=2)
    cs = build_constraints(sp)
    u = (F(1, 3),) * 3
    assert is_polytope_point(cs, u)
    assert not is_vertex(cs, u)


def test_is_kernel_examples():
    sp = make_metric("line", n=3, base=2)
    cs = build_constraints(sp)
    u = uniform_prior(sp.labels)
    assert is_kernel(to_hyper(geometric_truncated(3, "1/2"), u), cs)
    assert not is_kernel(to_hyper(trivial_channel(3), u), cs)
    spd = make_metric("discrete", n=4, base=2)
    csd = build_constraints(spd)
    ud = uniform_prior(spd.labels)
    assert is_kernel(to_hyper(random_response(4, "1/2"), ud), csd)


def test_cube_kernel_without_enumeration():
    # a 4-output mechanism on the 3-cube whose restriction is geometric
    from test_mechanisms import _hamming_kernel_channel

    sp = make_metric("hamming", bits=3, base=2)
    cs = build_constraints(sp)
    ch = _hamming_kernel_channel()
    h = to_hyper(ch, uniform_prior(ch.x_labels))
    # reorder to the space's label order before checking
    perm = [ch.x_labels.index(lbl) for lbl in sp.labels]
    reordered = Hyper(
        sp.labels,
        h.outers,
        tuple(tuple(inner[p] for p in perm) for inner in h.inners),
    )
    assert is_kernel(reordered, cs)


def test_vertex_mechanism_but_not_kernel():
    # all four line(3) vertices together average to uniform but are dependent
    sp, vs, _ = space_and_kernels("line", 3)
    cs = build_constraints(sp)
    outers = (F(7, 36), F(1, 3), F(5, 18), F(7, 36))
    h = Hyper(sp.labels, outers, vs)
    assert h.expected_inner() == (F(1, 3),) * 3
    assert is_vertex_mechanism(h, cs)
    assert not is_kernel(h, cs)


# -- budgets -----------------------------------------------------------------


def test_vertex_budget_refusal():
    sp = make_metric("line", n=4, base=2)
    with pytest.raises(EnumerationBudgetExceeded) as info:
        enumerate_vertices(build_constraints(sp), limit=5)
    assert info.value.limit == 5
    assert info.value.bound > 5
    assert "raise the limit" in str(info.value)


def test_kernel_budget_refusal():
    sp, vs, _ = space_and_kernels("line", 3)
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_kernels(sp, vs, limit=3)


def test_grid_2x2_vertices_refused_at_default_budget():
    sp = make_metric("grid", width=2, height=2, base=2)
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_vertices(build_constraints(sp))


# -- anti-refinement and decomposition ---------------------------------------


def test_anti_refine_fixes_vertex_mechanisms():
    sp, vs, kernels = space_and_kernels("line", 3)
    ch, _ = from_hyper(kernels[0])
    u = uniform_prior(sp.labels)
    assert anti_refine(ch, vs) == to_hyper(ch, u)


def test_anti_refine_trivial_channel():
    sp, vs, _ = space_and_kernels("line", 3)
    cs = build_constraints(sp)
    v = anti_refine(trivial_channel(3), vs)
    assert is_vertex_mechanism(v, cs)
    assert v.expected_inner() == (F(1, 3),) * 3
    coarse, _ = from_hyper(v)
    assert refines(coarse, trivial_channel(3)) is not None


def test_anti_refine_of_mixture():
    sp, vs, kernels = space_and_kernels("line", 3)
    cs = build_constraints(sp)
    from mdp_workbench import external_choice

    mixed = external_choice(geometric_truncated(3, "1/2"), trivial_channel(3), "1/2")
    v = anti_refine(mixed, vs)
    assert is_vertex_mechanism(v, cs)
    coarse, _ = from_hyper(v)
    assert refines(coarse, mixed) is not None


def test_anti_refine_rejects_points_outside_the_hull():
    sp, vs, _ = space_and_kernels("discrete", 2)
    ident = Channel(("0", "1"), ("y0", "y1"), ((F(1), F(0)), (F(0), F(1))))
    with pytest.raises(ValueError, match="outside"):
        anti_refine(ident, vs)


def test_decompose_kernel_is_identity():
    _, _, kernels = space_and_kernels("discrete", 3)
    for k in kernels:
        assert decompose_vertex_mechanism(k, kernels) == ((F(1), k),)


def test_decompose_halved_union():
    sp, _, kernels = space_and_kernels("discrete", 3)
    u = uniform_prior(sp.labels)
    r = to_hyper(random_response(3, "1/2"), u)
    r_dual = to_hyper(random_response_dual(3, "1/2"), u)
    union = Hyper(
        sp.labels,
        tuple(o / 2 for o in r.outers) + tuple(o / 2 for o in r_dual.outers),
        r.inners + r_dual.inners,
    )
    parts = dict(
        (k, w) for w, k in decompose_vertex_mechanism(union, kernels)
    )
    assert parts == {r: F(1, 2), r_dual: F(1, 2)}


def test_decompose_line3_even_mixture():
    sp, vs, kernels = space_and_kernels("line", 3)
    outers = (F(7, 36), F(1, 3), F(5, 18), F(7, 36))
    h = Hyper(sp.labels, outers, vs)
    got = decompose_vertex_mechanism(h, kernels)
    assert got == ((F(1, 2), kernels[0]), (F(1, 2), kernels[1]))


def test_decompose_rejects_non_vertex_input():
    sp, _, kernels = space_and_kernels("line", 3)
    h = to_hyper(trivial_channel(3), uniform_prior(sp.labels))
    with pytest.raises(ValueError):
        decompose_vertex_mechanism(h, kernels)


def test_random_channels_anti_refine_and_decompose():
    rng = random.Random(47)
    for kind in ("line", "discrete"):
        sp, vs, kernels = space_and_kernels(kind, 3)
        cs = build_constraints(sp)
        for _ in range(10):
            ch = rand_dx_channel(rng, sp, kernels)
            v = anti_refine(ch, vs)
            assert is_vertex_mechanism(v, cs)
            coarse, _ = from_hyper(v)
            assert refines(coarse, ch) is not None
            parts = decompose_vertex_mechanism(v, kernels)
            assert sum(w for w, _ in parts) == 1


def test_kernels_pairwise_unrelated_by_refinement():
    _, _, kernels = space_and_kernels("discrete", 3)
    channels = [from_hyper(k)[0] for k in kernels]
    for i, a in enumerate(channels):
        for j, b in enumerate(channels):
            if i != j:
                assert refines(a, b) is None


# -- differential tests against brute force ----------------------------------


def _random_custom_metric(rng, n):
    """Shortest-path metric of a random connected weighted graph."""
    inf = 10 * n
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for k in range(1, n):
        j = rng.randrange(k)
        dist[k][j] = dist[j][k] = rng.randint(1, 3)
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2)
        dist[i][j] = dist[j][i] = rng.randint(1, 3)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    base = rng.choice(["2", "3/2", "5/4", "3"])
    return make_metric("custom", distances=[[str(d) for d in r] for r in dist], base=base)


def _brute_force_kernels(space, vertices):
    """Every independent vertex subset whose weights averaging to uniform are
    all positive, solved by the Fraction Gauss-Jordan."""
    n = space.n
    uniform = (F(1, n),) * n
    found = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(vertices, size):
            if oracle.rank(subset) != size:
                continue
            cols = tuple(tuple(v[x] for v in subset) for x in range(n))
            sol = oracle.solve(cols, uniform)
            if isinstance(sol, tuple) and all(w > 0 for w in sol):
                found.append(Hyper(space.labels, sol, subset))
    return tuple(sorted(found, key=lambda h: (h.inners, h.outers)))


def _brute_force_vertices(cs):
    """Every point pinned by n-1 halfspaces and the simplex equation that
    satisfies all halfspaces."""
    n = cs.n
    found = set()
    for subset in itertools.combinations(cs.halfspaces, n - 1):
        rows = []
        for i, j, f in subset:
            row = [F(0)] * n
            row[i] += 1
            row[j] -= f
            rows.append(tuple(row))
        rows.append((F(1),) * n)
        sol = oracle.solve(tuple(rows), (F(0),) * (n - 1) + (F(1),))
        if isinstance(sol, tuple) and is_polytope_point(cs, sol):
            found.add(sol)
    return tuple(sorted(found))


@pytest.mark.parametrize("seed", range(8))
def test_kernels_match_brute_force_on_random_metrics(seed):
    sp = _random_custom_metric(random.Random(seed), 4)
    vs = enumerate_vertices(build_constraints(sp))
    assert enumerate_kernels(sp, vs) == _brute_force_kernels(sp, vs)


@pytest.mark.parametrize("seed,n", [(s, 4) for s in range(6)] + [(s, 5) for s in range(3)])
def test_vertices_match_brute_force_on_random_metrics(seed, n):
    cs = build_constraints(_random_custom_metric(random.Random(100 + seed), n))
    assert enumerate_vertices(cs) == _brute_force_vertices(cs)


# -- result checks raise even under python -O ---------------------------------


def test_vertex_positivity_is_checked():
    # delta[0] <= 0 * delta[1] pins the vertex (0, 1)
    cs = ConstraintSystem(n=2, halfspaces=((0, 1, F(0)),))
    with pytest.raises(AssertionError, match="non-positive"):
        enumerate_vertices(cs)


def test_anti_refine_barycentre_is_checked(monkeypatch):
    sp, vs, _ = space_and_kernels("line", 3)

    def first_vertex(problem):
        return LPOptimal(value=F(0), point=(F(1),) + (F(0),) * (len(vs) - 1))

    monkeypatch.setattr(geometry, "lp_optimize", first_vertex)
    with pytest.raises(AssertionError, match="uniform prior"):
        anti_refine(geometric_truncated(3, "1/2"), vs)


def _tampered(hyper, **fields):
    # Hyper's constructor would reject these; results must be checked anyway.
    clone = Hyper(hyper.x_labels, hyper.outers, hyper.inners)
    for name, value in fields.items():
        object.__setattr__(clone, name, value)
    return clone


def test_decomposition_weight_sum_is_checked():
    _, _, kernels = space_and_kernels("line", 3)
    k = kernels[0]
    doubled = _tampered(k, outers=tuple(2 * o for o in k.outers))
    with pytest.raises(AssertionError, match="sum to 1"):
        decompose_vertex_mechanism(k, [doubled])


def test_decomposition_rebuild_is_checked():
    _, vs, kernels = space_and_kernels("line", 3)
    k = kernels[0]
    extra = next(v for v in vs if v not in k.inners)
    padded = _tampered(k, outers=k.outers + (F(0),), inners=k.inners + (extra,))
    with pytest.raises(AssertionError, match="rebuild"):
        decompose_vertex_mechanism(padded, kernels)
