"""Channels, hypers, stock mechanisms, and privacy checking."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracle
from conftest import rand_dx_channel, space_and_kernels
from mdp_workbench import (
    Channel,
    DpReport,
    Hyper,
    Prior,
    binary_optimal,
    build_constraints,
    channel_from_json,
    channel_to_json,
    check_dx_private,
    enumerate_kernels,
    enumerate_vertices,
    external_choice,
    from_hyper,
    geometric_truncated,
    hyper_from_json,
    hyper_to_json,
    make_metric,
    prior_from_json,
    prior_to_json,
    random_response,
    random_response_dual,
    restrict,
    to_hyper,
    trivial_channel,
    uniform_prior,
)

F = Fraction

FIG_CHANNEL = (
    (F(2, 3), F(1, 6), F(1, 6)),
    (F(1, 3), F(1, 3), F(1, 3)),
    (F(1, 6), F(1, 6), F(2, 3)),
)


def test_channel_rows_must_be_stochastic():
    with pytest.raises(ValueError):
        Channel(("a",), ("y0", "y1"), ((F(1, 2), F(1, 3)),))
    with pytest.raises(ValueError):
        Channel(("a",), ("y0", "y1"), ((F(3, 2), F(-1, 2)),))


def test_prior_must_be_distribution():
    with pytest.raises(ValueError):
        Prior(("a", "b"), (F(1, 2), F(1, 3)))


# -- stock mechanisms --------------------------------------------------------


def test_geometric_truncated_matches_known_matrix():
    assert geometric_truncated(3, "1/2").rows == FIG_CHANNEL


def test_geometric_truncated_edge_cases():
    assert geometric_truncated(1, "1/3").rows == ((F(1),),)
    assert geometric_truncated(4, "1/2").rows[0] == (F(2, 3), F(1, 6), F(1, 12), F(1, 12))
    with pytest.raises(ValueError):
        geometric_truncated(3, "3/2")
    with pytest.raises(ValueError):
        geometric_truncated(3, 0)


def test_random_response_and_dual():
    r = random_response(3, "1/2")
    assert r.rows[0] == (F(1, 2), F(1, 4), F(1, 4))
    assert r.rows[1][1] == F(1, 2)
    dual = random_response_dual(3, "1/2")
    assert dual.rows[0] == (F(1, 5), F(2, 5), F(2, 5))
    assert random_response(1, "1/2").rows == ((F(1),),)


def test_binary_optimal_examples():
    sp = make_metric("line", n=2, base=2)
    assert binary_optimal(sp).rows == ((F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)))
    sp4 = make_metric("custom", labels=["a", "b"], distances=[[0, 2], [2, 0]], base=2)
    assert binary_optimal(sp4).rows == ((F(4, 5), F(1, 5)), (F(1, 5), F(4, 5)))
    flat = make_metric("line", n=2, base=1)
    assert binary_optimal(flat).rows == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        binary_optimal(make_metric("line", n=3, base=2))


def test_trivial_channel_accepts_count_or_labels():
    assert trivial_channel(3).rows == ((F(1),), (F(1),), (F(1),))
    assert trivial_channel(["a", "b"]).x_labels == ("a", "b")


# -- privacy checking --------------------------------------------------------


def test_check_dp_accepts_geometric():
    sp = make_metric("line", n=3, base=2)
    report = check_dx_private(geometric_truncated(3, "1/2"), sp)
    assert report.ok and not report.violations


def test_check_dp_rejects_deterministic_channel():
    sp = make_metric("discrete", n=2, base=2)
    ident = Channel(("0", "1"), ("y0", "y1"), ((F(1), F(0)), (F(0), F(1))))
    report = check_dx_private(ident, sp)
    assert not report.ok
    # a zero denominator shows up as an unbounded ratio in both columns
    assert len(report.violations) == 2
    assert all(ratio is None for (_, _, _, ratio) in report.violations)


def test_check_dp_random_response_on_discrete():
    sp = make_metric("discrete", n=4, base=2)
    assert check_dx_private(random_response(4, "1/2"), sp).ok


def test_check_dp_label_mismatch():
    sp = make_metric("line", n=3, base=2)
    with pytest.raises(ValueError):
        check_dx_private(trivial_channel(["x", "y", "z"]), sp)


def _break_privacy(rng, channel):
    """Move a row's largest entry to the next column, leaving a zero where
    the other rows are positive."""
    rows = [list(r) for r in channel.rows]
    x = rng.randrange(len(rows))
    j = max(range(len(rows[x])), key=lambda c: rows[x][c])
    k = (j + 1) % len(rows[x])
    rows[x][k] += rows[x][j]
    rows[x][j] = F(0)
    return Channel(channel.x_labels, channel.y_labels, tuple(map(tuple, rows)))


def _star_space_and_kernels():
    # b is the centre; a-c, a-d and c-d are chains through b, not tight.
    d = [["0", "1", "2", "3/2"], ["1", "0", "1", "1/2"],
         ["2", "1", "0", "3/2"], ["3/2", "1/2", "3/2", "0"]]
    sp = make_metric("custom", labels="abcd", distances=d, base=4)
    return sp, enumerate_kernels(sp, enumerate_vertices(build_constraints(sp)))


def test_check_dp_equals_the_all_pairs_oracle_on_tight_pairs():
    # Grid 1x1 is an approximate space; the star has pairs that are not tight.
    spaces = [space_and_kernels(*spec)[::2] for spec in
              (("line", 4), ("discrete", 3), ("hamming", 2), ("grid", 1))]
    rng = random.Random(31)
    for sp, kernels in spaces + [_star_space_and_kernels()]:
        tight = {frozenset((sp.labels[i], sp.labels[j])) for i, j in sp.tight_pairs}
        for _ in range(25):
            private = rand_dx_channel(rng, sp, kernels)
            channels = [private]
            if len(private.y_labels) > 1:  # one column cannot be broken
                channels.append(_break_privacy(rng, private))
            for ch in channels:
                report = check_dx_private(ch, sp)
                everywhere = oracle.dx_violations(ch, sp)
                assert report.ok == (not everywhere) == (ch is private)
                assert report.violations == tuple(
                    v for v in everywhere if frozenset(v[:2]) in tight
                )


def _check_dx_private_via_hyper(channel, space):
    """Same verdict as ``check_dx_private``, computed on the uniform-prior
    hyper's posteriors instead of the channel's rows.

    Under a uniform prior a posterior is a rescaled channel column, so the
    row-ratio condition holds iff every posterior satisfies it coordinatewise.
    """
    h = to_hyper(channel, uniform_prior(channel.x_labels))
    bad = []
    for i, j in space.tight_pairs:
        bound = space.stretch[i][j]
        for k, inner in enumerate(h.inners):
            a, b = inner[i], inner[j]
            if a > bound * b:
                bad.append(
                    (space.labels[i], space.labels[j], f"inner{k}", a / b if b else None)
                )
            if b > bound * a:
                bad.append(
                    (space.labels[j], space.labels[i], f"inner{k}", b / a if a else None)
                )
    return DpReport(ok=not bad, violations=tuple(bad))


def test_check_dp_two_routes_agree():
    # the hyper-based check is an independent implementation of the same
    # predicate; it must agree on members and non-members alike
    rng = random.Random(37)
    sp, _, kernels = space_and_kernels("line", 4)
    for _ in range(20):
        ch = rand_dx_channel(rng, sp, kernels)
        assert _check_dx_private_via_hyper(ch, sp).ok == check_dx_private(ch, sp).ok
    tight = make_metric("line", n=4, base="3/2")
    violating = geometric_truncated(4, "1/2")  # base-2 noise is too sharp for 3/2
    assert check_dx_private(violating, tight).ok is False
    assert _check_dx_private_via_hyper(violating, tight).ok is False


# -- hypers ------------------------------------------------------------------


def test_fig_hyper_exact():
    ch = geometric_truncated(3, "1/2")
    h = to_hyper(ch, uniform_prior(ch.x_labels))
    assert h.outers == (F(7, 18), F(2, 9), F(7, 18))
    assert h.inners == (
        (F(1, 7), F(2, 7), F(4, 7)),
        (F(1, 4), F(1, 2), F(1, 4)),
        (F(4, 7), F(2, 7), F(1, 7)),
    )


def test_trivial_channel_hyper_is_the_prior():
    prior = Prior(("0", "1", "2"), (F(1, 2), F(1, 3), F(1, 6)))
    h = to_hyper(trivial_channel(3), prior)
    assert h.outers == (F(1),)
    assert h.inners == (prior.probs,)


def test_proportional_columns_merge():
    ch = geometric_truncated(3, "1/2")
    # split the first column in half: same hyper after merging
    rows = tuple(
        (row[0] / 2, row[0] / 2) + row[1:] for row in ch.rows
    )
    split = Channel(ch.x_labels, ("a", "b", "c", "d"), rows)
    u = uniform_prior(ch.x_labels)
    assert to_hyper(split, u) == to_hyper(ch, u)


def test_hyper_drops_zero_outers_and_sorts():
    ch = Channel(
        ("0", "1"),
        ("y0", "y1", "y2"),
        ((F(1, 2), F(0), F(1, 2)), (F(1, 4), F(0), F(3, 4))),
    )
    h = to_hyper(ch, uniform_prior(("0", "1")))
    assert len(h.outers) == 2
    assert h.inners == tuple(sorted(h.inners))
    # equal posteriors that are not adjacent in the input are merged
    a, b, c = (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), (F(2, 3), F(1, 3))
    h = Hyper(("0", "1"), (F(1, 8), F(1, 4), F(0), F(1, 8), F(1, 2)), (c, a, b, c, a))
    assert h.inners == (a, c)
    assert h.outers == (F(3, 4), F(1, 4))


def test_from_hyper_inverts_fig_hyper():
    ch = geometric_truncated(3, "1/2")
    u = uniform_prior(ch.x_labels)
    h = to_hyper(ch, u)
    back, prior = from_hyper(h)
    assert prior.probs == u.probs
    # column order is canonical (by inner), so compare as hypers
    assert to_hyper(back, u) == h
    assert sorted(zip(*back.rows)) == sorted(zip(*ch.rows))


def test_from_hyper_round_trip_at_skewed_prior():
    ch = geometric_truncated(4, "1/2")
    prior = Prior(ch.x_labels, (F(1, 2), F(1, 4), F(1, 8), F(1, 8)))
    h = to_hyper(ch, prior)
    back, recovered = from_hyper(h)
    assert recovered.probs == prior.probs
    assert to_hyper(back, recovered) == h


def test_from_hyper_single_inner_is_trivial():
    h = Hyper(("0", "1"), (F(1),), ((F(1, 3), F(2, 3)),))
    back, prior = from_hyper(h)
    assert back.rows == ((F(1),), (F(1),))
    assert prior.probs == (F(1, 3), F(2, 3))


def test_from_hyper_rejects_unreachable_secret():
    h = Hyper(("0", "1"), (F(1),), ((F(1), F(0)),))
    with pytest.raises(ValueError):
        from_hyper(h)


def test_expected_inner_is_the_prior():
    rng = random.Random(41)
    sp, _, kernels = space_and_kernels("discrete", 3)
    for _ in range(20):
        ch = rand_dx_channel(rng, sp, kernels)
        h = to_hyper(ch, uniform_prior(ch.x_labels))
        assert h.expected_inner() == (F(1, 3),) * 3


# -- restriction and external choice ----------------------------------------


HAMMING_KERNEL_ROWS = {
    "000": ("2/3", "1/6", "1/12", "1/12"),
    "100": ("1/3", "1/3", "1/6", "1/6"),
    "110": ("1/6", "1/6", "1/3", "1/3"),
    "111": ("1/12", "1/12", "1/6", "2/3"),
    "010": ("1/3", "1/3", "1/6", "1/6"),
    "011": ("1/6", "1/6", "1/3", "1/3"),
    "101": ("1/6", "1/6", "1/3", "1/3"),
    "001": ("1/3", "1/3", "1/6", "1/6"),
}


def _hamming_kernel_channel() -> Channel:
    sp = make_metric("hamming", bits=3, base=2)
    rows = tuple(
        tuple(F(v) for v in HAMMING_KERNEL_ROWS[label]) for label in sp.labels
    )
    return Channel(sp.labels, ("y1", "y2", "y3", "y4"), rows)


def test_restrict_of_cube_kernel_is_geometric():
    ch = _hamming_kernel_channel()
    sp = make_metric("hamming", bits=3, base=2)
    assert check_dx_private(ch, sp).ok
    sub = restrict(ch, ["000", "100", "110", "111"])
    assert sub.rows == geometric_truncated(4, "1/2").rows
    # rows are kept verbatim — no renormalisation happens
    assert sub.x_labels == ("000", "100", "110", "111")


def test_cube_kernel_hyper_outers():
    ch = _hamming_kernel_channel()
    h = to_hyper(ch, uniform_prior(ch.x_labels))
    assert sorted(h.outers) == [F(7, 32), F(7, 32), F(9, 32), F(9, 32)]


def test_restrict_keeps_privacy_on_subspace():
    from mdp_workbench import restrict_space

    sp = make_metric("line", n=4, base=2)
    ch = geometric_truncated(4, "1/2")
    sub = restrict(ch, ["0", "1", "3"])
    assert check_dx_private(sub, restrict_space(sp, ["0", "1", "3"])).ok


def test_external_choice_columns():
    sp = make_metric("line", n=2, base=2)
    t = binary_optimal(sp)
    mix = external_choice(t, trivial_channel(["0", "1"]), "1/2")
    assert set(zip(*mix.rows)) == {
        (F(1, 3), F(1, 6)),
        (F(1, 6), F(1, 3)),
        (F(1, 2), F(1, 2)),
    }


def test_external_choice_with_itself_is_hyper_equal():
    ch = geometric_truncated(3, "1/2")
    mix = external_choice(ch, ch, "1/2")
    u = uniform_prior(ch.x_labels)
    assert to_hyper(mix, u) == to_hyper(ch, u)


def test_external_choice_drops_zero_scaled_side():
    ch = geometric_truncated(3, "1/2")
    mix = external_choice(ch, trivial_channel(3), 1)
    assert len(mix.y_labels) == 3  # the p=1 mix carries no second-side columns


def test_external_choice_preserves_privacy():
    rng = random.Random(43)
    sp, _, kernels = space_and_kernels("line", 3)
    for _ in range(15):
        a = rand_dx_channel(rng, sp, kernels)
        b = rand_dx_channel(rng, sp, kernels)
        p = F(rng.randint(0, 10), 10)
        assert check_dx_private(external_choice(a, b, p), sp).ok


# -- JSON --------------------------------------------------------------------


def test_channel_json_round_trip():
    ch = geometric_truncated(3, "1/2")
    assert channel_from_json(channel_to_json(ch)) == ch


def test_prior_and_hyper_json_round_trip():
    prior = Prior(("a", "b"), (F(2, 5), F(3, 5)))
    assert prior_from_json(prior_to_json(prior)) == prior
    ch = geometric_truncated(3, "1/2")
    h = to_hyper(ch, uniform_prior(ch.x_labels))
    assert hyper_from_json(hyper_to_json(h)) == h
