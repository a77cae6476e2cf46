"""Uncertainty measures, refinement, and leakage capacities."""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import (
    rand_dx_channel,
    rand_loss,
    rand_prior,
    rand_stochastic_rows,
    space_and_kernels,
)
from mdp_workbench import (
    Channel,
    Prior,
    add_capacity_channel,
    binary_optimal,
    capacity_report_to_json,
    check_dx_private,
    external_choice,
    from_hyper,
    geometric_truncated,
    make_loss,
    make_metric,
    mult_capacity_channel,
    posterior_uncertainty,
    prior_uncertainty,
    random_response,
    random_response_dual,
    refines,
    to_hyper,
    trivial_channel,
    type_capacity_closed_form,
    type_capacity_lp,
    uniform_prior,
)
from mdp_workbench import analysis
from mdp_workbench.exact import LPOptimal, mat_mul

F = Fraction


def _identity(n: int) -> Channel:
    rows = tuple(
        tuple(F(1) if i == j else F(0) for j in range(n)) for i in range(n)
    )
    return Channel(tuple(str(i) for i in range(n)), tuple(f"y{j}" for j in range(n)), rows)


# -- uncertainty -------------------------------------------------------------


def test_prior_uncertainty_guess_loss():
    u = uniform_prior(("0", "1", "2"))
    assert prior_uncertainty(make_loss("bin", labels=u.x_labels), u) == F(2, 3)
    assert prior_uncertainty(make_loss("nib", labels=u.x_labels), u) == F(1, 3)


def test_prior_uncertainty_skewed():
    p = Prior(("0", "1", "2"), (F(1, 2), F(1, 4), F(1, 4)))
    assert prior_uncertainty(make_loss("bin", labels=p.x_labels), p) == F(1, 2)


def test_prior_uncertainty_zero_loss():
    u = uniform_prior(("0", "1"))
    loss = make_loss("custom", w_labels=("w",), x_labels=u.x_labels, table=[[0, 0]])
    assert prior_uncertainty(loss, u) == 0


def test_prior_uncertainty_label_mismatch():
    u = uniform_prior(("0", "1"))
    with pytest.raises(ValueError):
        prior_uncertainty(make_loss("bin", labels=("a", "b")), u)


def test_posterior_uncertainty_geometric_guess():
    u = uniform_prior(("0", "1", "2"))
    ch = geometric_truncated(3, "1/2")
    assert posterior_uncertainty(make_loss("bin", labels=u.x_labels), u, ch) == F(4, 9)


def test_posterior_uncertainty_geometric_distance_scores():
    u = uniform_prior(("0", "1", "2"))
    sp = make_metric("line", n=3, base=2)
    loss = make_loss(
        "monotone", space=sp, profile={0: 0, 1: 1, 2: 2}, assignment={x: x for x in sp.labels}
    )
    assert posterior_uncertainty(loss, u, geometric_truncated(3, "1/2")) == F(5, 9)
    assert prior_uncertainty(loss, u) == F(2, 3)


def test_posterior_uncertainty_response_channels():
    u = uniform_prior(("0", "1", "2"))
    bin3 = make_loss("bin", labels=u.x_labels)
    assert posterior_uncertainty(bin3, u, random_response(3, "1/2")) == F(1, 2)
    assert posterior_uncertainty(bin3, u, random_response_dual(3, "1/2")) == F(3, 5)


def test_trivial_channel_reveals_nothing():
    rng = random.Random(3)
    labels = ("0", "1", "2", "3")
    for _ in range(20):
        prior = rand_prior(rng, labels)
        loss = rand_loss(rng, labels)
        assert posterior_uncertainty(loss, prior, trivial_channel(labels)) == (
            prior_uncertainty(loss, prior)
        )


def test_identity_floor_is_weighted_min():
    # full disclosure: every secret gets its cheapest action
    u = uniform_prior(("0", "1", "2"))
    loss = make_loss("bin", labels=u.x_labels)
    assert posterior_uncertainty(loss, u, _identity(3)) == 0


def test_posterior_uncertainty_depends_only_on_hyper():
    rng = random.Random(11)
    ch = geometric_truncated(3, "1/2")
    # same hyper, different presentation: split one column proportionally
    split = Channel(
        ch.x_labels,
        ("a", "b", "c", "d"),
        tuple(
            (row[0], row[1] / 3, 2 * row[1] / 3, row[2]) for row in ch.rows
        ),
    )
    for _ in range(40):
        prior = rand_prior(rng, ch.x_labels)
        loss = rand_loss(rng, ch.x_labels)
        assert posterior_uncertainty(loss, prior, ch) == posterior_uncertainty(
            loss, prior, split
        )


def test_posterior_never_exceeds_prior():
    rng = random.Random(29)
    _, _, kernels = space_and_kernels("discrete", 3)
    for _ in range(40):
        ch = rand_dx_channel(rng, make_metric("discrete", n=3, base=2), kernels)
        prior = rand_prior(rng, ch.x_labels)
        loss = rand_loss(rng, ch.x_labels)
        assert posterior_uncertainty(loss, prior, ch) <= prior_uncertainty(loss, prior)


# -- refinement --------------------------------------------------------------


def test_everything_refines_trivial():
    ident = _identity(3)
    w = refines(ident, trivial_channel(ident.x_labels))
    assert w is not None
    assert w.rows == ((F(1),), (F(1),), (F(1),))


def test_trivial_does_not_refine_identity():
    ident = _identity(3)
    assert refines(trivial_channel(ident.x_labels), ident) is None


def test_refines_is_reflexive():
    ch = geometric_truncated(4, "1/2")
    assert refines(ch, ch) is not None


def test_mixture_with_noise_is_coarser():
    ch = geometric_truncated(3, "1/2")
    mixed = external_choice(ch, trivial_channel(ch.x_labels), "1/2")
    w = refines(ch, mixed)
    assert w is not None
    assert mat_mul(ch.rows, w.rows) == mixed.rows
    # and not the other way round
    assert refines(mixed, ch) is None


def test_refines_witness_is_row_stochastic():
    rng = random.Random(59)
    ch = random_response(4, "1/3")
    post = rand_stochastic_rows(rng, 4, 3)
    coarse = Channel(ch.x_labels, ("a", "b", "c"), mat_mul(ch.rows, post))
    w = refines(ch, coarse)
    assert w is not None
    for row in w.rows:
        assert sum(row) == 1
        assert all(v >= 0 for v in row)


def test_refines_requires_shared_secrets():
    with pytest.raises(ValueError):
        refines(geometric_truncated(3, "1/2"), trivial_channel(("a", "b", "c")))


def test_post_processing_never_helps():
    # data-processing: coarser channel, higher uncertainty, lower capacities
    rng = random.Random(83)
    for trial in range(15):
        ch = random_response(3, F(rng.randint(1, 4), 5))
        post = rand_stochastic_rows(rng, 3, rng.randint(1, 4))
        rows = mat_mul(ch.rows, post)
        keep = [j for j in range(len(post[0])) if any(r[j] for r in rows)]
        coarse = Channel(
            ch.x_labels,
            tuple(f"z{j}" for j in keep),
            tuple(tuple(r[j] for j in keep) for r in rows),
        )
        assert refines(ch, coarse) is not None
        prior = rand_prior(rng, ch.x_labels)
        loss = rand_loss(rng, ch.x_labels)
        assert posterior_uncertainty(loss, prior, coarse) >= posterior_uncertainty(
            loss, prior, ch
        )
        assert mult_capacity_channel(coarse) <= mult_capacity_channel(ch)
        assert add_capacity_channel(coarse) <= add_capacity_channel(ch)


# -- per-channel capacities --------------------------------------------------


def test_capacities_of_named_channels():
    geo = geometric_truncated(3, "1/2")
    assert mult_capacity_channel(geo) == F(5, 3)
    assert add_capacity_channel(geo) == F(1, 2)
    triv = trivial_channel(4)
    assert mult_capacity_channel(triv) == 1
    assert add_capacity_channel(triv) == 0
    dual = random_response_dual(3, "1/2")
    assert add_capacity_channel(dual) == F(2, 5)
    assert mult_capacity_channel(dual) == F(6, 5)
    assert mult_capacity_channel(_identity(3)) == 3
    assert add_capacity_channel(_identity(3)) == 1
    two = binary_optimal(make_metric("line", n=2, base=2))
    assert mult_capacity_channel(two) == F(4, 3)


# -- type capacities ---------------------------------------------------------


def test_lp_capacity_line4():
    sp = make_metric("line", n=4, base=2)
    mult = type_capacity_lp(sp, "mult")
    add = type_capacity_lp(sp, "add")
    assert (mult.value, add.value) == (F(2), F(2, 3))
    assert mult.method == "lp" and add.method == "lp"


def test_lp_capacity_discrete5():
    sp = make_metric("discrete", n=5, base=2)
    assert type_capacity_lp(sp, "mult").value == F(5, 3)
    assert type_capacity_lp(sp, "add").value == F(4, 9)


def test_lp_witness_attains_the_value_and_is_private():
    sp = make_metric("line", n=4, base=2)
    for mode, per_channel in (
        ("mult", mult_capacity_channel),
        ("add", add_capacity_channel),
    ):
        report = type_capacity_lp(sp, mode)
        assert per_channel(report.witness) == report.value
        assert check_dx_private(report.witness, sp).ok


@pytest.mark.parametrize("kind", ["line", "discrete"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("mode", ["mult", "add"])
def test_closed_form_matches_lp(kind, n, mode):
    sp = make_metric(kind, n=n, base=2)
    closed = type_capacity_closed_form(sp, mode)
    assert closed.method == "closed_form"
    assert closed.value == type_capacity_lp(sp, mode).value


def test_closed_form_base_three():
    sp = make_metric("discrete", n=4, base=3)
    assert type_capacity_closed_form(sp, "mult").value == F(4 * 3, 3 + 4 - 1)
    assert type_capacity_closed_form(sp, "add").value == 1 - F(4, 1 + 3 * 3)


def test_closed_form_rejects_unknown_kind():
    sp = make_metric("hamming", bits=2, base=2)
    with pytest.raises(ValueError):
        type_capacity_closed_form(sp, "mult")
    with pytest.raises(ValueError):
        type_capacity_lp(sp, "both")


def test_capacity_report_json():
    sp = make_metric("line", n=3, base=2)
    doc = capacity_report_to_json(type_capacity_closed_form(sp, "mult"))
    assert doc["mode"] == "mult"
    assert doc["method"] == "closed_form"
    assert doc["value"] == "5/3"
    assert doc["witness"]["rows"][0][0] == "2/3"


def test_kernels_attain_the_type_capacity():
    # the sweep over kernel channels reaches the LP optimum exactly
    for kind in ("line", "discrete"):
        sp, _, kernels = space_and_kernels(kind, 3)
        channels = [from_hyper(k)[0] for k in kernels]
        assert max(mult_capacity_channel(c) for c in channels) == (
            type_capacity_lp(sp, "mult").value
        )
        assert max(add_capacity_channel(c) for c in channels) == (
            type_capacity_lp(sp, "add").value
        )


def test_private_channels_stay_under_the_type_capacity():
    rng = random.Random(101)
    for kind in ("line", "discrete"):
        sp, _, kernels = space_and_kernels(kind, 3)
        mult_cap = type_capacity_lp(sp, "mult").value
        add_cap = type_capacity_lp(sp, "add").value
        for _ in range(25):
            ch = rand_dx_channel(rng, sp, kernels)
            assert mult_capacity_channel(ch) <= mult_cap
            assert add_capacity_channel(ch) <= add_cap


# -- capacity bounds on adversarial gain -------------------------------------


def _gain_vulnerability(gain, prior: Prior) -> Fraction:
    return max(
        sum(p * g for p, g in zip(prior.probs, row)) for row in gain.table
    )


def _gain_posterior_vulnerability(gain, prior: Prior, ch: Channel) -> Fraction:
    total = F(0)
    for j in range(len(ch.y_labels)):
        joint = tuple(p * row[j] for p, row in zip(prior.probs, ch.rows))
        total += max(
            sum(g * v for g, v in zip(grow, joint)) for grow in gain.table
        )
    return total


def test_multiplicative_capacity_bounds_any_gain():
    rng = random.Random(211)
    ch = geometric_truncated(4, "1/2")
    cap = mult_capacity_channel(ch)
    for _ in range(60):
        prior = rand_prior(rng, ch.x_labels)
        gain = rand_loss(rng, ch.x_labels)  # non-negative table
        before = _gain_vulnerability(gain, prior)
        after = _gain_posterior_vulnerability(gain, prior, ch)
        assert after <= cap * before


def test_additive_capacity_bounds_unit_gains():
    rng = random.Random(223)
    ch = random_response(4, "1/3")
    cap = add_capacity_channel(ch)
    labels = ch.x_labels
    for _ in range(60):
        prior = rand_prior(rng, labels)
        actions = rng.randint(1, 5)
        table = [
            [F(rng.randint(0, 8), 8) for _ in labels] for _ in range(actions)
        ]
        gain = make_loss(
            "custom",
            w_labels=[f"w{i}" for i in range(actions)],
            x_labels=labels,
            table=table,
        )
        before = _gain_vulnerability(gain, prior)
        after = _gain_posterior_vulnerability(gain, prior, ch)
        assert after - before <= cap


def test_capacity_bounds_are_tight_for_the_right_gain():
    # the guess gain meets the multiplicative bound at uniform priors
    ch = geometric_truncated(3, "1/2")
    u = uniform_prior(ch.x_labels)
    gain = make_loss(
        "custom",
        w_labels=ch.x_labels,
        x_labels=ch.x_labels,
        table=[[1 if w == x else 0 for x in ch.x_labels] for w in ch.x_labels],
    )
    before = _gain_vulnerability(gain, u)
    after = _gain_posterior_vulnerability(gain, u, ch)
    assert after == mult_capacity_channel(ch) * before


def test_lp_witnesses_are_pinned():
    # The witnesses the Fraction-tableau simplex gave, entry for entry: the
    # integer tableau must make the same pivot choices.
    def line(*rows):
        return tuple(tuple(F(v) for v in row) for row in rows)

    def grid(diag, far, other):
        return tuple(
            tuple(diag if i == j else far if i + j == 3 else other for j in range(4))
            for i in range(4)
        )

    g = 266514414269022518865029724987
    h = 316514414269022518865029724987
    d = 766514414269022518865029724987
    expected = {
        ("line", "mult"): line(
            ("2/3", "1/6", "1/12", "1/24", "1/24"),
            ("1/3", "1/3", "1/6", "1/12", "1/12"),
            ("1/6", "1/6", "1/3", "1/6", "1/6"),
            ("1/12", "1/12", "1/6", "1/3", "1/3"),
            ("1/24", "1/24", "1/12", "1/6", "2/3"),
        ),
        ("line", "add"): line(
            ("1/8", 0, 0, 0, "7/8"),
            ("1/4", 0, 0, 0, "3/4"),
            ("1/2", 0, 0, 0, "1/2"),
            ("3/4", 0, 0, 0, "1/4"),
            ("7/8", 0, 0, 0, "1/8"),
        ),
        ("grid", "mult"): grid(F(g, 2 * h), F(5 * 10**28, h), F(g, 4 * h)),
        ("grid", "add"): grid(F(10**29, d), F(g, d), F(2 * 10**29, d)),
    }
    spaces = {
        "line": make_metric("line", n=5, base=2),
        "grid": make_metric("grid", width=1, height=1, base=2),
    }
    for (kind, mode), rows in expected.items():
        assert type_capacity_lp(spaces[kind], mode).witness.rows == rows


def test_refines_witness_is_pinned():
    # Phase 1 alone picks this witness (the objective is zero), so it pins
    # the weighting of each artificial by its row's scale.
    labels = ("x0", "x1")
    b = Channel(labels, ("b0", "b1", "b2", "b3"), (
        (F(1, 4), F(0), F(3, 8), F(3, 8)),
        (F(3, 7), F(3, 7), F(1, 7), F(0)),
    ))
    a = Channel(labels, ("a0", "a1"), ((F(1, 2), F(1, 2)), (F(9, 14), F(5, 14))))
    assert refines(b, a).rows == (
        (F(1, 2), F(1, 2)), (F(1), F(0)), (F(0), F(1)), (F(1), F(0))
    )


# -- result checks raise even under python -O ---------------------------------


def test_refines_witness_is_checked(monkeypatch):
    def zeros(problem):
        return LPOptimal(F(0), (F(0),) * len(problem.objective))

    monkeypatch.setattr(analysis, "lp_optimize", zeros)
    ch = geometric_truncated(3, "1/2")
    with pytest.raises(AssertionError, match="refinement witness"):
        refines(ch, ch)


def test_capacity_witness_privacy_is_checked(monkeypatch):
    monkeypatch.setattr(
        analysis, "check_dx_private", lambda channel, space: SimpleNamespace(ok=False)
    )
    with pytest.raises(AssertionError, match="privacy re-check"):
        type_capacity_lp(make_metric("line", n=3, base=2), "mult")


def test_capacity_witness_trace_is_checked(monkeypatch):
    real = analysis.lp_optimize

    def off_by_one(problem):
        res = real(problem)
        return LPOptimal(res.value + 1, res.point)

    monkeypatch.setattr(analysis, "lp_optimize", off_by_one)
    with pytest.raises(AssertionError, match="witness trace"):
        type_capacity_lp(make_metric("line", n=3, base=2), "mult")


@pytest.mark.parametrize("mode,score", [
    ("mult", "mult_capacity_channel"), ("add", "add_capacity_channel"),
])
def test_capacity_witness_score_is_checked(monkeypatch, mode, score):
    monkeypatch.setattr(analysis, score, lambda channel: F(-1))
    with pytest.raises(AssertionError, match="witness score"):
        type_capacity_lp(make_metric("line", n=3, base=2), mode)


@pytest.mark.parametrize("kind,mode,witness", [
    ("line", "mult", "geometric_truncated"),
    ("discrete", "mult", "random_response"),
    ("discrete", "add", "random_response_dual"),
])
def test_closed_form_is_checked(monkeypatch, kind, mode, witness):
    # A witness with another alpha scores another capacity.
    real = getattr(analysis, witness)
    monkeypatch.setattr(analysis, witness, lambda n, alpha: real(n, alpha / 2))
    with pytest.raises(AssertionError, match="closed-form"):
        type_capacity_closed_form(make_metric(kind, n=3, base=2), mode)
