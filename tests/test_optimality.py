"""Loss functions, monotone classification, and universal-optimality verdicts."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import oracle
from conftest import (
    rand_dx_channel,
    rand_loss,
    rand_monotone_profile,
    rand_stochastic_rows,
    space_and_kernels,
)
from mdp_workbench import (
    Channel,
    Hyper,
    binary_optimal,
    check_universal_l_optimal,
    classify_monotone,
    external_choice,
    extend_loss,
    from_hyper,
    geometric_truncated,
    impossibility_sweep,
    is_trivial,
    add_losses,
    loss_from_json,
    loss_to_json,
    make_loss,
    make_metric,
    min_pair_mechanism,
    posterior_uncertainty,
    random_response,
    restrict,
    restrict_loss,
    restrict_space,
    scale_loss,
    to_hyper,
    trivial_channel,
    uniform_prior,
)
from mdp_workbench import optimality
from mdp_workbench.exact import LP_INFEASIBLE, LP_UNBOUNDED, LPOptimal

F = Fraction


# -- construction ------------------------------------------------------------


def test_stock_loss_tables():
    bin3 = make_loss("bin", labels=("0", "1", "2"))
    assert bin3.table == (
        (F(0), F(1), F(1)),
        (F(1), F(0), F(1)),
        (F(1), F(1), F(0)),
    )
    nib3 = make_loss("nib", labels=("0", "1", "2"))
    assert nib3.table == (
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    )
    avg3 = make_loss("avg", labels=("0", "1", "2"))
    assert avg3.table == (
        (F(0), F(1), F(2)),
        (F(1), F(0), F(1)),
        (F(2), F(1), F(0)),
    )


def test_monotone_loss_reproduces_guess_table():
    sp = make_metric("line", n=3, base=2)
    loss = make_loss(
        "monotone",
        space=sp,
        profile={0: 0, 1: 1, 2: 1},
        assignment={x: x for x in sp.labels},
    )
    assert loss.table == make_loss("bin", labels=sp.labels).table


def test_monotone_profile_as_pair_list():
    sp = make_metric("line", n=3, base=2)
    loss = make_loss(
        "monotone",
        space=sp,
        profile=[(0, "0"), (1, "1/2"), (2, "3/4")],
        assignment={x: x for x in sp.labels},
    )
    assert loss.table[0] == (F(0), F(1, 2), F(3, 4))


def test_monotone_loss_rejections():
    sp = make_metric("line", n=3, base=2)
    ident = {x: x for x in sp.labels}
    with pytest.raises(ValueError, match="injective"):
        make_loss("monotone", space=sp, profile={0: 0, 1: 1, 2: 2},
                  assignment={"a": "0", "b": "0"})
    with pytest.raises(ValueError, match="missing distance"):
        make_loss("monotone", space=sp, profile={0: 0, 1: 1}, assignment=ident)
    flat = make_metric("line", n=3, base=1)
    with pytest.raises(ValueError, match="base 1"):
        make_loss("monotone", space=flat, profile={0: 0}, assignment=ident)


def test_loss_validation():
    with pytest.raises(ValueError, match="integer labels"):
        make_loss("avg", labels=("a", "b"))
    with pytest.raises(ValueError, match="unknown loss kind"):
        make_loss("exotic", labels=("0",))
    with pytest.raises(ValueError, match="non-negative"):
        make_loss("custom", w_labels=("w",), x_labels=("x",), table=[["-1"]])
    with pytest.raises(ValueError, match="custom loss needs"):
        make_loss("custom", w_labels=("w",), x_labels=("x",))
    with pytest.raises(ValueError, match="duplicate action"):
        make_loss("custom", w_labels=("w", "w"), x_labels=("x",), table=[[0], [1]])


def test_loss_json_round_trip():
    loss = make_loss("avg", labels=("0", "1", "2"))
    doc = loss_to_json(loss)
    assert doc["table"][0] == ["0", "1", "2"]
    assert loss_from_json(doc) == loss


# -- combinators -------------------------------------------------------------


def test_restrict_loss_keeps_actions():
    bin3 = make_loss("bin", labels=("0", "1", "2"))
    cut = restrict_loss(bin3, ("0", "1"))
    assert cut.w_labels == ("0", "1", "2")
    assert cut.table == ((F(0), F(1)), (F(1), F(0)), (F(1), F(1)))
    with pytest.raises(ValueError):
        restrict_loss(bin3, ())


def test_extend_loss_zero_pads():
    nib2 = make_loss("nib", labels=("0", "1"))
    big = extend_loss(nib2, ("0", "1", "2"))
    assert big.x_labels == ("0", "1", "2")
    assert big.table == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    with pytest.raises(ValueError, match="drops existing"):
        extend_loss(nib2, ("0", "2"))


def test_restrict_extend_round_trip():
    rng = random.Random(5)
    loss = rand_loss(rng, ("0", "1"))
    assert restrict_loss(extend_loss(loss, ("0", "1", "2")), ("0", "1")) == loss


def test_add_losses_table():
    both = add_losses(
        make_loss("bin", labels=("0", "1")), make_loss("nib", labels=("0", "1"))
    )
    assert both.w_labels == ("0|0", "0|1", "1|0", "1|1")
    assert both.table == (
        (F(1), F(1)),
        (F(0), F(2)),
        (F(2), F(0)),
        (F(1), F(1)),
    )
    with pytest.raises(ValueError):
        add_losses(make_loss("bin", labels=("0", "1")),
                   make_loss("bin", labels=("a", "b")))


def test_scale_loss():
    bin2 = make_loss("bin", labels=("0", "1"))
    assert scale_loss(bin2, {"0": 1, "1": 1}) == bin2
    doubled = scale_loss(bin2, {"0": 2, "1": "1/2"})
    assert doubled.table == ((F(0), F(1, 2)), (F(2), F(0)))
    assert is_trivial(scale_loss(bin2, {"0": 0, "1": 0}))
    with pytest.raises(ValueError, match="missing scale"):
        scale_loss(bin2, {"0": 1})
    with pytest.raises(ValueError, match="non-negative"):
        scale_loss(bin2, {"0": -1, "1": 1})


def test_is_trivial():
    assert not is_trivial(make_loss("bin", labels=("0", "1")))
    assert is_trivial(
        make_loss("custom", w_labels=("w",), x_labels=("0", "1"), table=[[0, 0]])
    )
    dominated = make_loss(
        "custom", w_labels=("a", "b"), x_labels=("0", "1"), table=[[0, 0], [1, 2]]
    )
    assert is_trivial(dominated)


# -- classification ----------------------------------------------------------


def test_classify_guess_losses():
    line3 = make_metric("line", n=3, base=2)
    disc3 = make_metric("discrete", n=3, base=2)
    bin_l = make_loss("bin", labels=line3.labels)
    assert classify_monotone(bin_l, line3).kind == "monotone"
    assert classify_monotone(bin_l, disc3).kind == "strictly_monotone"
    assert classify_monotone(make_loss("avg", labels=line3.labels), line3).kind == (
        "strictly_monotone"
    )
    assert classify_monotone(make_loss("nib", labels=line3.labels), line3).kind == "none"


def test_classify_trivial_and_mismatch():
    line3 = make_metric("line", n=3, base=2)
    zero = make_loss(
        "custom", w_labels=("w",), x_labels=line3.labels, table=[[0, 0, 0]]
    )
    assert classify_monotone(zero, line3).kind == "trivial"
    wide = make_loss(
        "custom",
        w_labels=("a", "b", "c", "d"),
        x_labels=line3.labels,
        table=[[0, 1, 2], [1, 0, 1], [2, 1, 0], [1, 1, 0]],
    )
    got = classify_monotone(wide, line3)
    assert got.kind == "none" and "more actions" in got.note
    with pytest.raises(ValueError):
        classify_monotone(make_loss("bin", labels=("a", "b", "c")), line3)


def test_classify_random_monotone_profiles():
    rng = random.Random(13)
    sp = make_metric("line", n=4, base=2)
    ident = {x: x for x in sp.labels}
    for _ in range(10):
        profile = rand_monotone_profile(rng, range(4))
        loss = make_loss("monotone", space=sp, profile=profile, assignment=ident)
        assert classify_monotone(loss, sp).kind in (
            "trivial", "monotone", "strictly_monotone"
        )
    strict = make_loss(
        "monotone",
        space=sp,
        profile=rand_monotone_profile(rng, range(4), strict=True),
        assignment=ident,
    )
    assert classify_monotone(strict, sp).kind == "strictly_monotone"


# -- verdicts ----------------------------------------------------------------


def test_binary_mechanism_is_universally_optimal():
    rng = random.Random(31)
    sp, _, kernels = space_and_kernels("line", 2)
    ch = binary_optimal(sp)
    for _ in range(6):
        loss = rand_loss(rng, sp.labels)
        assert check_universal_l_optimal(ch, loss, kernels).kind == "optimal"


def test_geometric_optimal_for_guessing_on_the_line():
    _, _, kernels = space_and_kernels("line", 3)
    ch = geometric_truncated(3, "1/2")
    loss = make_loss("bin", labels=ch.x_labels)
    assert check_universal_l_optimal(ch, loss, kernels).kind == "optimal"


def test_response_channel_counterexample_is_self_certifying():
    sp, _, kernels = space_and_kernels("discrete", 3)
    ch = random_response(3, "1/2")
    loss = make_loss("bin", labels=sp.labels)
    v = check_universal_l_optimal(ch, loss, kernels)
    assert v.kind == "counterexample"
    assert v.margin > 0
    assert v.rival in kernels
    rival_ch, _ = from_hyper(v.rival)
    mine = posterior_uncertainty(loss, v.prior, ch)
    theirs = posterior_uncertainty(loss, v.prior, rival_ch)
    assert mine - theirs == v.margin


def test_exact_counterexample_is_deterministic():
    sp, _, kernels = space_and_kernels("discrete", 3)
    ch = random_response(3, "1/2")
    loss = make_loss("bin", labels=sp.labels)
    a = check_universal_l_optimal(ch, loss, kernels)
    b = check_universal_l_optimal(ch, loss, tuple(reversed(kernels)))
    assert (a.prior, a.rival, a.margin) == (b.prior, b.rival, b.margin)


def test_sampled_mode_never_says_optimal():
    _, _, kernels = space_and_kernels("line", 3)
    ch = geometric_truncated(3, "1/2")
    loss = make_loss("bin", labels=ch.x_labels)
    v = check_universal_l_optimal(ch, loss, kernels, mode="sampled")
    assert v.kind == "unknown"
    assert "cannot certify" in v.detail


def test_sampled_mode_finds_counterexamples():
    sp, _, kernels = space_and_kernels("discrete", 3)
    ch = random_response(3, "1/2")
    loss = make_loss("bin", labels=sp.labels)
    v = check_universal_l_optimal(ch, loss, kernels, mode="sampled")
    assert v.kind == "counterexample"
    rival_ch, _ = from_hyper(v.rival)
    assert posterior_uncertainty(loss, v.prior, ch) - posterior_uncertainty(
        loss, v.prior, rival_ch
    ) == v.margin
    again = check_universal_l_optimal(ch, loss, kernels, mode="sampled")
    assert (again.prior, again.rival, again.margin) == (v.prior, v.rival, v.margin)


def test_sampled_mode_with_no_random_priors():
    _, _, kernels = space_and_kernels("line", 3)
    ch = geometric_truncated(3, "1/2")
    loss = make_loss("bin", labels=ch.x_labels)
    v = check_universal_l_optimal(ch, loss, kernels, mode="sampled", samples=0)
    assert v.kind == "unknown"
    assert v.detail.startswith(f"sampled 4 priors against {len(kernels)} kernels")


def test_negative_samples_are_refused_before_rivals_are_built(monkeypatch):
    _, _, kernels = space_and_kernels("line", 3)
    ch = geometric_truncated(3, "1/2")
    loss = make_loss("bin", labels=ch.x_labels)

    def no_rivals(hyper):
        raise AssertionError("a rival was built")

    monkeypatch.setattr(optimality, "from_hyper", no_rivals)
    for mode in ("sampled", "exact"):
        with pytest.raises(ValueError, match="samples"):
            check_universal_l_optimal(ch, loss, kernels, mode=mode, samples=-1)


def test_negative_budget_is_refused_before_rivals_are_built(monkeypatch):
    _, _, kernels = space_and_kernels("line", 3)
    ch = geometric_truncated(3, "1/2")
    loss = make_loss("bin", labels=ch.x_labels)
    assert check_universal_l_optimal(ch, loss, kernels, budget=0).kind == "unknown"

    def no_rivals(hyper):
        raise AssertionError("a rival was built")

    monkeypatch.setattr(optimality, "from_hyper", no_rivals)
    for mode in ("sampled", "exact"):
        with pytest.raises(ValueError, match="budget"):
            check_universal_l_optimal(ch, loss, kernels, mode=mode, budget=-3)


def _count_cells(monkeypatch):
    """Record, for every cell LP the verdict solves, whether it was
    infeasible."""
    real, log = optimality.lp_optimize, []

    def counting(problem):
        res = real(problem)
        log.append(res is LP_INFEASIBLE)
        return res

    monkeypatch.setattr(optimality, "lp_optimize", counting)
    return log


@pytest.mark.parametrize(
    "kind,n,cells", [("discrete", 4, 476), ("line", 4, 148), ("hamming", 2, 36)]
)
def test_min_pair_cell_counts_are_pinned(monkeypatch, kind, n, cells):
    sp, _, kernels = space_and_kernels(kind, n)
    ch, loss = min_pair_mechanism(sp)
    log = _count_cells(monkeypatch)
    assert check_universal_l_optimal(ch, loss, kernels).kind == "optimal"
    assert (len(log), sum(log)) == (cells, 0)


def test_infeasible_cell_count_is_pinned(monkeypatch):
    sp, _, kernels = space_and_kernels("discrete", 3)
    log = _count_cells(monkeypatch)
    v = check_universal_l_optimal(
        random_response(3, "1/2"), make_loss("bin", labels=sp.labels), kernels
    )
    assert v.kind == "counterexample"
    assert (len(log), sum(log)) == (31, 18)


def test_budget_refusal_is_explicit():
    sp, _, kernels = space_and_kernels("discrete", 3)
    ch = random_response(3, "1/2")
    loss = make_loss("bin", labels=sp.labels)
    v = check_universal_l_optimal(ch, loss, kernels, budget=1)
    assert v.kind == "unknown"
    assert "budget" in v.detail


def test_verdict_argument_validation():
    sp, _, kernels = space_and_kernels("line", 3)
    ch = geometric_truncated(3, "1/2")
    with pytest.raises(ValueError):
        check_universal_l_optimal(ch, make_loss("bin", labels=("a", "b", "c")), kernels)
    with pytest.raises(ValueError):
        check_universal_l_optimal(
            ch, make_loss("bin", labels=ch.x_labels), kernels, mode="guess"
        )


# -- sampled mode against the Fraction oracle ---------------------------------


def _verdict_fields(v):
    probs = None if v.prior is None else v.prior.probs
    return v.kind, probs, v.rival, v.margin, v.detail


def _with_zero_column(ch):
    return Channel(
        ch.x_labels,
        ch.y_labels + ("never",),
        tuple(row + (F(0),) for row in ch.rows),
    )


def _with_zero_row(loss):
    return make_loss(
        "custom",
        w_labels=loss.w_labels + ("free",),
        x_labels=loss.x_labels,
        table=list(loss.table) + [[0] * len(loss.x_labels)],
    )


@pytest.mark.parametrize(
    "kind,n", [("line", 3), ("line", 4), ("discrete", 3), ("hamming", 2)]
)
def test_sampled_verdicts_match_the_fraction_loop(kind, n):
    rng = random.Random(f"{kind}-{n}")
    sp, _, kernels = space_and_kernels(kind, n)
    first, last = from_hyper(kernels[0])[0], from_hyper(kernels[-1])[0]
    channels = [
        first,
        last,
        trivial_channel(sp.labels),
        external_choice(first, last, "1/3"),
        rand_dx_channel(rng, sp, kernels),
        _with_zero_column(rand_dx_channel(rng, sp, kernels)),
    ]
    losses = [
        make_loss("bin", labels=sp.labels),
        rand_loss(rng, sp.labels),
        _with_zero_row(rand_loss(rng, sp.labels)),
    ]
    kinds = set()
    for i, (ch, loss) in enumerate(itertools.product(channels, losses)):
        samples, seed = (0 if i % 4 == 0 else 12), rng.randrange(100)
        got = check_universal_l_optimal(
            ch, loss, kernels, mode="sampled", samples=samples, seed=seed
        )
        assert _verdict_fields(got) == oracle.sampled_verdict(
            ch, loss, kernels, samples, seed
        )
        kinds.add(got.kind)
    assert kinds == {"counterexample", "unknown"}


def test_sampled_counterexample_at_a_random_prior_matches_the_fraction_loop():
    rng = random.Random(5)
    sp, _, kernels = space_and_kernels("line", 3)
    fixed = [(F(1, 3),) * 3] + [
        tuple(F(int(i == x)) for i in range(3)) for x in range(3)
    ]
    for _ in range(10):
        loss, ch = rand_loss(rng, sp.labels), rand_dx_channel(rng, sp, kernels)
        want = oracle.sampled_verdict(ch, loss, kernels, 30, 0)
        if want[0] == "counterexample" and want[1] not in fixed:
            break
    else:
        pytest.fail("no draw put the first counterexample at a random prior")
    got = check_universal_l_optimal(
        ch, loss, kernels, mode="sampled", samples=30, seed=0
    )
    assert _verdict_fields(got) == want


def test_column_actions_keep_the_undominated_first_of_equals():
    rng = random.Random(83)
    for _ in range(60):
        nx = rng.randint(1, 4)
        labels = tuple(str(x) for x in range(nx))
        # Small numerators make equal and dominated score vectors common.
        loss = rand_loss(rng, labels, actions=rng.randint(1, 6), num_max=3)
        ch = Channel(
            labels,
            tuple(f"y{j}" for j in range(3)),
            rand_stochastic_rows(rng, nx, 3),
        )
        d, columns = optimality._column_actions(
            ch, optimality._integer_rows(loss.table)
        )
        for j, (kept, vecs) in enumerate(columns):
            scores = [
                tuple(lrow[x] * ch.rows[x][j] for x in range(nx))
                for lrow in loss.table
            ]
            want = [
                w
                for w, s in enumerate(scores)
                if scores.index(s) == w
                and not any(
                    t != s and all(a <= b for a, b in zip(t, s)) for t in scores
                )
            ]
            assert kept == want
            assert vecs == [tuple(d * v for v in scores[w]) for w in kept]
            assert all(isinstance(v, int) for vec in vecs for v in vec)


# -- exact mode against the brute-force oracle --------------------------------


# (channel, loss) pairs per space.  The oracle solves every choice of n - 1
# of a cell's hyperplanes, so the 4-point spaces get the losses with few
# actions; between them the cases cover every channel and loss kind.
EXACT_CASES = {
    ("line", 3): [
        ("geometric", "bin"), ("geometric", "monotone"), ("trivial", "bin"),
        ("trivial", "zero-row"), ("kernel", "custom"), ("mixture", "avg"),
        ("mixture", "custom"), ("min-pair", "pair"), ("min-pair", "bin"),
    ],
    ("discrete", 3): [
        ("kernel", "bin"), ("kernel", "zero-row"), ("mixture", "custom"),
        ("trivial", "avg"), ("min-pair", "pair"), ("min-pair", "monotone"),
    ],
    ("line", 4): [
        ("trivial", "pair"), ("trivial", "zero-row"), ("kernel", "monotone"),
        ("mixture", "monotone"), ("min-pair", "pair"),
    ],
    ("hamming", 2): [
        ("trivial", "pair"), ("kernel", "pair"), ("kernel", "zero-row"),
        ("mixture", "monotone"), ("min-pair", "pair"),
    ],
}


def _exact_case(rng, sp, kernels, channel, loss):
    first, last = from_hyper(kernels[0])[0], from_hyper(kernels[-1])[0]
    pair_channel, pair_loss = min_pair_mechanism(sp)
    channels = {
        "geometric": lambda: geometric_truncated(sp.n, "1/2"),
        "trivial": lambda: trivial_channel(sp.labels),
        "kernel": lambda: from_hyper(rng.choice(kernels))[0],
        "mixture": lambda: external_choice(first, last, "1/3"),
        "min-pair": lambda: pair_channel,
    }
    # Monotone losses on 4 points name two actions, at the ends of the
    # space, so the oracle's cells stay small.
    ends = sp.labels if sp.n < 4 else (sp.labels[0], sp.labels[-1])
    losses = {
        "bin": lambda: make_loss("bin", labels=sp.labels),
        "avg": lambda: make_loss("avg", labels=sp.labels),
        "monotone": lambda: make_loss(
            "monotone",
            space=sp,
            assignment={w: w for w in ends},
            profile=rand_monotone_profile(rng, range(sp.n)),
        ),
        "custom": lambda: rand_loss(rng, sp.labels, actions=sp.n),
        "zero-row": lambda: _with_zero_row(rand_loss(rng, sp.labels)),
        "pair": lambda: pair_loss,
    }
    return channels[channel](), losses[loss]()


@pytest.mark.parametrize("kind,n", list(EXACT_CASES))
def test_exact_verdicts_match_the_brute_force_oracle(kind, n):
    rng = random.Random(f"exact-{kind}-{n}")
    sp, _, kernels = space_and_kernels(kind, n)
    kinds = set()
    for names in EXACT_CASES[kind, n]:
        ch, loss = _exact_case(rng, sp, kernels, *names)
        got = check_universal_l_optimal(ch, loss, kernels)
        want_kind, rival, margin, cell = oracle.exact_verdict(ch, loss, kernels)
        assert (got.kind, got.rival, got.margin) == (want_kind, rival, margin), names
        kinds.add(got.kind)
        if got.kind == "counterexample":
            # The prior is a witness: the oracle's cell holds it, and the
            # gap recomputed there is the margin.
            probs = got.prior.probs
            rows = oracle.kernel_rows(rival)
            for y, s in enumerate(cell):
                scores = [
                    sum(l * p * row[y] for l, p, row in zip(lrow, probs, rows))
                    for lrow in loss.table
                ]
                assert scores[s] == min(scores), names
            gap = oracle.uncertainty(loss.table, probs, ch.rows) - (
                oracle.uncertainty(loss.table, probs, rows)
            )
            assert gap == margin, names
    assert kinds == {"counterexample", "optimal"}


# -- sweeps ------------------------------------------------------------------


def test_sweep_line3_guess_loss():
    sp, _, kernels = space_and_kernels("line", 3)
    loss = make_loss("bin", labels=sp.labels)
    report = impossibility_sweep(sp, loss, kernels)
    kinds = [v.kind for _, v in report]
    assert kinds == ["optimal", "counterexample"]
    # canonical order: the geometric kernel sorts first
    assert report[0][0].outers == (F(7, 18), F(2, 9), F(7, 18))


def test_sweep_discrete3_no_optimal_mechanism():
    sp, _, kernels = space_and_kernels("discrete", 3)
    loss = make_loss("bin", labels=sp.labels)
    report = impossibility_sweep(sp, loss, kernels)
    assert len(report) == 5
    assert all(v.kind == "counterexample" for _, v in report)


def test_sweep_trivial_loss_all_optimal():
    sp, _, kernels = space_and_kernels("discrete", 3)
    zero = make_loss(
        "custom", w_labels=("w",), x_labels=sp.labels, table=[[0, 0, 0]]
    )
    assert all(v.kind == "optimal" for _, v in impossibility_sweep(sp, zero, kernels))


def test_sweep_enumerates_kernels_when_omitted():
    sp, _, kernels = space_and_kernels("line", 3)
    loss = make_loss("bin", labels=sp.labels)
    assert impossibility_sweep(sp, loss) == impossibility_sweep(sp, loss, kernels)


# -- the pair construction ---------------------------------------------------


def test_min_pair_mechanism_discrete3():
    sp, _, kernels = space_and_kernels("discrete", 3)
    ch, loss = min_pair_mechanism(sp)
    assert to_hyper(ch, uniform_prior(sp.labels)) == Hyper(
        sp.labels,
        (F(4, 9), F(5, 9)),
        ((F(1, 2), F(1, 4), F(1, 4)), (F(1, 5), F(2, 5), F(2, 5))),
    )
    assert loss.w_labels == ("0", "1")
    assert loss.table == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    assert check_universal_l_optimal(ch, loss, kernels).kind == "optimal"


def test_min_pair_mechanism_line3():
    sp, _, kernels = space_and_kernels("line", 3)
    ch, loss = min_pair_mechanism(sp)
    v = check_universal_l_optimal(ch, loss, kernels)
    assert v.kind == "optimal"
    with pytest.raises(ValueError):
        min_pair_mechanism(make_metric("line", n=1, base=2))


# -- duality laws ------------------------------------------------------------


def test_law_trivial_losses_make_everything_optimal():
    rng = random.Random(67)
    sp, _, kernels = space_and_kernels("line", 3)
    for _ in range(5):
        base = rand_loss(rng, sp.labels)
        trivial = make_loss(
            "custom",
            w_labels=base.w_labels + ("free",),
            x_labels=sp.labels,
            table=list(base.table) + [[0] * 3],
        )
        assert is_trivial(trivial)
        ch = rand_dx_channel(rng, sp, kernels)
        assert check_universal_l_optimal(ch, trivial, kernels).kind == "optimal"


def test_law_trivial_channel_optimal_only_for_trivial_losses():
    rng = random.Random(71)
    sp, _, kernels = space_and_kernels("line", 3)
    triv = trivial_channel(sp.labels)
    for loss in (
        make_loss("bin", labels=sp.labels),
        make_loss("nib", labels=sp.labels),
        make_loss("avg", labels=sp.labels),
    ):
        assert check_universal_l_optimal(triv, loss, kernels).kind == "counterexample"
    zero = make_loss("custom", w_labels=("w",), x_labels=sp.labels, table=[[0, 0, 0]])
    assert check_universal_l_optimal(triv, zero, kernels).kind == "optimal"


def test_law_mixtures_preserve_and_lose_optimality():
    sp, _, kernels = space_and_kernels("line", 3)
    loss = make_loss("bin", labels=sp.labels)
    geo = geometric_truncated(3, "1/2")
    other, _ = from_hyper(kernels[1])
    assert check_universal_l_optimal(geo, loss, kernels).kind == "optimal"
    assert check_universal_l_optimal(other, loss, kernels).kind == "counterexample"
    both_good = external_choice(geo, geo, "1/2")
    assert check_universal_l_optimal(both_good, loss, kernels).kind == "optimal"
    tainted = external_choice(geo, other, "1/2")
    assert check_universal_l_optimal(tainted, loss, kernels).kind == "counterexample"


def test_law_restriction_matches_extension():
    full_sp, _, full_kernels = space_and_kernels("line", 3)
    keep = ("0", "1")
    small_sp = restrict_space(full_sp, keep)
    from mdp_workbench import build_constraints, enumerate_kernels, enumerate_vertices

    small_kernels = enumerate_kernels(
        small_sp, enumerate_vertices(build_constraints(small_sp))
    )
    small_loss = make_loss("bin", labels=keep)
    lifted = extend_loss(small_loss, full_sp.labels)
    for mech in (
        geometric_truncated(3, "1/2"),
        from_hyper(full_kernels[1])[0],
        trivial_channel(full_sp.labels),
    ):
        small_verdict = check_universal_l_optimal(
            restrict(mech, keep), small_loss, small_kernels
        )
        full_verdict = check_universal_l_optimal(mech, lifted, full_kernels)
        assert small_verdict.kind == full_verdict.kind


# -- result checks raise even under python -O ---------------------------------


def test_unbounded_cell_is_checked(monkeypatch):
    _, _, kernels = space_and_kernels("line", 3)
    ch = geometric_truncated(3, "1/2")
    monkeypatch.setattr(optimality, "lp_optimize", lambda problem: LP_UNBOUNDED)
    with pytest.raises(AssertionError, match="unbounded"):
        check_universal_l_optimal(ch, make_loss("bin", labels=ch.x_labels), kernels)


def test_counterexample_is_re_verified(monkeypatch):
    sp, _, kernels = space_and_kernels("discrete", 3)
    real = optimality.lp_optimize

    def inflated(problem):
        res = real(problem)
        if isinstance(res, LPOptimal) and res.value > 0:
            return LPOptimal(res.value * 2, res.point)
        return res

    monkeypatch.setattr(optimality, "lp_optimize", inflated)
    loss = make_loss("bin", labels=sp.labels)
    with pytest.raises(AssertionError, match="re-verification"):
        check_universal_l_optimal(random_response(3, "1/2"), loss, kernels)


def test_sampled_counterexample_is_re_verified(monkeypatch):
    sp, _, kernels = space_and_kernels("discrete", 3)
    ch = random_response(3, "1/2")
    real = optimality.posterior_uncertainty

    def shifted(loss, prior, channel):
        # Only the candidate's value moves, so the recomputed gap differs.
        return real(loss, prior, channel) + (F(1, 1000) if channel is ch else 0)

    monkeypatch.setattr(optimality, "posterior_uncertainty", shifted)
    loss = make_loss("bin", labels=sp.labels)
    with pytest.raises(AssertionError, match="re-verification"):
        check_universal_l_optimal(ch, loss, kernels, mode="sampled")
