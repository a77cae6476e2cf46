"""Metric construction: stretch factors, tight pairs, rounding discipline."""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest

import oracle
from mdp_workbench import metrics
from mdp_workbench import (
    canonical_metric_json,
    make_metric,
    metric_from_json,
    metric_to_json,
    restrict_space,
    stretch,
    tight_pairs,
)

F = Fraction


def test_line3_stretch_and_tight_pairs():
    sp = make_metric("line", n=3, base=2)
    assert sp.stretch == (
        (F(1), F(2), F(4)),
        (F(2), F(1), F(2)),
        (F(4), F(2), F(1)),
    )
    assert tight_pairs(sp) == (("0", "1"), ("1", "2"))
    assert sp.mode == "exact"


def test_discrete3_all_pairs_tight():
    sp = make_metric("discrete", n=3, base=2)
    assert all(
        sp.stretch[i][j] == (1 if i == j else 2) for i in range(3) for j in range(3)
    )
    assert len(tight_pairs(sp)) == 3


def test_hamming3_shape():
    sp = make_metric("hamming", bits=3, base=2)
    assert len(sp.labels) == 8
    assert sp.labels[0] == "000"
    assert stretch(sp, "000", "111") == 8
    assert len(tight_pairs(sp)) == 12  # the cube's edges
    for a, b in tight_pairs(sp):
        assert sum(x != y for x, y in zip(a, b)) == 1


@pytest.mark.parametrize(
    "bits,count", [(1, 1), (2, 4), (3, 12), (4, 32)]
)
def test_hamming_tight_pair_count(bits, count):
    assert len(tight_pairs(make_metric("hamming", bits=bits, base=2))) == count


def test_stretch_accessor_examples():
    assert stretch(make_metric("line", n=4, base=2), "0", "3") == 8
    sp = make_metric("discrete", n=5, base=3)
    assert stretch(sp, "1", "4") == 3
    assert stretch(sp, "2", "2") == 1


def test_line_tight_pair_count():
    assert len(tight_pairs(make_metric("line", n=5, base=2))) == 4


def test_grid_excludes_collinear_pairs():
    sp = make_metric("grid", width=2, height=2, base=2)
    assert len(sp.labels) == 9
    pairs = tight_pairs(sp)
    assert ("0,0", "0,2") not in pairs  # (0,1) sits between
    assert ("0,0", "2,2") not in pairs  # (1,1) sits between
    assert ("0,0", "1,2") in pairs  # knight-like offsets have no midpoint
    assert len(pairs) == 28


def test_grid_irrational_stretch_rounded_to_precision():
    sp = make_metric("grid", width=1, height=1, base=2)
    assert sp.mode == "approximate"
    assert sp.precision_digits == 30
    got = stretch(sp, "0,0", "1,1")
    with mpmath.workdps(60):
        truth = mpmath.power(2, mpmath.sqrt(2))
        rel = abs(mpmath.mpf(got.numerator) / got.denominator - truth) / truth
        assert rel < mpmath.mpf(10) ** -29
    # leading digits of 2^sqrt(2)
    assert str(got.numerator / got.denominator).startswith("2.6651441")


def _stretch_specs():
    for w, h in ((1, 1), (2, 1), (2, 2), (3, 3)):
        for digits in (1, 5, 30, 60):
            for base in ("2", "3/2", "7"):
                yield "grid", dict(width=w, height=h, base=base, precision_digits=digits)
    # rational distances whose powers are irrational
    third = [[0, "1/2", "2/3"], ["1/2", 0, "1/2"], ["2/3", "1/2", 0]]
    yield "custom", dict(labels=["a", "b", "c"], distances=third, base="2", precision_digits=30)
    yield "custom", dict(distances=[[0, "5/3"], ["5/3", 0]], base="3/2", precision_digits=12)


def test_rounded_stretches_are_pinned():
    # A digest of every (mode, stretch) above as first published: a change
    # of rounding method must not move a single digit of a published table.
    digest = hashlib.sha256()
    for kind, kwargs in _stretch_specs():
        sp = make_metric(kind, **kwargs)
        digest.update(repr((sp.mode, sp.stretch)).encode())
    assert digest.hexdigest() == (
        "7b9986aac001639a7fda718fdf819494cd36a6d6502009a59c25d01be00227b9"
    )


def test_large_rational_distance_is_rounded():
    # 7**(1000/3) has 282 digits; its cube root is taken on 7, not on 7**1000.
    sp = make_metric(
        "custom", labels=["a", "b"], distances=[[0, "1000/3"], ["1000/3", 0]], base=7
    )
    assert sp.mode == "approximate"
    got = stretch(sp, "a", "b")
    with mpmath.workdps(80):
        truth = mpmath.power(7, mpmath.mpf(1000) / 3)
        rel = abs(mpmath.mpf(got.numerator) / got.denominator - truth) / truth
        assert rel < mpmath.mpf(10) ** -29


@pytest.mark.parametrize("root,k", [(3**1000, 3), (2**64 + 1, 2), (10**50 - 1, 7), (2, 1000)])
def test_int_root_is_exact_on_large_powers(root, k):
    assert metrics._int_root(root**k, k) == root
    assert metrics._int_root(root**k + 1, k) is None
    assert metrics._int_root(root**k - 1, k) is None


def test_tiny_rational_distance_is_rounded():
    # 2**(1/10**13): the root search once started Newton's method at 2 and
    # raised it to the power 10**13 - 1.  A value below 2**k other than 1
    # has no integer k-th root.
    d = F(1, 10**13)
    sp = make_metric("custom", labels=["a", "b"], distances=[[0, d], [d, 0]], base=2)
    assert sp.mode == "approximate"
    assert stretch(sp, "a", "b") == oracle.rounded_power(F(2), d, 30)
    assert metrics._int_root(2, 10**13) is None
    assert metrics._int_root(2**64 - 1, 64) is None


def test_stretch_past_the_decimal_exponent_range_is_refused():
    # 2**(10**400 / 3) has about 10**399 digits: no decimal context holds it.
    d = F(10**400, 3)
    with pytest.raises(ValueError, match="exponent range"):
        make_metric("custom", labels=["a", "b"], distances=[[0, d], [d, 0]], base=2)


def test_rounding_beyond_the_default_decimal_exponent_range():
    # 2**(10**7 / 3) is about 10**1003433, past the default context's Emax.
    d = Fraction(10**7, 3)
    got = metrics._rounded_power(F(2), d * d, 5)
    assert got == oracle.rounded_power(F(2), d, 5)


def _rounding_cases(count: int):
    rng = random.Random(20221)
    cases = []
    while len(cases) < count:
        base = F(rng.randint(2, 60), rng.randint(1, 20))
        if base <= 1:
            continue
        if rng.random() < 0.5:
            k = rng.randint(2, 400)
            if math.isqrt(k) ** 2 == k:
                continue
            d2, exponent = F(k), ("sqrt", k)
        else:
            exponent = F(rng.randint(1, 40), rng.randint(2, 9))
            if metrics._rational_power(base, exponent) is not None:
                continue
            d2 = exponent * exponent
        cases.append((base, d2, exponent, rng.randint(1, 50)))
    return cases


def test_rounding_matches_the_mpmath_oracle():
    for base, d2, exponent, digits in _rounding_cases(300):
        got, rounded = metrics._stretch(base, d2, digits)
        assert rounded
        assert got == oracle.rounded_power(base, exponent, digits), (base, exponent, digits)


def test_certification_retries_until_both_ends_agree(monkeypatch):
    cases = _rounding_cases(20)
    want = [metrics._rounded_power(base, d2, digits) for base, d2, _, digits in cases]
    precisions = []
    real = metrics.localcontext

    def counting(ctx):
        precisions.append(ctx.prec)
        return real(ctx)

    monkeypatch.setattr(metrics, "_GUARD_DIGITS", 1)
    monkeypatch.setattr(metrics, "localcontext", counting)
    got = [metrics._rounded_power(base, d2, digits) for base, d2, _, digits in cases]
    assert got == want
    assert len(precisions) > len(cases)  # at least one retry
    assert precisions[0] == cases[0][3] + 1


def test_grid_needs_positive_dimensions():
    # Any true grid holds a unit diagonal, so grids are always approximate;
    # degenerate one-row "grids" are rejected rather than special-cased.
    with pytest.raises(ValueError):
        make_metric("grid", width=0, height=3, base=2)
    assert make_metric("grid", width=1, height=2, base=2).mode == "approximate"


def test_implied_pairs_have_exact_chains():
    for sp in (
        make_metric("line", n=5, base=2),
        make_metric("hamming", bits=3, base=2),
    ):
        tight = set(sp.tight_pairs)
        for i in range(sp.n):
            for j in range(i + 1, sp.n):
                if (i, j) in tight:
                    continue
                assert any(
                    k not in (i, j)
                    and sp.stretch[i][k] * sp.stretch[k][j] == sp.stretch[i][j]
                    for k in range(sp.n)
                )


def test_base_below_one_rejected():
    with pytest.raises(ValueError):
        make_metric("line", n=3, base="1/2")


def test_base_one_collapses_stretch():
    sp = make_metric("discrete", n=4, base=1)
    assert all(v == 1 for row in sp.stretch for v in row)


def test_unknown_label_rejected():
    sp = make_metric("line", n=3, base=2)
    with pytest.raises(KeyError):
        stretch(sp, "0", "7")


def test_custom_metric_round_trip():
    sp = make_metric(
        "custom",
        labels=["a", "b", "c"],
        distances=[[0, 1, 1], [1, 0, 2], [1, 2, 0]],
        base=3,
    )
    assert stretch(sp, "b", "c") == 9
    assert tight_pairs(sp) == (("a", "b"), ("a", "c"))  # b-c is chained via a


def test_custom_metric_violations_name_the_offenders():
    with pytest.raises(ValueError, match="symmetr"):
        make_metric(
            "custom",
            labels=["a", "b"],
            distances=[[0, 1], [2, 0]],
            base=2,
        )
    with pytest.raises(ValueError, match="triangle"):
        make_metric(
            "custom",
            labels=["a", "b", "c"],
            distances=[[0, 1, 5], [1, 0, 1], [5, 1, 0]],
            base=2,
        )
    with pytest.raises(ValueError, match="diagonal"):
        make_metric(
            "custom",
            labels=["a", "b"],
            distances=[[1, 1], [1, 0]],
            base=2,
        )


def test_metric_json_round_trip():
    for sp in (
        make_metric("line", n=4, base=2),
        make_metric("discrete", n=3, base="3/2"),
        make_metric("hamming", bits=2, base=2),
        make_metric("grid", width=2, height=1, base=2),
        make_metric(
            "custom",
            labels=["a", "b"],
            distances=[[0, 2], [2, 0]],
            base=2,
        ),
    ):
        again = metric_from_json(metric_to_json(sp))
        assert again == sp
        assert canonical_metric_json(again) == canonical_metric_json(sp)


def test_canonical_json_is_compact_and_sorted():
    text = canonical_metric_json(make_metric("line", n=3, base=2))
    assert text == '{"base":"2","kind":"line","n":3,"precision_digits":30}'


def test_restrict_space_reprunes_pairs():
    sp = make_metric("line", n=4, base=2)
    sub = restrict_space(sp, ["0", "1", "3"])
    assert sub.labels == ("0", "1", "3")
    assert stretch(sub, "0", "3") == 8
    # 0-3 factors exactly through 1 (2 * 4 = 8), so only two pairs remain.
    assert tight_pairs(sub) == (("0", "1"), ("1", "3"))


def test_restrict_space_without_distances_does_not_serialise():
    sp = make_metric("line", n=3, base=2)
    sub = restrict_space(sp, ["0", "2"])
    with pytest.raises(ValueError):
        metric_to_json(sub)


def test_grid_labels_row_major():
    sp = make_metric("grid", width=2, height=1, base=2)
    assert sp.labels == ("0,0", "0,1", "0,2", "1,0", "1,1", "1,2")
