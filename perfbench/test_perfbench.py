"""Tests for the benchmark itself: generator, checker and span arithmetic.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import mdp_workbench as wb
from mdp_workbench import optimality

from perfbench import checks, inputs, jobs, run, spans


@pytest.fixture(scope="module")
def kernels():
    """Plain kernels for every space a deck draws channels from."""
    out = {}
    specs = {**inputs.VERDICT_SPACES, **inputs.ANTI_REFINE_SPACES, **inputs.CLI_SPACES}
    for key, spec in specs.items():
        space = jobs._make_space(spec)
        found = wb.enumerate_kernels(space, wb.enumerate_vertices(wb.build_constraints(space)))
        out[key] = tuple(jobs._plain(k) for k in found)
    return out


def _enum_answer(spec):
    return jobs.run_enum({"spec": spec, "kernels": True}, None)


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, kernels):
    first = inputs.cycle_jobs(workload, 3, 1, kernels)
    assert first == inputs.cycle_jobs(workload, 3, 1, kernels)
    other = inputs.cycle_jobs(workload, 4, 1, kernels)
    assert other != first
    # The seed changes parameters and order, never the job-type shares.
    assert Counter(j.label for j in other) == Counter(j.label for j in first)


def test_cli_misses_precede_their_hits(kernels):
    for seed in range(5):
        jobs_ = inputs.cycle_jobs("cli-cached", seed, 0, kernels)
        for i, job in enumerate(jobs_):
            if job.label in ("cli kernels hit", "cli vertices hit"):
                miss = [k for k, j in enumerate(jobs_)
                        if j.label == "cli kernels miss" and j.args["metric"] == job.args["metric"]]
                assert miss and miss[0] < i


def test_custom_metrics_are_rigid_metrics():
    rng = inputs.cycle_rng("test", 0, 0)
    for n in (6, 7, 8):
        dist = inputs.custom_with_tight(rng, n, 1, n, rigid=True)
        assert len(inputs.tight_pairs(dist)) == n
        assert len({tuple(sorted(row)) for row in dist}) == n
        for i in range(n):
            for j in range(n):
                assert all(dist[i][j] <= dist[i][k] + dist[k][j] for k in range(n))


def test_generated_channels_are_private(kernels):
    rng = inputs.cycle_rng("test", 1, 0)
    for key in ("line4", "discrete4"):
        space = checks.Space(inputs.ANTI_REFINE_SPACES[key])
        for _ in range(5):
            assert space.private(inputs.private_channel(rng, kernels[key], 4))


# -- checker -----------------------------------------------------------------


def test_checker_accepts_true_enumerations():
    for spec in (inputs.line(3), inputs.grid(1, 1), inputs.custom([[0, 1, 3], [1, 0, 2], [3, 2, 0]])):
        vertices, kern = _enum_answer(spec)
        assert checks.check_vertices(spec, vertices) is None
        assert checks.check_kernels(spec, kern) is None


@pytest.mark.parametrize("spec", [
    inputs.line(4),
    inputs.custom([[0, 1, 3, 2], [1, 0, 2, 1], [3, 2, 0, 1], [2, 1, 1, 0]]),
])
def test_checker_flags_off_by_one_counts(spec):
    vertices, kern = _enum_answer(spec)
    assert checks.check_vertices(spec, vertices[:-1]) is not None
    assert checks.check_kernels(spec, kern[:-1]) is not None
    assert checks.check_kernels(spec, kern + kern[:1]) is not None


def test_checker_flags_perturbed_capacities():
    for spec in (inputs.line(4), inputs.grid(1, 1), inputs.custom(
            inputs.custom_with_tight(inputs.cycle_rng("test", 2, 0), 6, 1, 6, rigid=True))):
        answer = jobs.run_capacity({"spec": spec}, None)
        assert checks.check_capacity(spec, answer) is None
        for mode in ("mult", "add"):
            value, witness, closed = answer[mode]
            bad = dict(answer)
            bad[mode] = (value + Fraction(1, 50), witness, closed)
            assert checks.check_capacity(spec, bad) is not None


def test_checker_flags_capacity_far_from_published():
    # A consistent value/witness pair that is simply not the optimum: the
    # trivial channel scores 1 (mult) and 0 (add), far below the table.
    spec = inputs.grid(1, 1)
    trivial = tuple((Fraction(1),) + (Fraction(0),) * 3 for _ in range(4))
    assert checks.check_capacity(spec, {"mult": (Fraction(1), trivial, None)}) is not None


def test_own_vertex_lp_matches_closed_forms():
    for spec in (inputs.line(4), inputs.discrete(4), inputs.line(3, "3/2")):
        space = checks.Space(spec)
        for mode in ("mult", "add"):
            assert checks.own_capacity(space, mode) == checks.closed_form(spec, mode)


def test_checker_flags_private_but_suboptimal_witness():
    # No closed form and no published row: only the own vertex LP can tell
    # a private, correctly scored, suboptimal witness from the optimum.
    spec = inputs.custom(
        inputs.custom_with_tight(inputs.cycle_rng("test", 4, 0), 7, 0, 6, rigid=True))
    answer = jobs.run_capacity({"spec": spec}, None)
    assert checks.check_capacity(spec, answer) is None
    space = checks.Space(spec)
    for mode, score in (("mult", checks.mult_score), ("add", checks.add_score)):
        _, witness, closed = answer[mode]
        k = len(witness[0])
        blurred = tuple(tuple((v + Fraction(1, k)) / 2 for v in row) for row in witness)
        assert space.private(blurred)
        assert checks.check_capacity(spec, {mode: (score(blurred), blurred, closed)}) is not None


def test_check_dp_needs_every_violation(kernels):
    spec = inputs.line(4)
    rng = inputs.cycle_rng("test", 5, 0)
    rows = inputs._break_privacy(rng, inputs.private_channel(rng, kernels["line4"], 3))
    labels = jobs._make_space(spec).labels
    ctx = SimpleNamespace(own_space=checks.Space, specs={"line4": spec},
                          spaces={"line4": SimpleNamespace(labels=labels)})
    own = sorted(checks.violations(checks.Space(spec), rows))
    assert own

    def answer(found):
        return 1, json.dumps({"ok": False, "violations": [
            {"x": labels[i], "x_prime": labels[j], "y": f"y{y}"} for i, j, y in found]})

    job = {"cmd": "check-dp", "space": "line4", "channel": rows}
    assert jobs.check_cli(job, answer(own), ctx) is None
    assert jobs.check_cli(job, answer(own[:-1]), ctx) is not None
    assert jobs.check_cli(job, answer(own + own[:1]), ctx) is not None


def _verdict(channel, table, kern, mode="exact"):
    labels = inputs.labels(len(channel))
    loss = optimality.make_loss("custom", w_labels=labels, x_labels=labels, table=table)
    hypers = [wb.Hyper(labels, o, i) for o, i in kern]
    v = optimality.check_universal_l_optimal(jobs._channel(labels, channel), loss, hypers, mode=mode)
    return jobs._verdict_data(v)


def test_checker_flags_flipped_verdicts(kernels):
    kern = kernels["line3"]
    battery = checks.prior_battery(inputs.cycle_rng("battery", 0, 0), 3)
    geo, triv = inputs.geometric_rows(3), inputs.trivial_rows(3)
    _, table = inputs.bin_loss(3)

    def check(rows, verdict, expect=None):
        return checks.check_verdict(rows, table, kern, verdict, mode="exact",
                                    expect=expect, battery=battery)

    optimal = _verdict(geo, table, kern)
    counter = _verdict(triv, table, kern)
    assert optimal[0] == "optimal" and counter[0] == "counterexample"
    assert check(geo, optimal, "optimal") is None
    assert check(triv, counter, "counterexample") is None
    # Flips: an 'optimal' claim the battery refutes, a counterexample whose
    # margin does not recompute, and answers contradicting a known verdict.
    assert check(triv, ("optimal", None, None, None)) is not None
    kind, prior, rival, margin = counter
    assert check(triv, (kind, prior, rival, margin + 1)) is not None
    assert check(geo, (kind, prior, rival, margin)) is not None
    assert check(geo, counter, "optimal") is not None
    assert check(triv, ("unknown", None, None, None)) is not None


def test_checker_flags_bad_refinements():
    rng = inputs.cycle_rng("test", 3, 0)
    b = inputs.rand_stochastic(rng, 4, 6)
    a = inputs.mat_mul(b, inputs.rand_stochastic(rng, 6, 6))
    witness = jobs.run_refines({"b": b, "a": a}, None)
    assert checks.check_refines(b, a, witness, True) is None
    assert checks.check_refines(b, a, None, True) is not None
    broken = [list(r) for r in witness]
    broken[0][0], broken[0][1] = broken[0][1], broken[0][0]
    if broken != [list(r) for r in witness]:
        assert checks.check_refines(b, a, broken, True) is not None
    # A refusal certified by rank, and one that is not.
    merged = inputs.mat_mul(a, tuple(inputs.rand_stochastic(rng, 1, 6) * 6))
    assert checks.check_refines(merged, a, None, False) is None
    assert checks.check_refines(a, a, None, False) is not None


def test_own_grid_rounding_matches_the_program():
    space = jobs._make_space(inputs.grid(2, 2))
    own = checks.Space(inputs.grid(2, 2))
    assert [list(r) for r in space.stretch] == own.stretch


# -- run ---------------------------------------------------------------------


def test_hd_quantile():
    assert run.hd_quantile([5.0] * 30, 0.9) == pytest.approx(5.0)
    assert run.hd_quantile(list(range(1, 100)), 0.5) == pytest.approx(50, abs=0.5)
    # Two tiers with the 0.9 point between them: the estimate lies between.
    two_tiers = [1.0] * 91 + [100.0] * 9
    assert 1.0 < run.hd_quantile(two_tiers, 0.9) < 100.0


# -- spans -------------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    tree = [
        spans.Span(0, None, "root", 0, 0, 100),
        spans.Span(1, 0, "a", 0, 10, 40),
        spans.Span(2, 0, "b", 0, 30, 60),  # overlaps a: counted once
        spans.Span(3, 1, "a.child", 0, 15, 20),
        spans.Span(4, 0, "late", 0, 90, 130),  # clipped to the root's end
        spans.Span(5, None, "other root", 1, 200, 210),
    ]
    assert spans.self_times(tree) == [100 - 50 - 10, 30 - 5, 30, 5, 40, 10]


def test_recorder_wraps_and_restores(kernels):
    original = optimality.lp_optimize
    recorder = spans.Recorder()
    restore = recorder.install()
    try:
        assert optimality.lp_optimize is not original
        recorder.job = 7
        _verdict(inputs.geometric_rows(3), inputs.bin_loss(3)[1], kernels["line3"])
    finally:
        restore()
    assert optimality.lp_optimize is original
    names = Counter(s.name for s in recorder.spans)
    assert names["optimality.check_universal_l_optimal"] == 1
    assert names["exact.lp_optimize"] > 0
    top = next(s for s in recorder.spans if s.name == "optimality.check_universal_l_optimal")
    assert all(s.job == 7 for s in recorder.spans)
    assert all(s.parent == top.sid for s in recorder.spans if s.name == "exact.lp_optimize")
    metrics = spans.layer_metrics(recorder.spans, jobs=1)
    assert metrics["optimality.cells_per_job"] == names["exact.lp_optimize"]


def test_benchmark_json_lists_every_layer_metric():
    config = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["per_layer"]] == list(spans.LAYER_METRICS)
    for m in config["per_layer"]:
        unit, better = spans.LAYER_METRICS[m["name"]][:2]
        assert (m["unit"], m["better"]) == (unit, better)
    assert [w["name"] for w in config["workloads"]] == list(inputs.WORKLOADS)
    emitted = set(spans.layer_metrics([], jobs=1)) | {n for n in spans.LAYER_METRICS if n.startswith("trace.")}
    assert emitted == set(spans.LAYER_METRICS)
