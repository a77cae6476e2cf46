"""End-to-end command-line checks, driven through ``main(argv)``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mdp_workbench
from mdp_workbench import (
    channel_to_json,
    geometric_truncated,
    loss_to_json,
    make_loss,
    prior_to_json,
    random_response,
    trivial_channel,
    uniform_prior,
    Channel,
    Prior,
)
from mdp_workbench import cli
from mdp_workbench.cli import main

F = Fraction


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MDP_CACHE_DIR", str(tmp_path / "cache"))


def _write(tmp_path, name, obj) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _metric(tmp_path, **fields) -> str:
    return _write(tmp_path, f"metric-{fields.get('kind')}.json", fields)


def _channel(tmp_path, name, ch) -> str:
    return _write(tmp_path, name, channel_to_json(ch))


# -- vertices / kernels ------------------------------------------------------


def test_vertices_text(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    assert main(["vertices", "--metric", m]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "4 vertices"
    assert "(1/7, 2/7, 4/7)" in out
    assert "(4/7, 2/7, 1/7)" in out


def test_vertices_json_and_csv(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    assert main(["vertices", "--metric", m, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 4
    assert doc["labels"] == ["0", "1", "2"]
    assert ["1/4", "1/2", "1/4"] in doc["vertices"]
    assert main(["vertices", "--metric", m, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0,1,2"
    assert "1/4,1/2,1/4" in lines


def test_vertices_out_file(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    target = tmp_path / "verts.csv"
    assert main(["vertices", "--metric", m, "--format", "csv", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("0,1,2\n")
    assert "\r" not in text


def test_vertices_budget_exit_code(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    assert main(["vertices", "--metric", m, "--limit", "3"]) == 3
    err = capsys.readouterr().err
    assert "raise the limit" in err


def test_kernels_text(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    assert main(["kernels", "--metric", m]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "2 kernel mechanisms"
    assert "7/18 * (1/7, 2/7, 4/7)" in out
    assert "5/9 * (2/5, 1/5, 2/5)" in out


def test_kernels_json(tmp_path, capsys):
    m = _metric(tmp_path, kind="discrete", n=3, base="2")
    assert main(["kernels", "--metric", m, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 5
    assert {"outers": ["5/9", "4/9"],
            "inners": [["1/5", "2/5", "2/5"], ["1/2", "1/4", "1/4"]]} in doc["kernels"]


def test_large_rational_distance_exits_zero(tmp_path, capsys):
    # 7**(1000/3) once overflowed a float in the exact-root search.
    m = _metric(tmp_path, kind="custom", base="7", labels=["a", "b"],
                distances=[["0", "1000/3"], ["1000/3", "0"]])
    assert main(["vertices", "--metric", m, "--no-cache"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "2 vertices"


def test_tiny_rational_distance_exits_zero(tmp_path, capsys):
    # 2**(1/10**13) once hung the exact-root search.
    m = _metric(tmp_path, kind="custom", base="2", labels=["a", "b"],
                distances=[["0", "1/10000000000000"], ["1/10000000000000", "0"]])
    assert main(["vertices", "--metric", m, "--no-cache"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "2 vertices"


def test_stretch_past_the_decimal_range_exits_two(tmp_path, capsys):
    # 2**(10**400 / 3) once escaped as a decimal.Overflow traceback.
    d = "1" + "0" * 400 + "/3"
    m = _metric(tmp_path, kind="custom", base="2", labels=["a", "b"],
                distances=[["0", d], [d, "0"]])
    assert main(["vertices", "--metric", m, "--no-cache"]) == 2
    assert "exponent range" in capsys.readouterr().err


def test_only_the_chosen_format_is_built(tmp_path, capsys, monkeypatch):
    def unused(*args):
        raise AssertionError("built output for a format not asked for")

    m = _metric(tmp_path, kind="line", n=3, base="2")
    monkeypatch.setattr(cli, "_hyper_lines", unused)
    monkeypatch.setattr(cli, "_fracs", unused)
    assert main(["kernels", "--metric", m, "--format", "csv"]) == 0
    assert main(["vertices", "--metric", m, "--format", "csv"]) == 0
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_csv_text", unused)
    assert main(["kernels", "--metric", m]) == 0
    assert main(["vertices", "--metric", m]) == 0


# -- privacy checking --------------------------------------------------------


def test_check_dp_ok(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    c = _channel(tmp_path, "geo.json", geometric_truncated(3, "1/2"))
    assert main(["check-dp", "--channel", c, "--metric", m]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_check_dp_violation(tmp_path, capsys):
    m = _metric(tmp_path, kind="discrete", n=2, base="2")
    ident = Channel(("0", "1"), ("y0", "y1"), ((F(1), F(0)), (F(0), F(1))))
    c = _channel(tmp_path, "ident.json", ident)
    assert main(["check-dp", "--channel", c, "--metric", m]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "violations:"
    assert "ratio=inf" in out
    assert "allowed=2" in out


def test_check_dp_json_violation(tmp_path, capsys):
    m = _metric(tmp_path, kind="discrete", n=2, base="2")
    ident = Channel(("0", "1"), ("y0", "y1"), ((F(1), F(0)), (F(0), F(1))))
    c = _channel(tmp_path, "ident.json", ident)
    assert main(["check-dp", "--channel", c, "--metric", m, "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["violations"][0]["ratio"] is None


# -- hypers and refinement ---------------------------------------------------


def test_to_hyper_default_uniform(tmp_path, capsys):
    c = _channel(tmp_path, "geo.json", geometric_truncated(3, "1/2"))
    assert main(["to-hyper", "--channel", c]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "7/18 * (1/7, 2/7, 4/7)"
    assert out[1] == "2/9 * (1/4, 1/2, 1/4)"
    assert out[2] == "7/18 * (4/7, 2/7, 1/7)"


def test_to_hyper_explicit_prior(tmp_path, capsys):
    c = _channel(tmp_path, "triv.json", trivial_channel(("0", "1", "2")))
    p = _write(tmp_path, "prior.json",
               prior_to_json(Prior(("0", "1", "2"), (F(1, 2), F(1, 4), F(1, 4)))))
    assert main(["to-hyper", "--channel", c, "--prior", p]) == 0
    assert capsys.readouterr().out == "1 * (1/2, 1/4, 1/4)\n"


def test_refines_yes_and_no(tmp_path, capsys):
    geo = geometric_truncated(3, "1/2")
    b = _channel(tmp_path, "b.json", geo)
    a = _channel(tmp_path, "a.json", trivial_channel(geo.x_labels))
    assert main(["refines", "--b", b, "--a", a]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "Yes"
    assert main(["refines", "--b", a, "--a", b]) == 1
    assert capsys.readouterr().out == "No\n"


def test_refines_json_witness(tmp_path, capsys):
    geo = geometric_truncated(3, "1/2")
    b = _channel(tmp_path, "b.json", geo)
    a = _channel(tmp_path, "a.json", trivial_channel(geo.x_labels))
    assert main(["refines", "--b", b, "--a", a, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["refines"] is True
    assert doc["witness"]["rows"] == [["1"], ["1"], ["1"]]


# -- utility and capacities --------------------------------------------------


def test_utility_lines(tmp_path, capsys):
    c = _channel(tmp_path, "geo.json", geometric_truncated(3, "1/2"))
    l = _write(tmp_path, "bin.json", loss_to_json(make_loss("bin", labels=("0", "1", "2"))))
    assert main(["utility", "--channel", c, "--loss", l]) == 0
    out = capsys.readouterr().out
    assert out == "prior uncertainty: 2/3\nposterior uncertainty: 4/9\n"


def test_capacity_discrete5(tmp_path, capsys):
    m = _metric(tmp_path, kind="discrete", n=5, base="2")
    assert main(["capacity", "--metric", m, "--mode", "mult"]) == 0
    assert capsys.readouterr().out == "5/3\n"
    assert main(["capacity", "--metric", m, "--mode", "add", "--closed-form"]) == 0
    assert capsys.readouterr().out == "4/9\n"


def test_capacity_json_has_witness(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=4, base="2")
    assert main(["capacity", "--metric", m, "--mode", "mult", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == "2"
    assert doc["method"] == "lp"
    assert len(doc["witness"]["rows"]) == 4


def test_channel_capacity(tmp_path, capsys):
    c = _channel(tmp_path, "geo.json", geometric_truncated(3, "1/2"))
    assert main(["channel-capacity", "--channel", c, "--mode", "mult"]) == 0
    assert capsys.readouterr().out == "5/3\n"
    assert main(["channel-capacity", "--channel", c, "--mode", "add"]) == 0
    assert capsys.readouterr().out == "1/2\n"


# -- optimality --------------------------------------------------------------


def test_optimal_exact_yes(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    c = _channel(tmp_path, "geo.json", geometric_truncated(3, "1/2"))
    l = _write(tmp_path, "bin.json", loss_to_json(make_loss("bin", labels=("0", "1", "2"))))
    assert main(["optimal", "--channel", c, "--loss", l, "--metric", m]) == 0
    assert capsys.readouterr().out == "optimal\n"


def test_optimal_exact_counterexample(tmp_path, capsys):
    m = _metric(tmp_path, kind="discrete", n=3, base="2")
    c = _channel(tmp_path, "rr.json", random_response(3, "1/2"))
    l = _write(tmp_path, "bin.json", loss_to_json(make_loss("bin", labels=("0", "1", "2"))))
    assert main(["optimal", "--channel", c, "--loss", l, "--metric", m]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "counterexample"
    assert out[1].startswith("prior: (")
    assert out[2].startswith("margin: ")
    assert out[3] == "rival kernel:"


def test_optimal_sampled_unknown_exits_zero(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    c = _channel(tmp_path, "geo.json", geometric_truncated(3, "1/2"))
    l = _write(tmp_path, "bin.json", loss_to_json(make_loss("bin", labels=("0", "1", "2"))))
    assert main(["optimal", "--channel", c, "--loss", l, "--metric", m,
                 "--mode", "sample", "--samples", "20", "--seed", "3"]) == 0
    assert capsys.readouterr().out.startswith("unknown:")


def test_optimal_sampled_with_no_random_priors(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    c = _channel(tmp_path, "geo.json", geometric_truncated(3, "1/2"))
    l = _write(tmp_path, "bin.json", loss_to_json(make_loss("bin", labels=("0", "1", "2"))))
    assert main(["optimal", "--channel", c, "--loss", l, "--metric", m,
                 "--mode", "sample", "--samples", "0"]) == 0
    assert capsys.readouterr().out.startswith("unknown: sampled 4 priors against")


def test_optimal_refuses_negative_samples(tmp_path, capsys, monkeypatch):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    c = _channel(tmp_path, "geo.json", geometric_truncated(3, "1/2"))
    l = _write(tmp_path, "bin.json", loss_to_json(make_loss("bin", labels=("0", "1", "2"))))

    def no_kernels(*args):
        raise AssertionError("kernels were enumerated")

    monkeypatch.setattr(cli, "_cached_kernels", no_kernels)
    assert main(["optimal", "--channel", c, "--loss", l, "--metric", m,
                 "--mode", "sample", "--samples", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "samples" in captured.err


def test_optimal_json_counterexample(tmp_path, capsys):
    m = _metric(tmp_path, kind="discrete", n=3, base="2")
    c = _channel(tmp_path, "rr.json", random_response(3, "1/2"))
    l = _write(tmp_path, "bin.json", loss_to_json(make_loss("bin", labels=("0", "1", "2"))))
    assert main(["optimal", "--channel", c, "--loss", l, "--metric", m,
                 "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "counterexample"
    assert doc["prior"] == ["1/2", "1/2", "0"]
    assert doc["margin"] == "1/24"
    assert doc["rival"]["outers"] == ["5/9", "4/9"]


# -- reproduce ---------------------------------------------------------------


def test_reproduce_euclid(tmp_path, capsys):
    assert main(["reproduce", "--table", "euclid", "--max-n", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("Dims,Vertices,VerticesMatch,")
    assert lines[1] == "2,2,match,1,match,4/3,match,1/3,match"
    assert lines[2] == "3,4,match,2,match,5/3,match,1/2,match"
    assert lines[3] == "4,8,match,11,match,2,match,2/3,match"


def test_reproduce_discrete_json(tmp_path, capsys):
    assert main(["reproduce", "--table", "discrete", "--max-n", "3",
                 "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["table"] == "discrete"
    row = doc["rows"][-1]
    assert (row["vertices"], row["kernels"]) == (6, 5)
    assert row["mult_capacity"] == "3/2"
    assert all(row[k] == "match" for k in
               ("vertices_match", "kernels_match", "mult_match", "add_match"))


def test_reproduce_hamming_small(tmp_path, capsys):
    assert main(["reproduce", "--table", "hamming", "--max-n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split(",")[0:3] == ["2", "6", "match"]
    # capacities print as decimals and match within the stated tolerance
    assert lines[1].split(",")[5] == "1.7778"


@pytest.mark.parametrize("table,max_n,expected", [
    ("grid", "1",
     "Dims,Vertices,VerticesMatch,Kernels,KernelsMatch,MultCapacity,MultMatch,AddCapacity,AddMatch\n"
     "1x1,18,match,403,match,1.6841,match,0.4782,match\n"),
    ("hamming", "2",
     "Dims,Vertices,VerticesMatch,Kernels,KernelsMatch,MultCapacity,MultMatch,AddCapacity,AddMatch\n"
     "2,6,match,4,match,1.7778,match,0.5556,match\n"),
])
def test_reproduce_csv_is_pinned(tmp_path, capsys, table, max_n, expected):
    assert main(["reproduce", "--table", table, "--max-n", max_n, "--format", "csv"]) == 0
    assert capsys.readouterr().out == expected


def test_reproduce_out_file(tmp_path):
    target = tmp_path / "table.csv"
    assert main(["reproduce", "--table", "euclid", "--max-n", "2",
                 "--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8").count("\n") == 2


def test_reproduce_rejects_small_max(tmp_path, capsys):
    assert main(["reproduce", "--table", "euclid", "--max-n", "1"]) == 2
    assert "at least" in capsys.readouterr().err


# -- failure modes -----------------------------------------------------------


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "line",', encoding="utf-8")
    assert main(["vertices", "--metric", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "malformed JSON" in err
    assert "line 1 column" in err
    assert "bad.json" in err


def test_missing_file(tmp_path, capsys):
    assert main(["vertices", "--metric", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data,named",
    [
        ({"kind": "torus", "n": 3, "base": "2"}, "torus"),
        ({"kind": "line", "n": 3.7, "base": "2"}, "'n'"),
        ({"kind": "line", "n": True, "base": "2"}, "'n'"),
        ({"kind": "discrete", "n": 4.0, "base": "2"}, "'n'"),
        ({"kind": "grid", "width": 1.5, "height": 1, "base": "2"}, "'width'"),
        ({"kind": "grid", "width": 1, "height": False, "base": "2"}, "'height'"),
        ({"kind": "hamming", "bits": 2.0, "base": "2"}, "'bits'"),
        ({"kind": "line", "n": 3, "base": "2", "precision_digits": 30.5}, "'precision_digits'"),
        ({"kind": "line", "n": 3, "base": "2", "precision_digits": True}, "'precision_digits'"),
    ],
    ids=["kind", "n-float", "n-bool", "n-whole-float", "width", "height", "bits",
         "precision-float", "precision-bool"],
)
def test_bad_metric_fields(tmp_path, capsys, data, named):
    m = _write(tmp_path, "bad.json", data)
    assert main(["vertices", "--metric", m]) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_integer_strings_are_still_sizes(tmp_path, capsys):
    m = _write(tmp_path, "m.json", {"kind": "line", "n": "3", "base": "2", "precision_digits": "20"})
    assert main(["vertices", "--metric", m]) == 0
    assert capsys.readouterr().out.startswith("4 vertices")


def test_metric_that_is_not_an_object(tmp_path, capsys):
    m = _write(tmp_path, "list.json", [])
    assert main(["vertices", "--metric", m]) == 2
    assert "JSON object" in capsys.readouterr().err


def test_threads_must_be_positive(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    assert main(["vertices", "--metric", m, "--threads", "0"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_threads_accepted(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    assert main(["vertices", "--metric", m, "--threads", "4"]) == 0


# -- cache -------------------------------------------------------------------


def test_cache_round_trip_is_byte_identical(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=4, base="2")
    cache_dir = str(tmp_path / "explicit-cache")
    argv = ["kernels", "--metric", m, "--format", "json", "--cache-dir", cache_dir]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert os.listdir(cache_dir)  # something was stored
    assert main(argv) == 0
    cached = capsys.readouterr().out
    assert cached == fresh
    assert main(["kernels", "--metric", m, "--format", "json", "--no-cache"]) == 0
    uncached = capsys.readouterr().out
    assert uncached == fresh


def test_budget_refusal_ignores_warm_cache(tmp_path, capsys):
    # A --limit refusal must not depend on what an earlier run cached.
    m = _metric(tmp_path, kind="line", n=3, base="2")
    assert main(["vertices", "--metric", m]) == 0
    assert main(["kernels", "--metric", m]) == 0
    capsys.readouterr()
    assert main(["vertices", "--metric", m, "--limit", "3"]) == 3
    assert "raise the limit" in capsys.readouterr().err
    assert main(["kernels", "--metric", m, "--limit", "1"]) == 3
    err = capsys.readouterr().err
    assert "kernel enumeration" in err and "raise the limit" in err


def test_cache_env_var_is_honoured(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env-cache"
    monkeypatch.setenv("MDP_CACHE_DIR", str(env_dir))
    m = _metric(tmp_path, kind="line", n=3, base="2")
    assert main(["vertices", "--metric", m]) == 0
    capsys.readouterr()
    assert env_dir.exists() and os.listdir(env_dir)


def test_corrupt_cache_entry_is_recomputed(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    cache_dir = tmp_path / "c"
    argv = ["vertices", "--metric", m, "--format", "json", "--cache-dir", str(cache_dir)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    for name in os.listdir(cache_dir):
        (cache_dir / name).write_text("not json at all", encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh


def test_non_object_cache_entry_is_a_miss(tmp_path, capsys):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    cache_dir = tmp_path / "c"
    argv = ["vertices", "--metric", m, "--format", "json", "--cache-dir", str(cache_dir)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    for name in os.listdir(cache_dir):
        (cache_dir / name).write_text("[]", encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh


def _entries(cache_dir, op) -> list:
    """(path, envelope) of every cached ``op`` entry."""
    found = []
    for name in os.listdir(cache_dir):
        entry = json.loads((cache_dir / name).read_text(encoding="utf-8"))
        if entry["op"] == op:
            found.append((cache_dir / name, entry))
    return found


def _without_first_outers(payload: str) -> str:
    obj = json.loads(payload)
    del obj["kernels"][0]["outers"]
    return json.dumps(obj)


@pytest.mark.parametrize("op,change", [
    ("vertices", lambda payload: "[]"),
    ("kernels", lambda payload: "[]"),
    ("kernels", _without_first_outers),
])
def test_wrongly_shaped_cache_payload_is_a_miss(tmp_path, capsys, op, change):
    m = _metric(tmp_path, kind="line", n=3, base="2")
    cache_dir = tmp_path / "c"
    argv = [op, "--metric", m, "--format", "json", "--cache-dir", str(cache_dir)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    for path, entry in _entries(cache_dir, op):  # a valid envelope, a bad payload
        entry["payload"] = change(entry["payload"])
        path.write_text(json.dumps(entry), encoding="utf-8")
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh
    # The miss recomputed the entry and stored it again.
    assert [entry["payload"] for _, entry in _entries(cache_dir, op)] == [fresh.strip()]


def test_importing_the_package_does_not_load_hashlib():
    src = str(Path(mdp_workbench.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, mdp_workbench, mdp_workbench.cli; print('hashlib' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cache_distinguishes_metrics(tmp_path, capsys):
    cache_dir = str(tmp_path / "c")
    m3 = _metric(tmp_path, kind="line", n=3, base="2")
    m4 = _write(tmp_path, "line4.json", {"kind": "line", "n": 4, "base": "2"})
    assert main(["vertices", "--metric", m3, "--cache-dir", cache_dir]) == 0
    assert main(["vertices", "--metric", m4, "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out.splitlines()
    assert "4 vertices" in first[0]
    assert "8 vertices" in first[-9]
