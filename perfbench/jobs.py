"""Set-up and job runners: the only code that calls the program.

Every call goes through a module attribute (``geometry.enumerate_kernels``,
not a name imported into this file), so the traced run sees it when it
rebinds those attributes.  A runner returns the program's answer as plain
data; the matching checker in ``KINDS`` hands it to ``checks``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

from mdp_workbench import analysis, cli, geometry, mechanisms, metrics, optimality

from . import checks, inputs


class SetupError(RuntimeError):
    """The set-up's own enumerations failed their checks."""


def _make_space(spec: dict):
    kwargs = dict(spec)
    return metrics.make_metric(kwargs.pop("kind"), **kwargs)


def _plain(hyper) -> tuple:
    return tuple(hyper.outers), tuple(hyper.inners)


def _channel(labels, rows):
    return mechanisms.Channel(
        tuple(labels), tuple(f"y{j}" for j in range(len(rows[0]))), tuple(rows)
    )


def _key(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=str)


class Context:
    """Everything a workload builds before its first timed job."""

    SPACES = {
        "verdict-stream": inputs.VERDICT_SPACES,
        "capacity-lp": inputs.ANTI_REFINE_SPACES,
        "cli-cached": inputs.CLI_SPACES,
    }

    def __init__(self, workload: str, seed: int, input_dir: Path, cache_dir: Path):
        self.workload = workload
        self.seed = seed
        self.input_dir = input_dir
        self.cache_dir = cache_dir
        self.specs = dict(self.SPACES.get(workload, {}))
        self.spaces, self.vertices, self.kernels, self.plain = {}, {}, {}, {}
        self._memo: dict = {}
        self._own: dict = {}
        self._batteries: dict = {}
        self._files = 0
        for key, spec in self.specs.items():
            space = _make_space(spec)
            self.spaces[key] = space
            self.vertices[key] = geometry.enumerate_vertices(
                geometry.build_constraints(space)
            )
            self.kernels[key] = geometry.enumerate_kernels(space, self.vertices[key])
            self.plain[key] = tuple(_plain(k) for k in self.kernels[key])
        if workload == "cli-cached":
            # Warm the cache with the grid metric every cycle re-requests.
            self.warm_job = {"cmd": "kernels", "metric": "grid1x1", "spec": inputs.grid(1, 1)}
            self.warm_job["argv"] = self._enum_argv(self.warm_job)
            self.warm_output = run_cli(self.warm_job, self)

    def verify(self) -> None:
        """Check the set-up's own answers; raise SetupError if one is wrong."""
        for key in self.kernels:
            err = checks.check_vertices(self.specs[key], self.vertices[key])
            err = err or checks.check_kernels(self.specs[key], self.plain[key])
            if err:
                raise SetupError(f"set-up {key}: {err}")
        if self.workload == "cli-cached":
            err = check_cli(self.warm_job, self.warm_output, self)
            if err:
                raise SetupError(f"set-up cache warm-up: {err}")

    # -- helpers for checkers ------------------------------------------------

    def own_space(self, spec: dict) -> checks.Space:
        key = _key(spec)
        if key not in self._own:
            self._own[key] = checks.Space(spec)
        return self._own[key]

    def battery(self, n: int) -> list:
        if n not in self._batteries:
            rng = random.Random(f"battery/{self.seed}/{n}")
            self._batteries[n] = checks.prior_battery(rng, n)
        return self._batteries[n]

    def verified(self, key, answer, check) -> "str | None":
        """Run ``check`` once per distinct input; later answers for the same
        input must equal the verified one exactly."""
        key = _key(key)
        if key in self._memo:
            if self._memo[key] != answer:
                return "answer differs from the verified answer to the same input"
            return None
        err = check()
        if err is None:
            self._memo[key] = answer
        return err

    # -- cli input files -----------------------------------------------------

    def _write(self, obj) -> str:
        self._files += 1
        path = self.input_dir / f"in{self._files}.json"
        path.write_text(json.dumps(obj, default=str), encoding="utf-8")
        return str(path)

    def _metric_file(self, name: str, spec: dict) -> str:
        path = self.input_dir / f"metric-{name.replace('/', '_')}.json"
        if not path.exists():
            path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    def _channel_file(self, labels, rows) -> str:
        return self._write({
            "x_labels": list(labels),
            "y_labels": [f"y{j}" for j in range(len(rows[0]))],
            "rows": [[str(v) for v in row] for row in rows],
        })

    def _enum_argv(self, a: dict) -> list:
        return [a["cmd"], "--metric", self._metric_file(a["metric"], a["spec"])]

    def prepare(self, job: inputs.Job) -> None:
        """Write a cli job's input files and fix its argv (untimed)."""
        if job.kind != "cli":
            return
        a = job.args
        cmd = a["cmd"]
        if cmd in ("vertices", "kernels"):
            a["argv"] = self._enum_argv(a)
            return
        if cmd == "refines":
            labels = inputs.labels(len(a["b"]))
            a["argv"] = ["refines", "--b", self._channel_file(labels, a["b"]),
                         "--a", self._channel_file(labels, a["a"])]
            return
        labels = self.spaces[a["space"]].labels
        argv = [cmd, "--channel", self._channel_file(labels, a["channel"])]
        if cmd == "check-dp" or cmd == "optimal":
            argv += ["--metric", self._metric_file(a["space"], self.specs[a["space"]])]
        if "loss" in a:
            w, table = a["loss"]
            argv += ["--loss", self._write({
                "w_labels": list(w), "x_labels": list(labels),
                "table": [[str(v) for v in row] for row in table],
            })]
        if "prior" in a:
            argv += ["--prior", self._write(
                {"x_labels": list(labels), "probs": [str(p) for p in a["prior"]]})]
        if cmd == "channel-capacity":
            argv += ["--mode", a["mode"]]
        if cmd == "optimal":
            argv += ["--mode", "sample", "--samples", "200", "--seed", str(a["seed"])]
        a["argv"] = argv


# --------------------------------------------------------------------------
# Runners and checkers, one pair per job kind.
# --------------------------------------------------------------------------


def run_enum(a, ctx):
    space = _make_space(a["spec"])
    vertices = geometry.enumerate_vertices(geometry.build_constraints(space))
    kernels = geometry.enumerate_kernels(space, vertices) if a["kernels"] else None
    return vertices, None if kernels is None else tuple(_plain(k) for k in kernels)


def check_enum(a, answer, ctx):
    vertices, kernels = answer

    def check():
        err = checks.check_vertices(a["spec"], vertices)
        if err is None and kernels is not None:
            err = checks.check_kernels(a["spec"], kernels)
        return err

    return ctx.verified(("enum", a["spec"], a["kernels"]), answer, check)


def _verdict_data(v) -> tuple:
    return (
        v.kind,
        None if v.prior is None else tuple(v.prior.probs),
        None if v.rival is None else _plain(v.rival),
        v.margin,
    )


def run_verdict(a, ctx):
    labels = ctx.spaces[a["space"]].labels
    w, table = a["loss"]
    loss = optimality.make_loss("custom", w_labels=w, x_labels=labels, table=table)
    verdict = optimality.check_universal_l_optimal(
        _channel(labels, a["channel"]), loss, ctx.kernels[a["space"]],
        mode=a["mode"], seed=a["seed"],
    )
    return _verdict_data(verdict)


def check_verdict(a, answer, ctx):
    return checks.check_verdict(
        a["channel"], a["loss"][1], ctx.plain[a["space"]], answer,
        mode=a["mode"], expect=a["expect"], battery=ctx.battery(len(a["channel"])),
    )


def run_minpair(a, ctx):
    channel, loss = optimality.min_pair_mechanism(ctx.spaces[a["space"]])
    verdict = optimality.check_universal_l_optimal(channel, loss, ctx.kernels[a["space"]])
    return channel.rows, loss.table, _verdict_data(verdict)


def check_minpair(a, answer, ctx):
    rows, table, verdict = answer
    if not ctx.own_space(ctx.specs[a["space"]]).private(rows):
        return "min-pair mechanism is not private"
    return checks.check_verdict(
        rows, table, ctx.plain[a["space"]], verdict,
        mode="exact", expect="optimal", battery=ctx.battery(len(rows)),
    )


def run_sweep(a, ctx):
    space = ctx.spaces[a["space"]]
    w, table = a["loss"]
    loss = optimality.make_loss("custom", w_labels=w, x_labels=space.labels, table=table)
    report = optimality.impossibility_sweep(space, loss, ctx.kernels[a["space"]])
    return tuple((_plain(k), _verdict_data(v)) for k, v in report)


def check_sweep(a, answer, ctx):
    kernels = ctx.plain[a["space"]]
    if sorted(k for k, _ in answer) != sorted(kernels):
        return "sweep does not cover each kernel exactly once"
    for kernel, verdict in answer:
        err = checks.check_verdict(
            checks.kernel_channel(*kernel), a["loss"][1], kernels, verdict,
            mode="exact", expect=a["expect"], battery=ctx.battery(len(kernel[1][0])),
        )
        if err:
            return err
    return None


def run_capacity(a, ctx):
    space = _make_space(a["spec"])
    out = {}
    for mode in ("mult", "add"):
        report = analysis.type_capacity_lp(space, mode)
        closed = None
        if a["spec"]["kind"] in ("line", "discrete"):
            closed = analysis.type_capacity_closed_form(space, mode).value
        out[mode] = (report.value, report.witness.rows, closed)
    return out


def check_capacity(a, answer, ctx):
    return ctx.verified(
        ("capacity", a["spec"]), answer, lambda: checks.check_capacity(a["spec"], answer)
    )


def run_refines(a, ctx):
    labels = inputs.labels(len(a["b"]))
    witness = analysis.refines(_channel(labels, a["b"]), _channel(labels, a["a"]))
    return None if witness is None else witness.rows


def check_refines(a, answer, ctx):
    return checks.check_refines(a["b"], a["a"], answer, a["expect"])


def run_anti_refine(a, ctx):
    labels = ctx.spaces[a["space"]].labels
    hyper = geometry.anti_refine(_channel(labels, a["channel"]), ctx.vertices[a["space"]])
    return _plain(hyper)


def check_anti_refine(a, answer, ctx):
    space = ctx.own_space(ctx.specs[a["space"]])
    return checks.check_anti_refine(space, a["channel"], answer, ctx.battery(space.n))


def run_cli(a, ctx):
    argv = a["argv"] + ["--format", "json", "--cache-dir", str(ctx.cache_dir)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _fractions(rows) -> tuple:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def check_cli(a, answer, ctx):
    code, text = answer
    try:
        obj = json.loads(text)
    except ValueError:
        return f"exit {code}, output is not JSON"
    cmd = a["cmd"]
    if cmd in ("vertices", "kernels"):
        if code != 0:
            return f"{cmd} exited {code}"
        spec = a["spec"]

        def check():
            if cmd == "vertices":
                return checks.check_vertices(spec, _fractions(obj["vertices"]))
            kernels = tuple(
                (tuple(Fraction(o) for o in k["outers"]), _fractions(k["inners"]))
                for k in obj["kernels"]
            )
            return checks.check_kernels(spec, kernels)

        return ctx.verified(("cli", cmd, spec), text, check)
    if cmd == "refines":
        witness = _fractions(obj["witness"]["rows"]) if obj.get("refines") else None
        if code != (0 if witness is not None else 1):
            return f"refines exited {code}"
        return checks.check_refines(a["b"], a["a"], witness, a["expect"])
    rows = a["channel"]
    n = len(rows)
    prior = a.get("prior", tuple(Fraction(1, n) for _ in range(n)))
    if cmd == "check-dp":
        space = ctx.own_space(ctx.specs[a["space"]])
        own = checks.violations(space, rows)
        if not own:
            return None if code == 0 and obj["ok"] else "private channel reported as violating"
        labels = ctx.spaces[a["space"]].labels
        got = {
            (labels.index(v["x"]), labels.index(v["x_prime"]), int(v["y"][1:]))
            for v in obj["violations"]
        }
        if code != 1 or obj["ok"] or got != own or len(obj["violations"]) != len(own):
            return "violations do not match an own row-ratio check"
        return None
    if cmd == "to-hyper":
        hyper = (tuple(Fraction(o) for o in obj["outers"]), _fractions(obj["inners"]))
        return checks.check_hyper(rows, prior, hyper)
    if cmd == "utility":
        table = a["loss"][1]
        if (Fraction(obj["prior_uncertainty"]) != checks.prior_uncertainty(table, prior)
                or Fraction(obj["posterior_uncertainty"]) != checks.uncertainty(table, prior, rows)):
            return "uncertainties differ from an own evaluation"
        return None
    if cmd == "channel-capacity":
        score = checks.mult_score if a["mode"] == "mult" else checks.add_score
        return None if Fraction(obj["value"]) == score(rows) else "channel capacity differs"
    if cmd == "optimal":
        kind = obj["verdict"]
        if code != {"counterexample": 1, "unknown": 0}.get(kind):
            return f"optimal exited {code} with verdict {kind}"
        verdict = (kind, None, None, None)
        if kind == "counterexample":
            rival = obj["rival"]
            verdict = (
                kind,
                tuple(Fraction(p) for p in obj["prior"]),
                (tuple(Fraction(o) for o in rival["outers"]), _fractions(rival["inners"])),
                Fraction(obj["margin"]),
            )
        return checks.check_verdict(
            rows, a["loss"][1], ctx.plain[a["space"]], verdict,
            mode="sampled", expect=None, battery=ctx.battery(n),
        )
    return f"no checker for {cmd}"


KINDS = {
    "enum": (run_enum, check_enum),
    "verdict": (run_verdict, check_verdict),
    "minpair": (run_minpair, check_minpair),
    "sweep": (run_sweep, check_sweep),
    "capacity": (run_capacity, check_capacity),
    "refines": (run_refines, check_refines),
    "anti_refine": (run_anti_refine, check_anti_refine),
    "cli": (run_cli, check_cli),
}
