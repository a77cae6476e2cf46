"""Command-line front end.

Every subcommand reads JSON files, runs one library call, and prints a
deterministic report.  Three encodings are available through ``--format``:
plain text (the default, exact rationals), JSON, and CSV ('.' for decimals,
',' separators, LF line endings).

Exit codes: 0 success; 1 a checked property failed to hold (a privacy
violation, a refusal of refinement, an optimality counterexample, a
mismatched reproduction row); 2 usage or input errors, including malformed
JSON (reported with line and column); 3 a resource budget was exceeded.

Vertex and kernel enumerations are cached under ``~/.cache/mdp-workbench``
(override with ``--cache-dir`` or ``MDP_CACHE_DIR``); ``--no-cache`` computes
fresh without touching the cache, and a cached payload is byte-identical to
the fresh one.  ``--threads`` is accepted for interface stability; the
computation is sequential and its output never depends on the value.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import cache
from .analysis import (
    add_capacity_channel,
    capacity_report_to_json,
    mult_capacity_channel,
    posterior_uncertainty,
    prior_uncertainty,
    refines,
    type_capacity_closed_form,
    type_capacity_lp,
)
from .exact import SimplexIterationLimit, format_scalar
from .geometry import (
    EnumerationBudgetExceeded,
    build_constraints,
    ensure_kernel_budget,
    ensure_vertex_budget,
    enumerate_kernels,
    enumerate_vertices,
)
from .mechanisms import (
    Hyper,
    channel_from_json,
    channel_to_json,
    check_dx_private,
    hyper_to_json,
    prior_from_json,
    to_hyper,
    uniform_prior,
)
from .metrics import MetricSpace, canonical_metric_json, make_metric, metric_from_json
from .optimality import check_universal_l_optimal, loss_from_json

# Published reference rows checked by the `reproduce` subcommand, keyed by the
# table name and the size column.  Each row is (vertices, kernels, mult, add);
# None means the reference prints no usable figure for that cell.  Rational
# strings are compared exactly, decimal strings within 0.01.
_EXPECTED = {
    "euclid": {
        2: (2, 1, "4/3", "1/3"),
        3: (4, 2, "5/3", "1/2"),
        4: (8, 11, "2", "2/3"),
        5: (16, 187, "7/3", "3/4"),
        6: (32, 15346, "8/3", "5/6"),
    },
    "discrete": {
        2: (2, 1, "4/3", "1/3"),
        3: (6, 5, "3/2", "2/5"),
        4: (14, 41, "8/5", "3/7"),
        5: (30, 1291, "5/3", "4/9"),
    },
    "hamming": {
        2: (6, 4, "1.78", "0.56"),
        3: (38, 29275, "2.37", "0.70"),
        4: (None, None, "3.16", "0.80"),
    },
    "grid": {
        1: (18, 403, "1.68", "0.48"),
        2: (4798, None, "2.5", "0.62"),
        3: (None, None, "3.53", "0.79"),
    },
}

_REPRODUCE_DEFAULT_MAX = {"euclid": 5, "discrete": 4, "hamming": 3, "grid": 3}
_REPRODUCE_MIN = {"euclid": 2, "discrete": 2, "hamming": 2, "grid": 1}

_TOLERANCE = Fraction(1, 100)


# --------------------------------------------------------------------------
# Small I/O helpers.
# --------------------------------------------------------------------------


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        exc.source_path = path
        raise


def _csv_text(rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    return buffer.getvalue()


def _decimal(value: Fraction, places: int = 4) -> str:
    """Fixed-point decimal rendering of a non-negative rational, half-up."""
    scaled = value * Fraction(10) ** places
    whole, rest = divmod(scaled.numerator, scaled.denominator)
    if 2 * rest >= scaled.denominator:
        whole += 1
    digits = str(whole).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}"


def _write(args, out: str) -> None:
    """Write a finished report to ``--out`` if the subcommand has one and it
    is set, else to stdout."""
    target = getattr(args, "out", None)
    if target:
        with open(target, "w", encoding="utf-8", newline="") as handle:
            handle.write(out)
    else:
        sys.stdout.write(out)


def _emit(args, text: str, json_obj, csv_rows) -> None:
    if args.format == "json":
        out = json.dumps(json_obj, indent=2, sort_keys=True) + "\n"
    elif args.format == "csv":
        out = _csv_text(csv_rows)
    else:
        out = text if text.endswith("\n") or not text else text + "\n"
    _write(args, out)


def _fracs(values) -> str:
    return "(" + ", ".join(format_scalar(v) for v in values) + ")"


def _hyper_lines(hyper: Hyper, indent: str = "") -> list:
    return [
        f"{indent}{format_scalar(o)} * {_fracs(inner)}"
        for o, inner in zip(hyper.outers, hyper.inners)
    ]


# --------------------------------------------------------------------------
# Cached enumeration.
# --------------------------------------------------------------------------


def _vertices_payload(space: MetricSpace, vertices) -> str:
    obj = {
        "count": len(vertices),
        "labels": list(space.labels),
        "vertices": [[str(v) for v in vec] for vec in vertices],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _kernels_payload(space: MetricSpace, kernels) -> str:
    obj = {
        "count": len(kernels),
        "labels": list(space.labels),
        "kernels": [
            {
                "outers": [str(o) for o in k.outers],
                "inners": [[str(v) for v in inner] for inner in k.inners],
            }
            for k in kernels
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _vertices_from(obj, space: MetricSpace) -> tuple:
    vertices = tuple(tuple(Fraction(v) for v in vec) for vec in obj["vertices"])
    if any(len(vec) != space.n for vec in vertices):
        raise ValueError("cached vertex of the wrong length")
    return vertices


def _kernels_from(obj, space: MetricSpace) -> tuple:
    return tuple(
        Hyper(
            space.labels,
            tuple(Fraction(o) for o in item["outers"]),
            tuple(tuple(Fraction(v) for v in inner) for inner in item["inners"]),
        )
        for item in obj["kernels"]
    )


def _parse_hit(hit: Optional[str], build, space: MetricSpace):
    """``build`` applied to a cached payload's JSON, or None when there is
    no payload or it lacks the shape a fresh run writes (a miss)."""
    if hit is None:
        return None
    try:
        return build(json.loads(hit), space)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None


def _cached_vertices(space: MetricSpace, args, limit: Optional[int]):
    """-> (vertices, payload string); honours the cache unless --no-cache.

    An explicit --limit is enforced before the cache is consulted: whether a
    run is refused must not depend on what some earlier run left on disk.
    """
    canonical = canonical_metric_json(space)
    directory = cache.cache_dir(args.cache_dir)
    if limit is not None:
        ensure_vertex_budget(build_constraints(space), limit)
    if not args.no_cache:
        hit = cache.load(directory, "vertices", canonical)
        vertices = _parse_hit(hit, _vertices_from, space)
        if vertices is not None:
            return vertices, hit
    kwargs = {} if limit is None else {"limit": limit}
    vertices = enumerate_vertices(build_constraints(space), **kwargs)
    payload = _vertices_payload(space, vertices)
    if not args.no_cache:
        cache.store(directory, "vertices", canonical, payload)
    return vertices, payload


def _cached_kernels(space: MetricSpace, args, limit: Optional[int]):
    """-> (kernels, payload string); vertices come from their own cache.

    As with _cached_vertices, an explicit --limit is enforced up front (which
    needs the vertex count) so cache hits cannot mask a budget refusal.
    """
    canonical = canonical_metric_json(space)
    directory = cache.cache_dir(args.cache_dir)
    vertices = None
    if limit is not None:
        vertices, _ = _cached_vertices(space, args, None)
        ensure_kernel_budget(len(vertices), space.n, limit)
    if not args.no_cache:
        hit = cache.load(directory, "kernels", canonical)
        kernels = _parse_hit(hit, _kernels_from, space)
        if kernels is not None:
            return kernels, hit
    if vertices is None:
        vertices, _ = _cached_vertices(space, args, None)
    kwargs = {} if limit is None else {"limit": limit}
    kernels = enumerate_kernels(space, vertices, **kwargs)
    payload = _kernels_payload(space, kernels)
    if not args.no_cache:
        cache.store(directory, "kernels", canonical, payload)
    return kernels, payload


# --------------------------------------------------------------------------
# Subcommand handlers.
# --------------------------------------------------------------------------


def _cmd_vertices(args) -> int:
    space = metric_from_json(_read_json(args.metric))
    vertices, payload = _cached_vertices(space, args, args.limit)
    if args.format == "json":
        # Emit the payload string itself so cache hits are byte-identical.
        out = payload + "\n"
    elif args.format == "csv":
        out = _csv_text(
            [list(space.labels)] + [[format_scalar(v) for v in vec] for vec in vertices]
        )
    else:
        out = "\n".join([f"{len(vertices)} vertices"] + [_fracs(v) for v in vertices]) + "\n"
    _write(args, out)
    return 0


def _cmd_kernels(args) -> int:
    space = metric_from_json(_read_json(args.metric))
    kernels, payload = _cached_kernels(space, args, args.limit)
    if args.format == "json":
        out = payload + "\n"
    elif args.format == "csv":
        rows = [["kernel", "outer"] + list(space.labels)]
        for i, k in enumerate(kernels):
            for o, inner in zip(k.outers, k.inners):
                rows.append([i, format_scalar(o)] + [format_scalar(v) for v in inner])
        out = _csv_text(rows)
    else:
        lines = [f"{len(kernels)} kernel mechanisms"]
        for i, k in enumerate(kernels):
            lines.append(f"kernel {i}:")
            lines += _hyper_lines(k, "  ")
        out = "\n".join(lines) + "\n"
    _write(args, out)
    return 0


def _cmd_check_dp(args) -> int:
    channel = channel_from_json(_read_json(args.channel))
    space = metric_from_json(_read_json(args.metric))
    report = check_dx_private(channel, space)
    if report.ok:
        _emit(
            args,
            "ok",
            {"ok": True, "violations": []},
            [["ok"], ["true"]],
        )
        return 0
    lines = ["violations:"]
    json_rows = []
    csv_rows = [["x", "x_prime", "y", "ratio", "bound"]]
    for x, x2, y, ratio in report.violations:
        bound = space.stretch[space.index(x)][space.index(x2)]
        shown = "inf" if ratio is None else format_scalar(ratio)
        lines.append(
            f"  x={x} x'={x2} y={y} ratio={shown} allowed={format_scalar(bound)}"
        )
        json_rows.append(
            {"x": x, "x_prime": x2, "y": y, "ratio": None if ratio is None else str(ratio)}
        )
        csv_rows.append([x, x2, y, shown, format_scalar(bound)])
    _emit(args, "\n".join(lines), {"ok": False, "violations": json_rows}, csv_rows)
    return 1


def _cmd_to_hyper(args) -> int:
    channel = channel_from_json(_read_json(args.channel))
    if args.prior:
        prior = prior_from_json(_read_json(args.prior))
    else:
        prior = uniform_prior(channel.x_labels)
    hyper = to_hyper(channel, prior)
    text = "\n".join(_hyper_lines(hyper))
    csv_rows = [["outer"] + list(hyper.x_labels)]
    for o, inner in zip(hyper.outers, hyper.inners):
        csv_rows.append([format_scalar(o)] + [format_scalar(v) for v in inner])
    _emit(args, text, hyper_to_json(hyper), csv_rows)
    return 0


def _cmd_refines(args) -> int:
    b = channel_from_json(_read_json(args.b))
    a = channel_from_json(_read_json(args.a))
    witness = refines(b, a)
    if witness is None:
        _emit(args, "No", {"refines": False}, [["refines"], ["No"]])
        return 1
    lines = ["Yes", "witness rows (from B outputs to A outputs):"]
    lines += ["  " + _fracs(row) for row in witness.rows]
    csv_rows = [[""] + list(witness.y_labels)]
    for label, row in zip(witness.x_labels, witness.rows):
        csv_rows.append([label] + [format_scalar(v) for v in row])
    _emit(
        args,
        "\n".join(lines),
        {"refines": True, "witness": channel_to_json(witness)},
        csv_rows,
    )
    return 0


def _cmd_utility(args) -> int:
    channel = channel_from_json(_read_json(args.channel))
    loss = loss_from_json(_read_json(args.loss))
    if args.prior:
        prior = prior_from_json(_read_json(args.prior))
    else:
        prior = uniform_prior(channel.x_labels)
    before = prior_uncertainty(loss, prior)
    after = posterior_uncertainty(loss, prior, channel)
    _emit(
        args,
        f"prior uncertainty: {format_scalar(before)}\n"
        f"posterior uncertainty: {format_scalar(after)}",
        {
            "prior_uncertainty": str(before),
            "posterior_uncertainty": str(after),
        },
        [
            ["prior_uncertainty", "posterior_uncertainty"],
            [format_scalar(before), format_scalar(after)],
        ],
    )
    return 0


def _cmd_capacity(args) -> int:
    space = metric_from_json(_read_json(args.metric))
    if args.closed_form:
        report = type_capacity_closed_form(space, args.mode)
    else:
        report = type_capacity_lp(space, args.mode)
    _emit(
        args,
        format_scalar(report.value),
        capacity_report_to_json(report),
        [
            ["mode", "method", "value", "precision_digits"],
            [report.mode, report.method, format_scalar(report.value), report.precision_digits],
        ],
    )
    return 0


def _cmd_channel_capacity(args) -> int:
    channel = channel_from_json(_read_json(args.channel))
    fn = mult_capacity_channel if args.mode == "mult" else add_capacity_channel
    value = fn(channel)
    _emit(
        args,
        format_scalar(value),
        {"mode": args.mode, "method": "per_channel", "value": str(value)},
        [["mode", "method", "value"], [args.mode, "per_channel", format_scalar(value)]],
    )
    return 0


def _cmd_optimal(args) -> int:
    if args.samples < 0:
        # The library refuses it too, but only after the kernels are built.
        raise ValueError(f"samples must be non-negative, got {args.samples}")
    channel = channel_from_json(_read_json(args.channel))
    loss = loss_from_json(_read_json(args.loss))
    space = metric_from_json(_read_json(args.metric))
    kernels, _ = _cached_kernels(space, args, None)
    verdict = check_universal_l_optimal(
        channel,
        loss,
        kernels,
        mode="exact" if args.mode == "exact" else "sampled",
        samples=args.samples,
        seed=args.seed,
    )
    obj = {"verdict": verdict.kind}
    if verdict.kind == "optimal":
        _emit(args, "optimal", obj, [["verdict"], ["optimal"]])
        return 0
    if verdict.kind == "counterexample":
        obj["prior"] = [str(p) for p in verdict.prior.probs]
        obj["margin"] = str(verdict.margin)
        obj["rival"] = hyper_to_json(verdict.rival)
        lines = [
            "counterexample",
            f"prior: {_fracs(verdict.prior.probs)}",
            f"margin: {format_scalar(verdict.margin)}",
            "rival kernel:",
        ]
        lines += _hyper_lines(verdict.rival, "  ")
        csv_rows = [
            ["verdict", "margin", "prior"],
            ["counterexample", format_scalar(verdict.margin), _fracs(verdict.prior.probs)],
        ]
        _emit(args, "\n".join(lines), obj, csv_rows)
        return 1
    obj["detail"] = verdict.detail
    _emit(
        args,
        f"unknown: {verdict.detail}",
        obj,
        [["verdict", "detail"], ["unknown", verdict.detail]],
    )
    return 3 if args.mode == "exact" else 0


# --------------------------------------------------------------------------
# Table reproduction.
# --------------------------------------------------------------------------


def _reproduce_space(table: str, size: int) -> MetricSpace:
    if table == "euclid":
        return make_metric("line", n=size, base=2)
    if table == "discrete":
        return make_metric("discrete", n=size, base=2)
    if table == "hamming":
        return make_metric("hamming", bits=size, base=2)
    return make_metric("grid", width=size, height=size, base=2)


def _match_count(computed: Optional[int], expected: Optional[int]) -> str:
    if computed is None:
        return "skipped"
    if expected is None:
        return "-"
    return "match" if computed == expected else "MISMATCH"


def _match_capacity(computed: Fraction, expected: Optional[str]) -> str:
    if expected is None:
        return "-"
    if "/" in expected or "." not in expected:
        return "match" if computed == Fraction(expected) else "MISMATCH"
    return "match" if abs(computed - Fraction(expected)) <= _TOLERANCE else "MISMATCH"


def _cmd_reproduce(args) -> int:
    table = args.table
    lo = _REPRODUCE_MIN[table]
    hi = args.max_n if args.max_n is not None else _REPRODUCE_DEFAULT_MAX[table]
    if hi < lo:
        raise ValueError(f"--max-n must be at least {lo} for table {table}")
    exact_caps = table in ("euclid", "discrete")
    header = [
        "Dims",
        "Vertices",
        "VerticesMatch",
        "Kernels",
        "KernelsMatch",
        "MultCapacity",
        "MultMatch",
        "AddCapacity",
        "AddMatch",
    ]
    csv_rows = [header]
    json_rows = []
    failed = False
    for size in range(lo, hi + 1):
        space = _reproduce_space(table, size)
        expected = _EXPECTED[table].get(size, (None, None, None, None))
        vertices = kernels = None
        try:
            verts, _ = _cached_vertices(space, args, args.limit)
            vertices = len(verts)
        except EnumerationBudgetExceeded:
            verts = None
        if verts is not None:
            try:
                kerns, _ = _cached_kernels(space, args, args.limit)
                kernels = len(kerns)
            except EnumerationBudgetExceeded:
                pass
        if exact_caps:
            mult = type_capacity_closed_form(space, "mult").value
            add = type_capacity_closed_form(space, "add").value
            mult_cell, add_cell = format_scalar(mult), format_scalar(add)
        else:
            mult = type_capacity_lp(space, "mult").value
            add = type_capacity_lp(space, "add").value
            mult_cell, add_cell = _decimal(mult), _decimal(add)
        flags = (
            _match_count(vertices, expected[0]),
            _match_count(kernels, expected[1]),
            _match_capacity(mult, expected[2]),
            _match_capacity(add, expected[3]),
        )
        failed = failed or "MISMATCH" in flags
        dims = f"{size}x{size}" if table == "grid" else str(size)
        csv_rows.append(
            [
                dims,
                "" if vertices is None else vertices,
                flags[0],
                "" if kernels is None else kernels,
                flags[1],
                mult_cell,
                flags[2],
                add_cell,
                flags[3],
            ]
        )
        json_rows.append(
            {
                "dims": dims,
                "vertices": vertices,
                "vertices_match": flags[0],
                "kernels": kernels,
                "kernels_match": flags[1],
                "mult_capacity": str(mult),
                "mult_match": flags[2],
                "add_capacity": str(add),
                "add_match": flags[3],
            }
        )
    if args.format == "json":
        _emit(args, "", {"table": table, "rows": json_rows}, None)
    else:
        # The reproduction report is the CSV hand-off in either text mode.
        _write(args, _csv_text(csv_rows))
    return 1 if failed else 0


# --------------------------------------------------------------------------
# Parser.
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="output encoding (default: text with exact rationals)",
    )
    common.add_argument("--threads", type=int, default=1, metavar="N",
                        help="accepted for compatibility; execution is sequential")
    common.add_argument("--cache-dir", metavar="DIR",
                        help="cache directory (default: MDP_CACHE_DIR or ~/.cache/mdp-workbench)")
    common.add_argument("--no-cache", action="store_true",
                        help="compute fresh and do not touch the cache")

    parser = argparse.ArgumentParser(
        prog="mdp-workbench",
        description="Exact geometry, capacities and optimality verdicts for "
        "metric-private mechanisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vertices", parents=[common],
                       help="enumerate the posterior polytope's extreme points")
    p.add_argument("--metric", required=True, metavar="m.json")
    p.add_argument("--out", metavar="FILE", help="write the report to a file")
    p.add_argument("--limit", type=int, metavar="N",
                   help="subset-count budget for the enumeration")

    p = sub.add_parser("kernels", parents=[common],
                       help="enumerate kernel mechanisms")
    p.add_argument("--metric", required=True, metavar="m.json")
    p.add_argument("--limit", type=int, metavar="N")

    p = sub.add_parser("check-dp", parents=[common],
                       help="verify the per-pair row-ratio privacy bounds")
    p.add_argument("--channel", required=True, metavar="c.json")
    p.add_argument("--metric", required=True, metavar="m.json")

    p = sub.add_parser("to-hyper", parents=[common],
                       help="posterior decomposition of a channel at a prior")
    p.add_argument("--channel", required=True, metavar="c.json")
    p.add_argument("--prior", metavar="p.json")

    p = sub.add_parser("refines", parents=[common],
                       help="decide whether A is a post-processing of B")
    p.add_argument("--b", required=True, metavar="B.json")
    p.add_argument("--a", required=True, metavar="A.json")

    p = sub.add_parser("utility", parents=[common],
                       help="expected-loss uncertainty before and after the channel")
    p.add_argument("--channel", required=True, metavar="c.json")
    p.add_argument("--loss", required=True, metavar="l.json")
    p.add_argument("--prior", metavar="p.json")

    p = sub.add_parser("capacity", parents=[common],
                       help="worst-case leakage over every private mechanism")
    p.add_argument("--metric", required=True, metavar="m.json")
    p.add_argument("--mode", required=True, choices=("add", "mult"))
    p.add_argument("--closed-form", action="store_true",
                   help="use the closed formula instead of the LP")

    p = sub.add_parser("channel-capacity", parents=[common],
                       help="leakage capacities of one channel")
    p.add_argument("--channel", required=True, metavar="c.json")
    p.add_argument("--mode", required=True, choices=("add", "mult"))

    p = sub.add_parser("optimal", parents=[common],
                       help="universal optimality verdict against the kernel set")
    p.add_argument("--channel", required=True, metavar="c.json")
    p.add_argument("--loss", required=True, metavar="l.json")
    p.add_argument("--metric", required=True, metavar="m.json")
    p.add_argument("--mode", choices=("exact", "sample"), default="exact")
    p.add_argument("--samples", type=int, default=200, metavar="N")
    p.add_argument("--seed", type=int, default=7, metavar="S")

    p = sub.add_parser("reproduce", parents=[common],
                       help="recompute a published table and flag every cell")
    p.add_argument("--table", required=True,
                   choices=("euclid", "discrete", "grid", "hamming"))
    p.add_argument("--max-n", type=int, metavar="K",
                   help="largest size column to include")
    p.add_argument("--limit", type=int, metavar="N",
                   help="subset-count budget for enumerations")
    p.add_argument("--out", metavar="FILE")

    return parser


_HANDLERS = {
    "vertices": _cmd_vertices,
    "kernels": _cmd_kernels,
    "check-dp": _cmd_check_dp,
    "to-hyper": _cmd_to_hyper,
    "refines": _cmd_refines,
    "utility": _cmd_utility,
    "capacity": _cmd_capacity,
    "channel-capacity": _cmd_channel_capacity,
    "optimal": _cmd_optimal,
    "reproduce": _cmd_reproduce,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except json.JSONDecodeError as exc:
        source = getattr(exc, "source_path", "input")
        print(
            f"error: malformed JSON in {source}: line {exc.lineno} column {exc.colno}",
            file=sys.stderr,
        )
        return 2
    except EnumerationBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SimplexIterationLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyError as exc:
        detail = exc.args[0] if exc.args else exc
        if isinstance(detail, str) and " " not in detail:
            # A bare dict key means a required field was absent from the input.
            print(f"error: missing field {detail!r}", file=sys.stderr)
        else:
            print(f"error: {detail}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
