"""Seeded inputs: metrics, channels, priors, losses and the job decks.

Every workload is an endless stream of *cycles*.  A cycle holds the same
multiset of job types (its *deck*) whatever the seed; the seed only shuffles
the order and draws the random parameters: custom metrics, private channels,
priors and losses.  Job-type shares and the size distribution therefore do
not depend on the seed, and a run that covers whole cycles sees exactly the
stated input mix.  A later change can confirm a claim on a seed it was not
tuned on.

Everything here is plain data (ints, strings, Fractions, tuples); the
program only ever sees what the job runners in ``jobs.py`` build from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("enum-tables", "verdict-stream", "capacity-lp", "cli-cached")

HALF = Fraction(1, 2)


@dataclass
class Job:
    kind: str  # runner/checker key in jobs.KINDS
    label: str  # the deck entry this job was drawn from
    args: dict


def cycle_rng(workload: str, seed: int, cycle: int) -> random.Random:
    """Independent, reproducible randomness for one cycle of one workload."""
    return random.Random(f"{workload}/{seed}/{cycle}")


# --------------------------------------------------------------------------
# Metrics, as make_metric keyword specs.
# --------------------------------------------------------------------------


def line(n: int, base: str = "2") -> dict:
    return {"kind": "line", "n": n, "base": base}


def discrete(n: int, base: str = "2") -> dict:
    return {"kind": "discrete", "n": n, "base": base}


def hamming(bits: int, base: str = "2") -> dict:
    return {"kind": "hamming", "bits": bits, "base": base}


def grid(width: int, height: int, base: str = "2") -> dict:
    return {"kind": "grid", "width": width, "height": height, "base": base}


def custom(distances, base: str = "2") -> dict:
    return {"kind": "custom", "distances": distances, "base": base}


def tight_pairs(dist) -> list:
    """Pairs (i < j) of an integer metric not split by a third point."""
    n = len(dist)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not any(
            k not in (i, j) and dist[i][k] + dist[k][j] == dist[i][j]
            for k in range(n)
        )
    ]


def custom_distances(
    rng: random.Random, n: int, extra_edges: int, max_weight: int = 3
) -> list:
    """Shortest-path closure of a random connected weighted graph: a random
    spanning tree plus ``extra_edges`` more edges, weights 1..max_weight."""
    inf = n * max_weight + 1
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        edges.append((min(a, b), max(a, b)))
    others = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    rng.shuffle(others)
    edges += others[:extra_edges]
    for a, b in edges:
        dist[a][b] = dist[b][a] = rng.randint(1, max_weight)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    return dist


def custom_with_tight(
    rng: random.Random, n: int, extra_edges: int, tight: int, rigid: bool = False
) -> list:
    """A custom metric with exactly ``tight`` tight pairs.  ``rigid`` also
    demands pairwise distinct sorted distance rows, which rules out every
    non-trivial automorphism (an automorphism maps a point to one with the
    same distance multiset)."""
    while True:
        dist = custom_distances(rng, n, extra_edges)
        if len(tight_pairs(dist)) != tight:
            continue
        if rigid and len({tuple(sorted(row)) for row in dist}) != n:
            continue
        return dist


# --------------------------------------------------------------------------
# Channels (row lists of Fractions), priors and losses.
# --------------------------------------------------------------------------


def rand_stochastic(rng: random.Random, rows: int, cols: int, top: int = 4) -> tuple:
    out = []
    for _ in range(rows):
        weights = [rng.randint(0, top) for _ in range(cols)]
        if not any(weights):
            weights[rng.randrange(cols)] = 1
        total = sum(weights)
        out.append(tuple(Fraction(w, total) for w in weights))
    return tuple(out)


def mat_mul(a, b) -> tuple:
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


def geometric_rows(n: int, alpha: Fraction = HALF) -> tuple:
    interior = (1 - alpha) / (1 + alpha)
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            if y == 0:
                row.append(alpha**x / (1 + alpha))
            elif y == n - 1:
                row.append(alpha ** (n - 1 - x) / (1 + alpha))
            else:
                row.append(interior * alpha ** abs(x - y))
        rows.append(tuple(row))
    return tuple(rows)


def response_rows(n: int, alpha: Fraction = HALF) -> tuple:
    k = 1 + (n - 1) * alpha
    return tuple(
        tuple(1 / k if i == j else alpha / k for j in range(n)) for i in range(n)
    )


def trivial_rows(n: int) -> tuple:
    return tuple((Fraction(1),) for _ in range(n))


def kernel_rows(kernel) -> tuple:
    """Bayes inversion of a uniform-prior hyper ``(outers, inners)``."""
    outers, inners = kernel
    n = len(inners[0])
    return tuple(
        tuple(n * o * inner[x] for o, inner in zip(outers, inners)) for x in range(n)
    )


def private_channel(rng: random.Random, kernels, outputs: int) -> tuple:
    """A mixture of two kernel mechanisms followed by a random
    post-processing onto ``outputs`` columns: private by construction."""
    a, b = rng.sample(range(len(kernels)), 2) if len(kernels) > 1 else (0, 0)
    t = Fraction(rng.randint(1, 5), 6)
    ra, rb = kernel_rows(kernels[a]), kernel_rows(kernels[b])
    mixed = tuple(
        tuple(t * v for v in x) + tuple((1 - t) * v for v in y) for x, y in zip(ra, rb)
    )
    return mat_mul(mixed, rand_stochastic(rng, len(mixed[0]), outputs))


def rand_prior(rng: random.Random, n: int) -> tuple:
    weights = [rng.randint(1, 20) for _ in range(n)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def labels(n: int) -> tuple:
    return tuple(str(i) for i in range(n))


def bin_loss(n: int):
    return labels(n), tuple(
        tuple(Fraction(int(i != j)) for j in range(n)) for i in range(n)
    )


def nib_loss(n: int):
    return labels(n), tuple(
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    )


def avg_loss(n: int):
    return labels(n), tuple(
        tuple(Fraction(abs(i - j)) for j in range(n)) for i in range(n)
    )


def monotone_loss(rng: random.Random, dist):
    """Loss ``profile[d(w, x)]`` with actions named after the secrets and a
    random non-decreasing profile over the occurring distances."""
    value = Fraction(rng.randint(0, 3))
    profile = {}
    for d in sorted({v for row in dist for v in row}):
        profile[d] = value
        value += Fraction(rng.randint(0, 4), 2)
    n = len(dist)
    return labels(n), tuple(
        tuple(profile[dist[w][x]] for x in range(n)) for w in range(n)
    )


def custom_loss(rng: random.Random, n: int):
    actions = rng.randint(2, n + 1)
    return tuple(f"w{i}" for i in range(actions)), tuple(
        tuple(Fraction(rng.randint(0, 6)) for _ in range(n)) for _ in range(actions)
    )


def line_dist(n: int) -> list:
    return [[abs(i - j) for j in range(n)] for i in range(n)]


def hamming_dist(bits: int) -> list:
    m = 2**bits
    return [[(i ^ j).bit_count() for j in range(m)] for i in range(m)]


# --------------------------------------------------------------------------
# Decks.  Each entry is (label, count, kind, maker); maker(rng) -> args.
# --------------------------------------------------------------------------


def _deal(rng: random.Random, deck) -> list:
    jobs = [
        Job(kind, label, maker(rng)) for label, count, kind, maker in deck
        for _ in range(count)
    ]
    rng.shuffle(jobs)
    return jobs


def enum_deck() -> list:
    """Each spec asks once for its vertices (V) and once for its vertices and
    kernels (V+K).  Discrete 5 is vertices only, as are 5-point custom
    metrics, whose kernels take 2-20 s a job."""

    def enum(spec, kernels):
        return lambda rng: {"spec": spec, "kernels": kernels}

    def enum_custom(n, kernels):
        # One cycle in the graph: n tight pairs.
        return lambda rng: {
            "spec": custom(custom_with_tight(rng, n, 1, n)),
            "kernels": kernels,
        }

    deck = []
    for name, spec in (
        ("line3", line(3)), ("line4", line(4)), ("line5", line(5)),
        ("discrete3", discrete(3)), ("discrete4", discrete(4)),
        ("grid1x1", grid(1, 1)), ("hamming2", hamming(2)),
    ):
        deck.append((f"{name} V", 1, "enum", enum(spec, False)))
        deck.append((f"{name} V+K", 1, "enum", enum(spec, True)))
    deck += [
        ("discrete5 V", 1, "enum", enum(discrete(5), False)),
        ("custom4 V", 1, "enum", enum_custom(4, False)),
        ("custom4 V+K", 1, "enum", enum_custom(4, True)),
        ("custom5 V", 1, "enum", enum_custom(5, False)),
    ]
    return deck


# Spaces whose kernels verdict-stream enumerates during set-up.
VERDICT_SPACES = {
    "line3": line(3),
    "line4": line(4),
    "discrete3": discrete(3),
    "discrete4": discrete(4),
    "hamming2": hamming(2),
}


def verdict_deck(kernels: dict, seed: int, cycle: int) -> list:
    """One query per (space, channel, loss) entry, each once a cycle: exact
    verdicts, sampled verdicts on line 4 and discrete 4, and one discrete-3
    sweep.  ``kernels`` maps each VERDICT_SPACES key to its kernels as plain
    ``(outers, inners)`` pairs; mixtures and kernel channels draw on them."""

    def verdict(space, channel, loss, expect, mode="exact"):
        def make(rng):
            n = len(kernels[space][0][1][0])
            return {
                "space": space,
                "channel": channel(rng, n),
                "loss": loss(rng, n),
                "mode": mode,
                "seed": rng.randrange(10**6),
                "expect": expect,
            }

        return make

    def fixed(make):
        return lambda rng, n: make(n)

    geo, resp, triv = fixed(geometric_rows), fixed(response_rows), fixed(trivial_rows)
    bin_, nib, avg, cust = fixed(bin_loss), fixed(nib_loss), fixed(avg_loss), custom_loss

    def kern(space):
        # Kernels differ up to 4x in verdict cost, so they take turns (from
        # a seeded start) rather than being drawn: every run sees each one
        # about equally often.
        found = kernels[space]
        return lambda rng, n: kernel_rows(found[(seed + cycle) % len(found)])

    def mix(space):
        return lambda rng, n: private_channel(rng, kernels[space], rng.randint(2, 4))

    def mono_line(rng, n):
        return monotone_loss(rng, line_dist(n))

    def mono_ham(rng, n):
        return monotone_loss(rng, hamming_dist(2))

    def space_only(space):
        return lambda rng: {"space": space}

    def sweep(space):
        return lambda rng: {"space": space, "loss": bin_loss(3), "expect": "counterexample"}

    return [
        ("line3 geometric bin", 1, "verdict", verdict("line3", geo, bin_, "optimal")),
        ("line3 geometric avg", 1, "verdict", verdict("line3", geo, avg, "optimal")),
        ("line3 geometric monotone", 1, "verdict", verdict("line3", geo, mono_line, "optimal")),
        ("line3 trivial bin", 1, "verdict", verdict("line3", triv, bin_, "counterexample")),
        ("line3 mixture custom", 1, "verdict", verdict("line3", mix("line3"), cust, None)),
        ("discrete3 response bin", 1, "verdict", verdict("discrete3", resp, bin_, "counterexample")),
        ("discrete3 kernel bin", 1, "verdict", verdict("discrete3", kern("discrete3"), bin_, "counterexample")),
        ("discrete3 mixture custom", 1, "verdict", verdict("discrete3", mix("discrete3"), cust, None)),
        ("hamming2 mixture monotone", 1, "verdict", verdict("hamming2", mix("hamming2"), mono_ham, None)),
        ("hamming2 trivial bin", 1, "verdict", verdict("hamming2", triv, bin_, "counterexample")),
        ("line3 min-pair", 1, "minpair", space_only("line3")),
        ("discrete3 min-pair", 1, "minpair", space_only("discrete3")),
        ("hamming2 min-pair", 1, "minpair", space_only("hamming2")),
        ("line4 min-pair", 1, "minpair", space_only("line4")),
        ("hamming2 kernel bin", 1, "verdict", verdict("hamming2", kern("hamming2"), bin_, None)),
        ("discrete4 trivial bin", 1, "verdict", verdict("discrete4", triv, bin_, "counterexample")),
        ("line4 trivial bin", 1, "verdict", verdict("line4", triv, bin_, "counterexample")),
        ("discrete4 response nib", 1, "verdict", verdict("discrete4", resp, nib, "counterexample")),
        ("discrete3 bin sweep", 1, "sweep", sweep("discrete3")),
        ("discrete4 response bin sampled", 1, "verdict", verdict("discrete4", resp, bin_, None, "sampled")),
        ("line4 geometric bin sampled", 1, "verdict", verdict("line4", geo, bin_, "optimal", "sampled")),
        ("discrete4 min-pair", 1, "minpair", space_only("discrete4")),
    ]


# Spaces whose vertices and kernels capacity-lp builds during set-up, for
# the anti-refinement jobs.
ANTI_REFINE_SPACES = {"line4": line(4), "discrete4": discrete(4)}


def capacity_deck(kernels: dict) -> list:
    """Each spec's capacity in both modes once a cycle (19 jobs), with
    refinement and anti-refinement jobs as a minority (4 + 4).  8-point
    custom metrics (1.5-3.4 s a job, by the seed's metric) are left out."""
    def cap(spec):
        return lambda rng: {"spec": spec}

    def cap_custom(n, extra, tight):
        return lambda rng: {"spec": custom(custom_with_tight(rng, n, extra, tight, True))}

    def refine(expect, outputs):
        def make(rng):
            b = rand_stochastic(rng, 4, outputs)
            if expect:
                a = mat_mul(b, rand_stochastic(rng, outputs, outputs))
                return {"b": b, "a": a, "expect": True}
            # b garbles a through a rank-deficient post-processing, so b
            # has lower rank than a and cannot be post-processed into it.
            a = b
            merge = rand_stochastic(rng, 2, outputs)
            squash = tuple(merge[rng.randrange(2)] for _ in range(outputs))
            return {"b": mat_mul(a, squash), "a": a, "expect": False}

        return make

    def anti(space):
        return lambda rng: {
            "space": space,
            "channel": private_channel(rng, kernels[space], 4),
        }

    deck = [(f"capacity line{n}", 1, "capacity", cap(line(n))) for n in range(3, 9)]
    deck += [(f"capacity discrete{n}", 1, "capacity", cap(discrete(n))) for n in range(3, 9)]
    deck += [(f"capacity hamming{b}", 1, "capacity", cap(hamming(b))) for b in (2, 3, 4)]
    deck += [
        ("capacity grid1x1", 1, "capacity", cap(grid(1, 1))),
        ("capacity grid2x2", 1, "capacity", cap(grid(2, 2))),
        ("capacity custom6", 1, "capacity", cap_custom(6, 1, 6)),
        ("capacity custom7", 1, "capacity", cap_custom(7, 0, 6)),
        ("refines yes 6x6", 1, "refines", refine(True, 6)),
        ("refines yes 8x8", 1, "refines", refine(True, 8)),
        ("refines no 8x8", 1, "refines", refine(False, 8)),
        ("refines no 10x10", 1, "refines", refine(False, 10)),
        ("anti-refine line4", 2, "anti_refine", anti("line4")),
        ("anti-refine discrete4", 2, "anti_refine", anti("discrete4")),
    ]
    return deck


# Spaces the cli-cached set-up enumerates in-process, to build private
# channels for the channel subcommands.
CLI_SPACES = {"line3": line(3), "discrete3": discrete(3), "line4": line(4)}


def cli_deck(kernels: dict, cycle: int) -> tuple:
    """The deck, plus the pinned jobs.  Each channel subcommand runs twice a
    cycle.  Each cycle asks for kernels of two metrics it has never seen
    (misses), then for their kernels and vertices again (hits), and once each
    for grid-1x1 kernels and vertices, which the set-up cached (hits)."""
    fresh_base = str(2 + Fraction(1, 3 + cycle))

    def enum(op):
        return lambda rng: {"cmd": op, "metric": "grid1x1", "spec": grid(1, 1)}

    def channel_cmd(cmd, space, **extra):
        def make(rng):
            n = len(kernels[space][0][1][0])
            args = {"cmd": cmd, "space": space,
                    "channel": private_channel(rng, kernels[space], rng.randint(2, 4))}
            if "loss" in extra:
                args["loss"] = custom_loss(rng, n)
            if extra.get("prior"):
                args["prior"] = rand_prior(rng, n)
            if cmd == "check-dp" and rng.random() < 0.5:
                args["channel"] = _break_privacy(rng, args["channel"])
            if cmd == "optimal":
                args["seed"] = rng.randrange(10**6)
            if cmd == "channel-capacity":
                args["mode"] = rng.choice(("mult", "add"))
            return args

        return make

    def refine(rng):
        b = rand_stochastic(rng, 3, rng.randint(6, 10))
        a = mat_mul(b, rand_stochastic(rng, len(b[0]), rng.randint(6, 10)))
        return {"cmd": "refines", "b": b, "a": a, "expect": True}

    deck = [
        ("cli kernels grid1x1 hit", 1, "cli", enum("kernels")),
        ("cli vertices grid1x1 hit", 1, "cli", enum("vertices")),
        ("cli check-dp", 2, "cli", channel_cmd("check-dp", "line4")),
        ("cli to-hyper", 2, "cli", channel_cmd("to-hyper", "line3", prior=True)),
        ("cli utility", 2, "cli", channel_cmd("utility", "discrete3", loss=True, prior=True)),
        ("cli channel-capacity", 2, "cli", channel_cmd("channel-capacity", "line4")),
        ("cli refines", 2, "cli", refine),
        ("cli optimal sample", 2, "cli", channel_cmd("optimal", "line3", loss=True)),
    ]
    jobs = []
    # Misses first, then the repeats that hit them, within the cycle.
    for name, spec in (
        (f"line4@{fresh_base}", line(4, fresh_base)),
        (f"discrete4@{fresh_base}", discrete(4, fresh_base)),
    ):
        jobs.append(Job("cli", "cli kernels miss", {"cmd": "kernels", "metric": name, "spec": spec}))
        jobs.append(Job("cli", "cli kernels hit", {"cmd": "kernels", "metric": name, "spec": spec}))
        jobs.append(Job("cli", "cli vertices hit", {"cmd": "vertices", "metric": name, "spec": spec}))
    return deck, jobs


def _break_privacy(rng: random.Random, rows) -> tuple:
    """Move mass in one row so that some column ratio exceeds every bound."""
    rows = [list(r) for r in rows]
    x = rng.randrange(len(rows))
    j = max(range(len(rows[x])), key=lambda c: rows[x][c])
    k = (j + 1) % len(rows[x])
    rows[x][k] += rows[x][j]
    rows[x][j] = Fraction(0)
    return tuple(tuple(r) for r in rows)


def cycle_jobs(workload: str, seed: int, cycle: int, kernels: dict) -> list:
    """The jobs of one cycle, in order."""
    rng = cycle_rng(workload, seed, cycle)
    if workload == "enum-tables":
        return _deal(rng, enum_deck())
    if workload == "verdict-stream":
        return _deal(rng, verdict_deck(kernels, seed, cycle))
    if workload == "capacity-lp":
        return _deal(rng, capacity_deck(kernels))
    if workload == "cli-cached":
        deck, pinned = cli_deck(kernels, cycle)
        jobs = _deal(rng, deck)
        # Keep each metric's miss ahead of its hits.
        for job in pinned:
            pos = rng.randrange(len(jobs) + 1)
            if job.label != "cli kernels miss":
                first = next(
                    i for i, j in enumerate(jobs)
                    if j.label == "cli kernels miss" and j.args["metric"] == job.args["metric"]
                )
                pos = rng.randint(first + 1, len(jobs))
            jobs.insert(pos, job)
        return jobs
    raise ValueError(f"unknown workload {workload!r}")

