"""Seeded request lists for the three benchmark workloads.

Each workload is a fixed set of points (factory x strategy x evaluation
config); the seed only decides the order in which requests are sent, how the
serve_mixed traffic interleaves its request kinds, and which warm inputs it
repeats. The set of distinct points, and with it every deterministic metric,
is therefore the same for every seed. How much work one run does is set by
``units`` (rounds of the point set, or a request count), which the caller
derives from ``--seconds`` with fixed constants, never from a clock.

A request is a dict:
  line    the exact JSON text sent to ``msfu serve`` and replayed by the tracer
  kind    sweep | evaluate | search | stream
  points  for sweep/evaluate: the point dicts, in row order
  hits    for sweep: whether each point's evaluation is already cached
  expect  optional: a baseline report (relative to the repo root) whose
          ``results``, ``search`` and ``stream`` the response must equal
          exactly

A workload is a dict: ``workers`` and ``cache`` (the ``msfu serve`` pool
size and whether the session gets a cache directory), then the ``setup``
requests (sent before timing starts) and the timed ``run`` requests.
"""

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Table I harness evaluation: dimension-ordered routing.
HARNESS_EVAL = {"routing": "dimension-ordered"}
# The protocol default when a request omits eval.routing: adaptive routing.
ADAPTIVE_EVAL = {}

SINGLE_LEVEL_CAPACITIES = [2, 4, 6, 8, 12, 16, 20, 24]
TWO_LEVEL_CAPACITIES = [4, 16, 36, 64, 100]


def compact(obj):
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def point_key(point, eval_config):
    """Identity of an evaluation: everything the evaluation depends on."""
    return compact([point["factory"], point["strategy"], eval_config])


def per_level_k(capacity, levels):
    k = round(capacity ** (1.0 / levels))
    if k**levels != capacity:
        raise ValueError(f"capacity {capacity} is not a {levels}-th power")
    return k


def logical_qubits(capacity, levels):
    k = per_level_k(capacity, levels)
    inputs = 3 * k + 8
    modules = sum(inputs ** (levels - 1 - r) * k**r for r in range(levels))
    return modules * (5 * k + 13)


def force_directed(seed, qubits):
    """The harness's size-scaled FD configuration (``scaled_fd_config``)."""
    if qubits > 1500:
        iterations, sample = 8, 4000
    elif qubits > 500:
        iterations, sample = 15, 8000
    else:
        iterations, sample = 30, 20000
    return {"strategy": "force_directed", "seed": seed,
            "iterations": iterations, "repulsion_sample": sample}


def table1_points(levels, capacity, reuse, seed=42):
    """One Table I grid cell: the strategies the paper tables at this level
    (Random only under reuse at one level, HS only at two), in line-up order."""
    label = "L1" if levels == 1 else "L2"
    factory = {"capacity": capacity, "levels": levels, "reuse": reuse}
    strategies = []
    if levels == 1 and reuse == "R":
        strategies.append({"strategy": "random", "seed": seed})
    strategies.append({"strategy": "linear"})
    strategies.append(force_directed(seed, logical_qubits(capacity, levels)))
    strategies.append({"strategy": "graph_partition", "seed": seed})
    if levels == 2:
        strategies.append({"strategy": "hierarchical_stitching", "seed": seed})
    return [{"label": label, "factory": factory, "strategy": s} for s in strategies]


def sweep_request(rid, name, eval_config, points, serial, hits=None):
    body = {"name": name, "eval": eval_config,
            "points": [{"label": p["label"], "factory": p["factory"],
                        "strategy": p["strategy"]} for p in points]}
    line = compact({"protocol_version": 1, "id": rid, "kind": "sweep",
                    "serial": serial, "sweep": body})
    req = {"line": line, "kind": "sweep", "points": points, "eval": eval_config}
    if hits is not None:
        req["hits"] = hits
    return req


def evaluate_request(rid, point, eval_config):
    line = compact({"protocol_version": 1, "id": rid, "kind": "evaluate",
                    "serial": True, "factory": point["factory"],
                    "strategy": point["strategy"], "eval": eval_config})
    return {"line": line, "kind": "evaluate", "points": [point], "eval": eval_config}


def ready_request():
    """The smallest evaluation: answers as soon as the session is ready."""
    point = {"label": "ready", "factory": {"k": 2, "levels": 1},
             "strategy": {"strategy": "linear"}}
    return evaluate_request("ready", point, HARNESS_EVAL)


def paper_sweep(seed, rounds, smoke=False):
    """Table I at paper capacities, both reuse policies, on the default
    parallel path, packed into four sweep requests of about equal work per
    round (2.5-3 s each on two CPUs): the K = 100 cell under reuse, the
    K = 100 cell without reuse (in both, the FD point is the critical
    path), K = 64 under both policies, and everything smaller. Equal-sized
    requests put the latency percentiles inside one group of samples; a
    request per Table I cell put them between groups 2-10x apart. The seed
    orders the four requests of each round."""
    rng = random.Random(seed)
    one_level = SINGLE_LEVEL_CAPACITIES[:2] if smoke else SINGLE_LEVEL_CAPACITIES
    two_level = TWO_LEVEL_CAPACITIES[:2] if smoke else TWO_LEVEL_CAPACITIES
    largest, second = two_level[-1], two_level[-2]
    both = ("R", "NR")
    groups = [
        (f"L2-{largest}-R", [(2, largest, "R")]),
        (f"L2-{largest}-NR", [(2, largest, "NR")]),
        (f"L2-{second}", [(2, second, r) for r in both]),
        ("rest", [(2, c, r) for c in two_level[:-2] for r in both]
                 + [(1, c, r) for c in one_level for r in both]),
    ]
    run = []
    for r in range(rounds):
        order = list(range(len(groups)))
        rng.shuffle(order)
        for i in order:
            name, cells = groups[i]
            points = [p for levels, c, reuse in cells for p in table1_points(levels, c, reuse)]
            run.append(sweep_request(f"paper-{r}-{name}", "paper_sweep", HARNESS_EVAL, points,
                                     serial=False))
    return {"workers": 0, "cache": False, "setup": [], "run": run}


def sim_points(smoke):
    """Line/Random/GP per (capacity, reuse policy), plus HS at the smallest
    capacity (for hs_volume_reduction; its mapping is ~1% of a round)."""
    points = []
    for capacity in (16,) if smoke else (16, 36, 64):
        for reuse in ("R", "NR"):
            factory = {"capacity": capacity, "levels": 2, "reuse": reuse}
            for strategy in ({"strategy": "linear"},
                             {"strategy": "random", "seed": 42},
                             {"strategy": "graph_partition", "seed": 42}):
                points.append({"label": "sim", "factory": factory, "strategy": strategy})
    for reuse in ("R", "NR"):
        points.append({"label": "sim",
                       "factory": {"capacity": 16, "levels": 2, "reuse": reuse},
                       "strategy": {"strategy": "hierarchical_stitching", "seed": 42}})
    return points


# sim_sweep packs each round into three serial sweeps of about equal work
# (times measured on a 2-CPU x86-64 container): the K = 64 NR Random point alone
# (~3.0 s), the K = 64 R Random point with K = 64 NR Line and K = 64 R GP
# (~2.3 s), and every other point (~2.3 s). One request per point put the
# median among one-point requests of 108-171 ms, and runs of identical code
# spread 11-26% on it.
SIM_GROUPS = (
    ("K64-NR-random", {(64, "NR", "random")}),
    ("K64-R-random", {(64, "R", "random"), (64, "NR", "linear"), (64, "R", "graph_partition")}),
)


def sim_group(point):
    key = (point["factory"]["capacity"], point["factory"]["reuse"], point["strategy"]["strategy"])
    return next((name for name, members in SIM_GROUPS if key in members), "rest")


def sim_sweep(seed, rounds, smoke=False):
    """Two-level Line/Random/GP under adaptive routing, sent as serial sweeps
    of about equal work (SIM_GROUPS), so that both latency percentiles fall
    among samples of nearly equal cost; every round sends every group in a
    fresh seeded order, each with its points in seeded order."""
    rng = random.Random(seed)
    groups = {}
    for point in sim_points(smoke):
        groups.setdefault(sim_group(point), []).append(point)
    names = sorted(groups)
    run = []
    for r in range(rounds):
        rng.shuffle(names)
        for name in names:
            points = list(groups[name])
            rng.shuffle(points)
            run.append(sweep_request(f"sim-{r}-{name}", "sim_sweep", ADAPTIVE_EVAL, points,
                                     serial=True))
    return {"workers": 0, "cache": False, "setup": [], "run": run}


SERVE_SESSION = "benches/specs/serve_session.ndjson"
SEARCH_BASELINE = "benches/baselines/serve/BENCH_search.json"
STREAM_SPEC = "benches/specs/stream_quick.json"
STREAM_BASELINE = "benches/baselines/BENCH_stream.json"

MIXED_FACTORIES = [{"k": k, "levels": 1, "reuse": reuse} for k in (2, 3, 4) for reuse in ("R", "NR")]
WARM_BULK = 1200          # seeded-random warm records pre-filled at set-up
SWEEP_POINTS = 4          # points per serve_mixed sweep ...
WARM_PER_SWEEP = 2        # ... of which this many repeat warm inputs
# One serve_mixed round: every request kind, and two sweeps, so that the
# median falls inside the sweeps and the 95th percentile inside the searches
# rather than on the boundary between two kinds (see README.md).
ROUND = ("sweep", "sweep", "evaluate", "search", "stream")


def session_search():
    """The search request of the repo's serve session, which
    benches/baselines/serve/BENCH_search.json pins."""
    with open(ROOT / SERVE_SESSION) as f:
        requests = [json.loads(line) for line in f if line.strip()]
    return next(r["search"] for r in requests if r["kind"] == "search")


def warm_points():
    """The warm set: Table I cells that benches/baselines/BENCH_table1.json
    pins (single level K = 2, 4, 8; two-level K = 4 without FD), plus
    seeded random placements over small single-level factories."""
    points = []
    for capacity in (2, 4, 8):
        for reuse in ("R", "NR"):
            points += table1_points(1, capacity, reuse)
    for reuse in ("R", "NR"):
        points += [p for p in table1_points(2, 4, reuse)
                   if p["strategy"]["strategy"] != "force_directed"]
    for s in range(WARM_BULK):
        points.append({"label": "warm", "factory": MIXED_FACTORIES[s % len(MIXED_FACTORIES)],
                       "strategy": {"strategy": "random", "seed": 1000 + s}})
    return points


def serve_mixed(seed, rounds, smoke=False):
    """Small serial traffic against one ``msfu serve --workers 2
    --cache-dir`` session. Each round sends the ROUND kinds in seeded
    order: the serve session's search and the stream_quick spec verbatim
    (both pinned by baselines), sweeps of SWEEP_POINTS points of which
    WARM_PER_SWEEP repeat warm inputs (cache reads) and the rest are new
    (simulated and appended, so the disk tier grows through the run), and an
    evaluate of a warm point. Set-up pre-fills the warm set in one sweep."""
    rng = random.Random(seed)
    warm = warm_points()
    seen = {point_key(p, HARNESS_EVAL) for p in warm}
    setup = [sweep_request("prefill", "prefill", HARNESS_EVAL, warm, serial=True)]
    search = session_search()
    with open(ROOT / STREAM_SPEC) as f:
        stream = json.load(f)

    # Fixed multisets, shuffled by the seed: every seed evaluates, hits and
    # misses the same inputs, only in another order.
    sweeps = ROUND.count("sweep") * rounds
    warm_picks = [warm[j % len(warm)] for j in range(WARM_PER_SWEEP * sweeps)]
    evaluates = [warm[j % len(warm)] for j in range(ROUND.count("evaluate") * rounds)]
    new = [{"label": "new", "factory": MIXED_FACTORIES[s % len(MIXED_FACTORIES)],
            "strategy": {"strategy": "random", "seed": 100000 + s}}
           for s in range((SWEEP_POINTS - WARM_PER_SWEEP) * sweeps)]
    for items in (warm_picks, evaluates, new):
        rng.shuffle(items)
    run = []
    for r in range(rounds):
        kinds = list(ROUND)
        rng.shuffle(kinds)
        for i, kind in enumerate(kinds):
            rid = f"mixed-{r}-{i}"
            if kind == "sweep":
                points = ([warm_picks.pop() for _ in range(WARM_PER_SWEEP)]
                          + [new.pop() for _ in range(SWEEP_POINTS - WARM_PER_SWEEP)])
                rng.shuffle(points)
                hits = []
                for p in points:
                    key = point_key(p, HARNESS_EVAL)
                    hits.append(key in seen)
                    seen.add(key)
                run.append(sweep_request(rid, "mixed", HARNESS_EVAL, points, serial=True,
                                         hits=hits))
            elif kind == "evaluate":
                run.append(evaluate_request(rid, evaluates.pop(), HARNESS_EVAL))
            elif kind == "search":
                line = compact({"protocol_version": 1, "id": rid, "kind": "search",
                                "serial": True, "search": search})
                run.append({"line": line, "kind": "search", "expect": SEARCH_BASELINE})
            else:
                line = compact({"protocol_version": 1, "id": rid, "kind": "stream",
                                "serial": True, "stream": stream})
                run.append({"line": line, "kind": "stream", "expect": STREAM_BASELINE})
    return {"workers": 2, "cache": True, "setup": setup, "run": run}


# Work per run, as a function of --seconds. The constants are the measured
# cost of one unit on a 2-CPU x86-64 container (Xeon, release build):
# a paper_sweep round ~12 s, a sim_sweep round ~8.5 s, and ~14 serve_mixed
# rounds (70 requests) per second over a run of ~1800 requests (the rate
# falls as the disk tier grows). They fix the work; they are not a time
# limit.
WORKLOADS = {
    "paper_sweep": (paper_sweep, lambda seconds: max(1, round(seconds / 12.0))),
    "sim_sweep": (sim_sweep, lambda seconds: max(2, round(seconds / 8.5))),
    "serve_mixed": (serve_mixed, lambda seconds: max(40, 14 * seconds)),
}


def build(name, seed, seconds):
    """The workload's requests; ``seconds == 0`` selects the smoke size (the
    smallest capacities, one round (two on sim_sweep), 40 serve_mixed rounds)."""
    make, units = WORKLOADS[name]
    return make(seed, units(max(seconds, 1)), smoke=seconds == 0)
