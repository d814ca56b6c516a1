#!/usr/bin/env python3
"""End-to-end and traced benchmark of the msfu service.

    python3 msfu_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds the ``msfu``
binary and the tracer package (``msfu_bench/tracer``) with cargo into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), generates the workload's
seeded request list, and then:

* ``--trace 0`` drives a real ``msfu serve`` process with one closed-loop
  client (next request only after the previous response) and prints the
  end-to-end metrics;
* ``--trace 1`` replays the same requests in-process through the tracer and
  prints the per-layer metrics derived from its spans.

Outputs are checked (see README.md); the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Progress and diagnostics
go to stderr. Scratch files live under ``.bench_work`` and are removed.
"""

import argparse
import functools
import json
import math
import os
import queue
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # write nothing next to the sources

import workloads  # noqa: E402

ROOT = HERE.parent
RESPONSE_TIMEOUT_S = 120.0
# Set-up repetitions per run (the reported setup_s is their median).
SETUP_REPEATS = {"paper_sweep": 31, "sim_sweep": 31, "serve_mixed": 5}
# Points simulated again with msfu_sim::reference per run, drawn from those
# with capacity <= REFERENCE_MAX_CAPACITY: the reference simulator is ~10x
# slower, and more on adaptive routing over a Random layout.
REFERENCE_SAMPLE = 3
REFERENCE_MAX_CAPACITY = 16
# glibc's default malloc thresholds, pinned: without them glibc raises its
# mmap/trim thresholds as the process frees large blocks, so the peak RSS
# depends on the allocation history (four runs of one paper_sweep request
# list peaked at 13.7-14.8 MB, and at 12.27-12.31 MB pinned, with no
# wall-time cost). Every program process the benchmark starts runs with them.
PROGRAM_ENV = dict(os.environ, MALLOC_TRIM_THRESHOLD_="131072", MALLOC_MMAP_THRESHOLD_="131072")


def log(message):
    print(f"[msfu_bench] {message}", file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark could not run at all (no result is printed)."""


# ---------------------------------------------------------------- build


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise Failure(f"{ROOT} is not an msfu source checkout (no Cargo.toml / crates)")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (["cargo", "build", "--release", "--offline", "-q", "-p", "msfu", "--bin", "msfu"],
                ["cargo", "build", "--release", "--offline", "-q",
                 "--manifest-path", str(HERE / "tracer" / "Cargo.toml")]):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise Failure(f"build failed: {' '.join(cmd)}")
    release = target / "release"
    return release / "msfu", release / "msfu-bench-tracer"


# --------------------------------------------------------- serve session


def vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def child_pids(pid):
    pids = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as f:
                pids += [int(p) for p in f.read().split()]
    except OSError:
        pass
    return pids


class Session:
    """One ``msfu serve`` process and its single closed-loop client."""

    def __init__(self, msfu, args):
        self.proc = subprocess.Popen([str(msfu), "serve", *args], cwd=ROOT, env=PROGRAM_ENV,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True, bufsize=1)
        self.lines = queue.Queue()
        # Cache warnings serve prints (its worker processes' stderr is
        # discarded by serve itself; see cache_damage for those).
        self.cache_warnings = []
        self.readers = [threading.Thread(target=self._read, daemon=True),
                        threading.Thread(target=self._read_stderr, daemon=True)]
        for reader in self.readers:
            reader.start()

    def _read(self):
        for line in self.proc.stdout:
            # Progress events are skipped unparsed; only responses matter.
            if line.startswith('{"type":"response"'):
                self.lines.put(line)
        self.lines.put(None)

    def _read_stderr(self):
        for line in self.proc.stderr:
            if line.startswith("[msfu eval-cache]"):
                self.cache_warnings.append(line.strip())

    def request(self, line):
        """Sends one request and waits for its response: (seconds, dict)."""
        start = time.perf_counter()
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        got = self.lines.get(timeout=RESPONSE_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if got is None:
            raise Failure("msfu serve exited mid-session")
        return elapsed, json.loads(got)

    def peak_rss_mb(self):
        """Kernel high-water RSS of serve plus its worker processes."""
        pids = [self.proc.pid] + child_pids(self.proc.pid)
        return sum(vm_hwm_kb(p) for p in pids) / 1024.0

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=60)  # serve reaps its own workers on exit
        except subprocess.TimeoutExpired:
            for pid in child_pids(self.proc.pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            self.proc.kill()
            self.proc.wait()
        for reader in self.readers:
            reader.join(timeout=10)


# --------------------------------------------------------------- checks


@functools.lru_cache(maxsize=None)
def load_json(rel):
    with open(ROOT / rel) as f:
        return json.load(f)


def table1_index():
    """(label, strategy, factory) -> evaluation of the pinned Table I rows."""
    index = {}
    for row in load_json("benches/baselines/BENCH_table1.json")["results"]["rows"]:
        e = row["evaluation"]
        index[(row["label"], e["strategy"], workloads.compact(e["factory"]))] = e
    return index


class Checker:
    """Collects every evaluation a run returns and validates responses."""

    def __init__(self):
        self.by_point = {}        # point key -> evaluation
        self.distinct = {}        # canonical evaluation -> evaluation
        self.table1 = table1_index()
        self.problems = []
        self.rows = 0

    def _evaluation(self, e, point=None, eval_config=None):
        text = workloads.compact(e)
        self.distinct[text] = e
        if point is None:
            return True
        ok = True
        key = workloads.point_key(point, eval_config)
        if self.by_point.setdefault(key, text) != text:
            self.problems.append(f"point {key} answered differently")
            ok = False
        if eval_config == workloads.HARNESS_EVAL and point["label"] in ("L1", "L2"):
            pinned = self.table1.get((point["label"], e["strategy"], workloads.compact(e["factory"])))
            if pinned is not None and pinned != e:
                self.problems.append(f"{point['label']} {e['strategy']} {e['factory']} differs from BENCH_table1.json")
                ok = False
        return ok

    def response(self, req, resp):
        """True when the response is ok and consistent with everything seen."""
        if resp.get("status") != "ok" or resp.get("cancelled"):
            self.problems.append(f"{resp.get('id')}: {resp.get('error')}")
            return False
        result = resp["result"]
        ok = True
        if req["kind"] == "sweep":
            rows = result["results"]["rows"]
            if len(rows) != len(req["points"]):
                self.problems.append(f"{resp['id']}: {len(rows)} rows for {len(req['points'])} points")
                return False
            for row, point in zip(rows, req["points"]):
                if row["label"] != point["label"]:
                    self.problems.append(f"{resp['id']}: row label {row['label']} for {point['label']}")
                    ok = False
                ok &= self._evaluation(row["evaluation"], point, req["eval"])
            self.rows += len(rows)
        elif req["kind"] == "evaluate":
            ok &= self._evaluation(result["evaluation"], req["points"][0], req["eval"])
            self.rows += 1
        elif req["kind"] == "search":
            rows = result["results"]["rows"]
            for row in rows:
                self._evaluation(row["evaluation"])
            self.rows += len(rows)
        if req.get("expect"):
            pinned = load_json(req["expect"])
            for part in ("results", "search", "stream"):
                if part in pinned and pinned[part] != result.get(part):
                    self.problems.append(f"{resp['id']}: {part} differ from {req['expect']}")
                    ok = False
        return bool(ok)

    def volume_vs_critical_geomean(self):
        return geomean(e["volume"] / e["critical_volume"] for e in self.distinct.values()
                       if e.get("critical_volume"))

    def hs_volume_reduction(self):
        """Line(NR) volume / best-reuse HS volume, geomean over the two-level
        capacities where both were evaluated under one evaluation config."""
        line_nr, hs = {}, {}
        for key, text in self.by_point.items():
            factory, strategy, eval_config = json.loads(key)
            e = json.loads(text)
            if factory.get("levels") != 2:
                continue
            cell = (factory.get("capacity"), workloads.compact(eval_config))
            if strategy["strategy"] == "linear" and factory.get("reuse") == "NR":
                line_nr[cell] = e["volume"]
            elif strategy["strategy"] == "hierarchical_stitching":
                hs[cell] = min(hs.get(cell, e["volume"]), e["volume"])
        return geomean(line_nr[c] / hs[c] for c in line_nr if c in hs)


def geomean(values):
    """Geometric mean, summed in sorted order so that it repeats bit for bit
    whatever order the values arrived in."""
    logs = sorted(math.log(v) for v in values)
    return math.exp(math.fsum(logs) / len(logs))


def cache_damage(msfu, checker, cache_dir):
    """Runs ``msfu cache verify`` on the session's cache directory; returns
    the number of quarantined segments and damaged records in it. Each one is
    a disk-tier open that found a segment it took for damaged (worker
    processes report that only by quarantining the segment)."""
    done = subprocess.run([str(msfu), "cache", "verify", str(cache_dir)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    if done.returncode == 0:
        return 0
    summary = done.stdout.strip()
    checker.problems.append(f"cache directory damaged: {summary}")
    for line in done.stderr.splitlines()[:5]:
        checker.problems.append(line)
    warnings, quarantined = re.search(r"(\d+) warning\(s\), (\d+) quarantined", summary).groups()
    return int(warnings) + int(quarantined)


def reference_check(tracer, checker, seed, work):
    """Re-simulates a seeded sample of the run's small points with
    msfu_sim::reference; returns the number of mismatches."""
    candidates = []
    for key in sorted(checker.by_point):
        factory, strategy, eval_config = json.loads(key)
        capacity = factory.get("capacity") or factory["k"] ** factory.get("levels", 1)
        if capacity <= REFERENCE_MAX_CAPACITY:
            candidates.append((factory, strategy, eval_config, json.loads(checker.by_point[key])))
    sample = random.Random(seed).sample(candidates, min(REFERENCE_SAMPLE, len(candidates)))
    path = work / "reference.ndjson"
    with open(path, "w") as f:
        for factory, strategy, eval_config, e in sample:
            f.write(json.dumps({"factory": factory, "strategy": strategy,
                                "eval": eval_config, "expect": e}) + "\n")
    done = subprocess.run([str(tracer), "check", "--input", str(path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise Failure(f"reference check failed to run: {done.stderr.strip()}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    for problem in report["mismatches"]:
        checker.problems.append(f"reference simulator: {problem}")
    return len(report["mismatches"])


# ------------------------------------------------------------ end to end


def end_to_end(name, spec, seed, msfu, tracer, work):
    checker = Checker()
    setup_times = []
    for repeat in range(SETUP_REPEATS[name]):
        args = ["--workers", str(spec["workers"])] if spec["workers"] else []
        if spec["cache"]:
            args += ["--cache-dir", str(work / f"cache-{repeat}")]
        start = time.perf_counter()
        session = Session(msfu, args)
        try:
            setup = [(req, session.request(req["line"])[1])
                     for req in spec["setup"] or [workloads.ready_request()]]
        except BaseException:
            session.close()
            raise
        setup_times.append(time.perf_counter() - start)
        if repeat + 1 < SETUP_REPEATS[name]:
            session.close()

    failed = 0
    latencies = []
    try:
        if not all([checker.response(req, resp) for req, resp in setup]):
            raise Failure(f"set-up failed: {checker.problems[:3]}")
        checker.rows = 0
        run_start = time.perf_counter()
        for req in spec["run"]:
            seconds, resp = session.request(req["line"])
            latencies.append(seconds)
            if not checker.response(req, resp):
                failed += 1
        run_wall = time.perf_counter() - run_start
        rss = session.peak_rss_mb()
    finally:
        session.close()

    # Warnings serve printed anywhere in the measured session make the run
    # incorrect; damage found in the directory counts as failed operations.
    checker.problems += session.cache_warnings
    if spec["cache"]:
        failed += cache_damage(msfu, checker, work / f"cache-{SETUP_REPEATS[name] - 1}")
    failed += reference_check(tracer, checker, seed, work)
    attempted = len(spec["run"])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "points_per_s": (checker.rows / run_wall, "1/s"),
        "requests_per_s": (attempted / run_wall, "1/s"),
        "request_p50_ms": (1000 * statistics.median(latencies), "ms"),
        # Linear interpolation between order statistics: on the batch
        # workloads the 95th percentile falls inside the group of largest
        # cells, and interpolating averages two of its samples.
        "request_p95_ms": (1000 * statistics.quantiles(latencies, n=20, method="inclusive")[18], "ms"),
        "peak_rss_mb": (rss, "MB"),
        "volume_vs_critical_geomean": (checker.volume_vs_critical_geomean(), "ratio"),
        "hs_volume_reduction": (checker.hs_volume_reduction(), "ratio"),
    }
    return attempted, failed, checker.problems, metrics


# ---------------------------------------------------------------- traced


def interval_union(intervals):
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(trace):
    spans = trace["spans"]
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    dur = [s["end"] - s["start"] for s in spans]

    def self_time(i):
        return dur[i] - interval_union([(spans[c]["start"], spans[c]["end"]) for c in children.get(i, [])])

    def total(name, pred=lambda s: True):
        return sum(dur[i] for i, s in enumerate(spans) if s["name"] == name and pred(s))

    def count(name, pred=lambda s: True):
        return sum(1 for s in spans if s["name"] == name and pred(s))

    def attr(name, key, pred=lambda s: True):
        return sum(s.get(key, 0) for s in spans if s["name"] == name and pred(s))

    roots = [i for i, s in enumerate(spans) if s["name"] == "request"]
    runs = [i for i, s in enumerate(spans) if s["name"] == "service.run"]
    decomposed = [i for i in runs if "threads" in spans[i]]
    clustered = [i for i in runs if "cluster_shards" in spans[i]]
    probe_s = sum(dur[i] for i, s in enumerate(spans) if s["probe"])

    m = {}
    m["distill.build_s"] = (total("distill.build"), "s")
    m["distill.builds"] = (count("distill.build"), "count")
    for mapper in ("FD", "HS", "GP", "Line", "Random"):
        m[f"layout.map.{mapper}_s"] = (total("layout.map", lambda s: s["mapper"].split("+")[0] == mapper), "s")
    m["layout.maps"] = (count("layout.map"), "count")
    sim_s = total("sim.run")
    cycles = attr("sim.run", "cycles")
    m["sim.run_s"] = (sim_s, "s")
    m["sim.runs"] = (count("sim.run"), "count")
    m["sim.cycles"] = (cycles, "count")
    m["sim.routing_conflicts"] = (attr("sim.run", "routing_conflicts"), "count")
    m["sim.cycles_per_s"] = (cycles / sim_s if sim_s else 0.0, "1/s")

    busy = sum(dur[c] for i in decomposed for c in children.get(i, []) if spans[c]["name"] == "core.sweep.point")
    capacity = sum(dur[i] * spans[i]["threads"] for i in decomposed)
    m["core.sweep.parallel_efficiency"] = (busy / capacity if capacity else 0.0, "ratio")
    m["core.sweep.critical_point_s"] = (sum(
        max((dur[c] for c in children.get(i, []) if spans[c]["name"] == "core.sweep.point"), default=0.0)
        for i in decomposed), "s")

    hits, misses = attr("service.run", "cache_hits"), attr("service.run", "cache_misses")
    m["core.cache.hits"] = (hits, "count")
    m["core.cache.misses"] = (misses, "count")
    m["core.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    m["core.cache.map_on_hit_s"] = (total("layout.map", lambda s: s.get("hit", False)), "s")
    m["core.persist.open_s"] = (total("core.persist.open"), "s")
    m["core.persist.records_loaded"] = (attr("service.run", "cache_loaded"), "count")
    m["core.persist.bytes"] = (trace["cache_dir_bytes"], "bytes")
    m["core.persist.appends"] = (attr("service.run", "cache_persisted"), "count")
    m["core.search_s"] = (total("service.run", lambda s: s["kind"] == "search"), "s")
    m["core.stream_s"] = (total("service.run", lambda s: s["kind"] == "stream"), "s")

    m["service.protocol.decode_s"] = (total("service.protocol.decode"), "s")
    m["service.protocol.encode_s"] = (total("service.protocol.encode"), "s")
    m["service.protocol.bytes_out"] = (attr("service.protocol.encode", "bytes"), "bytes")
    m["service.run_s"] = (total("service.run"), "s")

    coordinator = sum(spans[i]["cluster_coordinator_s"] for i in clustered)
    clustered_s = sum(dur[i] for i in clustered)
    m["cluster.coordinator_s"] = (coordinator, "s")
    m["cluster.shards"] = (sum(spans[i]["cluster_shards"] for i in clustered), "count")
    m["cluster.shards_retried"] = (sum(spans[i]["cluster_shards_retried"] for i in clustered), "count")
    m["cluster.occupancy"] = (statistics.mean(spans[i]["cluster_occupancy"] for i in clustered)
                              if clustered else 0.0, "ratio")
    m["cluster.overhead_ratio"] = (coordinator / clustered_s if clustered_s else 0.0, "ratio")

    # Shares of busy time: the self time of every span inside a request.
    # Where a job ran whole (serve_mixed), the probes' build/map/sim time for
    # the same inputs is moved out of service.run into its layer.
    inside = [i for i, s in enumerate(spans) if not s["probe"]]
    busy_total = sum(self_time(i) for i in inside)
    residual = sum(self_time(i) for i in roots)
    layer = {n: sum(self_time(i) for i, s in enumerate(spans) if s["name"] == n)
             for n in ("layout.map", "sim.run")}
    probed = sum(dur[i] for i, s in enumerate(spans)
                 if s["probe"] and s["name"] in ("layout.map", "sim.run", "distill.build"))
    service = sum(self_time(i) for i in inside if spans[i]["name"] in (
        "service.run", "service.protocol.decode", "service.protocol.encode", "core.sweep.point")) - probed
    m["trace.share.layout"] = (layer["layout.map"] / busy_total, "ratio")
    m["trace.share.sim"] = (layer["sim.run"] / busy_total, "ratio")
    m["trace.share.service"] = (service / busy_total, "ratio")
    m["trace.residual_ratio"] = (residual / sum(dur[i] for i in roots), "ratio")
    m["trace.overhead_ratio"] = ((trace["traced_wall_s"] - probe_s) / trace["untraced_wall_s"] - 1.0, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


def traced(spec, tracer, work):
    path = work / "requests.ndjson"
    with open(path, "w") as f:
        for phase, reqs in (("setup", spec["setup"]), ("run", spec["run"])):
            for req in reqs:
                f.write(json.dumps({"phase": phase, "line": req["line"],
                                    "hits": req.get("hits", [])}) + "\n")
    out = work / "trace.json"
    cmd = [str(tracer), "replay", "--input", str(path), "--out", str(out)]
    if spec["cache"]:
        cmd += ["--cache-dir", str(work / "cache")]
    cmd += ["--workers", str(spec["workers"])]
    done = subprocess.run(cmd, cwd=ROOT, env=PROGRAM_ENV, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=170)
    if done.returncode != 0:
        raise Failure("tracer replay failed")
    with open(out) as f:
        trace = json.load(f)
    log(f"tracer: {trace['threads']} threads available")
    problems = []
    failed = trace["errors"] + trace["mismatches"]
    if trace["mismatches"]:
        problems.append(f"{trace['mismatches']} traced responses differ from the untraced pass")
    # The cache must answer exactly the sweep points the generator predicts.
    roots = {s["request"]: s for s in trace["spans"] if s["name"] == "service.run" and s["kind"] == "sweep"}
    for index, req in enumerate(spec["run"]):
        if "hits" in req and index in roots and roots[index]["cache_hits"] != sum(req["hits"]):
            problems.append(f"{req['kind']} {index}: {roots[index]['cache_hits']} cache hits, "
                            f"expected {sum(req['hits'])}")
            failed += 1
    return trace["requests"], failed, problems, layer_metrics(trace)


# ------------------------------------------------------------------ main


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        msfu, tracer = build()
        spec = workloads.build(args.workload, args.seed, args.seconds)
        work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            if args.trace:
                outcome = traced(spec, tracer, work)
            else:
                outcome = end_to_end(args.workload, spec, args.seed, msfu, tracer, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                work.parent.rmdir()  # only when no other run is using it
            except OSError:
                pass
    except (Failure, OSError, subprocess.SubprocessError, queue.Empty) as error:
        log(f"error: {error!r}")
        return 1
    attempted, failed, problems, metrics = outcome
    for problem in problems[:20]:
        log(f"check: {problem}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
