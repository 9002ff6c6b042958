#!/usr/bin/env python3
"""The benchmark: one workload, a fixed amount of work, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  Builds the workload
runner (perfbench/harness) and the CLI with dune in .perfbench/build,
runs the workload, scales its timings to the reference speed and
prints, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones from
a traced run.  README.md in this directory describes the workloads and
every metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402
import server  # noqa: E402

WORKLOADS = ("curated-cells", "generated-cells", "sweep-warm", "serve-closed")

STATE = ".perfbench"
# The harness is not part of the repository's build (perfbench/dune marks
# it as data): it is built in a workspace of its own that links the
# repository's dune-project, lib/ and bin/.
WORKSPACE = os.path.join(STATE, "build")
WORKSPACE_LINKS = {"dune-project": "dune-project", "lib": "lib", "bin": "bin",
                   "harness": os.path.join("perfbench", "harness")}
HARNESS = os.path.join(WORKSPACE, "_build/default/harness/harness.exe")
CLI = os.path.join(WORKSPACE, "_build/default/bin/resopt_cli.exe")

# Timings are scaled to a reference speed: the seconds they would take
# where the harness's calibration kernel takes KERNEL_REF_S.
KERNEL_REF_S = 0.0004

# Nominal speeds on the reference machine (2 vCPU Xeon), used only to
# turn --seconds into a fixed amount of work; a run never stops on a
# clock.
CURATED_PASS_S = 0.9
GENERATED_CELLS_PER_S = 330
WARM_SWEEP_S = 0.55
SERVE_REQUESTS_PER_S = 1900

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("plan_cost_geomean", "tu"),
    ("gain_geomean", "x"),
    ("ok_ratio", "ratio"),
)

LAYERS = ("pipeline", "validate", "feautrier", "cost", "mapping", "bounds")

PER_LAYER = (
    ("pipeline.ms", "ms"),
    ("pipeline.share", "ratio"),
    ("alignment.ms", "ms"),
    ("commplan.ms", "ms"),
    ("validate.ms", "ms"),
    ("validate.share", "ratio"),
    ("validate.violations", "count"),
    ("feautrier.ms", "ms"),
    ("feautrier.share", "ratio"),
    ("cost.ms", "ms"),
    ("cost.calls", "count"),
    ("cost.share", "ratio"),
    ("mapping.ms", "ms"),
    ("mapping.share", "ratio"),
    ("bounds.ms", "ms"),
    ("bounds.share", "ratio"),
    ("unattributed.share", "ratio"),
    ("sweep.skipped", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.entries", "count"),
    ("par.cpu_util", "ratio"),
    ("sweep.cell_ms", "ms"),
    ("sweep.cost_ms", "ms"),
    ("answer.ms", "ms"),
    ("serve.server_ms_p50", "ms"),
    ("serve.server_ms_p99", "ms"),
    ("serve.transport_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("serve.timeout", "count"),
    ("serve.mismatches", "count"),
    ("trace.overhead", "ratio"),
)


def log(msg):
    print(msg, flush=True)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def check_checkout():
    for p in ("dune-project", "lib", "bin", "perfbench/harness/harness.ml"):
        if not os.path.exists(p):
            fail(f"not the root of a repository checkout: {p} is missing")


def build():
    t0 = time.perf_counter()
    os.makedirs(WORKSPACE, exist_ok=True)
    for name, target in WORKSPACE_LINKS.items():
        link = os.path.join(WORKSPACE, name)
        rel = os.path.join("..", "..", target)
        if os.path.islink(link) and os.readlink(link) == rel:
            continue
        if os.path.lexists(link):
            os.unlink(link)
        os.symlink(rel, link)
    proc = subprocess.run(
        ["dune", "build", "--root", WORKSPACE, "-j", "2",
         "./harness/harness.exe", "./bin/resopt_cli.exe"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed", 1)
    log(f"build: {time.perf_counter() - t0:.1f}s")


def work_args(workload, seconds):
    if workload == "curated-cells":
        return ["--units", str(max(2, round(seconds / CURATED_PASS_S)))]
    if workload == "generated-cells":
        # one pass over as many nests as possible: the fewer repeats, the
        # less the figures depend on which nests a seed draws
        corpus = max(100, round(seconds * GENERATED_CELLS_PER_S))
        return ["--units", "1", "--corpus", str(corpus)]
    if workload == "sweep-warm":
        return ["--units", str(max(2, round(seconds / WARM_SWEEP_S)))]
    return ["--units", str(max(100, round(seconds * SERVE_REQUESTS_PER_S)))]


def run_harness(args):
    proc = subprocess.run([HARNESS] + args, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        fail(f"harness exited with code {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    """Digest of the sources a result depends on."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if p.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(p.encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def determinism_guard(workload, seed, work, values):
    """The deterministic metrics of a (workload, seed, amount of work)
    must repeat exactly across runs of the same sources.  Returns an
    error or None."""
    os.makedirs(STATE, exist_ok=True)
    path = os.path.join(STATE, f"determinism-{workload}-{seed}.json")
    record = {"digest": source_digest(), "work": work,
              "values": {k: repr(v) for k, v in values.items()}}
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        same_inputs = (old.get("digest"), old.get("work")) == (record["digest"], work)
        if same_inputs and old["values"] != record["values"]:
            return (f"deterministic metrics changed between runs with seed {seed}: "
                    f"{old['values']} then {record['values']}")
    with open(path, "w") as f:
        json.dump(record, f)
    return None


def answers_ping(sock):
    try:
        return subprocess.run([HARNESS, "--ping", sock], stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=5).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def start_server(reps):
    """Start the server reps times (all but the last are stopped again)
    and return (process, socket, start times)."""
    os.makedirs(STATE, exist_ok=True)
    sock = os.path.join(STATE, f"serve-{os.getpid()}.sock")
    argv = [CLI, "serve", "--socket", sock, "--jobs", "1"]
    times = []
    for i in range(reps):
        proc, ready_s = server.start(argv, sock, answers_ping)
        times.append(ready_s)
        if i < reps - 1:
            server.stop(proc)
    return proc, sock, times


def scaled(raw):
    """The run's timings scaled to the reference speed: per-op latencies,
    wall and CPU seconds of the measured work, and the set-up times."""
    segs = raw["segments"]
    f = metrics.speed_factors(raw["calibrations"], segs, KERNEL_REF_S)
    lat = metrics.scale_ops(raw["op_t"], raw["lat_ms"], segs, f)
    wall = sum((b - a) * x for (a, b, _c), x in zip(segs, f))
    cpu = sum(c * x for (_a, _b, c), x in zip(segs, f))
    setup = raw["setup"]
    setup_s = [(b - a) * x for (a, b), x in zip(
        setup, metrics.speed_factors(raw["calibrations"], setup, KERNEL_REF_S))]
    log(f"speed factor: median {statistics.median(f):.3f} over {len(f)} segments; "
        f"unscaled {len(lat) / raw['wall_s']:.2f} ops/s, "
        f"scaled {len(lat) / wall:.2f} ops/s")
    return lat, wall, cpu, setup_s


def end_to_end(raw, lat, wall, cpu, setup_s):
    n = len(lat)
    tail = metrics.tail_percentile(n)
    if tail is None:
        log(f"warning: {n} ops are too few for any percentile; tail = median")
        tail = 50
    cost, used, left_out = metrics.geomean([o for o, _b in raw["rows"]])
    gain, _, _ = metrics.geomean([b / o if o > 0 else 0.0 for o, b in raw["rows"]])
    log(f"samples: {n} ops, tail = p{tail}; rows priced: {used}, "
        f"zero-priced rows left out of the geomeans: {left_out}")
    err = metrics.error_rate(n, **raw["errors"])
    values = {
        "setup_s": sorted(setup_s)[len(setup_s) // 2],
        "ops_per_s": n / wall,
        "latency_ms_p50": metrics.percentile(lat, 50),
        "latency_ms_tail": metrics.percentile(lat, tail),
        "cpu_ms_per_op": cpu * 1000.0 / n,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "plan_cost_geomean": cost,
        "gain_geomean": gain,
        "ok_ratio": 1.0 - err,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END}


def per_layer(workload, raw, spans, lat):
    c = raw["counters"]
    out = {name: 0.0 for name, _ in PER_LAYER}
    times = metrics.span_times(spans)

    def ms_per(name, per):
        return times[name][2] * 1000.0 / per if name in times and per else 0.0

    if workload in ("curated-cells", "generated-cells"):
        cells = times.get("cell", (0, 0.0, 0.0))
        for l in LAYERS:
            out[f"{l}.ms"] = ms_per(l, cells[0])
            out[f"{l}.share"] = times[l][2] / cells[1] if l in times and cells[1] else 0.0
        probes = [s for s in spans if s[2] < 0]
        ptimes = metrics.span_times(probes)
        for l in ("alignment", "commplan"):
            if l in ptimes:
                out[f"{l}.ms"] = ptimes[l][1] * 1000.0 / ptimes[l][0]
        out["validate.violations"] = c.get("validate.violations", 0.0)
        out["cost.calls"] = c.get("cost.calls", 0.0) / cells[0] if cells[0] else 0.0
        out["unattributed.share"] = metrics.unattributed_share(spans, "cell")
    elif workload == "sweep-warm":
        for k in ("cache.hits", "cache.misses", "cache.evictions", "cache.entries",
                  "par.cpu_util", "sweep.cell_ms", "sweep.cost_ms"):
            out[k] = c.get(k, 0.0)
        lookups = out["cache.hits"] + out["cache.misses"]
        out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
        # the part of a sweep's CPU time the rows' own timings do not cover
        cpu_ms = raw["cpu_s"] * 1000.0 / len(raw["lat_ms"])
        out["unattributed.share"] = max(
            0.0, 1.0 - (out["sweep.cell_ms"] + out["sweep.cost_ms"]) / cpu_ms)
    else:
        out["answer.ms"] = ms_per("answer", times.get("answer", (0,))[0])
        out["pipeline.ms"] = ms_per("pipeline", times.get("pipeline", (0,))[0])
        if "answer" in times and "pipeline" in times:
            out["pipeline.share"] = (out["pipeline.ms"] / out["answer.ms"]
                                     if out["answer.ms"] else 0.0)
        out["serve.server_ms_p50"] = c.get("serve.latency_ms_p50", 0.0)
        out["serve.server_ms_p99"] = c.get("serve.latency_ms_p99", 0.0)
        out["serve.transport_ms_p50"] = (metrics.percentile(raw["lat_ms"], 50)
                                         - out["serve.server_ms_p50"])
        lookups = c.get("serve.cache_hits", 0.0) + c.get("serve.cache_misses", 0.0)
        out["serve.cache_hit_ratio"] = (c.get("serve.cache_hits", 0.0) / lookups
                                        if lookups else 0.0)
        for k in ("coalesced", "shed", "timeout", "mismatches"):
            out[f"serve.{k}"] = c.get(f"serve.{k}", 0.0)
    if workload != "serve-closed":
        out["sweep.skipped"] = c.get("sweep.skipped", 0.0)
    # tracing overhead: traced against untraced ops of the same run
    # (serve-closed traces no requests and reports 0)
    traced = raw["traced"]
    t = [x for x, f in zip(lat, traced) if f]
    u = [x for x, f in zip(lat, traced) if not f]
    if t and u:
        out["trace.overhead"] = 1.0 - (len(t) / sum(t)) / (len(u) / sum(u))
    return {name: (out[name], unit) for name, unit in PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    check_checkout()
    build()
    os.makedirs(STATE, exist_ok=True)
    spans_path = os.path.join(STATE, f"spans-{a.workload}-{a.seed}-{os.getpid()}.jsonl")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--trace", str(a.trace),
            "--spans", spans_path] + work_args(a.workload, a.seconds)

    if a.workload == "serve-closed":
        try:
            proc, sock, setup_s = start_server(15)
        except server.StartFailure as e:
            # every request of the run fails with the start
            log(f"error: server start failed: {e}")
            attempted = int(work_args(a.workload, a.seconds)[1])
            print(json.dumps({"correct": False, "attempted": attempted,
                              "failed": attempted, "metrics": {}}))
            sys.exit(1)
        try:
            raw = run_harness(args + ["--socket", sock, "--server-pid", str(proc.pid),
                                      "--clk-tck", str(os.sysconf("SC_CLK_TCK"))])
        finally:
            code = server.stop(proc)
            if os.path.exists(sock):
                os.unlink(sock)
        log(f"server stopped with code {code}")
    else:
        raw = run_harness(args)
    lat, wall, cpu, harness_setup = scaled(raw)
    if a.workload != "serve-closed":
        setup_s = harness_setup

    spans = []
    if os.path.exists(spans_path):
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
        os.unlink(spans_path)

    log(f"workload {a.workload}: seed {a.seed}, inputs {raw['inputs']}, "
        f"setup {['%.3f' % s for s in setup_s]} s")
    for r in raw["reasons"]:
        log(f"error: {r}")

    failed = raw["failed_ops"]
    correct = failed == 0
    values = end_to_end(raw, lat, wall, cpu, setup_s)
    guard = determinism_guard(a.workload, a.seed, work_args(a.workload, a.seconds), {
        k: values[k][0] for k in ("plan_cost_geomean", "gain_geomean")})
    if guard:
        log("error: " + guard)
        correct = False
    if a.trace:
        values = per_layer(a.workload, raw, spans, lat)
    print(json.dumps({
        "correct": correct,
        "attempted": len(raw["lat_ms"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    if guard:
        sys.exit(1)


if __name__ == "__main__":
    main()
