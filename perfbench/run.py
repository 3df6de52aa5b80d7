#!/usr/bin/env python3
"""The repository benchmark: recovery-time experiments timed end to end,
in process, through recover_serve, and through recover_cluster.

    python3 perfbench/run.py --workload sweep_paper|serve_unique|cluster_zipf
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It builds the library, the two
daemons, perfbench_inproc and perfbench_loadgen from that checkout's
sources (perfbench/CMakeLists.txt) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set, and writes nothing elsewhere.

Every workload has the same phases: `low` and `high` send a seeded mix of
small exp01/exp03/exp22 cells open loop at fixed rates, then four batch
phases run one experiment's cells each, closed loop, two at a time.  The
tier differs: sweep_paper runs in process (its batches are
sweep::run_sweep grids of the paper's cell sizes), serve_unique goes
through one recover_serve with a fresh seed on every request,
cluster_zipf through recover_cluster over two backends with Zipf keys.
BENCHMARK.json lists sweep_paper and cluster_zipf; serve_unique is left
out of it because its p90 does not hold steady on a shared host.
perfbench/README.md lists the metrics and which layer moves which.

--trace 0 prints the end-to-end metrics.  --trace 1 first runs the same
pass untraced, then a traced pass (obs metrics and trace in process,
--admin-port and --access-log on the daemons), checks that both passes
produced the same bytes, prints the tracing overhead and reports the
per-layer metrics.  The last line of stdout is the JSON result; the exit
code is 1 when any correctness check failed."""

import argparse
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing outside the build directory

import analysis  # noqa: E402
import layers  # noqa: E402
import selftest  # noqa: E402

# Fixed load shape (the same on every commit).
RATE_LOW = 100.0      # requests/s, open loop
RATE_HIGH = 250.0     # requests/s, open loop; below the knee of one
#                       recover_serve on 4 vCPUs even in slow periods
P90_LIMIT_MS = 50.0   # latency limit: failed requests count as over it
# setup_s is the median of this many set-ups (cheap ones repeat more).
SETUP_REPEATS = {"sweep_paper": 5, "serve_unique": 15, "cluster_zipf": 3}
# The phase list repeats once per this many seconds of --seconds (a
# round), so each phase samples the whole run rather than one stretch of
# it: host speed drifts, and a burst of interference then spreads over
# every phase instead of landing on one.  A sweep round keeps at least 25
# cells of each grid so its time is work over two threads, not its last
# cell.
ROUND_SECONDS = {"sweep_paper": 4.0, "serve_unique": 2.0, "cluster_zipf": 2.0}
EXPS = ("exp01", "exp03", "exp10", "exp22")

# Batch sizes per second of --seconds, calibrated on a 4-vCPU host so
# that each batch phase takes about an eighth of the run (cluster exp03,
# mostly cache hits, about a sixteenth).  sweep_paper's
# grids keep at least 100 cells, so each phase's time is total work over
# two threads, not its slowest cell.
BATCH_PER_SECOND = {
    "sweep_paper": {"exp01": 26.0, "exp03": 42.5, "exp10": 5.35, "exp22": 3.85},
    "serve_unique": {"exp01": 71.0, "exp03": 398.0, "exp10": 41.0, "exp22": 69.0},
    "cluster_zipf": {"exp01": 240.0, "exp03": 1000.0, "exp10": 66.0, "exp22": 228.0},
}
MIN_SWEEP_CELLS = 100

# cluster_zipf keys are Zipf over a key space larger than the router's
# cache (perfbench/workload.hpp).  The warm-up sends this many untimed
# requests of the timed traffic mix, about 4500 distinct keys: it fills
# the cache and turns it over.
CLUSTER_WARM = 12000
CLUSTER_WARM_DEPTH = 8

WORKLOADS = ("sweep_paper", "serve_unique", "cluster_zipf")
RUN_BUDGET_S = 170.0

E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "capacity_rps": "1/s"}
for _exp in EXPS:
    E2E_UNITS["wall_s." + _exp] = "s"
for _ph in ("low", "high"):
    E2E_UNITS["p50_ms." + _ph] = "ms"
    E2E_UNITS["p90_ms." + _ph] = "ms"


class BenchError(Exception):
    pass


def log(message):
    print(message, flush=True)


def now_ns():
    return time.monotonic_ns()


# ------------------------------------------------------------------ build

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR")
    return os.path.abspath(target) if target else os.path.join(REPO, ".bench_build")


def build():
    for need in ("src/CMakeLists.txt", "bench/serve_main.cpp",
                 "bench/cluster_main.cpp"):
        if not os.path.isfile(os.path.join(REPO, need)):
            raise BenchError("missing %s: run from the root of a full "
                             "checkout" % need)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.log"), "w") as logf:
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", "4", "--target",
                      "recover_serve", "recover_cluster", "perfbench_inproc",
                      "perfbench_loadgen"])
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError("build failed (%s); see %s"
                                 % (" ".join(cmd[:2]), logf.name))
    return out


# ------------------------------------------------------------- processes

class Processes:
    """Every child the benchmark starts; stop_all() ends and reaps them."""

    def __init__(self):
        self.children = []

    def start(self, cmd):
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        self.children.append(p)
        return p

    def stop(self, p, timeout=15.0):
        if p.poll() is None:
            p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        if p.stdout is not None:
            p.stdout.close()
        if p in self.children:
            self.children.remove(p)

    def stop_all(self):
        for p in list(self.children):
            self.stop(p, timeout=5.0)


def read_line(p, prefix, timeout=30.0):
    """Next stdout line of `p` that starts with `prefix`.  Reads the pipe
    unbuffered, so lines after the one returned stay readable."""
    deadline = time.monotonic() + timeout
    pending = getattr(p, "pending", b"")
    while True:
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            if line.decode().startswith(prefix):
                p.pending = pending
                return line.decode().strip()
        left = deadline - time.monotonic()
        if left <= 0:
            raise BenchError("timed out waiting for %r from %s" % (prefix, p.args[0]))
        ready, _, _ = select.select([p.stdout], [], [], left)
        if not ready:
            continue
        chunk = os.read(p.stdout.fileno(), 65536)
        if not chunk:
            raise BenchError("%s exited (rc=%s) before printing %r"
                             % (os.path.basename(p.args[0]), p.wait(), prefix))
        pending += chunk


def wait_ok(p, what, timeout):
    try:
        rc = p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in %.0f s" % (what, timeout))
    if rc != 0:
        raise BenchError("%s exited with %d" % (what, rc))


def vm_hwm_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError("no VmHWM for pid %d" % pid)


def reference_ms():
    """A fixed loop that uses no repository code: tells host drift apart
    from a program change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    return (time.perf_counter() - t0) * 1e3


# ---------------------------------------------------------------- phases

def rounds_for(workload, seconds):
    return max(1, int(round(seconds / ROUND_SECONDS[workload])))


def batch_counts(workload, seconds):
    """Operations per round of each batch phase."""
    rounds = rounds_for(workload, seconds)
    counts = {}
    for exp in EXPS:
        n = BATCH_PER_SECOND[workload][exp] * seconds
        if workload == "sweep_paper":
            n = max(MIN_SWEEP_CELLS, n)
        counts[exp] = max(1, int(-(-round(n) // rounds)))
    return counts


def rate_seconds(workload, seconds):
    """Length of one round's slice of each rate phase."""
    return seconds / 4.0 / rounds_for(workload, seconds)


def read_tsv(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def wire_records(rows):
    out = []
    for f in rows:
        if f[0] != "R":
            continue
        out.append({"phase": f[1], "round": int(f[2]), "conn": int(f[3]),
                    "seq": int(f[4]), "id": int(f[5]), "due": int(f[6]),
                    "sent": int(f[7]), "done": int(f[8]), "status": f[9],
                    "request": f[10], "reply": f[11]})
    return out


class Pass:
    """What one pass over a workload produced."""

    def __init__(self):
        self.setup_s = []
        self.records = []        # timed operations (dicts)
        self.walls = {}          # batch phase -> {round: seconds}
        self.outputs = {}        # name -> bytes, compared across passes
        self.digests = {}        # sweep phase -> table digest
        self.problems = []       # correctness failures
        self.rss_kb = 0
        self.rows = []           # raw rows of perfbench_inproc or the generator
        self.extra = {}          # traced data


def run_sweep_paper(ctx, traced):
    res = Pass()
    counts = batch_counts("sweep_paper", ctx.seconds)
    rsec = rate_seconds(ctx.workload, ctx.seconds)
    out = os.path.join(ctx.run_dir, "sweep%s.tsv" % ("-traced" if traced else ""))
    ck_dir = os.path.join(ctx.run_dir, "ck")
    os.makedirs(ck_dir, exist_ok=True)
    cmd = [os.path.join(ctx.build, "perfbench_inproc"), "sweep",
           "--seed", str(ctx.seed), "--ck-dir", ck_dir, "--out", out,
           "--rounds", str(rounds_for(ctx.workload, ctx.seconds)),
           "--cells", ",".join("%s:%d" % (e, counts[e]) for e in EXPS),
           "--rates", "low:%g:%g,high:%g:%g" % (RATE_LOW, rsec, RATE_HIGH, rsec),
           "--trace", "1" if traced else "0",
           "--trace-out", os.path.join(ctx.run_dir, "trace-sweep.json")]
    for rep in range(SETUP_REPEATS["sweep_paper"]):
        last = rep == SETUP_REPEATS["sweep_paper"] - 1
        t0 = now_ns()
        p = ctx.procs.start(cmd + ([] if last else ["--setup-only"]))
        ready = int(read_line(p, "READY").split()[1])
        res.setup_s.append((ready - t0) / 1e9)
        wait_ok(p, "perfbench_inproc sweep", ctx.budget_left())
        ctx.procs.stop(p)
    res.rows = read_tsv(out)
    cells = {}
    for f in res.rows:
        if f[0] == "R":
            rec = {"phase": f[1], "round": int(f[2]), "slot": int(f[3]),
                   "seed": f[4], "due": int(f[5]), "sent": int(f[6]),
                   "start": int(f[7]), "done": int(f[8]), "status": "ok"}
            res.outputs["%s/%s/%s" % (f[1], f[2], f[4])] = f[9]
            res.records.append(rec)
        elif f[0] == "W":
            exp, rnd, ran, wall_ns, digest, records, skipped = (
                f[1], int(f[2]), int(f[3]), int(f[4]), f[5], int(f[6]), int(f[7]))
            res.walls.setdefault(exp, {})[rnd] = wall_ns / 1e9
            res.digests[exp] = analysis.combine(res.digests.get(exp, ""), digest)
            res.outputs["table/%s/%d" % (exp, rnd)] = digest
            res.extra.setdefault("threads", int(f[8]))
            cells_run = res.extra.setdefault("cells_run", {})
            cells_run[exp] = cells_run.get(exp, 0) + ran
            if ran != counts[exp] or records != counts[exp] or skipped:
                res.problems.append("%s: %d cells run, %d checkpoint records, "
                                    "%d torn lines for a %d-cell grid"
                                    % (exp, ran, records, skipped, counts[exp]))
        elif f[0] == "K":
            cells.setdefault(f[1], []).append((float(f[4]), float(f[5])))
        elif f[0] == "M":
            res.rss_kb = int(f[2])
    res.extra["cells"] = cells
    for exp, rows in cells.items():
        for _, c in rows:
            op = {"phase": exp, "status": "ok"}
            res.records.append(op)
            if c != 0:
                fail_op(op, "%s: a cell reports %g censored replicas" % (exp, c))
    if set(res.walls) != set(EXPS):
        res.problems.append("sweep phases missing: %s"
                            % sorted(set(EXPS) - set(res.walls)))
    return res


def start_daemon(ctx, binary, extra, traced, name):
    cmd = [os.path.join(ctx.build, binary), "--port", "0"] + extra
    if traced:
        cmd += ["--admin-port", "0", "--access-log",
                os.path.join(ctx.run_dir, name + ".access.jsonl")]
    p = ctx.procs.start(cmd)
    tier = "# cluster:" if binary == "recover_cluster" else "# serve:"
    port = int(read_line(p, tier + " listening on ").split()[4].rsplit(":", 1)[1])
    admin = None
    if traced:
        admin = int(read_line(p, tier + " admin on ").split()[4].rsplit(":", 1)[1])
    return p, port, admin


def run_serving(ctx, traced, workload):
    res = Pass()
    counts = batch_counts(workload, ctx.seconds)
    rsec = rate_seconds(ctx.workload, ctx.seconds)
    tag = "-traced" if traced else ""
    out = os.path.join(ctx.run_dir, "wire%s.tsv" % tag)
    phases = ["low:open:%g:%g" % (RATE_LOW, rsec),
              "high:open:%g:%g" % (RATE_HIGH, rsec)]
    phases += ["%s:batch:%d" % (e, counts[e]) for e in EXPS]
    cluster = workload == "cluster_zipf"
    for rep in range(SETUP_REPEATS[workload]):
        last = rep == SETUP_REPEATS[workload] - 1
        for name in ("serve", "backend0", "backend1", "router"):
            path = os.path.join(ctx.run_dir, name + ".access.jsonl")
            if os.path.exists(path):
                os.remove(path)
        t0 = now_ns()
        daemons = []
        if cluster:
            backends = [start_daemon(ctx, "recover_serve", [], traced,
                                     "backend%d" % i) for i in range(2)]
            daemons += backends
            router = start_daemon(
                ctx, "recover_cluster",
                ["--backends", ",".join("127.0.0.1:%d" % b[1] for b in backends)],
                traced, "router")
            daemons.append(router)
            front = router
        else:
            front = start_daemon(ctx, "recover_serve", [], traced, "serve")
            daemons.append(front)
        gen = [os.path.join(ctx.build, "perfbench_loadgen"), "--port",
               str(front[1]), "--seed", str(ctx.seed), "--out", out,
               "--rounds", str(rounds_for(ctx.workload, ctx.seconds)),
               "--phases", ",".join(phases)]
        if cluster:
            gen += ["--keys", "zipf", "--warm", str(CLUSTER_WARM),
                    "--warm-depth", str(CLUSTER_WARM_DEPTH)]
            if traced:
                gen += ["--scrape", str(router[2]), "--mark",
                        ",".join(os.path.join(ctx.run_dir, "backend%d.access.jsonl" % i)
                                 for i in range(2))]
        else:
            gen += ["--keys", "unique", "--warm", "4"]
        if not last:
            gen.append("--warm-only")
        g = ctx.procs.start(gen)
        ready = int(read_line(g, "READY").split()[1])
        res.setup_s.append((ready - t0) / 1e9)
        wait_ok(g, "perfbench_loadgen", ctx.budget_left())
        ctx.procs.stop(g)
        if not last:
            for d in daemons:
                ctx.procs.stop(d[0])
    res.rows = read_tsv(out)
    wire = wire_records(res.rows)
    res.extra["warm"] = [r for r in wire if r["phase"] == "warm"]
    res.records = [r for r in wire if r["phase"] != "warm"]
    by_id = {}
    for r in res.records:
        by_id[r["id"]] = r
        res.outputs[r["id"]] = r["reply"]
        if r["status"] != "ok":
            log("# request %d failed: %s" % (r["id"], r["reply"][:120]))
            continue
        problem = analysis.reply_problem(r["request"], r["reply"])
        if problem is not None:
            fail_op(r, "request %d: %s" % (r["id"], problem))
    for r in res.records:
        if r["phase"] in EXPS:
            span = res.walls.setdefault(r["phase"], {}).setdefault(
                r["round"], [r["sent"], r["done"]])
            span[0] = min(span[0], r["sent"])
            span[1] = max(span[1], r["done"])
    for exp, spans in res.walls.items():
        for rnd, (first, last) in spans.items():
            spans[rnd] = (last - first) / 1e9

    # Correctness: a deterministic sample recomputed in process with
    # serve::dispatch must equal the wire bytes; for the cluster, a sample
    # sent straight to a backend must equal the router's bytes.
    check_out = os.path.join(ctx.run_dir, "check%s.tsv" % tag)
    check = [os.path.join(ctx.build, "perfbench_inproc"), "serve-check",
             "--records", out, "--out", check_out,
             "--trace", "1" if traced else "0",
             "--trace-out", os.path.join(ctx.run_dir, "trace-%s.json" % workload)]
    c = ctx.procs.start(check)
    wait_ok(c, "perfbench_inproc serve-check", ctx.budget_left())
    ctx.procs.stop(c)
    res.extra["check"] = read_tsv(check_out)
    checked = sum(1 for f in res.extra["check"] if f[0] == "D")
    log("# %d replies recomputed in process with serve::dispatch" % checked)
    for i in analysis.dispatch_mismatches(res.outputs, res.extra["check"]):
        fail_op(by_id[i], "request %d: in-process serve::dispatch differs "
                "from the wire reply" % i)
    if cluster:
        replay_out = os.path.join(ctx.run_dir, "replay%s.tsv" % tag)
        rp = ctx.procs.start([os.path.join(ctx.build, "perfbench_loadgen"),
                              "--port", str(daemons[0][1]), "--replay", out,
                              "--out", replay_out])
        wait_ok(rp, "perfbench_loadgen --replay", ctx.budget_left())
        ctx.procs.stop(rp)
        direct = {r["id"]: r["reply"] for r in wire_records(read_tsv(replay_out))}
        routed = {i: res.outputs[i] for i in direct}
        for i in analysis.mismatches(routed, direct):
            fail_op(by_id[i], "request %d: a backend's reply differs from "
                    "the router's" % i)
        log("# %d router replies compared with a backend's" % len(direct))
        if traced:
            probe_out = os.path.join(ctx.run_dir, "cache-probe.tsv")
            cp = ctx.procs.start([os.path.join(ctx.build, "perfbench_inproc"),
                                  "cache-probe", "--records", out,
                                  "--out", probe_out])
            wait_ok(cp, "perfbench_inproc cache-probe", ctx.budget_left())
            ctx.procs.stop(cp)
            res.extra["cache_probe"] = read_tsv(probe_out)
    res.rss_kb = sum(vm_hwm_kb(d[0].pid) for d in daemons)
    for d in daemons:
        ctx.procs.stop(d[0])
    if traced:
        res.extra["access"] = {}
        for name in ("serve", "router", "backend0", "backend1"):
            path = os.path.join(ctx.run_dir, name + ".access.jsonl")
            if os.path.exists(path):
                with open(path) as f:
                    res.extra["access"][name] = f.read()
    return res


# --------------------------------------------------------------- metrics

def fail_op(record, message):
    """Marks a timed operation failed; it then counts as over the latency
    limit and in `failed`."""
    record["status"] = "failed"
    log("# FAILED: " + message)


def open_records(res, phase):
    return [r for r in res.records if r["phase"] == phase]


def batch_wall(res, exp):
    """Time to finish a batch phase: the sum of its rounds."""
    rounds = res.walls.get(exp)
    return sum(rounds.values()) if rounds else float("nan")


def e2e_metrics(res):
    """{name: (value, samples)} for every end-to-end metric."""
    m = {"setup_s": (analysis.median(res.setup_s), len(res.setup_s)),
         "peak_rss_mb": (res.rss_kb / 1024.0, 1)}
    for exp in EXPS:
        m["wall_s." + exp] = (batch_wall(res, exp), len(open_records(res, exp)))
    for ph in ("low", "high"):
        # Over every request of the phase, all rounds together.
        lat = analysis.client_latencies_ms(open_records(res, ph), P90_LIMIT_MS)
        m["p50_ms." + ph] = (analysis.percentile(lat, 0.5), len(lat))
        m["p90_ms." + ph] = (analysis.percentile(lat, 0.9), len(lat))
    ok = sum(1 for r in res.records if r["phase"] in EXPS and r["status"] == "ok")
    m["capacity_rps"] = (ok / sum(batch_wall(res, e) for e in EXPS), ok)
    return m


def print_e2e(workload, metrics, res):
    log("# %s end-to-end (tracing off)" % workload)
    for name in E2E_UNITS:
        value, samples = metrics[name]
        log("  %-16s %12.4f %-4s  n=%d" % (name, value, E2E_UNITS[name], samples))
    for exp in EXPS:
        if exp in res.digests:
            log("  table digest %s %s" % (exp, res.digests[exp]))


# ------------------------------------------------------------------ main

class Context:
    def __init__(self, args, build_out):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.build = build_out
        self.procs = Processes()
        self.t_start = time.monotonic()
        self.run_dir = os.path.join(build_out, "run", args.workload)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        os.makedirs(self.run_dir)

    def budget_left(self):
        left = RUN_BUDGET_S - (time.monotonic() - self.t_start)
        if left <= 0:
            raise BenchError("out of time")
        return left


def run_pass(ctx, traced):
    if ctx.workload == "sweep_paper":
        return run_sweep_paper(ctx, traced)
    return run_serving(ctx, traced, ctx.workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # A SIGTERM still stops and reaps every child (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not selftest.run_quietly():
        raise BenchError("analysis self-tests failed")
    build_out = build()
    ctx = Context(args, build_out)
    try:
        ref_start = reference_ms()
        plain = run_pass(ctx, traced=False)
        metrics = e2e_metrics(plain)
        print_e2e(args.workload, metrics, plain)
        problems = list(plain.problems)
        attempted = len(plain.records)
        failed = sum(1 for r in plain.records if r["status"] != "ok")
        result_metrics = {n: {"value": metrics[n][0], "unit": E2E_UNITS[n]}
                          for n in E2E_UNITS}
        if args.trace:
            traced = run_pass(ctx, traced=True)
            differ = analysis.mismatches(plain.outputs, traced.outputs)
            for key in differ:
                log("# FAILED: traced output %s differs from untraced" % (key,))
            failed += len(differ)
            problems += traced.problems
            attempted += len(traced.records)
            failed += sum(1 for r in traced.records if r["status"] != "ok")
            traced_metrics = e2e_metrics(traced)
            log("# tracing overhead (traced - untraced)")
            for name in E2E_UNITS:
                log("  %-16s %+12.4f %s" % (name, traced_metrics[name][0]
                                            - metrics[name][0], E2E_UNITS[name]))
        ref_end = reference_ms()
        host_ref = (ref_start + ref_end) / 2
        log("# host.ref_ms start %.3f end %.3f" % (ref_start, ref_end))
        if args.trace:
            per_layer = layers.per_layer(args.workload, traced, ctx,
                                         P90_LIMIT_MS)
            per_layer["host.ref_ms"] = (host_ref, 2, "ms")
            layers.print_layers(per_layer)
            result_metrics = {n: {"value": v, "unit": u}
                              for n, (v, _, u) in per_layer.items()}
    finally:
        ctx.procs.stop_all()
    for p in problems:
        log("# FAILED: " + p)
    failed += len(problems)
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(2)
