"""Per-layer metrics of a traced pass (run.py --trace 1).

Each metric is measured from outside the program: counters and histograms
the library already keeps (obs::Registry deltas per phase), the sweep
checkpoint records, the daemons' access logs and /metrics, the
generator's own clock, and probes that time one public call at a time.
A layer that a workload does not exercise reads 0 on it."""

import json
import os

import analysis

EXPS = ("exp01", "exp03", "exp10", "exp22")
COUPLED = ("exp01", "exp03", "exp22")
PHASES = ("low", "high", "cap")   # cap = the four batch phases together
RATES = ("low", "high")


def names():
    """Every per-layer metric, with its unit."""
    out = {}
    for e in EXPS:
        out["sweep.cells." + e] = "count"
        out["sweep.cell_ms.p50." + e] = "ms"
        out["sweep.idle_frac." + e] = "ratio"
        out["core.steps." + e] = "count"
        out["kernel.step_ns." + e] = "ns"
        out["rng.draws." + e] = "count"
        out["ledger.unattributed_frac." + e] = "ratio"
    out["sweep.fsync_ms.mean"] = "ms"
    for e in COUPLED:
        out["core.replica_ms.mean." + e] = "ms"
        out["core.check_ns." + e] = "ns"
    out["kernel.batched_frac"] = "ratio"
    for n in ("draw_a_ns", "draw_b_ns", "move_ns", "eject_ns"):
        out["balls." + n] = "ns"
    out["rng.word_ns"] = "ns"
    out["fluid.fixed_point_ms"] = "ms"
    for ph in RATES:
        out["loadgen.late_ms.p50." + ph] = "ms"
        out["loadgen.late_ms.p99." + ph] = "ms"
        out["client.p99_ms." + ph] = "ms"
    for ph in PHASES:
        out["client.failed." + ph] = "count"
        for q in ("p50", "p90"):
            out["serve.queue_ms.%s.%s" % (q, ph)] = "ms"
            out["serve.run_ms.%s.%s" % (q, ph)] = "ms"
        out["serve.pool_wait_ms.p50." + ph] = "ms"
        out["serve.wire_ms.p50." + ph] = "ms"
        out["cluster.hit_ratio." + ph] = "ratio"
        out["cluster.insertions." + ph] = "count"
        out["cluster.evictions." + ph] = "count"
        out["cluster.router_run_ms.p50." + ph] = "ms"
        out["cluster.router_run_ms.p90." + ph] = "ms"
        out["cluster.backend_run_ms.p50." + ph] = "ms"
    out["serve.dispatch_ms.p50"] = "ms"
    out["serve.parse_us.p50"] = "us"
    out["cluster.failovers"] = "count"
    out["cluster.backend_rtt_ms"] = "ms"
    out["cluster.cache_get_us"] = "us"
    out["cluster.cache_put_us"] = "us"
    out["host.ref_ms"] = "ms"
    return out


def phase_of(phase):
    return phase if phase in RATES else "cap"


def put(out, name, value, samples):
    out[name] = (float(value), samples)


def client_layers(out, records, limit_ms):
    for ph in RATES:
        rs = [r for r in records if r["phase"] == ph]
        late = [(r["sent"] - r["due"]) / 1e6 for r in rs]
        put(out, "loadgen.late_ms.p50." + ph, analysis.percentile(late, 0.5), len(late))
        put(out, "loadgen.late_ms.p99." + ph, analysis.percentile(late, 0.99), len(late))
        lat = analysis.client_latencies_ms(rs, limit_ms)
        put(out, "client.p99_ms." + ph, analysis.percentile(lat, 0.99), len(lat))
    for ph in PHASES:
        rs = [r for r in records if phase_of(r["phase"]) == ph]
        put(out, "client.failed." + ph,
            sum(1 for r in rs if r["status"] != "ok"), len(rs))


# ------------------------------------------------------------ sweep_paper

def put_mean_ms(out, name, count_sum):
    """The exact mean of an obs histogram delta (count, sum in ns), in ms.
    Its quantiles would only be log2-bucket midpoints."""
    count, total = count_sum or (0, 0)
    put(out, name, total / count / 1e6 if count else 0.0, count)


def sweep_layers(out, res):
    counters = {}   # (phase, name) -> delta
    hist = {}       # (phase, name) -> (count, sum in ns)
    probes = {}
    walls = {}
    burst = {}      # the kernel::advance burst of each paper cell
    for f in res.rows:
        if f[0] == "C":
            counters[(f[1], f[2])] = int(f[3])
        elif f[0] == "H":
            hist[(f[1], f[2])] = (int(f[3]), int(f[4]))
        elif f[0] == "X":
            probes[f[1]] = float(f[2])
        elif f[0] == "W":
            walls[f[1]] = walls.get(f[1], 0) + int(f[4])
        elif f[0] == "B":
            burst[f[1]] = int(f[2])
    for name, value in probes.items():
        put(out, name, value, 1)
    threads = res.extra["threads"]
    put_mean_ms(out, "sweep.fsync_ms.mean", hist.get(("sweeps", "sweep.fsync_ns")))
    batched = counters.get(("sweeps", "kernel.steps.batched"), 0)
    scalar = counters.get(("sweeps", "kernel.steps.scalar"), 0)
    put(out, "kernel.batched_frac", batched / max(1, batched + scalar),
        batched + scalar)
    fixed_point_ns = probes["fluid.fixed_point_ms"] * 1e6
    for e in EXPS:
        cells = res.extra["cells"][e]
        cell_s = [w for w, _ in cells]
        put(out, "sweep.cells." + e, res.extra["cells_run"][e], len(cells))
        put(out, "sweep.cell_ms.p50." + e, analysis.median(cell_s) * 1e3, len(cells))
        put(out, "sweep.idle_frac." + e,
            1.0 - sum(cell_s) / (threads * walls[e] / 1e9), len(cells))
        if e == "exp10":
            steps = (counters.get((e, "kernel.steps.batched"), 0)
                     + counters.get((e, "kernel.steps.scalar"), 0))
            checks = 0
            fixed_points = 2 * len(cells)
        else:
            steps = counters.get((e, "coalescence.steps"), 0)
            checks = steps // burst[e]
            fixed_points = 0
            put_mean_ms(out, "core.replica_ms.mean." + e,
                        hist.get((e, "coalescence.replica_ns")))
        put(out, "core.steps." + e, steps, len(cells))
        put(out, "rng.draws." + e, counters.get((e, "rng.xoshiro.draws"), 0),
            len(cells))
        cell_ns = hist.get((e, "sweep.cell_ns"), (0, 0))[1]
        fsync_ns = hist.get((e, "sweep.fsync_ns"), (0, 0))[1]
        attributed = (steps * probes["kernel.step_ns." + e]
                      + checks * probes.get("core.check_ns." + e, 0.0)
                      + fixed_points * fixed_point_ns + fsync_ns)
        put(out, "ledger.unattributed_frac." + e,
            1.0 - attributed / cell_ns if cell_ns else 0.0, len(cells))


# --------------------------------------------------------------- serving

def scrapes_by_boundary(rows):
    """[{metric: value}] per phase boundary, from the generator's /metrics
    scrapes (index 0 is taken before the first timed phase)."""
    scrapes = {}
    for f in rows:
        if f[0] == "S":
            parts = f[2].rsplit(" ", 1)
            if len(parts) == 2:
                scrapes.setdefault(int(f[1]), {})[parts[0]] = float(parts[1])
    return [scrapes.get(i, {}) for i in range(max(scrapes) + 1)] if scrapes else []


def serving_layers(out, res, workload, limit_ms):
    records = res.records
    access = res.extra["access"]
    front = "router" if workload == "cluster_zipf" else "serve"
    entries = analysis.parse_access_log(access[front].splitlines())
    joined = analysis.join_access_log(res.extra["warm"] + records, entries)
    joined = {i - len(res.extra["warm"]): e for i, e in joined.items()}
    dispatch = {}
    for f in res.extra["check"]:
        if f[0] == "D":
            dispatch[int(f[2])] = int(f[3])
        elif f[0] == "Q":
            put(out, "serve.parse_us.p50", float(f[2]) / 1e3, int(f[3]))
    put(out, "serve.dispatch_ms.p50",
        analysis.median(list(dispatch.values())) / 1e6, len(dispatch))
    for ph in PHASES:
        idx = [i for i, r in enumerate(records) if phase_of(r["phase"]) == ph]
        queue = [joined[i]["queue_ns"] / 1e6 for i in idx]
        run = [joined[i]["run_ns"] / 1e6 for i in idx]
        for q, v in (("p50", 0.5), ("p90", 0.9)):
            put(out, "serve.queue_ms.%s.%s" % (q, ph),
                analysis.percentile(queue, v), len(queue))
            put(out, "serve.run_ms.%s.%s" % (q, ph),
                analysis.percentile(run, v), len(run))
        wire = [(records[i]["done"] - records[i]["sent"]
                 - joined[i]["queue_ns"] - joined[i]["run_ns"]) / 1e6
                for i in idx if records[i]["status"] == "ok"]
        put(out, "serve.wire_ms.p50." + ph, analysis.median(wire), len(wire))
        if workload == "serve_unique":
            wait = [(joined[i]["run_ns"] - dispatch[records[i]["id"]]) / 1e6
                    for i in idx if records[i]["id"] in dispatch]
            put(out, "serve.pool_wait_ms.p50." + ph, analysis.median(wait),
                len(wait))
        else:
            put(out, "serve.pool_wait_ms.p50." + ph, 0.0, 0)
        if workload == "cluster_zipf":
            put(out, "cluster.router_run_ms.p50." + ph,
                analysis.percentile(run, 0.5), len(run))
            put(out, "cluster.router_run_ms.p90." + ph,
                analysis.percentile(run, 0.9), len(run))
    if workload == "cluster_zipf":
        cluster_layers(out, res)


def cluster_layers(out, res):
    scrapes = scrapes_by_boundary(res.rows)
    bounds = [f for f in res.rows if f[0] == "P"]   # P index phase round ...
    backend_logs = [res.extra["access"]["backend%d" % i].encode()
                    for i in range(2)]

    def delta(i, metric):
        return scrapes[i].get(metric, 0.0) - scrapes[i - 1].get(metric, 0.0)

    for ph in PHASES:
        closing = [i for i in range(1, len(bounds))
                   if phase_of(bounds[i][2]) == ph]
        hits = sum(delta(i, "cluster_cache_hits_total") for i in closing)
        misses = sum(delta(i, "cluster_cache_misses_total") for i in closing)
        evictions = sum(delta(i, "cluster_cache_evictions_total") for i in closing)
        entries = sum(delta(i, "cluster_cache_entries") for i in closing)
        put(out, "cluster.hit_ratio." + ph, hits / max(1.0, hits + misses),
            int(hits + misses))
        put(out, "cluster.insertions." + ph, entries + evictions, int(misses))
        put(out, "cluster.evictions." + ph, evictions, int(misses))
        run = []
        for b, data in enumerate(backend_logs):
            for i in closing:
                chunk = data[int(bounds[i - 1][6 + b]):int(bounds[i][6 + b])]
                run += [e["run_ns"] / 1e6 for e in analysis.parse_access_log(
                    chunk.decode().splitlines()) if e.get("method") == "run_cell"]
        put(out, "cluster.backend_run_ms.p50." + ph,
            analysis.median(run) if run else 0.0, len(run))
    put(out, "cluster.failovers",
        scrapes[-1].get("cluster_failovers_total", 0.0)
        - scrapes[0].get("cluster_failovers_total", 0.0), 1)
    rtts = [v for k, v in scrapes[-1].items()
            if k.startswith("cluster_backend_rtt_ms")]
    put(out, "cluster.backend_rtt_ms", sum(rtts) / max(1, len(rtts)), len(rtts))
    for f in res.extra["cache_probe"]:
        put(out, f[1], float(f[2]), int(f[3]))


# ------------------------------------------------------------------ trace

def trace_self_time(path):
    """Self time per benchmark span label (span minus the part of it that
    child spans on the same thread cover), from the exported trace."""
    if not os.path.exists(path):
        return {}, 0
    with open(path) as f:
        doc = json.load(f)
    stacks = {}
    self_us = {}
    for e in doc.get("traceEvents", []):
        if e.get("ph") == "B":
            stacks.setdefault(e["tid"], []).append([e["name"], e["ts"], 0.0])
        elif e.get("ph") == "E":
            stack = stacks.get(e["tid"])
            if not stack:
                continue
            name, start, children = stack.pop()
            dur = e["ts"] - start
            if stack:
                stack[-1][2] += dur
            if name.startswith("bench."):
                self_us[name] = self_us.get(name, 0.0) + dur - children
    return self_us, doc.get("otherData", {}).get("dropped", 0)


def per_layer(workload, res, ctx, limit_ms):
    """{name: (value, samples, unit)} for every per-layer metric."""
    out = {}
    if workload == "sweep_paper":
        sweep_layers(out, res)
        trace = os.path.join(ctx.run_dir, "trace-sweep.json")
    else:
        serving_layers(out, res, workload, limit_ms)
        trace = os.path.join(ctx.run_dir, "trace-%s.json" % workload)
    client_layers(out, res.records, limit_ms)
    self_us, dropped = trace_self_time(trace)
    print("# trace %s (%d events dropped by the rings)" % (trace, dropped))
    for name in sorted(self_us):
        print("  self time %-32s %12.3f ms" % (name, self_us[name] / 1e3))
    units = names()
    return {n: (out.get(n, (0.0, 0))[0], out.get(n, (0.0, 0))[1], u)
            for n, u in units.items()}


def print_layers(metrics):
    print("# per-layer metrics (traced pass)")
    for name, (value, samples, unit) in metrics.items():
        print("  %-36s %14.6g %-6s n=%d" % (name, value, unit, samples))
