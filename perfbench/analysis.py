"""Pure analysis helpers of the benchmark: percentiles, the access-log
join, reply validation and the mismatch detector.  perfbench/selftest.py
tests each of them; run.py refuses to measure when those tests fail."""

import json
import math

RESPONSE_SCHEMA = "recover.resp/1"
ACCESS_SCHEMA = "recover.access/1"


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a share
    q of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def client_latencies_ms(records, limit_ms):
    """Latency of every request of a phase, timed from its due time.  A
    request that failed or was refused counts as over the limit: it gets
    twice the limit, so it can only raise a percentile."""
    out = []
    for r in records:
        if r["status"] == "ok":
            out.append((r["done"] - r["due"]) / 1e6)
        else:
            out.append(2.0 * limit_ms)
    return out


def parse_access_log(lines):
    """recover.access/1 lines -> list of dicts; raises on a foreign line."""
    out = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        doc = json.loads(line)
        if doc.get("schema") != ACCESS_SCHEMA:
            raise ValueError("not an access-log line: " + line[:80])
        out.append(doc)
    return out


def join_access_log(records, entries):
    """Joins generator records to a daemon's access-log entries by
    req_id = c<serial>-<seq>.  Serials are the daemon's accept order; the
    generator opens its connections in `conn` order, so the k-th smallest
    serial that carries run_cell lines is connection k.  Returns
    {record index: entry}; raises when the join is not one to one."""
    by_serial = {}
    for e in entries:
        if e.get("method") != "run_cell":
            continue
        serial, seq = e["req_id"][1:].split("-")
        by_serial.setdefault(int(serial), {})[int(seq)] = e
    conns = sorted({r["conn"] for r in records})
    serials = sorted(by_serial)
    if len(serials) != len(conns):
        raise ValueError("access log has %d run_cell connections, generator %d"
                         % (len(serials), len(conns)))
    serial_of = dict(zip(conns, serials))
    joined = {}
    for i, r in enumerate(records):
        entry = by_serial[serial_of[r["conn"]]].pop(r["seq"], None)
        if entry is None:
            raise ValueError("no access-log line for c%d-%d"
                             % (serial_of[r["conn"]], r["seq"]))
        joined[i] = entry
    left = sum(len(v) for v in by_serial.values())
    if left:
        raise ValueError("%d access-log lines match no request" % left)
    return joined


def reply_problem(request_line, reply_line):
    """Why `reply_line` is not a schema-valid ok reply to `request_line`,
    or None when it is."""
    try:
        req = json.loads(request_line)
        doc = json.loads(reply_line)
    except ValueError as e:
        return "not JSON: %s" % e
    if doc.get("schema") != RESPONSE_SCHEMA:
        return "schema is %r" % doc.get("schema")
    if doc.get("id") != req.get("id"):
        return "id %r answers request %r" % (doc.get("id"), req.get("id"))
    if doc.get("ok") is not True:
        return "not ok: %r" % doc.get("error")
    result = doc.get("result")
    params = req.get("params", {})
    if not isinstance(result, dict) or result.get("exp") != params.get("exp"):
        return "result is not the requested experiment's"
    values = result.get("values")
    if not isinstance(values, dict) or not values:
        return "result has no values"
    if not all(isinstance(v, (int, float)) for v in values.values()):
        return "a result value is not a number"
    if "censored" in values and values["censored"] != 0:
        return "a replica was censored"
    return None


def combine(digest, part):
    """Order-sensitive digest of a sequence of digests (FNV-1a 64)."""
    h = int(digest, 16) if digest else 0xCBF29CE484222325
    for byte in part.encode():
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def mismatches(expected, actual):
    """Keys whose bytes differ, or that only one side has."""
    keys = set(expected) | set(actual)
    return sorted(k for k in keys if expected.get(k) != actual.get(k))


def dispatch_mismatches(wire, check_rows):
    """Request ids whose reply, recomputed in process with serve::dispatch
    (perfbench_inproc serve-check rows `D phase id dispatch_ns reply`),
    differs from the reply that came over the wire (`wire`: id -> line)."""
    recomputed = {int(f[2]): f[4] for f in check_rows if f[0] == "D"}
    return mismatches({i: wire.get(i) for i in recomputed}, recomputed)
