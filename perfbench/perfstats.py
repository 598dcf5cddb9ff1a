"""Reductions for perfbench: quantiles, geometric means, span self-times and
the mapping from the benchmark binary's raw samples to the reported metrics.

Pure functions over plain Python data, so tests/test_perfstats.py can check
them without building anything.
"""

import math
import statistics

SERVER_CLASSES = ("fib", "sort", "pairs", "lu")
APPS = ("alignment", "fft", "fib", "floorplan", "health", "nqueens", "sort",
        "sparselu", "strassen", "uts")


def quantile(values, q):
    """Quantile q in [0, 1], linear between the two closest ranks."""
    if not values:
        raise ValueError("quantile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def geomean(values):
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def mean(values):
    return sum(values) / len(values)


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-layer (count, total ns, self ns). A span's self time is its
    duration minus the part of it that its children cover; children may
    overlap each other (concurrent requests)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    table = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = union_length(
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(s["id"], ())
            if c["end_ns"] > start and c["start_ns"] < end)
        row = table.setdefault(s["layer"], [0, 0, 0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered
    return {k: tuple(v) for k, v in table.items()}


# ---------------------------------------------------------------------------
# Raw samples -> metrics
# ---------------------------------------------------------------------------

def op_speedup(op):
    """serial ÷ measured for one batch kernel; Floorplan compares nodes/s."""
    if op["measured_metric"] and min(op["measured_metric"]) > 0 \
            and min(op["serial_metric"]) > 0:
        return median(op["measured_metric"]) / median(op["serial_metric"])
    return median(op["serial_s"]) / median(op["measured_s"])


def window_at(windows, rps):
    """Every window the generator ran at `rps` requests/s, merged: samples
    pooled, counts summed, backlog the worst window's."""
    ws = [w for w in windows if w["rps"] == rps]
    if not ws:
        raise KeyError("no window at %g requests/s" % rps)
    merged = {"rps": rps, "seconds": sum(w["seconds"] for w in ws),
              "backlog_end": max(w["backlog_end"] for w in ws)}
    for k in ("sent", "rejected", "shed", "deadline_exceeded"):
        merged[k] = sum(w[k] for w in ws)
    for k in ("queue_ms", "lag_ms", "submit_us"):
        merged[k] = [x for w in ws for x in w[k]]
    for k in ("latency_ms", "service_ms"):
        merged[k] = {}
        for w in ws:
            for cls, xs in w[k].items():
                merged[k].setdefault(cls, []).extend(xs)
    return merged


def rates(windows):
    return sorted({w["rps"] for w in windows})


def window_latencies(window):
    return [x for v in window["latency_ms"].values() for x in v]


def max_rps(windows, p99_limit_ms):
    """Highest ladder rate whose p99 meets the limit without a growing
    backlog (more requests left at the end of the schedule than the server
    could clear within the latency limit)."""
    best = 0
    for w in (window_at(windows, r) for r in rates(windows)):
        lat = window_latencies(w)
        ok = (lat and quantile(lat, 0.99) <= p99_limit_ms
              and w["backlog_end"] <= w["rps"] * p99_limit_ms / 1e3
              and len(lat) == w["sent"])
        if ok:
            best = max(best, w["rps"])
    return best


def end_to_end(raw, low_rate, high_rate):
    """The gated metrics, defined on every workload:
    setup_s          median set-up time (construction, inputs, warm-up);
    speedup_geomean  geometric mean over operation kinds of serial time ÷
                     measured time: Figure-3 kernels at t = nproc
                     (fig3-nproc), no-cut-off kernels at t = 1
                     (overhead-t1), request classes at `low_rate`, from
                     scheduled send to completion (server-open);
    wall_s           sum over operation kinds of the median measured time:
                     par_wall_s, t1_wall_s, or the request classes' median
                     latency at `high_rate`."""
    m = {"setup_s": (median(raw["setup_s"]), "s")}
    if raw["ops"]:
        m["speedup_geomean"] = (geomean([op_speedup(o) for o in raw["ops"]]), "x")
        m["wall_s"] = (sum(median(o["measured_s"]) for o in raw["ops"]), "s")
    else:
        srv = raw["server"]
        low = window_at(srv["windows"], low_rate)
        high = window_at(srv["windows"], high_rate)
        m["speedup_geomean"] = (geomean([
            median(srv["serial_ms"][c]) / median(low["latency_ms"][c])
            for c in SERVER_CLASSES]), "x")
        m["wall_s"] = (sum(median(high["latency_ms"][c])
                           for c in SERVER_CLASSES) / 1e3, "s")
    return m


def details(raw, p99_limit_ms):
    """Ungated figures for the human-readable summary: the per-workload
    names (failed_frac, inflation_geomean, lat_p50_ms.<rate>, ...)."""
    d = {"failed_frac": (raw["failed"] / max(raw["attempted"], 1), "ratio")}
    if raw["ops"]:
        e = end_to_end(raw, None, None)
        if raw["workload"] == "overhead-t1":
            d["inflation_geomean"] = (1 / e["speedup_geomean"][0], "x")
            d["t1_wall_s"] = e["wall_s"]
        else:
            d["par_wall_s"] = e["wall_s"]
        for o in raw["ops"]:
            d["speedup." + o["kind"]] = (op_speedup(o), "x")
    else:
        windows = raw["server"]["windows"]
        for w in (window_at(windows, r) for r in rates(windows)):
            lat = window_latencies(w)
            rate = "%g" % w["rps"]
            d["lat_p50_ms." + rate] = (median(lat), "ms")
            d["lat_p99_ms." + rate] = (quantile(lat, 0.99), "ms")
            d["requests." + rate] = (len(lat), "count")
            d["loadgen.lag_ms.p99." + rate] = (quantile(w["lag_ms"], 0.99), "ms")
        d["max_rps"] = (max_rps(windows, p99_limit_ms), "1/s")
    return d


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(raw, high_rate):
    """Per-layer metrics of a traced run. Counters come from the workload's
    own timed regions; ladder figures from the layer ladder, identical on
    every workload. Server figures come from the workload's `high_rate`
    window on server-open and from the ladder's server probe elsewhere."""
    c = raw["counters"]
    lad = raw["ladder"]
    S = lad["series"]
    m = {}
    if raw["ops"]:
        serial = sum(median(o["serial_s"]) for o in raw["ops"])
    else:
        serial = sum(median(v) for v in raw["server"]["serial_ms"].values()) / 1e3
    m["kernels.serial_s"] = (serial, "s")
    for app in APPS:
        m["kernels.serial_ms." + app] = (median(S["serial_ms." + app]), "ms")

    for rung in ("fork_join_ns", "spawn_taskwait_ns", "inline_spawn_ns"):
        for t in ("t1", "tN"):
            xs = S["%s.%s" % (rung, t)]
            m["scheduler.%s.%s.mean" % (rung, t)] = (mean(xs), "ns")
            m["scheduler.%s.%s.p99" % (rung, t)] = (quantile(xs, 0.99), "ns")
    m["scheduler.tasks_deferred"] = (c["tasks_deferred"], "count")
    m["scheduler.tasks_inlined"] = (
        c["tasks_if_inlined"] + c["tasks_cutoff_inlined"], "count")
    m["scheduler.steal_hit_ratio"] = (
        _ratio(c["steal_hits"], c["steal_attempts"]), "ratio")
    m["scheduler.tsc_parked"] = (c["tsc_parked"], "count")
    m["scheduler.pool_fresh_ratio"] = (
        _ratio(c["pool_fresh"], c["pool_fresh"] + c["pool_reuse"]), "ratio")
    m["scheduler.cpu_util"] = (_ratio(c["cpu_s"], c["team_wall_s"]), "ratio")
    # Share of fib `tied`'s t = 1 inflation over serial that the ladder's
    # spawn costs account for: deferred tasks pay a spawn/taskwait round
    # trip, inlined ones an inline spawn.
    inflation_ns = (median(S["fib_t1_s"]) - median(S["fib_serial_s"])) * 1e9
    sc = lad["scalars"]
    explained = (mean(S["spawn_taskwait_ns.t1"]) * sc["fib_tasks_deferred"]
                 + mean(S["inline_spawn_ns.t1"]) * sc["fib_tasks_inlined"])
    m["scheduler.spawn_share_of_t1_inflation"] = (
        _ratio(explained, inflation_ns), "ratio")

    for t in ("t1", "tN"):
        m["worksharing.range_ns_per_iter." + t] = (
            median(S["range_ns_per_iter." + t]), "ns")
    m["worksharing.range_tasks"] = (c["range_tasks"], "count")
    m["worksharing.range_splits"] = (c["range_splits"], "count")

    m["dependency.edge_ns"] = (median(S["edge_ns"]), "ns")
    m["dependency.deps_edges"] = (c["deps_edges"], "count")
    m["dependency.edges_resolved"] = (c["edges_resolved"], "count")

    m["taskgraph.record_ns_per_task"] = (median(S["record_ns_per_task"]), "ns")
    m["taskgraph.replay_ns_per_task"] = (median(S["replay_ns_per_task"]), "ns")
    m["taskgraph.replay_hit_ratio"] = (
        _ratio(c["graphs_replayed"], c["graph_requests"]), "ratio")

    w = window_at(raw["server"]["windows"], high_rate) \
        if raw["server"]["windows"] else lad["probe"]["windows"][0]
    m["server.submit_us.p50"] = (median(w["submit_us"]), "us")
    m["server.submit_us.p99"] = (quantile(w["submit_us"], 0.99), "us")
    m["server.queue_wait_ms.p50"] = (median(w["queue_ms"]), "ms")
    m["server.queue_wait_ms.p99"] = (quantile(w["queue_ms"], 0.99), "ms")
    for cls in SERVER_CLASSES:
        xs = w["service_ms"][cls]
        m["server.service_ms.%s.p50" % cls] = (median(xs), "ms")
        m["server.service_ms.%s.p99" % cls] = (quantile(xs, 0.99), "ms")
    for k in ("backlog_end", "rejected", "shed", "deadline_exceeded"):
        m["server." + k] = (w[k], "count")
    m["loadgen.lag_ms.p99"] = (quantile(w["lag_ms"], 0.99), "ms")

    m["trace.armed_ratio"] = (
        median(S["fib_armed_ns_per_task"]) / median(S["fib_disarmed_ns_per_task"]),
        "ratio")
    return m
