"""Arithmetic of the HeteroNoC benchmark: statistics, the output check
and the metrics, computed from the records hnoc_perfbench prints.

Every function here is pure, so test_perfbench.py can pin it without
running the simulator. Host times are seconds unless a name says ns.
"""

import hashlib
import math
import statistics

# Profiler phases reported per tile-cycle (ProfPhase order; the
# telemetry epoch phase is folded into the unattributed share).
PHASES = ("channel_delivery", "ni_eject", "route_compute", "vc_allocate",
          "switch_allocate", "ni_inject")

# Simulated outputs the digest covers, per point kind.
NOC_DIGEST_FIELDS = ("latency_ns", "accepted", "sim_cycles", "power_w",
                     "created", "delivered", "saturated")
CMP_DIGEST_FIELDS = ("latency_ns", "ipc", "sim_cycles", "power_w",
                     "packets", "l1_misses", "injected", "net_delivered")

# A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


# ---------------------------------------------------------------- stats --

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / m if m else math.inf


def tail_percentile(n):
    """The highest of p99.9, p99 and p90 that has at least TAIL_SAMPLES
    of n samples beyond it, or None when even p90 has too few."""
    # p leaves one sample in `every` beyond it.
    for p, every in ((99.9, 1000), (99.0, 100), (90.0, 10)):
        if n >= TAIL_SAMPLES * every:
            return p
    return None


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p % of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


# --------------------------------------------------------- output check --

def point_host_s(point):
    return point["end_s"] - point["start_s"]


def is_cmp(point):
    return "ipc" in point


def digest(point):
    """Short hash of a point's simulated outputs. Floats enter through
    repr(), which round-trips the %.17g values hnoc_perfbench prints, so
    the digest changes exactly when a simulated statistic does."""
    fields = CMP_DIGEST_FIELDS if is_cmp(point) else NOC_DIGEST_FIELDS
    text = ";".join(f"{f}={point[f]!r}" for f in fields)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def point_problems(point):
    """Invariants that hold for every seed; returns what broke."""
    if not point.get("ok"):
        return [point.get("error", "point failed")]
    problems = []
    if point["watchdog_trips"]:
        problems.append(f"{point['watchdog_trips']} watchdog trips")
    if is_cmp(point):
        if not point["credit_ok"]:
            problems.append("credit conservation violated")
        if point["injected"] != point["net_delivered"] + point["in_flight"]:
            problems.append("packets injected != delivered + in flight")
    elif not point["saturated"] and point["delivered"] != point["created"]:
        problems.append("delivered != created on a non-saturated point")
    return problems


def check_batches(batches, reference=None):
    """Check every point of every batch. Each point must pass its
    invariants, repeat the first batch's digest (plain and traced
    batches alike), and match @p reference (a digest list) when given.
    Returns (attempted, failed, messages, digests of the first batch)."""
    first = [digest(p) if p.get("ok") else None
             for p in batches[0]["points"]]
    attempted = failed = 0
    messages = []
    for b in batches:
        for i, p in enumerate(b["points"]):
            attempted += 1
            problems = point_problems(p)
            if not problems:
                d = digest(p)
                if d != first[i]:
                    problems.append("digest differs between batches")
                elif reference is not None and d != reference[i]:
                    problems.append("digest differs from the reference")
            if problems:
                failed += 1
                messages.append(f"batch {b['index']} point {i}: "
                                + "; ".join(problems))
    if reference is not None and len(reference) != len(first):
        messages.append("reference has a different number of points")
        failed = max(failed, 1)
    return attempted, failed, messages, first


def env_problems(env, threads):
    """Reasons this run is not comparable with another run."""
    problems = []
    if not env["ndebug"]:
        problems.append("built without NDEBUG")
    if not env["telemetry"]:
        problems.append("built with HNOC_TELEMETRY=OFF")
    if env["sim_scale"] != 1:
        problems.append("HNOC_SIM_SCALE is set")
    if env["pool_threads"] != threads:
        problems.append(f"pool has {env['pool_threads']} threads, "
                        f"asked for {threads}")
    return problems


# ------------------------------------------------------------ metrics --

def tile_cycles(point):
    return point["sim_cycles"] * point["tiles"]


def split_presat_sat(points):
    """Host ns per simulated tile-cycle of NoC points, split on the
    harness's `saturated` flag: (presat, sat), 0.0 for an empty side."""
    ns = {False: 0.0, True: 0.0}
    work = {False: 0, True: 0}
    for p in points:
        if is_cmp(p):
            continue
        ns[p["saturated"]] += point_host_s(p) * 1e9
        work[p["saturated"]] += tile_cycles(p)
    return tuple(ns[s] / work[s] if work[s] else 0.0 for s in (False, True))


def pool_tail_s(points, wall_s, threads):
    """Time from the first worker finding the queue empty to the end of
    the batch. The queue empties when the last point starts; the first
    worker to look after that is the first to finish then, or an idle
    worker at once when the batch has fewer points than threads."""
    if len(points) < threads:
        return wall_s
    last_start = max(p["start_s"] for p in points)
    first_free = min(p["end_s"] for p in points if p["end_s"] > last_start)
    return wall_s - first_free


def batch_setup_s(batch):
    """Set-up before the first simulated cycle, summed over points."""
    return batch["noc_setup_s"] + sum(p.get("setup_s", 0.0)
                                      for p in batch["points"])


def batch_busy_s(batch):
    return sum(point_host_s(p) for p in batch["points"])


def end_to_end(plain, peak_rss_kb):
    """End-to-end metrics from the plain (uninstrumented) batches: the
    median over batches of each per-batch figure."""
    def per_batch(fn):
        return median([fn(b) for b in plain])

    return {
        "wall_s": (per_batch(lambda b: b["wall_s"]), "s"),
        "setup_s": (per_batch(batch_setup_s), "s"),
        "sim_Mtile_cycles_per_s": (per_batch(
            lambda b: sum(tile_cycles(p) for p in b["points"])
            / b["wall_s"] / 1e6), "Mtile-cycles/s"),
        "busy_s": (per_batch(batch_busy_s), "s"),
        "point_s_p50": (per_batch(
            lambda b: median([point_host_s(p) for p in b["points"]])), "s"),
        "point_s_max": (per_batch(
            lambda b: max(point_host_s(p) for p in b["points"])), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(plain, traced, threads):
    """Per-layer metrics. Host times taken from outside (pool, harness,
    warm-up) come from the plain batches; instrument readings
    (profiler, timed CMP client, audits) from the traced ones."""
    def per_batch(batches, fn):
        return median([fn(b) for b in batches])

    def prof_sum(b, fn):
        return sum(fn(p["prof"], p) for p in b["points"] if "prof" in p)

    def cmp_points(b):
        return [p for p in b["points"] if is_cmp(p)]

    def client_ns(b):
        return sum(p["precycle_ns"] + p["deliver_ns"] for p in cmp_points(b))

    m = {}
    m["common.job_pool.busy_frac"] = (per_batch(
        plain, lambda b: batch_busy_s(b) / (b["wall_s"] * threads)),
        "fraction")
    m["common.job_pool.tail_s"] = (per_batch(plain, lambda b: pool_tail_s(
        b["points"], b["wall_s"], threads)), "s")
    m["noc.harness.ns_per_tile_cycle.presat"] = (per_batch(
        plain, lambda b: split_presat_sat(b["points"])[0]), "ns")
    m["noc.harness.ns_per_tile_cycle.sat"] = (per_batch(
        plain, lambda b: split_presat_sat(b["points"])[1]), "ns")
    m["noc.harness.sim_cycles"] = (
        sum(p["sim_cycles"] for p in plain[0]["points"]), "count")

    for ph in PHASES:
        m[f"noc.network.{ph}.ns_per_tile_cycle"] = (per_batch(
            traced, lambda b, ph=ph: _ratio(
                prof_sum(b, lambda pr, p: pr["phase_ns"][ph]),
                prof_sum(b, lambda pr, p: pr["cycles"] * p["tiles"]))), "ns")
    m["noc.network.unattributed_frac"] = (per_batch(traced, lambda b: _ratio(
        prof_sum(b, lambda pr, p: pr["unattributed_ns"]),
        prof_sum(b, lambda pr, p: pr["step_ns"]))), "fraction")
    m["noc.network.bytes_per_tile"] = (max(
        p.get("net_bytes_per_tile", 0.0) for p in traced[0]["points"]), "B")
    m["noc.network.bytes_streamed_per_cycle"] = (per_batch(
        traced, lambda b: _ratio(
            prof_sum(b, lambda pr, p: pr["streamed_bytes"]),
            prof_sum(b, lambda pr, p: pr["cycles"]))), "B/cycle")

    m["sys.cmp.precycle_ns_per_cycle"] = (per_batch(traced, lambda b: _ratio(
        sum(p["precycle_ns"] for p in cmp_points(b)),
        sum(p["precycle_calls"] for p in cmp_points(b)))), "ns")
    m["sys.cmp.deliver_ns_per_packet"] = (per_batch(traced, lambda b: _ratio(
        sum(p["deliver_ns"] for p in cmp_points(b)),
        sum(p["deliver_calls"] for p in cmp_points(b)))), "ns")
    m["sys.cmp.client_frac"] = (per_batch(traced, lambda b: _ratio(
        client_ns(b), sum(p["run_ns"] for p in cmp_points(b)))), "fraction")
    m["sys.cmp.network_ns_per_tile_cycle"] = (per_batch(
        traced, lambda b: _ratio(
            sum(p["run_ns"] for p in cmp_points(b)) - client_ns(b),
            sum(tile_cycles(p) for p in cmp_points(b)))), "ns")
    m["sys.cmp.warm_s"] = (per_batch(plain, lambda b: sum(
        p["warm_s"] for p in cmp_points(b))), "s")
    m["sys.cmp.packets"] = (
        sum(p["packets"] for p in cmp_points(plain[0])), "count")
    m["sys.cmp.l1_misses"] = (
        sum(p["l1_misses"] for p in cmp_points(plain[0])), "count")
    m["sys.cmp.bytes"] = (max(
        [p["cmp_bytes"] for p in cmp_points(traced[0])], default=0), "B")

    m["telemetry.trace_overhead_frac"] = (
        median([b["wall_s"] for b in traced])
        / median([b["wall_s"] for b in plain]) - 1.0, "fraction")
    return m
