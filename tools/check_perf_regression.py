#!/usr/bin/env python3
"""Compare one benchmark between two google-benchmark JSON files.

Used by CI to guard the telemetry hooks: the HNOC_TELEMETRY=ON build
(hooks compiled in, nothing attached) must not regress the network
hot loop versus the OFF build by more than the threshold.

    check_perf_regression.py baseline.json candidate.json \
        --benchmark BM_NetworkStepBaseline --max-regression-pct 8.0

Cross-benchmark mode compares two different series (possibly from the
same file), which is how CI gates the active-set scheduler against the
always-step escape hatch:

    # saturation: active-set must not regress past the threshold
    check_perf_regression.py on.json on.json \
        --benchmark 'stepLoad/mesh_sat_always' \
        --candidate-benchmark 'stepLoad/mesh_sat_active' \
        --max-regression-pct 2.0

    # low load: active-set must be at least 2x faster
    check_perf_regression.py on.json on.json \
        --benchmark 'stepLoad/mesh_low_always' \
        --candidate-benchmark 'stepLoad/mesh_low_active' \
        --min-speedup 2.0

Counter mode gates a user counter instead of real_time, which is how
CI checks the adaptive simulation controller against the fixed-window
reference (counters are deterministic, so these gates are noise-free):

    # adaptive must simulate >= 40% fewer cycles
    check_perf_regression.py on.json on.json \
        --benchmark 'adaptiveSweep/fig07_ur_reference' \
        --candidate-benchmark 'adaptiveSweep/fig07_ur_adaptive' \
        --counter simulated_cycles --min-reduction-pct 40.0

    # ...while pre-saturation latency agrees within 1%
    ... --counter presat_latency_ns --max-delta-pct 1.0

    # ...and both classify the same points as saturated
    ... --counter saturated_points --require-equal

    # scaling gate: per-tile cost at 16x16 must stay within 1.5x of 8x8
    check_perf_regression.py scaling.json scaling.json \
        --benchmark 'scaling/mesh_8' \
        --candidate-benchmark 'scaling/mesh_16' \
        --counter ns_per_cycle_per_tile --max-increase-pct 50.0

Counter mode also supports an absolute ceiling, which is how CI caps
the profiled scan-overhead share (a percentage counter has a natural
absolute meaning, so no baseline series is needed — only the candidate
is read):

    # active-set scan + loop overhead must stay under 15% of step time
    check_perf_regression.py on.json on.json \
        --benchmark 'profiledStepLoad/mesh_mid' \
        --counter pct_scan_overhead --max-value 15.0

Either input may also be an `hnoc-perf-trajectory-v1` snapshot (the
distilled file make_perf_trajectory.py writes), so a committed
BENCH_trajectory.json can serve as the recorded baseline.

Exit status: 0 within threshold, 1 regression, 2 usage/data error.
Run with --self-test (no other arguments) to exercise the parsing and
comparison logic without pytest; CTest invokes this.
"""

import argparse
import collections
import json
import operator
import os
import sys
import tempfile


class DataError(Exception):
    """A benchmark file is missing, malformed, or lacks the series."""


def load_runs(path, name):
    """The runs of series `name` in a benchmark file, as dicts.

    A google-benchmark --benchmark_out file yields the series'
    non-aggregate repetitions. An `hnoc-perf-trajectory-v1` snapshot
    yields one run: its per-series `counters` map, with `real_time`
    set to the recorded per-series minimum `min_ns`.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise DataError(
            f"cannot read {path}: {e} "
            f"(did the benchmark step run and write --benchmark_out?)"
        )
    except ValueError as e:
        raise DataError(
            f"{path} is not valid JSON: {e} "
            f"(truncated benchmark run? re-run with --benchmark_out)"
        )
    if (
        isinstance(doc, dict)
        and doc.get("schema") == "hnoc-perf-trajectory-v1"
    ):
        series = doc.get("benchmarks")
        if not isinstance(series, dict):
            raise DataError(
                f"{path}: trajectory snapshot has no 'benchmarks' map"
            )
        entry = series.get(name)
        if not isinstance(entry, dict):
            known = ", ".join(sorted(series)) or "(none)"
            raise DataError(
                f"no '{name}' series in trajectory {path}; file "
                f"contains: {known}"
            )
        run = dict(entry.get("counters", {}))
        run["real_time"] = entry.get("min_ns")
        return [run]
    if not isinstance(doc, dict) or not isinstance(
        doc.get("benchmarks"), list
    ):
        raise DataError(
            f"{path}: expected a google-benchmark JSON object with a "
            f"'benchmarks' array (got {type(doc).__name__})"
        )
    benches = [b for b in doc["benchmarks"] if isinstance(b, dict)]
    runs = [
        b
        for b in benches
        if b.get("run_name", b.get("name")) == name
        and b.get("run_type", "iteration") != "aggregate"
    ]
    if not runs:
        known = sorted(
            {b.get("run_name", b.get("name", "?")) for b in benches}
        )
        raise DataError(
            f"no '{name}' runs in {path}; file contains: "
            f"{', '.join(known) if known else '(no benchmarks at all)'}"
        )
    return runs


def field_values(path, name, field):
    """`field` (real_time or a user counter) of every run of `name`."""
    values = [run.get(field) for run in load_runs(path, name)]
    if not all(isinstance(v, (int, float)) for v in values):
        raise DataError(
            f"{path}: benchmark '{name}' has no numeric '{field}' field"
        )
    return values


def best_time(path, name):
    """Smallest real_time of `name`: the standard low-noise estimate
    for a CPU-bound loop, since noise only ever adds time."""
    return min(field_values(path, name, "real_time"))


def best_counter(path, name, counter):
    """Value of a user counter for series `name`. Counters in this repo
    are pure functions of simulated data, so every repetition carries
    the same value; the first is taken."""
    return field_values(path, name, counter)[0]


# One row per gate mode, in precedence order. `option` is the compare()
# keyword (and CLI flag) that selects the row; `metric` is what the row
# gates ("counter" needs --counter, "time" reads real_time); baseline-
# free rows read only the candidate. `value(base, cand)` is checked with
# `passes(value, limit)`, reported through `report` and, on failure,
# explained by `failure`.
Gate = collections.namedtuple(
    "Gate", "option metric reads_baseline value passes report failure"
)
GATES = (
    Gate("max_value", "counter", False, lambda b, c: c, operator.le,
         "value {v:g} (ceiling {limit:g})",
         "counter over absolute ceiling"),
    Gate("require_equal", "counter", True, lambda b, c: b == c,
         lambda v, limit: v, "(required equal)", "counter differs"),
    Gate("min_reduction_pct", "counter", True,
         lambda b, c: (b - c) / b * 100.0, operator.ge,
         "reduction {v:.2f}% (required >= {limit:.2f}%)",
         "counter reduction below required minimum"),
    Gate("max_delta_pct", "counter", True,
         lambda b, c: abs(c - b) / abs(b) * 100.0, operator.le,
         "|delta| {v:.3f}% (limit {limit:.3f}%)",
         "counter delta over threshold"),
    Gate("max_increase_pct", "counter", True,
         lambda b, c: (c - b) / abs(b) * 100.0, operator.le,
         "increase {v:+.2f}% (limit +{limit:.2f}%)",
         "counter growth over threshold"),
    Gate("min_speedup", "time", True, lambda b, c: b / c, operator.ge,
         "speedup {v:.2f}x (required >= {limit:.2f}x)",
         "speedup below required minimum"),
    Gate("max_regression_pct", "time", True,
         lambda b, c: (c - b) / b * 100.0, operator.le,
         "delta {v:+.2f}% (limit +{limit:.2f}%)",
         "hot-path regression over threshold"),
)


def compare(
    baseline,
    candidate,
    benchmark,
    max_regression_pct,
    out=sys.stdout,
    candidate_benchmark=None,
    counter=None,
    **limits,
):
    """Core comparison; returns the process exit code.

    The candidate file is read at `candidate_benchmark` when given
    (cross-benchmark A/B), else at `benchmark`. `counter` gates that
    user counter instead of real_time. The first GATES row of the
    matching metric whose option is set in `limits` (or is
    `max_regression_pct`, the time default) decides.
    """
    limits["max_regression_pct"] = max_regression_pct
    limits["require_equal"] = limits.get("require_equal") or None
    metric = "time" if counter is None else "counter"
    gate = next(
        (
            g
            for g in GATES
            if g.metric == metric and limits.get(g.option) is not None
        ),
        None,
    )
    if gate is None:
        raise DataError(
            "--counter needs one of --min-reduction-pct, "
            "--max-delta-pct, --max-increase-pct, --max-value, or "
            "--require-equal"
        )
    if counter is None:
        read, tag, show = best_time, "", (lambda x: f"{x:.1f} ns")
    else:
        read = lambda path, name: best_counter(path, name, counter)
        tag, show = f" [{counter}]", (lambda x: f"{x:g}")
    cand_name = candidate_benchmark or benchmark
    cand = read(candidate, cand_name)
    if gate.reads_baseline:
        base = read(baseline, benchmark)
        label = (
            benchmark
            if cand_name == benchmark
            else f"{benchmark} -> {cand_name}"
        )
        head = (
            f"{label}{tag}: baseline {show(base)}, "
            f"candidate {show(cand)}, "
        )
    else:
        base, head = None, f"{cand_name}{tag}: "
    limit = limits[gate.option]
    try:
        value = gate.value(base, cand)
    except ZeroDivisionError:
        raise DataError(
            f"'{benchmark}'{tag} baseline is 0; relative gates are "
            f"undefined"
        )
    print(head + gate.report.format(v=value, limit=limit), file=out)
    if not gate.passes(value, limit):
        print(f"FAIL: {gate.failure}", file=sys.stderr)
        return 1
    print("OK", file=out)
    return 0


# --------------------------------------------------------- self-test --


def self_test():
    """Pytest-free checks of the parsing and comparison logic."""
    checks = []

    def check(name, got, want):
        checks.append((name, got, want))
        status = "ok" if got == want else "FAIL"
        print(f"  {status}: {name} (got {got!r}, want {want!r})")

    def bench_file(tmpdir, fname, entries):
        path = os.path.join(tmpdir, fname)
        with open(path, "w") as f:
            json.dump({"benchmarks": entries}, f)
        return path

    def expect_data_error(name, fn, needle):
        try:
            fn()
        except DataError as e:
            check(name, needle in str(e), True)
        else:
            check(name, "no DataError raised", DataError)

    entry = lambda name, t, **kw: dict(
        {"name": name, "run_name": name, "real_time": t}, **kw
    )

    with tempfile.TemporaryDirectory() as tmp:
        devnull = open(os.devnull, "w")

        # Minimum across repetitions, aggregates ignored.
        path = bench_file(
            tmp,
            "a.json",
            [
                entry("BM_X", 120.0),
                entry("BM_X", 100.0),
                entry("BM_X", 999.0, run_type="aggregate"),
                entry("BM_Y", 5.0),
            ],
        )
        check("min over repetitions", best_time(path, "BM_X"), 100.0)

        # Within / over threshold.
        base = bench_file(tmp, "base.json", [entry("BM_X", 100.0)])
        ok = bench_file(tmp, "ok.json", [entry("BM_X", 101.0)])
        bad = bench_file(tmp, "bad.json", [entry("BM_X", 110.0)])
        fast = bench_file(tmp, "fast.json", [entry("BM_X", 90.0)])
        check(
            "within threshold passes",
            compare(base, ok, "BM_X", 2.0, out=devnull),
            0,
        )
        check(
            "regression fails",
            compare(base, bad, "BM_X", 2.0, out=devnull),
            1,
        )
        check(
            "improvement passes",
            compare(base, fast, "BM_X", 2.0, out=devnull),
            0,
        )

        # Cross-benchmark A/B within one file: candidate read at a
        # different series name.
        ab = bench_file(
            tmp,
            "ab.json",
            [entry("BM_Slow", 100.0), entry("BM_Fast", 40.0)],
        )
        check(
            "cross-benchmark improvement passes",
            compare(
                ab, ab, "BM_Slow", 2.0,
                out=devnull, candidate_benchmark="BM_Fast",
            ),
            0,
        )
        check(
            "cross-benchmark regression fails",
            compare(
                ab, ab, "BM_Fast", 2.0,
                out=devnull, candidate_benchmark="BM_Slow",
            ),
            1,
        )

        # Speedup gate: 100/40 = 2.5x.
        check(
            "speedup gate met",
            compare(
                ab, ab, "BM_Slow", 2.0,
                out=devnull, candidate_benchmark="BM_Fast",
                min_speedup=2.0,
            ),
            0,
        )
        check(
            "speedup gate missed",
            compare(
                ab, ab, "BM_Slow", 2.0,
                out=devnull, candidate_benchmark="BM_Fast",
                min_speedup=3.0,
            ),
            1,
        )

        # Counter gates: reduction, delta bound, exact match.
        ctr = bench_file(
            tmp,
            "ctr.json",
            [
                entry(
                    "sweep/ref",
                    5.0,
                    simulated_cycles=100000.0,
                    presat_latency_ns=20.0,
                    saturated_points=1.0,
                ),
                entry(
                    "sweep/ada",
                    2.0,
                    simulated_cycles=50000.0,
                    presat_latency_ns=20.1,
                    saturated_points=1.0,
                ),
            ],
        )
        check(
            "counter read from raw JSON",
            best_counter(ctr, "sweep/ref", "simulated_cycles"),
            100000.0,
        )
        check(
            "counter reduction gate met",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="simulated_cycles", min_reduction_pct=40.0,
            ),
            0,
        )
        check(
            "counter reduction gate missed",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="simulated_cycles", min_reduction_pct=60.0,
            ),
            1,
        )
        check(
            "counter delta within bound",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="presat_latency_ns", max_delta_pct=1.0,
            ),
            0,
        )
        check(
            "counter delta over bound",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="presat_latency_ns", max_delta_pct=0.1,
            ),
            1,
        )
        # One-sided growth gate (the scaling-curve bound): a shrink or
        # small growth passes, growth over the limit fails.
        scale = bench_file(
            tmp,
            "scale.json",
            [
                entry("scaling/mesh_8", 50.0, ns_per_cycle_per_tile=100.0),
                entry("scaling/mesh_16", 60.0, ns_per_cycle_per_tile=140.0),
                entry("scaling/mesh_32", 70.0, ns_per_cycle_per_tile=40.0),
            ],
        )
        check(
            "counter growth within bound",
            compare(
                scale, scale, "scaling/mesh_8", 2.0,
                out=devnull, candidate_benchmark="scaling/mesh_16",
                counter="ns_per_cycle_per_tile", max_increase_pct=50.0,
            ),
            0,
        )
        check(
            "counter growth over bound",
            compare(
                scale, scale, "scaling/mesh_8", 2.0,
                out=devnull, candidate_benchmark="scaling/mesh_16",
                counter="ns_per_cycle_per_tile", max_increase_pct=30.0,
            ),
            1,
        )
        check(
            "counter shrink passes one-sided gate",
            compare(
                scale, scale, "scaling/mesh_8", 2.0,
                out=devnull, candidate_benchmark="scaling/mesh_32",
                counter="ns_per_cycle_per_tile", max_increase_pct=0.0,
            ),
            0,
        )
        # Absolute ceiling: reads only the candidate series, so a
        # percentage counter gates without any baseline file.
        check(
            "counter within absolute ceiling",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, counter="presat_latency_ns",
                max_value=25.0,
            ),
            0,
        )
        check(
            "counter over absolute ceiling",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, counter="presat_latency_ns",
                max_value=15.0,
            ),
            1,
        )
        check(
            "absolute ceiling reads candidate series",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="simulated_cycles", max_value=60000.0,
            ),
            0,
        )
        check(
            "counter equality met",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="saturated_points", require_equal=True,
            ),
            0,
        )
        check(
            "counter inequality fails",
            compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, candidate_benchmark="sweep/ada",
                counter="simulated_cycles", require_equal=True,
            ),
            1,
        )
        expect_data_error(
            "missing counter explained",
            lambda: best_counter(ctr, "sweep/ref", "nope"),
            "nope",
        )
        expect_data_error(
            "counter without a gate rejected",
            lambda: compare(
                ctr, ctr, "sweep/ref", 2.0,
                out=devnull, counter="simulated_cycles",
            ),
            "--min-reduction-pct",
        )

        # The telemetry-overhead job shape with blame hooks compiled
        # in: the OFF-vs-ON comparison still reads
        # BM_NetworkStepBaseline (hooks present, nothing attached) and
        # must ride the same <=8% gate, while the attached-collector
        # price is checked cross-benchmark inside the ON file under the
        # generous 45% bound (attachment may cost, never silently
        # explode).
        blame_off = bench_file(
            tmp,
            "blame_off.json",
            [entry("BM_NetworkStepBaseline", 100.0)],
        )
        blame_on = bench_file(
            tmp,
            "blame_on.json",
            [
                entry("BM_NetworkStepBaseline", 101.0),
                entry("BM_NetworkStepBlame", 125.0),
            ],
        )
        check(
            "blame hooks ride the ON-vs-OFF gate",
            compare(
                blame_off, blame_on, "BM_NetworkStepBaseline", 8.0,
                out=devnull,
            ),
            0,
        )
        check(
            "attached blame collector within price bound",
            compare(
                blame_on, blame_on, "BM_NetworkStepBaseline", 45.0,
                out=devnull, candidate_benchmark="BM_NetworkStepBlame",
            ),
            0,
        )
        check(
            "attached blame collector over price bound",
            compare(
                blame_on, blame_on, "BM_NetworkStepBaseline", 10.0,
                out=devnull, candidate_benchmark="BM_NetworkStepBlame",
            ),
            1,
        )

        # Trajectory-v1 snapshots as inputs (recorded baselines).
        traj = os.path.join(tmp, "traj.json")
        with open(traj, "w") as f:
            json.dump(
                {
                    "schema": "hnoc-perf-trajectory-v1",
                    "benchmarks": {
                        "BM_X": {
                            "median_ns": 105.0,
                            "min_ns": 100.0,
                            "repetitions": 7,
                            "counters": {"simulated_cycles": 100000.0},
                        }
                    },
                },
                f,
            )
        check("trajectory min_ns read", best_time(traj, "BM_X"), 100.0)
        check(
            "trajectory counter read",
            best_counter(traj, "BM_X", "simulated_cycles"),
            100000.0,
        )
        expect_data_error(
            "trajectory missing counter explained",
            lambda: best_counter(traj, "BM_X", "nope"),
            "nope",
        )
        check(
            "trajectory baseline vs raw candidate",
            compare(traj, ok, "BM_X", 2.0, out=devnull),
            0,
        )
        expect_data_error(
            "trajectory unknown series lists known ones",
            lambda: best_time(traj, "BM_Missing"),
            "BM_X",
        )

        # Error paths: message must say what is wrong and where.
        missing = os.path.join(tmp, "missing.json")
        expect_data_error(
            "missing file named",
            lambda: best_time(missing, "BM_X"),
            "missing.json",
        )
        trunc = os.path.join(tmp, "trunc.json")
        with open(trunc, "w") as f:
            f.write('{"benchmarks": [')
        expect_data_error(
            "malformed JSON explained",
            lambda: best_time(trunc, "BM_X"),
            "not valid JSON",
        )
        not_bench = os.path.join(tmp, "notbench.json")
        with open(not_bench, "w") as f:
            json.dump([1, 2, 3], f)
        expect_data_error(
            "wrong shape explained",
            lambda: best_time(not_bench, "BM_X"),
            "'benchmarks' array",
        )
        expect_data_error(
            "unknown series lists known ones",
            lambda: best_time(base, "BM_Missing"),
            "BM_X",
        )
        no_time = bench_file(
            tmp, "notime.json", [{"name": "BM_X", "run_name": "BM_X"}]
        )
        expect_data_error(
            "missing real_time explained",
            lambda: best_time(no_time, "BM_X"),
            "real_time",
        )
        devnull.close()

    failed = [c for c in checks if c[1] != c[2]]
    print(f"self-test: {len(checks) - len(failed)}/{len(checks)} passed")
    return 1 if failed else 0


def main():
    if "--self-test" in sys.argv[1:]:
        return self_test()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", help="benchmark JSON of the reference build")
    ap.add_argument("candidate", help="benchmark JSON of the build under test")
    ap.add_argument("--benchmark", default="BM_NetworkStepBaseline")
    ap.add_argument(
        "--candidate-benchmark",
        help="series name to read from the candidate file when it "
        "differs from --benchmark (cross-benchmark A/B)",
    )
    ap.add_argument("--max-regression-pct", type=float, default=2.0)
    ap.add_argument(
        "--min-speedup",
        type=float,
        help="require baseline/candidate >= this factor instead of the "
        "regression bound (e.g. 2.0 for the active-set low-load gate)",
    )
    ap.add_argument(
        "--counter",
        help="compare this user counter instead of real_time; needs "
        "one of --min-reduction-pct / --max-delta-pct / "
        "--max-increase-pct / --max-value / --require-equal",
    )
    ap.add_argument(
        "--min-reduction-pct",
        type=float,
        help="with --counter: candidate must be at least this percent "
        "smaller than baseline (adaptive cycle-savings gate)",
    )
    ap.add_argument(
        "--max-delta-pct",
        type=float,
        help="with --counter: |candidate-baseline|/baseline must stay "
        "within this percent (latency-agreement gate)",
    )
    ap.add_argument(
        "--max-increase-pct",
        type=float,
        help="with --counter: candidate may shrink freely but must not "
        "exceed baseline by more than this percent (one-sided "
        "scaling-curve gate, e.g. 50 for the 16x16 <= 1.5x 8x8 "
        "ns/cycle/tile bound)",
    )
    ap.add_argument(
        "--max-value",
        type=float,
        help="with --counter: absolute ceiling on the candidate's "
        "counter value; no baseline series is read (scan-overhead "
        "share gate, e.g. 15 for pct_scan_overhead <= 15%%)",
    )
    ap.add_argument(
        "--require-equal",
        action="store_true",
        help="with --counter: values must match exactly "
        "(saturation-classification gate)",
    )
    args = ap.parse_args()

    try:
        return compare(
            args.baseline,
            args.candidate,
            args.benchmark,
            args.max_regression_pct,
            candidate_benchmark=args.candidate_benchmark,
            min_speedup=args.min_speedup,
            counter=args.counter,
            min_reduction_pct=args.min_reduction_pct,
            max_delta_pct=args.max_delta_pct,
            max_increase_pct=args.max_increase_pct,
            require_equal=args.require_equal,
            max_value=args.max_value,
        )
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
