#!/usr/bin/env python3
"""HeteroNoC benchmark: host time to regenerate paper figures.

    python3 perfbench/run.py --workload noc_ur_sweep --seed 1 \
        --seconds 20 --trace 0

Builds hnoc_perfbench (CMakeLists.txt next to this file) into
.bench_build/perfbench, generates the workload's simulation points from
--seed, runs them as repeated batches for --seconds of host time,
checks the simulated outputs, and prints every metric by name with its
unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 the per-layer ones. --workload all runs
the three workloads in turn. README.md in this directory describes each
metric and workload.
"""

import argparse
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import analysis

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "hnoc_perfbench"
REFERENCE = HERE / "reference.json"

# Digests in reference.json are for this seed; other seeds are checked
# by invariants only.
DEFAULT_SEED = 1
MAX_THREADS = 4
# Every run keeps at least this many plain batches for its medians.
MIN_BATCHES = 4

LAYOUTS = ("Baseline", "Center+B", "Row2_5+B", "Diagonal+B", "Center+BL",
           "Row2_5+BL", "Diagonal+BL")
# Fig 7 UR injection rates (packets/node/cycle), bench/fig07_ur_traffic.cc.
FIG7_RATES = (0.004, 0.012, 0.020, 0.028, 0.036, 0.044, 0.052, 0.060, 0.068)
CMP_APPS = ("TPC-C", "vips", "libquantum")
# scaling_curve mid load: 0.2 flits/node/cycle scaled by 8/radix, over
# Diagonal+BL's 8-flit (1024 b / 128 b) data packets.
BIG_MESH_RADIX = 32
BIG_MESH_RATE = 0.2 * 8 / BIG_MESH_RADIX / 8

WORKLOADS = ("noc_ur_sweep", "cmp_apps", "noc_big_mesh")


def make_points(workload, seed):
    """The workload's simulation points as hnoc_perfbench directives."""
    if workload == "noc_ur_sweep":
        # fig07 at HNOC_SIM_SCALE=0.1: 600/1500/3000-cycle windows, plus
        # one zero-load point per layout at the harness default windows.
        points = []
        for layout in LAYOUTS:
            points += [f"noc {layout} 8 {r} 600 1500 3000 {seed}"
                       for r in FIG7_RATES]
            points.append(f"noc {layout} 8 0.001 1000 3000 6000 {seed}")
        return points
    if workload == "cmp_apps":
        # runCmpExperiment (bench/bench_util.hh) at half scale.
        return [f"cmp {layout} {app} 20000 1500 6000 {seed}"
                for app in CMP_APPS for layout in ("Baseline", "Diagonal+BL")]
    if workload == "noc_big_mesh":
        return [f"noc Diagonal+BL {BIG_MESH_RADIX} {BIG_MESH_RATE!r} "
                f"1000 3000 4000 {seed}"]
    raise ValueError(f"unknown workload {workload}")


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(min(MAX_THREADS, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def pool_threads():
    return min(MAX_THREADS, len(os.sched_getaffinity(0)))


@functools.cache
def fixed_layout_prefix():
    """`setarch -R` when it works here: with address randomization off,
    every run lays out code and heap alike, which removes one source of
    run-to-run spread in host time. Simulated results do not depend on
    it."""
    if shutil.which("setarch") is None:
        return []
    probe = subprocess.run(["setarch", "-R", "true"],
                           stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return ["setarch", "-R"] if probe.returncode == 0 else []


def run_binary(points, seconds, trace, threads, min_batches=MIN_BATCHES):
    """Run hnoc_perfbench on @p points; returns its parsed records."""
    min_batches = 2 * min_batches if trace else min_batches
    text = "".join(f"{line}\n" for line in [
        f"seconds {seconds}", f"min_batches {min_batches}",
        f"trace {int(trace)}"] + points)
    inputs = BUILD / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    path = inputs / f"points-{os.getpid()}.txt"
    path.write_text(text)
    env = {k: v for k, v in os.environ.items() if not k.startswith("HNOC_")}
    env["HNOC_THREADS"] = str(threads)
    try:
        out = subprocess.run(fixed_layout_prefix() + [str(BINARY), str(path)],
                             env=env, check=True,
                             stdout=subprocess.PIPE, text=True,
                             timeout=max(150.0, 3.0 * seconds)).stdout
    finally:
        path.unlink()
    return [json.loads(line) for line in out.splitlines() if line]


def load_reference(workload):
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def write_reference(workload, digests):
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[workload] = digests
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",),
                    help="'all' runs every workload in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's digests as the reference "
                         f"(seed {DEFAULT_SEED} only)")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in 64 unsigned bits")
    if args.write_reference and args.seed != DEFAULT_SEED:
        ap.error(f"the reference is for seed {DEFAULT_SEED}")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        build()
        threads = pool_threads()
        results = {w: run_workload(w, args, threads) for w in workloads}
    except (subprocess.SubprocessError, OSError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


def run_workload(workload, args, threads):
    """Run, check and print one workload; returns its result object."""
    records = run_binary(make_points(workload, args.seed), args.seconds,
                         args.trace, threads)
    env = next(r for r in records if r["kind"] == "env")
    end = next(r for r in records if r["kind"] == "end")
    batches = [r for r in records if r["kind"] == "batch"]
    # Batch 0 is the warm-up: checked, never timed.
    plain = [b for b in batches if not b["traced"] and b["index"] > 0]
    traced = [b for b in batches if b["traced"]]

    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        reference = load_reference(workload)
        if reference is None:
            raise RuntimeError(f"no reference digests for {workload}")
    attempted, failed, messages, digests = analysis.check_batches(
        batches, reference)
    if args.write_reference and not failed:
        write_reference(workload, digests)
    not_comparable = analysis.env_problems(env, threads)

    print(f"perfbench {workload} seed={args.seed} trace={args.trace} "
          f"batches=1 warm-up + {len(plain)} plain + {len(traced)} traced, "
          f"points/batch={len(batches[0]['points'])}")
    print(f"host: nproc={len(os.sched_getaffinity(0))} "
          f"hardware_concurrency={env['hardware_concurrency']} "
          f"pool={env['pool_threads']} compiler={env['compiler']} "
          f"aslr={'off' if fixed_layout_prefix() else 'on'} "
          f"NDEBUG={int(env['ndebug'])} "
          f"HNOC_TELEMETRY={'ON' if env['telemetry'] else 'OFF'} "
          f"comparable={'no: ' + '; '.join(not_comparable) if not_comparable else 'yes'}")
    check = ("digests match the reference" if reference is not None
             else "invariants only (no reference for this seed)")
    print(f"output check: {check}; {failed} of {attempted} points failed")
    for msg in messages[:20]:
        print(f"  {msg}")
    walls = [b["wall_s"] for b in plain]
    if len(walls) >= 2:
        q1, q2, q3 = analysis.quartiles(walls)
        print(f"plain batch wall_s over {len(walls)} batches: q1={q1:.4f} "
              f"median={q2:.4f} q3={q3:.4f} s, spread "
              f"{analysis.spread(walls):.3f}")

    if args.trace:
        metrics = analysis.per_layer(plain, traced, threads)
    else:
        metrics = analysis.end_to_end(plain, end["peak_rss_kb"])
        times = [analysis.point_host_s(p) for b in plain for p in b["points"]]
        tail = analysis.tail_percentile(len(times))
        tail_text = (f"p{tail:g}={analysis.percentile(times, tail):.4f} s"
                     if tail else f"no tail percentile has "
                     f"{analysis.TAIL_SAMPLES} samples beyond it")
        print(f"point host seconds over {len(times)} samples: "
              f"p50={analysis.median(times):.4f} s {tail_text}")
        print(f"{'error_rate':<44} {failed / attempted:.4g} fraction")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")

    return {
        "correct": failed == 0 and not not_comparable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
