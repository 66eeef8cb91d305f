#!/usr/bin/env python3
"""Paper-scale FZ benchmark: one workload per run.

Builds fzbench from the checkout's sources (first run only), runs it, and
prints each metric with its unit and sample count, then one JSON line:

  python3 perfbench/run.py --workload hurricane-3d --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  The
build and the raw samples go to $CARGO_TARGET_DIR (default .bench_build),
relative to the current directory.  perfbench/README.md defines every
metric and workload.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
WORKLOADS = ("hurricane-3d", "small-fields")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    exe = os.path.join(build_dir, "fzbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "fzbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return exe


def cpu_ticks():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return fields[7], sum(fields[:8])


def report(metrics_by_name, raw, steal):
    meta = raw["meta"]
    print(f"workload {meta['workload']} seed {meta['seed']:.0f}: nproc "
        f"{meta['nproc']:.0f}, clients {meta['clients']:.0f}, simd {meta['simd']}, "
        f"L2 {meta['l2_bytes']:.0f} B, "
        f"L3 {meta['l3_bytes']:.0f} B; codec input {meta['input_bytes']:.0f} B "
        f"(working set {raw['codec']['working_set_bytes']:.0f} B), reader field "
        f"{meta['reader_field_bytes']:.0f} B, fzd jobs {meta['job_bytes']:.0f} B; "
        f"generated in {meta['generate_s']:.2f} s; copy {raw['copy_gbps']:.2f} "
        f"GB/s; steal {steal.value:.3f} of CPU time")
    for name, m in metrics_by_name.items():
        print(f"{name:34s} {m.value:14.6g} {m.unit:6s} n={m.samples:<7d} {m.basis}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Relative, so the fzd socket path stays within the 108-byte limit.
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    raw_path = os.path.join(build_dir, f"raw-{args.workload}-trace{args.trace}.json")
    steal0, total0 = cpu_ticks()
    try:
        proc = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", raw_path, "--work-dir", build_dir],
            stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"fzbench did not finish within {RUN_TIMEOUT_S} s")
        return 2
    steal1, total1 = cpu_ticks()
    if proc.returncode != 0:
        log(f"fzbench exited with {proc.returncode}")
        return 2
    with open(raw_path) as f:
        raw = json.load(f)
    steal = metrics.Ratio(steal1 - steal0, total1 - total0)

    try:
        if args.trace:
            table = metrics.per_layer(raw, steal)
        else:
            table = metrics.end_to_end(raw)
    except (metrics.NotEnoughSamples, ValueError, KeyError) as e:
        log(f"cannot compute metrics: {e}")
        return 2
    with open(SPEC) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: m.unit for k, m in table.items()}
    if got != want:
        log(f"metrics differ from {SPEC}: {sorted(set(want.items()) ^ set(got.items()))}")
        return 2
    table = {name: table[name] for name in want}
    report(table, raw, steal)
    correct, attempted, failed = metrics.outcome(raw["attempted"], raw["failed"])
    for e in raw["errors"]:
        log(f"check failed: {e}")
    if args.trace and table["telemetry.events_dropped"].value != 0:
        log("traced run invalid: telemetry events were dropped")
        correct = False
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m.value, "unit": m.unit}
                    for k, m in table.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
