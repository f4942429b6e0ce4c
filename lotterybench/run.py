#!/usr/bin/env python3
"""Lottery-sweep benchmark of the ArchGym reproduction.

A workload is one hyperparameter lottery issued the way
``archgym_cli --sweep`` issues it (see lottery_sweep.cc): the CLI's env
options and sampleLotteryConfigs, runSweepSharded with dataset export
on, shard size 16 and one worker thread per core, then the
Dataset::loadDirectory summary and the output checks.  Every sweep runs
in a fresh process with a fresh sweep directory under the build
directory, removed after the sweep.

    python3 lotterybench/run.py --workload farsi_rw --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` repeats untraced sweeps for ``--seconds`` and reports the
medians of the end-to-end metrics.  ``--trace 1`` alternates untraced
and traced sweeps and reports the medians of the traced sweeps'
per-layer metrics plus ``trace_overhead``.  Metric names and units come
from BENCHMARK.json at the repository root.  The line before the result
stamps the machine; the last line of stdout is the result object.
RATIONALE.md says why each workload and metric was chosen.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload sizes; RATIONALE.md says which layer each one stresses.
WORKLOADS = {
    "dram_sd_ga": {
        "sweep": ["--env", "dram-cloud2", "--agent", "GA",
                  "--configs", "256", "--samples", "100",
                  "--trace-len", "2048",
                  "--setup-reps", "31", "--check-configs", "4"],
        # The recorded "emb" trace that set-up profiles, and how often
        # one profiling process repeats the profile.
        "emb_requests": 262144,
        "profile_reps": 3,
    },
    "farsi_rw": {
        "sweep": ["--env", "farsi-edge", "--agent", "RW",
                  "--configs", "4096", "--samples", "100",
                  "--setup-reps", "31", "--check-configs", "16"],
    },
    "bo_timeloop": {
        "sweep": ["--env", "timeloop-resnet50", "--agent", "BO",
                  "--configs", "512", "--samples", "200",
                  "--setup-reps", "31", "--check-configs", "4"],
    },
}

PROCESS_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "lotterybench")


def build():
    """Configure and build lottery_sweep; returns the binary's path."""
    out = build_dir()
    configure = ["cmake", "-S", HERE, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "lottery_sweep",
                    "-j", str(len(os.sched_getaffinity(0)))],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "lottery_sweep")


def fs_type(path):
    """Filesystem type of the mount that holds path."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mountinfo") as f:
        for line in f:
            fields, _, rest = line.partition(" - ")
            mount = fields.split()[4]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, kind = mount, rest.split()[0]
    return kind


def machine_stamp(binary, sweep_root):
    stamp = json.loads(subprocess.run([binary, "build-info"], check=True,
                                      capture_output=True, text=True).stdout)
    model, flags = "unknown", []
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name" and model == "unknown":
                model = value.strip()
            elif key == "flags" and not flags:
                flags = value.split()
    stamp.update({
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "sweep_fs": fs_type(sweep_root),
    })
    return stamp


def run_json(cmd):
    """One lottery_sweep process: its JSON report, or None if it failed."""
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"exited {proc.returncode}: " + " ".join(cmd))
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def configs_per_s(report):
    return report["configs"] / report["sweep_s"]


def sweep_once(profile_cmd, sweep_cmd):
    """One measured command as a CLI user runs it: on the DRAM workload
    the --trace-profile process, then the sweep process.  The profile
    time joins the sweep's set-up time."""
    profile_s = 0.0
    if profile_cmd:
        profile = run_json(profile_cmd)
        if profile is None:
            return None
        profile_s = statistics.median(profile["profile_s"])
    report = run_json(sweep_cmd)
    if report is not None:
        report["setup_s"] = [profile_s + s for s in report["setup_s"]]
        if "layers" in report:
            report["layers"]["setup.workload_ms"] += 1e3 * profile_s
    return report


def measure(binary, workload, args, work):
    """Run sweeps for args.seconds; returns (untraced, traced, crashed)."""
    sweep_cmd = [binary, "sweep", *workload["sweep"], "--seed", str(args.seed)]
    profile_cmd = None
    if "emb_requests" in workload:
        # The recorded DLRM trace is the workload's input: made here,
        # outside every timed region.
        trace = os.path.join(work, "emb.trace")
        cdf = os.path.join(work, "cdf.json")
        subprocess.run([binary, "gen-trace", "--out", trace,
                        "--len", str(workload["emb_requests"]),
                        "--seed", str(args.seed)], check=True)
        profile_cmd = [binary, "profile", "--trace-in", trace, "--out", cdf,
                       "--setup-reps", str(workload["profile_reps"])]
        sweep_cmd += ["--cdf", cdf]
    reports = {False: [], True: []}
    crashed = 0
    start = time.monotonic()
    n = 0
    while True:
        traced = bool(args.trace) and n % 2 == 1
        sweep_dir = os.path.join(work, f"sweep{n}")
        report = sweep_once(profile_cmd, sweep_cmd + ["--dir", sweep_dir] +
                            (["--traced"] if traced else []))
        shutil.rmtree(sweep_dir, ignore_errors=True)
        n += 1
        if report is None:
            crashed += 1
            break
        reports[traced].append(report)
        log(f"sweep {n}{' traced' if traced else ''}: "
            f"{configs_per_s(report):.1f} configs/s, "
            f"setup {statistics.median(report['setup_s']):.4g} s, "
            f"summary {report['summary_s']:.3g} s, "
            f"{report['failed']:.0f} failed")
        # Stop when one more sweep of the average length would overrun.
        elapsed = time.monotonic() - start
        if n >= (2 if args.trace else 1) and elapsed * (n + 1) / n > args.seconds:
            break
    return reports[False], reports[True], crashed


def end_to_end(reports, attempted, failed):
    return {
        "configs_per_s": statistics.median(map(configs_per_s, reports)),
        "cpu_ms_per_config": statistics.median(
            1e3 * r["cpu_s"] / r["configs"] for r in reports),
        "setup_s": statistics.median(s for r in reports for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
        "run_success_rate": (attempted - failed) / attempted,
    }


def per_layer(untraced, traced):
    values = {key: statistics.median(r["layers"][key] for r in traced)
              for key in traced[0]["layers"]}
    # Each traced sweep against the untraced one just before it, so a
    # drift in host speed during the run cancels out of the ratio.
    values["trace_overhead"] = 1.0 - statistics.median(
        configs_per_s(t) / configs_per_s(u) for u, t in zip(untraced, traced))
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]

    try:
        binary = build()
    except subprocess.CalledProcessError as e:
        sys.exit(f"lotterybench: build failed ({e.returncode})")
    work = os.path.join(build_dir(), "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        untraced, traced, crashed = measure(binary, workload, args, work)
        stamp = machine_stamp(binary, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not untraced or (args.trace and not traced):
        sys.exit("lotterybench: no sweep completed")

    reports = untraced + traced
    configs = reports[0]["configs"]
    attempted = configs * (len(reports) + crashed)
    failed = int(sum(r["failed"] for r in reports)) + configs * crashed
    values = (per_layer(untraced, traced) if args.trace
              else end_to_end(untraced, attempted, failed))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit("lotterybench: not measured: " + ", ".join(missing))

    stamp.update(workload=args.workload, seed=args.seed,
                 sweeps=len(reports), threads=reports[0]["threads"])
    print("machine " + json.dumps(stamp))
    print(json.dumps({
        "correct": failed == 0 and crashed == 0,
        "attempted": int(attempted),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))


if __name__ == "__main__":
    main()
