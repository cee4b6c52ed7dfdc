#!/usr/bin/env python3
"""Benchmark of the lp-sram-suite library, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` worker from source (cargo, offline,
into $CARGO_TARGET_DIR, default `.bench_build`) and spawns it
repeatedly until `--seconds` have passed. Its last stdout line is one
JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`,
its per-layer metrics with `--trace 1`. The lines before it give the
host provenance and every metric's spread over the run's passes or
processes. Exit code 0 means every output check passed, 1 that one
failed, 2 that the benchmark could not run (no result line).
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every workload runs single-threaded, on one core shared with the
# worker's speed probe (perfbench/src/probe.rs).
JOBS = 1

# Worker processes an untraced run is split into; each is one set-up
# sample.
PROCESSES = 5

# A pass's time on an unloaded core is its CPU time times the probe's
# speed over the pass (1 unloaded, ~0.5 under heavy neighbour load)
# raised to this power: the share of the workloads' time that scales
# with the core's speed, fitted on the reference host.
SPEED_EXPONENT = 0.75

# What the source digest covers: it names the measured program when the
# checkout is not a git repository.
SOURCE_DIRS = ("crates", "src", "perfbench")
SOURCE_FILES = ("Cargo.toml", "Cargo.lock", "BENCHMARK.json")


class BenchError(Exception):
    """The benchmark cannot run; no result line is printed."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build_worker():
    """Builds the worker; returns its path and the output directory."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        raise BenchError("the repository's crates are missing; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join("perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        raise BenchError(f"cannot run cargo: {e}") from e
    if built.returncode != 0:
        raise BenchError("building the benchmark failed")
    target = os.path.join(ROOT, target)
    out_dir = os.path.join(target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(target, "release", "perfbench"), out_dir


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_digest():
    """SHA-256 over the measured sources, in path order."""
    paths = [p for p in SOURCE_FILES if os.path.isfile(os.path.join(ROOT, p))]
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = [d for d in dirnames if d not in ("target", "__pycache__")]
            paths.extend(os.path.relpath(os.path.join(dirpath, n), ROOT) for n in filenames)
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.encode())
        with open(os.path.join(ROOT, path), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def run_rep(binary, out_dir, args, traced, seconds=0.0):
    """Runs one repetition, `seconds` of passes (one pass when 0 or
    traced), in a fresh worker process."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--out", out_dir]
    if traced:
        cmd.append("--trace")
    spawned_ns = time.time_ns()
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    stdout = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    lines = stdout.decode().strip().splitlines()
    if child.returncode not in (0, 1) or not lines:
        raise BenchError(f"{args.workload}: the worker exited with {child.returncode}")
    rep = json.loads(lines[-1])
    rep["exit"] = child.returncode
    rep["traced"] = traced
    rep["setup_s"] = (int(rep["first_call_unix_ns"]) - spawned_ns) / 1e9
    rep["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    for p in rep["passes"]:
        p["unloaded_s"] = p["cpu_s"] * p["speed"] ** SPEED_EXPONENT
    return rep


def run_reps(binary, out_dir, args):
    """Repeats the workload until `--seconds` have passed. An untraced
    run spreads its time over `PROCESSES` worker processes. A traced run
    alternates one-pass untraced and traced processes, so each traced
    one has an untraced neighbour to measure the tracing overhead
    against."""
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < args.seconds:
        if args.trace:
            reps.append(run_rep(binary, out_dir, args, traced=False))
            reps.append(run_rep(binary, out_dir, args, traced=True))
        else:
            left = args.seconds - (time.monotonic() - start)
            budget = min(args.seconds / PROCESSES, left)
            reps.append(run_rep(binary, out_dir, args, traced=False, seconds=budget))
    return reps


def end_to_end(plain):
    """Each metric's value, a median over every pass (times) or process
    (set-up, memory) of the run, and the samples it is the median of."""
    passes = [p for r in plain for p in r["passes"]]
    points = plain[0]["attempted"] / len(plain[0]["passes"])
    attempted = sum(r["attempted"] for r in plain)
    samples = {
        "wall_s": [p["unloaded_s"] for p in passes],
        "points_per_s": [points / p["unloaded_s"] for p in passes],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    samples["completed_ratio"] = [(r["attempted"] - r["failed"]) / r["attempted"] for r in plain]
    values["completed_ratio"] = (attempted - sum(r["failed"] for r in plain)) / attempted
    return values, samples


def per_layer(plain, traced):
    samples = {name: [r["layer"][name] for r in traced] for name in traced[0]["layer"]}
    untraced_s = [r["passes"][0]["unloaded_s"] for r in plain]
    iterations = samples["anasim.solve.iterations"][0]
    samples["anasim.newton.us_per_iteration"] = [
        s * 1e6 / iterations if iterations else 0.0 for s in untraced_s]
    samples["obs.trace_overhead_ratio"] = [
        t["passes"][0]["unloaded_s"] / u for u, t in zip(untraced_s, traced)]
    values = {name: statistics.median(v) for name, v in samples.items()}
    return values, samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def provenance(args, reps):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": reps[0]["seed_used"],
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "jobs": JOBS,
        "processes": len(reps),
        "passes": sum(len(r["passes"]) for r in reps),
        "speed_exponent": SPEED_EXPONENT,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "-V"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload `{args.workload}`")
        if args.seed < 0:
            raise BenchError("--seed must be non-negative")
        binary, out_dir = build_worker()
        reps = run_reps(binary, out_dir, args)
        section = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in section}
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        values, samples = per_layer(plain, traced) if args.trace else end_to_end(plain)
        if set(samples) != set(units):
            raise BenchError(
                f"measured metrics differ from BENCHMARK.json: missing "
                f"{sorted(set(units) - set(samples))}, extra {sorted(set(samples) - set(units))}")
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    # Counts must repeat exactly between traced repetitions.
    unsteady = sorted(n for n, v in samples.items() if units[n] == "count" and len(set(v)) > 1)
    failed_checks = [f"{c['name']}: {c['detail']}" for r in reps for c in r["checks"] if not c["ok"]]
    correct = not failed_checks and not unsteady and all(r["exit"] == 0 for r in reps)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    prov = provenance(args, reps)
    speeds = [p["speed"] for r in reps for p in r["passes"]]
    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, jobs {JOBS}, "
          f"{len(plain)} untraced + {len(traced)} traced processes, {prov['passes']} passes, "
          f"core speed {min(speeds):.3f}-{max(speeds):.3f}")
    if not prov["seed_used"]:
        print(f"note: {args.workload} is a fixed grid; seed {args.seed} is recorded and ignored")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for problem in failed_checks:
        print(f"FAILED CHECK {problem}")
    if unsteady:
        print("COUNTS DIFFER between traced repetitions: " + ", ".join(unsteady))
    for name, metric in metrics.items():
        q1, q3 = quartiles(samples[name])
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(samples[name])}")
    if traced:
        trace = os.path.join(out_dir, f"{args.workload}.trace.jsonl")
        print(f"trace {trace} (fold it with `lp-sram-suite profile {trace}`)")
    results = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(results, "w", encoding="utf-8") as f:
        json.dump({"provenance": prov, "metrics": metrics, "samples": samples,
                   "repetitions": reps}, f, indent=1)
    print(f"results {results}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
