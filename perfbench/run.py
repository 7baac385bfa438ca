#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the C++ benchmark program from
source into .bench_build/, makes sure the benchmark's own trace cache
(.bench_cache/) holds the 102-day paper trace, then runs the workload in a
fresh process and relays its output. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the line
before it is the run manifest (revision, build, compiler, threads, seed,
config fingerprint, cache hit or miss, environment).

Workloads: cold_pipeline, warm_paper, online_score. The seed sets the
stage-2 model's seed; the simulated traces are those of seed 42 (see
perfbench.cpp). --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. The metric names and units printed must match
BENCHMARK.json exactly, or the run fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
CACHE_DIR = ROOT / ".bench_cache"
WORK_DIR = ROOT / ".bench_work"
WORKLOADS = ("cold_pipeline", "warm_paper", "online_score")
# The measured process must end within 180 s. Building and filling the
# trace cache happen once per checkout, on its first run, and may take
# longer.
RUN_TIMEOUT_S = 170.0
SETUP_TIMEOUT_S = 800.0


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures and builds the benchmark program; returns its path."""
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True, timeout=SETUP_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(nproc())],
                   stdout=sys.stderr, check=True, timeout=SETUP_TIMEOUT_S)
    return BUILD_DIR / "perfbench"


def revision():
    """The git commit, or a content hash of the sources outside git."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "src-sha256-" + h.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    expected = expected_metrics(args.trace)
    binary = build()
    threads = nproc()
    # The workload's environment is set here, never inherited: the pool
    # size is explicit, and trace capture and the audit sink are off (the
    # program also forces them off and installs online_score's sink itself).
    env = dict(os.environ, REPRO_THREADS=str(threads), REPRO_TRACE="",
               REPRO_AUDIT="")
    common = ["--seed", str(args.seed), "--cache-dir", str(CACHE_DIR)]

    # Every workload fills the cache, so that the first run in a checkout
    # pays for the paper trace together with the build.
    t0 = time.monotonic()
    fill = subprocess.run([str(binary), "--fill-cache", *common], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=SETUP_TIMEOUT_S)
    sys.stderr.write(fill.stderr)
    cache_status = fill.stdout.strip().splitlines()[-1]
    log(f"trace cache {cache_status} ({time.monotonic() - t0:.1f} s)")

    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work-dir", str(WORK_DIR), *common],
        env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    lines = proc.stdout.strip().splitlines()
    manifest = json.loads(lines[-2])
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        log(f"metrics {got} do not match BENCHMARK.json {expected}")
        return 1
    manifest["manifest"].update(
        revision=revision(), paper_trace_cache=cache_status,
        env={k: env[k] for k in ("REPRO_THREADS", "REPRO_TRACE", "REPRO_AUDIT")})
    print(json.dumps(manifest))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        sys.exit(1)
