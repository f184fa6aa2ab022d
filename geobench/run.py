#!/usr/bin/env python3
"""Repository benchmark: build geobench from source and run one workload.

Run from the repository root:

    python3 geobench/run.py --workload cold2d --seed 1 --seconds 20 --trace 0

The first run configures and builds geobench/ (the geo library from src/
plus geobench.cpp) into .bench_build/; later runs reuse that build. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics, and writes the run's spans
to .bench_build/traces/.

On top of the checks in geobench.cpp, each run's counter fingerprint is kept in
.bench_build/fingerprints.json under a hash of the sources, and a run whose
fingerprint differs from an earlier run of the same sources and seed fails.
"""
import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
BUILD_ROOT = pathlib.Path(".bench_build")
BUILD_DIR = BUILD_ROOT / "geobench"
BINARY = BUILD_DIR / "geobench"
FINGERPRINTS = BUILD_ROOT / "fingerprints.json"
TRACES = BUILD_ROOT / "traces"
WORKLOADS = ("cold2d", "serve-churn2d")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"geobench: {msg}", file=sys.stderr, flush=True)


@contextlib.contextmanager
def locked():
    """Serialise build and fingerprint-store access between runs."""
    BUILD_ROOT.mkdir(exist_ok=True)
    with open(BUILD_ROOT / "lock", "w") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def clean_env():
    """geobench pins threads, ranks and transport; drop GEO_* overrides."""
    return {k: v for k, v in os.environ.items() if not k.startswith("GEO_")}


def build():
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=clean_env()).returncode != 0:
            return False
    return BINARY.exists()


def source_hash():
    h = hashlib.sha256()
    for top in (pathlib.Path("src"), HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(top.parent)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_fingerprint(workload, seed, fingerprint):
    """Record this run's counters; return an error if they differ from an
    earlier run of the same sources at the same seed."""
    store = {}
    if FINGERPRINTS.exists():
        store = json.loads(FINGERPRINTS.read_text())
    seen = store.setdefault(source_hash(), {}).setdefault(workload, {})
    earlier = seen.get(str(seed))
    if earlier is not None and earlier != fingerprint:
        return f"counter fingerprint {fingerprint} differs from {earlier} at seed {seed}"
    seen[str(seed)] = fingerprint
    FINGERPRINTS.write_text(json.dumps(store, indent=1, sort_keys=True))
    return None


def expected_metrics(trace):
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--instance", type=int, default=1,
                    help="mesh/scenario generator seed; bounds are set on 1, "
                         "other instances are held out to check a claim")
    args = ap.parse_args()

    with locked():
        if not build():
            log("build failed")
            return 1

    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    TRACES.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--instance", str(args.instance), "--run-id", run_id]
    if args.trace:
        cmd += ["--trace-out", str(TRACES / f"{args.workload}-seed{args.seed}-{run_id}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, env=clean_env())
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {proc.returncode}")
        return 1
    out = json.loads(lines[-1])

    correct, failed = out["correct"], out["failed"]
    for err in out["errors"]:
        log(f"check failed: {err}")
    missing = expected_metrics(args.trace) - set(out["metrics"])
    if missing:
        log(f"metrics missing from the run: {sorted(missing)}")
        correct = False
    with locked():
        err = check_fingerprint(f"{args.workload}/instance{args.instance}", args.seed,
                                out["fingerprint"])
    if err:
        log(err)
        correct, failed = False, failed + 1
    log(f"fingerprint {out['fingerprint']}")

    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": failed, "metrics": out["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
