#!/usr/bin/env python3
"""Build and run the waveSZ repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and with it the library from the checkout's src/) into
.bench_build/perfbench, then runs one workload, or with `all` every workload
in BENCHMARK.json in turn. Each run prints a report line (environment,
sample counts, host-drift probe and, for --trace 1, per-layer totals) and
then its result object, so a single workload's result is the last stdout
line. Traced runs also write their spans to .bench_build/perfbench/spans/.
See README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
EXE = BUILD / "wavesz_perfbench"
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no waveSZ sources next to perfbench/; "
                 "run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "wavesz_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def commit():
    """HEAD of the checkout, or "" when it is not a git repository."""
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return ""
    env = dict(os.environ, GIT_DIR=str(git_dir))
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else ""


def source_digest():
    """SHA-256 over the library and benchmark sources, by relative path."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for p in sorted(files, key=lambda p: p.relative_to(ROOT).as_posix()):
        if p.suffix == ".pyc":
            continue
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    names = [args.workload]
    if args.workload == "all":
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in bench["workloads"]]
    identity = ["--commit", commit(), "--source-digest", source_digest()]
    (BUILD / "spans").mkdir(parents=True, exist_ok=True)
    status = 0
    for name in names:
        spans = BUILD / "spans" / f"{name}-seed{args.seed}.jsonl"
        cmd = [str(EXE), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--spans", str(spans)] + identity
        sys.stdout.flush()
        rc = subprocess.run(cmd).returncode
        if rc != 0:
            status = rc if rc > 0 else 1  # rc < 0: killed by a signal
    return status


if __name__ == "__main__":
    sys.exit(main())
