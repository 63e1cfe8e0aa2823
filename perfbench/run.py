#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload point_read_cold|point_read_hot|txn_write
                             [--seed 42] [--seconds 30] [--trace 0|1]

Run from the repository root. Every run configures and builds the FAME-DBMS
libraries, the benchmark program and the two Figure 1a FOP variants into
.bench_build/perfbench (a Release build); after the first run this is an
incremental no-op. The program's report goes to stdout; its last line is one
JSON object. With --trace 0 this script adds the variants' stripped sizes
(rom_fop_min_kb, rom_fop_full_kb) to the program's end-to-end metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TARGETS = ["famebench", "bdb_fop_1", "bdb_fop_7"]


def build():
    """Configures and builds; build output goes to stderr. The compiler's
    temporary files stay inside the build tree too."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD, "-j", "3", "--target"] + TARGETS,
                   check=True, stdout=sys.stderr, env=env)


def rom_kb(name):
    """Stripped size of a Figure 1a variant; a missing binary is an error."""
    path = os.path.join(BUILD, "variants", name)
    if not os.path.isfile(path):
        sys.exit("run.py: variant binary %s was not built" % path)
    return os.path.getsize(path) / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["point_read_cold", "point_read_hot", "txn_write"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("run.py: build failed: %s" % e)

    cmd = [os.path.join(BUILD, "famebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace-%s.json" % args.workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        sys.exit("run.py: famebench exited %d without a result" %
                 proc.returncode)
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        rom = [("rom_fop_min_kb", rom_kb("bdb_fop_7")),
               ("rom_fop_full_kb", rom_kb("bdb_fop_1"))]
        for name, kb in rom:
            print("%s %.6g KiB" % (name, kb))
            result["metrics"][name] = {"value": kb, "unit": "KiB"}
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
