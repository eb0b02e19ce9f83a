#!/usr/bin/env python3
"""Run one workload of the end-to-end GATEST benchmark.

usage: python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The harness in bench/e2e is built from
source against that checkout's library on first use (CMake, Release, under
$CARGO_TARGET_DIR/e2e, default .bench_build/e2e).  The harness's
"name value unit" lines are echoed, and the last line printed is one JSON
object {"correct", "attempted", "failed", "metrics"} carrying every
end-to-end metric BENCHMARK.json names (--trace 0) or every per-layer metric
(--trace 1).  Exit status 0 only when every output checked out.

Every workload does a fixed amount of work, so a run's length does not
depend on --seconds; the option is accepted because the benchmark command
passes it.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170
# Files of this directory that the harness binary is built from.
HARNESS_SOURCES = (".cpp", ".h", ".cmake", "CMakeLists.txt")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def output_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2e")


def source_key(gatest_root):
    """Digest of what a build reads: the library sources under
    <gatest_root>/src, this directory's harness sources, and the absolute
    paths of both trees."""
    h = hashlib.sha256()
    for tree, wanted in ((os.path.join(gatest_root, "src"), None),
                         (HERE, HARNESS_SOURCES)):
        h.update(os.path.abspath(tree).encode() + b"\0")
        for dirpath, dirnames, filenames in os.walk(tree):
            dirnames.sort()
            for name in sorted(filenames):
                if wanted and not name.endswith(wanted):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, tree).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()[:16]


def build(outdir, gatest_root=ROOT):
    """Build gatest_e2e against gatest_root's library; returns the binary.

    Each build has a directory of its own, outdir/build-<source_key>, so a
    build directory never serves another checkout or changed sources, even
    when their files are older than its objects (as `git archive | tar`
    leaves them)."""
    if not os.path.isfile(os.path.join(gatest_root, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no library sources under {gatest_root}/src")
    bdir = os.path.join(outdir, "build-" + source_key(gatest_root))
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release",
               f"-DGATEST_ROOT={os.path.abspath(gatest_root)}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "--target", "gatest_e2e", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "gatest_e2e")


def run_harness(binary, outdir, workload, seed, traced, echo=True):
    """Run one workload; returns (exit code, record dict or None)."""
    tag = f"{workload}-{seed}-{os.getpid()}"
    for sub in ("records", "traces", "work"):
        os.makedirs(os.path.join(outdir, sub), exist_ok=True)
    record_path = os.path.join(outdir, "records", tag + ".json")
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--json={record_path}",
           f"--goldens={os.path.join(HERE, 'goldens.json')}",
           f"--workdir={os.path.join(outdir, 'work')}"]
    if traced:
        cmd.append(f"--trace={os.path.join(outdir, 'traces', tag + '.json')}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if echo:
        sys.stdout.write(proc.stdout)
    if not os.path.isfile(record_path):
        return proc.returncode, None
    with open(record_path) as f:
        return proc.returncode, json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        names = {w["name"] for w in bench["workloads"]}
        if args.workload not in names:
            raise RuntimeError(f"unknown workload {args.workload}")
        outdir = output_dir()
        binary = build(outdir)
        rc, record = run_harness(binary, outdir, args.workload, args.seed,
                                 args.trace == 1)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 2
    if record is None:
        log(f"harness exited {rc} without a record")
        return rc or 2

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics, missing = {}, []
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    if missing:
        log("harness did not report: " + ", ".join(missing))
        return 2
    correct = bool(record["correct"]) and rc == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
