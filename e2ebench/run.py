#!/usr/bin/env python3
"""End-to-end benchmark of the ring-embedding service.

Builds starringd, starring-proxy and the benchmark harness from the
sources of the checkout it sits in (Release, into .bench_build/), runs
the named workloads and prints, per workload, the harness report (every
metric with unit and sample count, plus run metadata) and, last, one
JSON result line:

    python3 e2ebench/run.py --workload serve-small --seed 1 --seconds 40 --trace 0

--workload takes one name, a comma-separated list, or `all`.  --trace 0
reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  --selftest builds and runs the benchmark's own tests.
The exit status is nonzero when a response fails a check.  See
METRICS.md for the metrics and workloads.
"""
import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
REPO_BUILD = os.path.join(BUILD, "repo")
HARNESS_BUILD = os.path.join(BUILD, "e2ebench")
WORKLOADS = ["serve-small", "hit-stdio-n8", "embed-cold"]
BUILD_TYPE = "Release"


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


# git (the repository's CMake asks it for the revision) must not look
# above the checkout for a repository.
GIT_ENV = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))


def sh(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=GIT_ENV).returncode != 0:
        fail("build step failed: %s (log: %s)" % (" ".join(cmd), log.name))


def build():
    jobs = str(os.cpu_count() or 1)
    with open(os.path.join(BUILD, "build.log"), "a") as log:
        if not os.path.isfile(os.path.join(REPO_BUILD, "CMakeCache.txt")):
            sh(["cmake", "-S", ROOT, "-B", REPO_BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], log)
        sh(["cmake", "--build", REPO_BUILD, "-j", jobs, "--target",
            "starringd", "starring-proxy", "starring_loadgen"], log)
        if not os.path.isfile(os.path.join(HARNESS_BUILD, "CMakeCache.txt")):
            sh(["cmake", "-S", HERE, "-B", HARNESS_BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                "-DSTARRING_BUILD_DIR=" + REPO_BUILD], log)
        sh(["cmake", "--build", HARNESS_BUILD, "-j", jobs], log)


def source_revision():
    """git revision when the checkout is a repository, and a digest of
    src/ either way (the benchmark also runs from plain source trees)."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, env=GIT_ENV).stdout.strip()
    except OSError:
        rev = ""
    digest = hashlib.sha256()
    for top, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(top, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return rev or "unknown", digest.hexdigest()[:12]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat; (0, 0) where
    there is no /proc."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def run_workload(name, args, spec):
    work = os.path.join(BUILD, "run", name)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(HARNESS_BUILD, "e2e_harness"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--daemon", os.path.join(REPO_BUILD, "src", "service", "starringd"),
           "--proxy", os.path.join(REPO_BUILD, "src", "cluster", "starring-proxy"),
           "--work-dir", work]
    # Own process group, so a hung run can be stopped with every daemon
    # it started.
    ticks0 = cpu_ticks()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s: harness timed out" % name)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if not lines:
        fail("%s: harness printed no report (exit %d)" % (name, proc.returncode))
    report = json.loads(lines[-1])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail("%s: harness did not report %s" % (name, m["name"]))
        if got["unit"] != m["unit"]:
            fail("%s: %s is in %s, BENCHMARK.json says %s"
                 % (name, m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    # CPU time the hypervisor gave to other guests during the run: on a
    # shared VM, wall-clock metrics move with it while CPU ones do not.
    ticks1 = cpu_ticks()
    total = ticks1[1] - ticks0[1]
    report["meta"]["cpu_steal_share"] = (ticks1[0] - ticks0[0]) / total if total > 0 else 0
    print(json.dumps(report))
    ok = proc.returncode == 0 and report["correct"]
    return ok, report, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else args.workload.split(","))
    for n in names:
        if n not in WORKLOADS:
            fail("unknown workload %r (known: %s)" % (n, ", ".join(WORKLOADS)))

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "service", "starringd.cpp"))):
        fail("the repository sources are not next to the benchmark")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build()
        if args.selftest:
            sys.exit(subprocess.run([os.path.join(HARNESS_BUILD, "e2e_tests")]).returncode)
        rev, digest = source_revision()
        print(json.dumps({"build_type": BUILD_TYPE, "git_rev": rev, "src_digest": digest,
                          "nproc": os.cpu_count(), "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace}))
        results = [(n,) + run_workload(n, args, spec) for n in names]

    if len(results) == 1:
        _, ok, report, metrics = results[0]
        line = {"correct": ok, "attempted": report["attempted"],
                "failed": report["failed"], "metrics": metrics}
    else:
        ok = all(r[1] for r in results)
        line = {"correct": ok,
                "attempted": sum(r[2]["attempted"] for r in results),
                "failed": sum(r[2]["failed"] for r in results),
                "metrics": {"%s/%s" % (r[0], k): v for r in results for k, v in r[3].items()}}
    print(json.dumps(line))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
