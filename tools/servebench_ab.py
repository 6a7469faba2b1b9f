#!/usr/bin/env python3
"""Same-box A/B of the serving benchmark between two git refs.

Usage (from the repository root):

    python3 tools/servebench_ab.py --parent REF --change REF --workdir DIR \
        [--workloads job_adhoc,customer_adhoc,tpcds_templated] \
        [--seeds 1,90001] [--pairs 10] [--seconds 25] [--set LABEL]

Each ref is exported with `git archive` into DIR/parent and DIR/change
(a tree already exported from the same commit is kept, so a second call
only re-checks its build), and servebench is built in each tree from
perfbench/CMakeLists.txt into <tree>/.bench_build, as perfbench/run.py
builds it. To measure uncommitted work, pass `$(git stash create)` as the
change ref: it names a commit of the working tree without touching any
branch or the stash list.

For every (seed, workload) the script runs `--pairs` pairs of servebench
runs, one per tree, and alternates which tree runs first. After the last
pair it prints one `servebench_ab` JSON line: for each end-to-end metric
that BENCHMARK.json declares, the parent's and the change's median and
interquartile range, and `change_wins`, the number of pairs in which the
change was strictly better in that metric's direction. It also gives each
side's median user CPU seconds, system CPU seconds and minor page faults
per run (`rusage`), taken as the getrusage(RUSAGE_CHILDREN) delta around
the run, so a change in memory behaviour shows next to the metrics. Every
run's own JSON result and rusage are appended to DIR/runs.jsonl. Build
output and servebench's text report go to stderr. Exits non-zero if a
build or a run fails, or if any run reports `correct: false`.
"""
import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
RUSAGE_FIELDS = (("user_s", "ru_utime"), ("sys_s", "ru_stime"),
                 ("minor_faults", "ru_minflt"))


def export_tree(ref, dest):
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", ref + "^{commit}"],
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    marker = os.path.join(dest, ".ab_commit")
    if os.path.isfile(marker):
        with open(marker) as f:
            if f.read().strip() == commit:
                return commit
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "-C", ROOT, "archive", commit],
                             stdout=subprocess.PIPE, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout,
                   check=True)
    with open(marker, "w") as f:
        f.write(commit + "\n")
    return commit


def build_servebench(tree):
    build_dir = os.path.join(tree, ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "--target", "servebench",
                 "-j", jobs]):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)
    return os.path.join(build_dir, "servebench")


def run_once(binary, workload, seed, seconds):
    """One servebench run; returns its JSON result (the last stdout line)
    and the run's rusage: user/sys CPU seconds and minor faults."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    sys.stderr.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("servebench_ab: run failed: " + " ".join(cmd))
    usage = {name: round(getattr(after, field) - getattr(before, field), 4)
             for name, field in RUSAGE_FIELDS}
    return json.loads(lines[-1]), usage


def quartiles(values):
    if len(values) < 2:
        return [round(values[0], 4)] * 2
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarize(metric, better, results):
    """Per-side median and IQR of `metric`, and the change's pair wins;
    None when a run did not report the metric (servebench refuses a
    percentile its sample cannot back)."""
    values = {}
    for side in SIDES:
        values[side] = [r["metrics"].get(metric, {}).get("value")
                        for r in results[side]]
        if None in values[side]:
            return None
    wins = 0
    for p, c in zip(values["parent"], values["change"]):
        wins += (c > p) if better == "higher" else (c < p)
    out = {}
    for side in SIDES:
        out[side + "_median"] = round(statistics.median(values[side]), 4)
        out[side + "_iqr"] = quartiles(values[side])
    out["change_wins"] = wins
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the base")
    parser.add_argument("--change", required=True, help="git ref measured")
    parser.add_argument("--workdir", required=True,
                        help="directory for the two trees and runs.jsonl")
    parser.add_argument("--workloads",
                        default="job_adhoc,customer_adhoc,tpcds_templated")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--set", default="1", help="label copied to output")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        sys.exit("servebench_ab: --pairs and --seconds must be >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",") if s]

    workdir = os.path.abspath(args.workdir)
    binaries, commits = {}, {}
    for side, ref in (("parent", args.parent), ("change", args.change)):
        tree = os.path.join(workdir, side)
        commits[side] = export_tree(ref, tree)
        binaries[side] = build_servebench(tree)

    all_correct = True
    with open(os.path.join(workdir, "runs.jsonl"), "a") as log:
        for seed in seeds:
            for workload in workloads:
                results = {side: [] for side in SIDES}
                usages = {side: [] for side in SIDES}
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for side in order:
                        r, usage = run_once(binaries[side], workload, seed,
                                            args.seconds)
                        all_correct = all_correct and r["correct"]
                        results[side].append(r)
                        usages[side].append(usage)
                        log.write(json.dumps({"side": side, "pair": pair,
                                              "workload": workload,
                                              "seed": seed, "result": r,
                                              "rusage": usage}) + "\n")
                        log.flush()
                line = {"bench": "servebench_ab", "set": args.set,
                        "parent": commits["parent"][:12],
                        "change": commits["change"][:12],
                        "workload": workload, "seed": seed,
                        "pairs": args.pairs, "seconds": args.seconds,
                        "alternating_first": args.pairs > 1,
                        "hardware_concurrency": os.cpu_count()}
                for metric in end_to_end:
                    line[metric["name"]] = summarize(
                        metric["name"], metric["better"], results)
                line["rusage"] = {
                    name: {side + "_median": round(statistics.median(
                        u[name] for u in usages[side]), 4)
                           for side in SIDES}
                    for name, _ in RUSAGE_FIELDS}
                line["failed_requests"] = sum(
                    r["failed"] for side in SIDES for r in results[side])
                line["all_correct"] = all(
                    r["correct"] for side in SIDES for r in results[side])
                print(json.dumps(line), flush=True)
    if not all_correct:
        sys.exit("servebench_ab: a run reported correct: false")


if __name__ == "__main__":
    main()
