#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

Builds perfbench from two source trees, runs them in pairs that alternate
which side goes first, and prints, for every metric the runs report, each
side's median and quartiles and how many pairs the change won. Whether a
lower or a higher value wins comes from BENCHMARK.json.

Each side is a source tree (a directory) or a git revision of the
repository (exported with `git archive`). Both are copied into the scratch
directory and built there, never in place: building perfbench rewrites
perfbench/Cargo.lock.

    python3 tools/bench_pairs.py --base HEAD~1 --change . \\
        --scratch /tmp/pairs --workload fleet-day --seed 101 --pairs 10

Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile

# Outputs that are pure functions of the seed: they must match bit for bit
# across every run of both sides unless the change says why they move.
EXACT = ("goodput_qps", "p50_ms", "p99_ms", "provisioned_kw", "peak_servers", "search_qps")

# What a copied tree leaves out: build outputs and history.
SKIP = shutil.ignore_patterns(".git", "target", ".bench_build", "out")


def export(spec, repo, dest):
    """Copies the tree `spec` names (a directory or a git rev) to `dest`."""
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    if os.path.isdir(spec):
        shutil.copytree(spec, dest, ignore=SKIP)
        return
    os.makedirs(dest)
    proc = subprocess.Popen(["git", "-C", repo, "archive", spec], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        sys.exit(f"git archive {spec} failed")


def build(src, target):
    """Builds perfbench from `src` into `target`; returns the binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(src, "perfbench", "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "-q", "--manifest-path", manifest], env=env, check=True
    )
    return os.path.join(target, "release", "perfbench")


def run(binary, src, args):
    """One benchmark run: its host line and its result line."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=src, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    host = next((l[len("host "):] for l in lines if l.startswith("host ")), "{}")
    return json.loads(host), json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="parent tree or git rev")
    ap.add_argument("--change", required=True, help="changed tree or git rev")
    ap.add_argument("--scratch", required=True, help="directory to copy and build in")
    ap.add_argument("--repo", default=".", help="repository the revs belong to")
    ap.add_argument("--workload", default="fleet-day")
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--no-build", action="store_true", help="reuse the last copies and builds")
    args = ap.parse_args()

    scratch = os.path.abspath(args.scratch)
    repo = os.path.abspath(args.repo)
    sides = {}
    for label, spec in (("base", args.base), ("change", args.change)):
        src = os.path.join(scratch, label, "src")
        target = os.path.join(scratch, label, "target")
        if not args.no_build:
            spec = os.path.abspath(spec) if os.path.isdir(spec) else spec
            export(spec, repo, src)
            print(f"building {label} ({spec})", file=sys.stderr)
        sides[label] = (build(src, target) if not args.no_build
                        else os.path.join(target, "release", "perfbench"), src)

    bench = json.load(open(os.path.join(sides["change"][1], "BENCHMARK.json")))
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench.get("per_layer", [])}

    results = {"base": [], "change": []}
    host = None
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for label in order:
            host, result = run(*sides[label], args)
            if not result.get("correct", False):
                sys.exit(f"{label} run {i} failed its checks: {result}")
            results[label].append(result)
        b, c = results["base"][-1]["metrics"], results["change"][-1]["metrics"]
        shown = next((n for n in ("run_s", "fleet.replay_s", "profiler.profile_s") if n in b), None)
        progress = f": {shown} {b[shown]['value']:.3f} vs {c[shown]['value']:.3f}" if shown else ""
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first){progress}", file=sys.stderr)

    print(f"host {json.dumps(host)}")
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs, base {args.base}, "
          f"change {args.change}")
    print(f"{'metric':<28} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32} "
          f"{'change':>8} {'wins':>6}")
    names = [n for n in results["base"][0]["metrics"] if n in better]
    for name in names:
        xs = {k: [r["metrics"][name]["value"] for r in v] for k, v in results.items()}
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(xs["base"]), quartiles(xs["change"])
        lower = better[name] == "lower"
        wins = sum((c < b) if lower else (c > b) for b, c in zip(xs["base"], xs["change"]))
        delta = f"{(cmed / bmed - 1) * 100:+.1f}%" if bmed else "-"
        print(f"{name:<28} {f'{bmed:.6g} [{bq1:.6g}, {bq3:.6g}]':>32} "
              f"{f'{cmed:.6g} [{cq1:.6g}, {cq3:.6g}]':>32} {delta:>8} "
              f"{f'{wins}/{args.pairs}':>6}")

    def exact(r):
        return ([r["metrics"][n]["value"] for n in EXACT if n in r["metrics"]],
                r["attempted"], r["failed"])
    outputs = {json.dumps(exact(r)) for v in results.values() for r in v}
    print("exact outputs identical across every run: "
          f"{'yes' if len(outputs) == 1 else 'NO'}")
    for o in sorted(outputs):
        print(f"  {o}")


if __name__ == "__main__":
    main()
