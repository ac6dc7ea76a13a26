#!/usr/bin/env python3
"""Build and run the repository's benchmark (see ../BENCHMARK.json).

One workload, the form the contract in BENCHMARK.json describes:

    python3 benchmark/run.py --workload chain_small --seed 1 --seconds 10 --trace 0

prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics, and exits non-zero if an
output check failed.

Every workload, each in its own process, as a table:

    python3 benchmark/run.py [--seed N] [--seconds S] [--trace 0|1]

The repeatability self-check: N full sets, then per (workload, metric)
every value, the largest relative gap between sets and PASS/FAIL against
the bound BENCHMARK.json fixes; result digests and deterministic counts
must be identical:

    python3 benchmark/run.py --sets 2

Everything is built from source with cargo (offline) into
$CARGO_TARGET_DIR, or ../target when that is unset; nothing outside
the checkout is read or written.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_FLOOR_S = 0.05  # a set-up time may always move by this much


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "target"))


def build():
    """Build the benchmark and the node it spawns; return the binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    base = ["cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    for extra in ([], ["-p", "transport", "--bin", "p2p-anon-node"]):
        done = subprocess.run(base + extra, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            log("benchmark/run.py: build failed:", " ".join(base + extra))
            sys.exit(done.returncode or 1)
    return os.path.join(target_dir(), "release", "p2p-anon-benchmark")


def output_of(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except OSError:
        return ""


def stamp(seed):
    """What was measured and where: commit of this tree, cores, compiler, seed."""
    return {
        "commit": output_of(["git", "rev-parse", "HEAD"]) or "not a git checkout",
        "nproc": os.cpu_count(),
        "rustc": output_of(["rustc", "--version"]),
        "seed": seed,
    }


def command(binary, workload, seed, seconds, trace):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; return (exit code, info, result)."""
    done = subprocess.run(command(binary, workload, seed, seconds, trace),
                          stdout=subprocess.PIPE, text=True)
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if len(lines) < 2:
        return done.returncode or 1, None, None
    return done.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def run_set(binary, spec, seed, seconds, trace):
    results = {}
    for w in spec["workloads"]:
        code, info, result = run_one(binary, w["name"], seed, seconds, trace)
        if result is None:
            log(f"{w['name']}: no result (exit {code})")
            sys.exit(code)
        results[w["name"]] = (code, info, result)
        verdict = "ok" if code == 0 and result["correct"] else "FAILED"
        print(f"{w['name']}: {verdict}  attempted={result['attempted']} "
              f"failed={result['failed']}  result_digest={info['result_digest']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<42} {m['value']:>16.6g} {m['unit']}")
        sys.stdout.flush()
    return results


def compare_sets(spec, sets):
    """Print every value side by side; return True if all sets agree."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print("\nrepeatability: workload metric values... gap bound verdict")
    for w in (w["name"] for w in spec["workloads"]):
        for name, m in bounds.items():
            values = [s[w][2]["metrics"][name]["value"] for s in sets if name in s[w][2]["metrics"]]
            if not values:
                continue
            worst, best = (max(values), min(values)) if m["better"] == "lower" else (min(values), max(values))
            gap = abs(worst - best) / abs(best) if best else float("inf")
            within = gap <= m["bound"] or (name == "setup_s" and abs(worst - best) <= SETUP_FLOOR_S)
            ok &= within
            shown = " ".join(f"{v:.6g}" for v in values)
            print(f"  {w:<16} {name:<12} {shown}  gap={gap:.3%} bound={m['bound']:.0%} "
                  f"{'PASS' if within else 'FAIL'}")
        digests = {s[w][1]["result_digest"] for s in sets}
        counts = {json.dumps(s[w][1]["counts"], sort_keys=True) for s in sets}
        same = len(digests) == 1 and len(counts) == 1
        ok &= same
        print(f"  {w:<16} deterministic counts and result_digest: "
              f"{'identical PASS' if same else 'DIFFER FAIL'} {' '.join(sorted(digests))}")
        ok &= all(s[w][0] == 0 and s[w][2]["correct"] for s in sets)
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    log("benchmark:", json.dumps(stamp(args.seed)))

    if args.workload:
        # The contract's form: the binary's own stdout, its own exit code.
        sys.exit(subprocess.run(command(binary, args.workload, args.seed, seconds, args.trace)).returncode)

    sets = []
    for i in range(args.sets):
        print(f"== set {i + 1} of {args.sets} ({'traced' if args.trace else 'untraced'}, "
              f"seed {args.seed}, {seconds} s per workload) ==")
        sets.append(run_set(binary, spec, args.seed, seconds, args.trace))
    ok = all(code == 0 and r["correct"] for s in sets for code, _, r in s.values())
    if args.sets > 1 and not args.trace:
        ok &= compare_sets(spec, sets)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
