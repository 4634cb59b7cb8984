#!/usr/bin/env python3
"""Builds and runs the repository benchmark (the `perfbench` crate).

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-spec       # regenerate BENCHMARK.json
    python3 perfbench/run.py --self-check       # tiny-scale contract check
    python3 perfbench/run.py --write-baseline   # traced layer shares -> perfbench/baseline.json

The benchmark is built from source with `cargo build --release --offline`
into `$CARGO_TARGET_DIR` (default `.bench_build`); build output goes to
stderr. Scratch files go under `.bench_work/` and are removed after each
run, except the span dumps of traced runs (`.bench_work/traces/`). The
last line of stdout is the JSON result; a failed build or run exits
non-zero without printing one.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
BASELINE_SEED = 1


def build():
    """Builds the benchmark binary and returns its path; exits on failure."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, env=env).returncode
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        code = 1
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(code or 1)
    return os.path.join(target, "release", "perfbench")


def run(binary, args, capture=False):
    """Runs the binary; returns (exit code, stdout or None)."""
    cmd = [binary, *args, "--work", WORK]
    if capture:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        return p.returncode, p.stdout
    return subprocess.run(cmd).returncode, None


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def digest(stdout):
    """The output digest the run printed on its summary line."""
    for line in stdout.splitlines():
        if "output digest" in line:
            return line.split("output digest ")[1].split(",")[0].split()[0]
    return None


def self_check(binary):
    """Tiny-scale check: every declared metric is emitted with its unit,
    clean runs pass, batch-mem and ingest-sharded agree on the suite
    digest, and corrupted outputs are caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    digests = {}
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            base = ["--workload", w, "--seed", "7", "--seconds", "0.1", "--trace", trace, "--tiny"]
            code, out = run(binary, base, capture=True)
            if code != 0:
                problems.append(f"{w} trace {trace}: exit {code}")
                continue
            r = result(out)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append(f"{w} trace {trace}: clean run failed {r['failed']}/{r['attempted']}")
            if trace == "0":
                digests[w] = digest(out)
            code, out = run(binary, base + ["--corrupt"], capture=True)
            r = result(out) if code == 0 else None
            if r is None or r["correct"] or r["failed"] == 0:
                problems.append(f"{w} trace {trace}: corrupted output not caught")
            else:
                print(f"{w} trace {trace}: ok; corrupted run fail ratio "
                      f"{r['failed'] / r['attempted']:.3g}")
    if digests.get("batch-mem") != digests.get("ingest-sharded"):
        problems.append(f"suite digests differ: {digests}")
    for p in problems:
        print("self-check:", p, file=sys.stderr)
    print("self-check", "FAILED" if problems else "passed")
    return 1 if problems else 0


def write_baseline(binary):
    """Traced runs of every workload at the baseline seed; records each
    workload's layer shares, coverage, and any coverage finding."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layers = ["workload", "core", "tables", "store", "live", "serve", "sniffer", "net.mirror"]
    out = {"seed": BASELINE_SEED, "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        args = ["--workload", w["name"], "--seed", str(BASELINE_SEED),
                "--seconds", str(spec["run_seconds"]), "--trace", "1"]
        code, text = run(binary, args, capture=True)
        if code != 0:
            print(f"{w['name']}: exit {code}", file=sys.stderr)
            return code
        r = result(text)
        shares = {}
        lines = text.splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("timed pass at") and "1 thread" not in l)
        for l in lines[start + 2:start + 2 + len(layers)]:
            parts = l.split()
            shares[parts[0]] = float(parts[-1])
        m = {k: v["value"] for k, v in r["metrics"].items()}
        entry = {
            "why": w["why"],
            "seed": BASELINE_SEED,
            "layer_share_pct": shares,
            "coverage_pct": m["bench.coverage_pct"],
            "bench": {k: v for k, v in m.items() if k.startswith("bench.")},
        }
        if m["bench.coverage_pct"] < 90.0:
            entry["finding"] = "coverage below 90% of traced wall"
        out["workloads"][w["name"]] = entry
    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(json.dumps(out, indent=2))
    return 0


def main():
    args = sys.argv[1:]
    if args in (["--write-spec"], ["--self-check"], ["--write-baseline"]):
        binary = build()
        if args == ["--write-spec"]:
            code, spec = run(binary, ["--spec"], capture=True)
            if code == 0:
                with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
                    f.write(spec)
            return code
        return self_check(binary) if args == ["--self-check"] else write_baseline(binary)
    binary = build()
    code, _ = run(binary, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
