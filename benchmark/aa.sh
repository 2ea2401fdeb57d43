#!/usr/bin/env bash
# A/A check: the same build measured twice (seed 42, then seed 43) must
# agree on every end-to-end metric of every workload within the bound
# BENCHMARK.json gives that metric. Takes about three minutes.
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out
for run in 1 2; do
    seed=$((41 + run))
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        run --trace 0 --seed "$seed" >/dev/null
    rm -rf "$out/aa-$run" && mkdir -p "$out/aa-$run"
    cp "$out"/*.e2e.json "$out/aa-$run/"
done
python3 - "$out" <<'PY'
import glob, json, os, sys
out = sys.argv[1]
bounds = {m["name"]: m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
worst = 0
print(f"{'workload':<18} {'metric':<26} {'seed 42':>14} {'seed 43':>14} {'diff':>8} {'bound':>6}")
for path in sorted(glob.glob(f"{out}/aa-1/*.e2e.json")):
    a = json.load(open(path))
    b = json.load(open(path.replace("aa-1", "aa-2")))
    for name, bound in bounds.items():
        x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
        diff = abs(y - x) / x
        over = diff > bound
        worst += over
        print(f"{a['workload']:<18} {name:<26} {x:>14.4f} {y:>14.4f} {diff:>7.2%} {bound:>6.0%}"
              + ("  OVER" if over else ""))
sys.exit(f"{worst} metric(s) differ by more than their bound" if worst else 0)
PY
