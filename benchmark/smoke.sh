#!/usr/bin/env bash
# Smoke run (about 20 s after the build): the catalog in BENCHMARK.json
# matches `--list`, a read workload runs both passes, and a write workload
# runs its window and its durability checks. Numbers from a 1 s window
# mean nothing; only the exit code does.
set -euo pipefail
cd "$(dirname "$0")/.."
bench() { cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"; }

bench --list | python3 -c '
import json, sys
listed = {l.split()[0] for l in sys.stdin if l.startswith("  ")}
spec = json.load(open("BENCHMARK.json"))
named = {x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in spec[k]}
if listed != named:
    sys.exit(f"BENCHMARK.json and --list disagree: {sorted(listed ^ named)}")
'
bench run --workload confidence --seconds 1 --trace 0
bench run --workload confidence --seconds 1 --trace 1
bench run --workload commit_2w --seconds 1 --trace 0
echo "smoke: ok"
