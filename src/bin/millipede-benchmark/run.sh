#!/usr/bin/env bash
# Builds the benchmark, runs each of its four workloads once plus one traced
# run, and re-checks every output with python3's own JSON parser: every
# metric carries a unit and a sample count, the closing summary line holds
# exactly the metrics BENCHMARK.json declares with the same units, and no
# point failed. Prints one `name unit value` table per run.
#
#   src/bin/millipede-benchmark/run.sh [SECONDS] [TRACED_WORKLOAD]
#
# SECONDS defaults to 25 (BENCHMARK.json's run_seconds); TRACED_WORKLOAD
# defaults to compute.
set -euo pipefail
root="$(cd "$(dirname "$0")/../../.." && pwd)"
cd "$root"
seconds="${1:-25}"
traced="${2:-compute}"

cargo build --release --offline --quiet --bin millipede-benchmark
bin="${CARGO_TARGET_DIR:-target}/release/millipede-benchmark"

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
for w in stream compute starved sweep; do
    "$bin" --workload "$w" --seconds "$seconds" > "$out/$w.plain"
done
"$bin" --workload "$traced" --seconds "$seconds" --trace 1 \
    --trace-out "$out/trace.json" > "$out/$traced.traced"

python3 - "$root/BENCHMARK.json" "$out" <<'EOF'
import glob, json, math, os, sys

spec = json.load(open(sys.argv[1]))
declared = {
    "plain": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
    "traced": [(m["name"], m["unit"]) for m in spec["per_layer"]],
}
for path in sorted(glob.glob(os.path.join(sys.argv[2], "*.plain")) +
                   glob.glob(os.path.join(sys.argv[2], "*.traced"))):
    kind = path.rsplit(".", 1)[1]
    lines = open(path).read().strip().splitlines()
    detail, summary = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}, summary.keys()
    assert summary["correct"] is True and summary["failed"] == 0, path
    assert summary["attempted"] >= 1
    got = [(k, v["unit"]) for k, v in summary["metrics"].items()]
    assert got == declared[kind], f"{path}: summary metrics {got}"
    units = {}
    for m in detail["metrics"]:
        assert m["unit"], f"{path}: {m['name']} has no unit"
        assert isinstance(m["samples"], int) and m["samples"] >= 1, m
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), m
        units[m["name"]] = m["unit"]
    for name in ("wall_s", "sim_mips", "setup_s"):
        timing = next(m for m in detail["metrics"] if m["name"] == name)
        assert timing["samples"] == detail["passes"], timing
    for name, unit in declared[kind]:
        assert units.get(name) == unit, f"{path}: {name} unit {units.get(name)} != {unit}"
    print(f"== {detail['workload']} ({kind}, seed {detail['seed']}, "
          f"{detail['passes']} passes, {detail['traced_passes']} traced, "
          f"at most {detail['max_threads']} threads)")
    for m in detail["metrics"]:
        print(f"  {m['name']:28s} {m['unit']:9s} {m['value']:.6g}")

events = json.load(open(os.path.join(sys.argv[2], "trace.json")))["traceEvents"]
assert events and all(e["ph"] == "X" for e in events), "trace has no spans"
print(f"trace OK: {len(events)} spans")
EOF
