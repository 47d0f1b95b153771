#!/usr/bin/env bash
# Offline-safe CI gate: formatting, the repo-specific lint pass, a release
# build, and the full test suite (which includes the invariant-sanitizer and
# determinism gates in tests/audit.rs).
#
# Every cargo invocation passes --offline: the workspace has no external
# dependencies by design (see Cargo.toml), so CI must never need a registry.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> millipede-audit (repo lint pass)"
cargo run --offline -q -p millipede-audit

echo "==> cargo clippy (workspace lints)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
# A doc link to a renamed or deleted item must fail here, not rot.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> cargo build --release"
# --workspace so every crate's binary is built too (the root manifest is
# both workspace and facade package, and a bare `cargo build` would only
# build the facade).
cargo build --offline --release --workspace

echo "==> cargo test"
cargo test --offline --workspace -q

echo "==> published output (millipede-cli all vs experiments_output.txt)"
# experiments_output.txt is the published full evaluation (EXPERIMENTS.md
# quotes it). A change to any figure or table must be deliberate, so the
# run's stdout must match the file byte for byte; regenerate the file with
# `./target/release/millipede-cli all > experiments_output.txt`.
./target/release/millipede-cli all | cmp - experiments_output.txt

echo "==> telemetry (trace export end to end)"
# Fast-forward off/on and telemetry on are covered in-process by
# tests/golden_digests.rs and tests/telemetry.rs (run by cargo test above).
# End-to-end: one section with --trace-out must leave stdout byte-identical
# to a plain run and emit JSON that a strict parser accepts.
trace_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir"' EXIT
./target/release/millipede-cli fig3 --chunks 2 --quiet > "$trace_dir/plain.out"
./target/release/millipede-cli fig3 --chunks 2 --quiet \
    --trace-out "$trace_dir/trace.json" > "$trace_dir/traced.out"
cmp "$trace_dir/plain.out" "$trace_dir/traced.out"
if command -v python3 > /dev/null; then
    python3 - "$trace_dir/trace.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert any(e.get("ph") == "C" for e in events), "no counter samples"
assert any(e.get("ph") == "X" for e in events), "no discrete events"
print(f"trace OK: {len(events)} events")
EOF
fi

echo "==> observability (manifests + millipede-cli report)"
# Run manifests are observational: two short sweeps with --manifest-out
# (and a third with telemetry on) must leave stdout byte-identical to a
# plain run, emit millipede-manifest/2 JSON that an independent parser
# accepts with the host self-profiling populated, and render and diff
# through `millipede-cli report` (the digest-invisibility bar lives in
# tests/manifest.rs).
manifest_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$manifest_dir"' EXIT
./target/release/millipede-cli fig3 --chunks 2 --quiet > "$manifest_dir/plain.out"
./target/release/millipede-cli fig3 --chunks 2 --quiet \
    --manifest-out "$manifest_dir/a.json" > "$manifest_dir/a.out"
./target/release/millipede-cli fig3 --chunks 2 --quiet \
    --manifest-out "$manifest_dir/b.json" > "$manifest_dir/b.out"
./target/release/millipede-cli fig3 --chunks 2 --quiet --telemetry-epoch 64 \
    --manifest-out "$manifest_dir/traced.json" > "$manifest_dir/traced.out"
cmp "$manifest_dir/plain.out" "$manifest_dir/a.out"
cmp "$manifest_dir/plain.out" "$manifest_dir/b.out"
cmp "$manifest_dir/plain.out" "$manifest_dir/traced.out"
if command -v python3 > /dev/null; then
    python3 - "$manifest_dir/a.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "millipede-manifest/2", f"bad schema {doc.get('schema')}"
host = doc["host"]
assert host["phases_ms"]["run"] > 0, "run phase wall missing"
assert host["retired_instructions_per_sec"] > 0, "retired-instr rate missing"
assert 0 <= host["ff"]["fill_wakes"] <= host["ff"]["jumps"], "ff jump counters"
# The MIMD points pay most issue slots from run-ahead credits; if the
# driver stopped jumping those edges, the sweep would still pass but walk
# every one of them.
assert host["ff"]["credit_jumps"] > 0, "no credit jump in the fig3 sweep"
# SSMC's cores sleep through their own credit runs instead of scanning
# them; if none slept, every core would scan every walked edge again.
assert host["ff"]["slept"] > 0, "no core slept in the fig3 sweep"
assert host["sweep"]["points"] == len(doc["runs"]), "sweep points != runs"
for run in doc["runs"]:
    assert run["digest"].startswith("0x"), f"{run['label']}: missing digest"
    assert run["metrics"], f"{run['label']}: empty metrics registry"
print(f"manifest OK: {len(doc['runs'])} runs, {sum(len(r['metrics']) for r in doc['runs'])} metrics")
EOF
fi
if command -v python3 > /dev/null; then
    # Telemetry jumps stop on every epoch boundary, yet a traced run must
    # take the same fast-forward jumps, pay the same issue slots from
    # run-ahead credits, and reach the same digests.
    python3 - "$manifest_dir/a.json" "$manifest_dir/traced.json" <<'EOF'
import json, sys
plain, traced = (json.load(open(p)) for p in sys.argv[1:3])
assert traced["config"]["telemetry"], "traced manifest ran without telemetry"
assert traced["host"]["ff"] == plain["host"]["ff"], \
    f"ff jumps differ: {traced['host']['ff']} vs {plain['host']['ff']}"
assert traced["host"]["credit_issues"] == plain["host"]["credit_issues"], \
    f"credit issues differ: {traced['host']['credit_issues']} vs {plain['host']['credit_issues']}"
assert len(traced["runs"]) == len(plain["runs"]), "run counts differ"
for p, t in zip(plain["runs"], traced["runs"]):
    assert (p["label"], p["digest"]) == (t["label"], t["digest"]), \
        f"{t['label']}: digest {t['digest']} != untraced {p['digest']}"
print(f"traced manifest OK: ff {traced['host']['ff']}, credit issues {traced['host']['credit_issues']}, {len(traced['runs'])} digests match")
EOF
fi
# `millipede-cli all` runs each section in a host phase of its own and writes
# one manifest at the end: stdout must not change, and the manifest must
# carry every section's wall, with the Fig. 3 sweep as the `run` phase.
./target/release/millipede-cli all --chunks 2 --quiet > "$manifest_dir/all-plain.out"
./target/release/millipede-cli all --chunks 2 --quiet \
    --manifest-out "$manifest_dir/all.json" > "$manifest_dir/all.out"
cmp "$manifest_dir/all-plain.out" "$manifest_dir/all.out"
if command -v python3 > /dev/null; then
    python3 - "$manifest_dir/all.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
phases = doc["host"]["phases_ms"]
sections = ["table2", "table3", "table4", "run", "fig4", "fig5", "fig6",
            "fig7", "families", "convergence", "ablations"]
missing = [s for s in sections if s not in phases]
assert not missing, f"sections missing from host.phases_ms: {missing}"
assert phases["run"] > 0, "the Fig. 3 sweep's wall is missing"
assert doc["runs"], "millipede-cli all recorded no runs"
print(f"millipede-cli all manifest OK: {len(phases)} phases, {len(doc['runs'])} runs")
EOF
fi
./target/release/millipede-cli report "$manifest_dir/a.json" > /dev/null
./target/release/millipede-cli report --diff \
    "$manifest_dir/a.json" "$manifest_dir/b.json" > /dev/null
./target/release/millipede-cli count millipede --chunks 128 \
    --manifest-out "$manifest_dir/cli.json" > /dev/null 2> /dev/null
./target/release/millipede-cli report "$manifest_dir/cli.json" > /dev/null

echo "==> kernel verifier (millipede-cli verify)"
# The static verifier must hold its acceptance bar: all fourteen
# compiled-in kernels clean, and every seeded-bug fixture rejected with the
# exact code its `# verify-expect:` header declares. The JSON report must
# parse.
verify_dir="$(mktemp -d)"
trap 'rm -rf "$trace_dir" "$manifest_dir" "$verify_dir"' EXIT
./target/release/millipede-cli verify --kernels --json > "$verify_dir/kernels.json"
# Fixture sweep: the CLI exits 1 when any fixture is dirty — expected here,
# so capture the report and let the checker below judge it.
./target/release/millipede-cli verify tests/fixtures/*.asm --json \
    > "$verify_dir/fixtures.json" || true
if command -v python3 > /dev/null; then
    python3 - "$verify_dir/kernels.json" "$verify_dir/fixtures.json" <<'EOF'
import json, re, sys, glob, os

kernels = json.load(open(sys.argv[1]))
assert len(kernels) == 14, f"expected 14 kernel reports, got {len(kernels)}"
for r in kernels:
    assert r["clean"], f"kernel {r['program']} not clean: {r['diagnostics']}"
    assert r["suppressed"] == 0, f"kernel {r['program']} needed suppressions"

fixtures = {r["program"]: r for r in json.load(open(sys.argv[2]))}
expected = {}
for path in sorted(glob.glob("tests/fixtures/*.asm")):
    name = os.path.splitext(os.path.basename(path))[0]
    m = re.search(r"#\s*verify-expect:\s*(\S+)", open(path).read())
    assert m, f"{path}: missing verify-expect header"
    expected[name] = m.group(1)
assert set(expected) == set(fixtures), "fixture/report name mismatch"
for name, want in expected.items():
    r = fixtures[name]
    if want == "clean":
        assert r["clean"], f"{name}: expected clean, got {r['diagnostics']}"
    else:
        codes = {d["code"] for d in r["diagnostics"]}
        assert want in codes, f"{name}: expected {want}, got {codes or 'clean'}"
covered = {v for v in expected.values() if v != "clean"}
assert covered == {f"MV{i:03d}" for i in range(1, 11)}, f"corpus gaps: {covered}"
print(f"verifier OK: {len(kernels)} kernels clean, {len(expected)} fixtures as expected")
EOF
fi

echo "==> example pipeline (scripts/run_examples.sh)"
# asm -> verify -> disasm round-trip -> functional run over the fixture
# corpus; disasm or toolchain failures are fatal inside the script.
scripts/run_examples.sh > /dev/null

echo "CI green."
