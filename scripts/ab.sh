#!/usr/bin/env bash
# Interleaved A/B of the repo benchmark between two git revisions.
#
#   scripts/ab.sh <rev-a> <rev-b> [pairs] [seconds]
#
# Exports each revision with `git archive` into a temporary directory and
# builds its `millipede-benchmark` there in a target directory of its own,
# so the two builds share nothing and the repo's .git is left untouched.
# Both builds get the caller's RUSTFLAGS. The script prints them, and
# where each binary's `.text` starts and its section alignment (code
# placement alone moves this benchmark by ~5%, so a phase change mod 64
# is worth knowing). Then runs every workload in BENCHMARK.json for
# `pairs` pairs (default 10) of `seconds` each (default 4), alternating
# which side runs first. For each workload and end-to-end metric it
# prints both medians, the b/a ratio, how many pairs b won (ties count for
# neither side), the interquartile range of a's runs, and a bootstrap 95%
# interval of the median b/a ratio: 2000 resamples of the pairs, with a
# fixed seed, so the same runs always print the same interval. A row whose
# interval contains 1.0 is marked `unresolved`: its runs cannot tell b
# from a. Exits 1 if any run reports `correct: false` or a failed point,
# 2 on a usage or build error.
#
# Placement-controlled A/B: build both sides with every function aligned
# to 64 bytes,
#
#   RUSTFLAGS="-C llvm-args=-align-all-functions=6" scripts/ab.sh <a> <b>
#
# so no function's phase mod 64 depends on the code laid out before it,
# and `.text` reads phase 0 on both sides. The aligned build is a layout
# of its own (a few percent off the default layout's `wall_s`, either
# way), so compare it only with another aligned build, and keep the flag
# out of the shipped build.
#
# Put the scratch space elsewhere with TMPDIR. AB_BENCH_ARGS adds
# arguments to every benchmark run on both sides, e.g.
# AB_BENCH_ARGS="--seed 7" for a workload seed other than the default.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/ab.sh <rev-a> <rev-b> [pairs] [seconds]" >&2
    exit 2
fi
pairs="${3:-10}"
seconds="${4:-4}"
case "$pairs$seconds" in
    *[!0-9]*) echo "error: pairs and seconds must be positive integers" >&2; exit 2 ;;
esac
if [ "$pairs" -lt 1 ] || [ "$seconds" -lt 1 ]; then
    echo "error: pairs and seconds must be positive integers" >&2
    exit 2
fi

echo "RUSTFLAGS=${RUSTFLAGS-} (both sides)"
echo "AB_BENCH_ARGS=${AB_BENCH_ARGS-} (every run)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
declare -A bin
for side in a b; do
    if [ "$side" = a ]; then rev="$1"; else rev="$2"; fi
    commit="$(git rev-parse --verify --quiet "$rev^{commit}")" ||
        { echo "error: unknown revision $rev" >&2; exit 2; }
    mkdir -p "$work/$side/src"
    git archive "$commit" | tar -x -C "$work/$side/src"
    echo "building $side = $rev ($(git rev-parse --short "$commit"))" >&2
    (cd "$work/$side/src" &&
        CARGO_TARGET_DIR="$work/$side/target" \
            cargo build --release --offline --quiet --bin millipede-benchmark) ||
        { echo "error: build of $rev failed" >&2; exit 2; }
    bin[$side]="$work/$side/target/release/millipede-benchmark"
    # Address and alignment (the last, `Al`, column) of `.text`.
    read -r text align < <(readelf -SW "${bin[$side]}" |
        sed 's/^ *\[ *[0-9]*\] *//' | awk '$1 == ".text" { print $3, $NF }')
    echo "$side: $rev .text at 0x$text (phase $((16#$text % 64)) mod 64, aligned to $align)"
done

workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
for w in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then order="a b"; else order="b a"; fi
        for side in $order; do
            # The benchmark exits 1 when a point fails; the summary line
            # says so and the report below counts it.
            # shellcheck disable=SC2086 # AB_BENCH_ARGS splits into words
            "${bin[$side]}" --workload "$w" --seconds "$seconds" ${AB_BENCH_ARGS-} |
                tail -n 1 >> "$work/$w.$side" || true
        done
    done
done

python3 - "$work" "$pairs" "$seconds" $workloads <<'EOF'
import json, random, statistics, sys

work, pairs, seconds, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]
bad = 0


def median_ratio(va, vb):
    ma = statistics.median(va)
    return statistics.median(vb) / ma if ma else float("nan")


def interval(va, vb, resamples=2000):
    """Bootstrap 95% interval of the median b/a ratio, resampling pairs."""
    rng, n = random.Random(20180521), len(va)
    ratios = []
    for _ in range(resamples):
        idx = [rng.randrange(n) for _ in range(n)]
        ratios.append(median_ratio([va[i] for i in idx], [vb[i] for i in idx]))
    ratios.sort()
    return ratios[int(0.025 * resamples)], ratios[int(0.975 * resamples) - 1]


for w in workloads:
    runs = {}
    for side in "ab":
        runs[side] = []
        for line in open(f"{work}/{w}.{side}").read().splitlines():
            try:
                s = json.loads(line)
            except ValueError:
                s = {"correct": False, "failed": None, "metrics": {}}
            if s.get("correct") is not True or s.get("failed") != 0:
                bad += 1
                print(f"FAILED RUN {w} {side}: correct={s.get('correct')} failed={s.get('failed')}")
            runs[side].append(s)
    print(f"== {w} ({pairs} pairs x {seconds} s, alternating first side)")
    print(f"  {'metric':12s} {'unit':9s} {'median a':>11s} {'median b':>11s} {'b/a':>7s} "
          f"{'b wins':>7s} {'IQR a':>10s} {'95% interval of b/a':>19s}")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        va = [r["metrics"][name]["value"] for r in runs["a"] if name in r["metrics"]]
        vb = [r["metrics"][name]["value"] for r in runs["b"] if name in r["metrics"]]
        if len(va) != pairs or len(vb) != pairs:
            print(f"  {name:12s} missing from some runs")
            continue
        wins = sum((b < a) if lower else (b > a) for a, b in zip(va, vb))
        ma, mb = statistics.median(va), statistics.median(vb)
        q = statistics.quantiles(va, n=4, method="inclusive") if pairs > 1 else [va[0]] * 3
        lo, hi = interval(va, vb)
        verdict = "unresolved" if lo <= 1.0 <= hi else ""
        print(f"  {name:12s} {m['unit']:9s} {ma:11.5g} {mb:11.5g} {median_ratio(va, vb):7.3f} "
              f"{wins:3d}/{pairs:<3d} {q[2] - q[0]:10.3g} {lo:9.3f} - {hi:<7.3f} {verdict}".rstrip())
sys.exit(1 if bad else 0)
EOF
