#!/usr/bin/env bash
# Builds the benchmark (release, into the repository's shared target
# directory) and runs every workload — untraced repetitions, the traced
# repetition and the checks — each in its own process, one after another,
# so that no more than `nproc` threads are ever busy and `peak_rss_mb` is
# one workload's. Writes one result file for `compare`.
#
#   benchmark/run.sh [RESULT_FILE]      default: <target dir>/benchmark-results.json
#   SEED=7 SECONDS_PER_RUN=10 benchmark/run.sh   other seed / measuring time per workload
set -euo pipefail
cd "$(dirname "$0")/.."

target_dir="${CARGO_TARGET_DIR:-target}"
out="${1:-$target_dir/benchmark-results.json}"
seed="${SEED:-2015}"
seconds="${SECONDS_PER_RUN:-10}"

cargo build --release --manifest-path benchmark/Cargo.toml --target-dir "$target_dir"
bin="$target_dir/release/tpftl-benchmark"

rm -f "$out"
failed=0
for workload in $("$bin" --list); do
    # Everything but the machine-readable last line goes to the terminal.
    if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --out "$out" | sed '$d'; then
        failed=1
    fi
done
echo "results: $out"
exit "$failed"
