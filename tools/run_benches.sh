#!/usr/bin/env bash
# Run the benchmark suite and aggregate the results.
#
# Usage: tools/run_benches.sh [--quick] [--build-dir DIR] [--out-dir DIR]
#                              [--check-static]
#
#   --quick         smoke-sized runs (CI); full sweeps otherwise
#   --build-dir     build tree holding bench/ binaries (default: build)
#   --out-dir       where logs and BENCH_*.json land (default: repo root)
#   --check-static  preflight the static gates (hicamp_lint,
#                   refcount_check, atomic_check) and refuse to bench
#                   a failing tree — numbers from a tree that flunks
#                   its own protocol checkers are not worth archiving
#
# Every bench's stdout is captured under $out_dir/bench-logs/,
# bench_mt_scaling writes its own BENCH_mt_scaling.json trajectory
# file, and a BENCH_summary.json with per-bench pass/fail status is
# emitted. Every BENCH_*.json present afterwards must parse
# as non-empty JSON or the suite fails.
#
# A bench fails if its process exits non-zero OR its output contains a
# FAIL verdict row: benches with internal self-checks print
# "SELFCHECK ... FAIL" / table rows marked FAIL, and a verdict that
# only lives in the log must still fail the suite.

set -u

quick=0
build_dir=build
out_dir=""
check_static=0
while [ $# -gt 0 ]; do
    case "$1" in
      --quick) quick=1 ;;
      --build-dir) shift; build_dir=$1 ;;
      --out-dir) shift; out_dir=$1 ;;
      --check-static) check_static=1 ;;
      *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

root=$(cd "$(dirname "$0")/.." && pwd)

if [ "$check_static" = 1 ]; then
    echo "== static preflight (lint + refcount + atomic) =="
    static_ok=1
    for checker in \
        "$root/tools/lint/hicamp_lint.py" \
        "$root/tools/analyze/refcount_check.py" \
        "$root/tools/analyze/atomic_check.py"; do
        if ! python3 "$checker" --root "$root"; then
            static_ok=0
        fi
    done
    if [ "$static_ok" != 1 ]; then
        echo "run_benches: static preflight failed; refusing to" \
             "bench a tree that flunks its own checkers" >&2
        exit 1
    fi
fi
case "$build_dir" in
  /*) ;;
  *) build_dir="$root/$build_dir" ;;
esac
if [ -z "$out_dir" ]; then
    out_dir=$root
fi
mkdir -p "$out_dir"
out_dir=$(cd "$out_dir" && pwd)
logs="$out_dir/bench-logs"
mkdir -p "$logs"
cd "$out_dir"

benches=(
    bench_sec511_concurrency
    bench_fig6_memcached_dram
    bench_fig7_spmv_traffic
    bench_fig8_matrix_footprint
    bench_fig9_vm_scaling
    bench_fig10_tile_scaling
    bench_table1_memcached_compaction
    bench_table2_matrix_compaction
    bench_ablation_compaction
    bench_ablation_sharding
)

declare -A status

# A FAIL verdict is a whole word so e.g. "FAILOVER" in a workload name
# can't trip it; benches print verdicts as "... FAIL" table cells.
log_has_fail_verdict() {
    grep -Eq '(^|[^A-Za-z0-9_])FAIL([^A-Za-z0-9_]|$)' "$1"
}

run_one() {
    local name=$1; shift
    local bin="$build_dir/bench/$name"
    if [ ! -x "$bin" ]; then
        echo "-- $name: MISSING ($bin not built)"
        status[$name]=missing
        return
    fi
    echo "-- $name"
    if "$bin" "$@" > "$logs/$name.log" 2>&1; then
        if log_has_fail_verdict "$logs/$name.log"; then
            echo "   FAIL verdict in output (see $logs/$name.log)"
            status[$name]=verdict-failed
        else
            status[$name]=ok
        fi
    else
        echo "   FAILED (see $logs/$name.log)"
        status[$name]=failed
    fi
}

for b in "${benches[@]}"; do
    run_one "$b"
done

# This bench owns its JSON trajectory file.
if [ "$quick" = 1 ]; then
    run_one bench_mt_scaling --smoke --json "$out_dir/BENCH_mt_scaling.json"
else
    run_one bench_mt_scaling --json "$out_dir/BENCH_mt_scaling.json"
fi

# Every JSON artifact a bench produced must parse and be non-empty: a
# truncated or empty trajectory file silently poisons downstream
# comparisons, so it fails the suite like any bench failure.
json_bad=0
echo
echo "== validating BENCH_*.json artifacts =="
for j in "$out_dir"/BENCH_*.json; do
    [ -e "$j" ] || continue
    if python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
sys.exit(0 if data else 1)
' "$j" 2>/dev/null; then
        echo "   OK    $(basename "$j")"
    else
        echo "   BAD   $(basename "$j") (unparseable or empty)" >&2
        json_bad=1
    fi
done

{
    echo '{'
    echo "  \"quick\": $([ "$quick" = 1 ] && echo true || echo false),"
    echo '  "benches": {'
    n=${#status[@]}
    i=0
    for b in "${benches[@]}" bench_mt_scaling; do
        i=$((i + 1))
        sep=$([ "$i" -lt "$n" ] && echo , || echo '')
        echo "    \"$b\": \"${status[$b]}\"$sep"
    done
    echo '  }'
    echo '}'
} > "$out_dir/BENCH_summary.json"

# The exit code is derived from the summary table itself: any row that
# prints FAIL or MISS below must fail the suite — the table and the
# exit status can never disagree again.
failed=0
echo
echo "== bench summary =="
for b in "${benches[@]}" bench_mt_scaling; do
    case "${status[$b]}" in
      ok)      printf '   PASS  %s\n' "$b" ;;
      missing) printf '   MISS  %s\n' "$b"; failed=1 ;;
      *)       printf '   FAIL  %s\n' "$b"; failed=1 ;;
    esac
done
if [ "$json_bad" != 0 ]; then
    echo "   FAIL  json-artifact validation"
    failed=1
fi
echo
echo "wrote $out_dir/BENCH_summary.json ($([ "$failed" = 0 ] && echo all green || echo FAILURES))"
exit "$failed"
