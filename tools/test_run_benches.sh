#!/usr/bin/env bash
# Regression tests for tools/run_benches.sh, driven entirely from stub
# bench binaries in a scratch build tree so no real benchmarks run.
#
# Covers the two historical bugs:
#   1. a bench that printed a FAIL verdict row but exited 0 was
#      summarized as PASS and the suite exited 0;
#   2. outputs landed at the repo root even when the caller wanted a
#      scratch directory (--out-dir).
#
# Usage: tools/test_run_benches.sh [path-to-run_benches.sh]

set -eu

script=${1:-$(cd "$(dirname "$0")" && pwd)/run_benches.sh}
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

fails=0
check() {
    local desc=$1 ok=$2
    if [ "$ok" = 0 ]; then
        echo "PASS: $desc"
    else
        echo "FAIL: $desc"
        fails=1
    fi
}

all_benches=(
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
    bench_mt_scaling
)

make_stubs() {
    local dir=$1
    mkdir -p "$dir/bench"
    for b in "${all_benches[@]}"; do
        cat > "$dir/bench/$b" <<'EOF'
#!/usr/bin/env bash
echo "stub bench: all good"
echo "  metric   value   verdict"
echo "  dedup    0.42    PASS"
exit 0
EOF
        chmod +x "$dir/bench/$b"
    done
}

# --- case 1: everything green -> exit 0, summary all PASS ------------
build1=$scratch/build-green
out1=$scratch/out-green
make_stubs "$build1"
rc=0
"$script" --quick --build-dir "$build1" --out-dir "$out1" \
    > "$scratch/green.log" 2>&1 || rc=$?
check "green suite exits 0" "$rc"
grep -q '"bench_fig6_memcached_dram": "ok"' "$out1/BENCH_summary.json"
check "green summary records ok" $?

# --- case 2: a bench prints a FAIL verdict row but exits 0 -----------
build2=$scratch/build-verdict
out2=$scratch/out-verdict
make_stubs "$build2"
cat > "$build2/bench/bench_fig6_memcached_dram" <<'EOF'
#!/usr/bin/env bash
echo "  metric   value   verdict"
echo "  dedup    0.01    FAIL"
exit 0
EOF
chmod +x "$build2/bench/bench_fig6_memcached_dram"
rc=0
"$script" --quick --build-dir "$build2" --out-dir "$out2" \
    > "$scratch/verdict.log" 2>&1 || rc=$?
[ "$rc" -ne 0 ]
check "FAIL verdict row (exit 0) fails the suite" $?
grep -q '"bench_fig6_memcached_dram": "verdict-failed"' \
    "$out2/BENCH_summary.json"
check "summary records verdict-failed" $?
grep -Eq 'FAIL +bench_fig6_memcached_dram' "$scratch/verdict.log"
check "summary table row says FAIL" $?

# --- case 3: a bench exits non-zero ----------------------------------
build3=$scratch/build-crash
out3=$scratch/out-crash
make_stubs "$build3"
printf '#!/usr/bin/env bash\nexit 3\n' \
    > "$build3/bench/bench_fig9_vm_scaling"
chmod +x "$build3/bench/bench_fig9_vm_scaling"
rc=0
"$script" --quick --build-dir "$build3" --out-dir "$out3" \
    > /dev/null 2>&1 || rc=$?
[ "$rc" -ne 0 ]
check "non-zero bench exit fails the suite" $?

# --- case 4: a bench emits a truncated JSON artifact -----------------
build4=$scratch/build-badjson
out4=$scratch/out-badjson
make_stubs "$build4"
cat > "$build4/bench/bench_mt_scaling" <<'EOF'
#!/usr/bin/env bash
# Consume --smoke --json PATH like the real bench, then truncate the
# artifact mid-object (a crash between fopen and the final brace).
while [ $# -gt 0 ]; do
    case "$1" in
      --json) shift; printf '{"bench": "mt_scaling", "resul' > "$1" ;;
    esac
    shift
done
echo "stub bench: wrote a truncated artifact"
exit 0
EOF
chmod +x "$build4/bench/bench_mt_scaling"
rc=0
"$script" --quick --build-dir "$build4" --out-dir "$out4" \
    > "$scratch/badjson.log" 2>&1 || rc=$?
[ "$rc" -ne 0 ]
check "truncated BENCH_*.json fails the suite" $?
grep -q 'BAD   BENCH_mt_scaling.json' "$scratch/badjson.log"
check "validation names the bad artifact" $?

# --- case 5: --out-dir keeps everything out of the repo root ---------
found=$(find "$out1" -maxdepth 1 -name 'BENCH_*.json' | wc -l)
[ "$found" -ge 1 ]
check "--out-dir receives the BENCH_*.json artifacts" $?
[ -d "$out1/bench-logs" ]
check "--out-dir receives bench-logs/" $?

exit "$fails"
