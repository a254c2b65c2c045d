#!/usr/bin/env bash
# Renders every deterministic discrete-event experiment table (E3-E9,
# E11-E15, E17) into OUT_DIR, one file per experiment.  Same source, same
# tables, byte for byte, so a change can be checked against its parent
# with one diff:
#
#   $ scripts/des_tables.sh /tmp/tables.new
#   $ (cd ../parent && scripts/des_tables.sh /tmp/tables.old)
#   $ diff -r /tmp/tables.old /tmp/tables.new
#
# Builds the benches into BUILD_DIR (default: build) first.  The sweeps
# shard over BACP_SWEEP_THREADS (default: all cores); their merge is by
# job index, so the thread count never changes a table.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
OUT_DIR=$1
BUILD_DIR=${BUILD_DIR:-build}

BENCHES=(
    e3_throughput_vs_loss e4_ack_overhead e5_recovery e6_bounded_equiv
    e7_seqnum_domain e8_window_scaling e9_hole_reuse e11_nak
    e12_adaptive_window e13_piggyback e14_multihop e15_streams e17_offered_load
)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target $(printf 'bench_%s ' "${BENCHES[@]}") \
    >/dev/null

mkdir -p "$OUT_DIR"
for bench in "${BENCHES[@]}"; do
    "$BUILD_DIR/bench/bench_$bench" >"$OUT_DIR/${bench%%_*}.txt"
    echo "$OUT_DIR/${bench%%_*}.txt"
done
