#!/usr/bin/env bash
# Tier-1 gate: build and run the full test suite under ASan + UBSan.
#
#   $ scripts/check.sh            # sanitized tier-1 suite
#   $ scripts/check.sh --fast     # plain build, no sanitizers
#
# Exits nonzero on any build failure, compiler warning, test failure, or
# sanitizer report.

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build-sanitize
SANITIZE=ON
if [[ "${1:-}" == "--fast" ]]; then
    BUILD_DIR=build
    SANITIZE=OFF
fi

# Both modes build warning-free; a "warning:" line in this script's own
# build log fails it.  Only what the build compiles is seen, so an
# up-to-date tree passes whatever it printed before: CI builds cold.
fail_on_warnings() {
    if grep -q "warning:" "$1"; then
        echo "build printed compiler warnings (see $1):" >&2
        grep "warning:" "$1" >&2
        exit 1
    fi
}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DBACP_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j"$(nproc)" 2>&1 | tee "$BUILD_DIR/build.log"
fail_on_warnings "$BUILD_DIR/build.log"
ctest --test-dir "$BUILD_DIR" -L tier1 --output-on-failure -j"$(nproc)"

# Example smoke runs: the discrete-event link layer end to end.  Each
# example exits nonzero when any payload is missing, out of order or
# corrupted, so an incomplete delivery fails the script.
echo "== example smoke: quickstart (ReliableLink) =="
"$BUILD_DIR"/examples/quickstart
echo "== example smoke: file_transfer (ReliableLink, 1 MiB) =="
"$BUILD_DIR"/examples/file_transfer
echo "== example smoke: multihop (end-to-end, hop-by-hop, StreamMux) =="
"$BUILD_DIR"/examples/multihop
echo "== example smoke: duplex_rpc (DuplexSession) =="
"$BUILD_DIR"/examples/duplex_rpc

# Example smoke runs: the real-time runtime end to end.  Deterministic
# replay first, then a small wall-clock UDP transfer with a hard cap so
# a wedged event loop fails fast instead of hanging CI.
echo "== example smoke: udp_transfer --inproc =="
"$BUILD_DIR"/examples/udp_transfer --inproc --mb 1
echo "== example smoke: udp_transfer (UDP loopback, 2 s cap) =="
"$BUILD_DIR"/examples/udp_transfer --mb 0.25 --deadline-ms 2000

# Bidirectional two-process smoke: two real processes, one duplex
# endpoint each, --mb megabytes transferred in EACH direction with
# block acks piggybacked on reverse DATA.  Each endpoint verifies the
# payload bytes it receives and exits nonzero on any mismatch or an
# incomplete transfer, so either side failing fails the script.
echo "== example smoke: udp_transfer --duplex (two processes, both directions) =="
"$BUILD_DIR"/examples/udp_transfer --duplex --port 19401 --peer 19400 \
    --mb 0.25 --deadline-ms 20000 &
DUPLEX_PEER=$!
sleep 0.3
"$BUILD_DIR"/examples/udp_transfer --duplex --port 19400 --peer 19401 \
    --mb 0.25 --deadline-ms 20000
wait "$DUPLEX_PEER"

# Impaired multi-session server smoke: a --serve process whose sessions
# impair their ack direction (loss, duplication, reorder, delay), fed by
# two --send clients over real sockets.  The clients exit nonzero on an
# incomplete transfer, the server on any payload mismatch; any nonzero
# exit fails the script.
echo "== example smoke: udp_transfer --serve (impaired Server, two clients) =="
"$BUILD_DIR"/examples/udp_transfer --serve --port 19410 --loss 0.05 --deadline-ms 4000 &
SERVE=$!
sleep 0.3
"$BUILD_DIR"/examples/udp_transfer --send --port 19411 --peer 19410 \
    --mb 0.25 --loss 0.05 --deadline-ms 4000 &
SEND_A=$!
"$BUILD_DIR"/examples/udp_transfer --send --port 19412 --peer 19410 \
    --mb 0.25 --loss 0.05 --deadline-ms 4000
wait "$SEND_A"
wait "$SERVE"

# Bench smoke: the E20 steady-state allocation gate.  The budget is an
# allocation count, not a wall-clock number, so it holds on shared and
# sanitized runners alike: after warm-up the slab event queue + pooled
# channels must not touch the heap at all (exactly 0 allocs/event).
echo "== bench smoke: E20 steady-state alloc gate (budget 0) =="
(cd "$BUILD_DIR"/bench && ./bench_e20_des_throughput --quick --check-budget 0)

# Micro-benchmark smoke: E10's CRC-32C kernel and codec rows, run briefly
# so the dispatched kernel executes under every build this script makes.
# No timing is checked; a crash or a sanitizer report fails the script.
echo "== bench smoke: E10 CRC-32C + codec micro-benchmarks =="
"$BUILD_DIR"/bench/bench_e10_micro --benchmark_filter='Crc32c|EncodeData|DecodeData' \
    --benchmark_min_time=0.01

# NAK gate.  E11 requires, at every loss rate, that NAK resends stay at
# or below the data frames the channel dropped (the receiver NAKs only a
# proved loss, so reorder alone provokes none) and that NAKs never raise
# the p99 delivery latency.  Simulated time: deterministic in any build.
echo "== bench gate: E11 NAK resends bounded by drops =="
"$BUILD_DIR"/bench/bench_e11_nak --check

# Batch transport gates.  E19 asserts the engine-level syscall
# amortization (>= 8 datagrams per sendmmsg on the clean batched path);
# E21 asserts the zero-alloc receive arena (0 steady-state allocations
# per datagram on every batched and offloaded row) and the offload
# ladder (GSO+GRO goodput >= the mmsg baseline; the ladder gate
# soft-skips itself on kernels without UDP_SEGMENT/UDP_GRO, so the
# script stays green off Linux >= 4.18/5.0).  All are count/ratio
# gates, not absolute timings, so they hold under sanitizers.
echo "== bench smoke: E19 batched-path amortization gate =="
(cd "$BUILD_DIR"/bench && ./bench_e19_net_loopback --quick)
echo "== bench smoke: E21 batch transport alloc + offload ladder gates =="
(cd "$BUILD_DIR"/bench && ./bench_e21_batch_transport --quick --check-budget 0 --check-ladder)

# Multi-session server gate.  E22 demuxes many concurrent loopback
# sessions off shared reuseport sockets; the gate holds the same
# zero-steady-state-allocation budget per received datagram once every
# session table, stash, and timer slab has reached high water.
echo "== bench smoke: E22 server scale alloc gate (budget 0) =="
(cd "$BUILD_DIR"/bench && ./bench_e22_server_scale --quick --check-budget 0)

# Self-stabilization gate.  E23 injects every chaos fault class (state
# corruption, duplication storms, reorder bursts, below-CRC payload
# corruption, crash/restart) into ba/gbn/sr and requires re-entry into
# the paper's invariants plus transfer completion, and exactly-once
# delivery across a real mid-window crash + epoch rejoin.  Budget 0 =
# converge within the harness's own window (32 timeouts), a count/flag
# gate that holds under sanitizers.
echo "== bench smoke: E23 self-stabilization convergence gate =="
(cd "$BUILD_DIR"/bench && ./bench_e23_stabilization --quick --check-budget 0)

# Fleet-vs-server gate.  E24 drives a ClientFleet (many sessions, few
# sockets) against a socket-owning Server and holds E22's zero-alloc
# budget once every flat session table, stash, and wheel level is at
# high water -- plus the hierarchical-wheel scaling check (idle polls
# over 100k armed timers must do no per-timer work).  The plain build
# runs the full 1k/10k/100k sweep and requires all 100k sessions held at
# once (about 6 s): per-session memory that grows again runs a 16 GiB
# machine out of memory there.  Sanitized builds keep the quick sweep.
if [[ "$SANITIZE" == OFF ]]; then
    echo "== bench gate: E24 fleet scale, full sweep to 100k sessions =="
    (cd "$BUILD_DIR"/bench && ./bench_e24_fleet_scale --check-sessions 100000 --check-budget 0)
else
    echo "== bench smoke: E24 fleet scale alloc + timer scaling gate =="
    (cd "$BUILD_DIR"/bench && ./bench_e24_fleet_scale --quick --check-budget 0)
fi
# The same gate on the GSO/GRO tier, where a receive arena fills through
# repeated GRO staging (it resolves to mmsg on kernels without it).
echo "== bench smoke: E24 fleet scale alloc gate, GSO/GRO tier =="
(cd "$BUILD_DIR"/bench && ./bench_e24_fleet_scale --quick --offload gso --check-budget 0)

# Duplex piggyback gate.  E25 runs bidirectional load through one
# NetEndpoint per side and requires >= 50% of acks piggybacked on
# reverse DATA, fewer total datagrams than two one-way sessions,
# deterministic replay, and the same zero-steady-state-allocation
# budget per datagram as E20-E24 -- counts and ratios, sanitizer-stable.
echo "== bench smoke: E25 duplex piggyback + alloc gate =="
(cd "$BUILD_DIR"/bench && ./bench_e25_duplex --quick --check-budget 0)

# Sweep determinism: the parallel experiment fan-out must render
# byte-identical tables at 1, 2, and 8 threads (see scripts/sweep.sh).
echo "== sweep determinism: E8 at 1/2/8 threads =="
BUILD_DIR="$BUILD_DIR" scripts/sweep.sh --verify e8

# Benchmark driver smoke (--fast only).  perfbench/ is a CMake package of
# its own that compiles the library sources, so nothing above builds it;
# this step does, into its own directory, and runs every workload for
# half a second.  Half a second is too short for the driver's
# measurement-quality checks (at least 1000 latency samples in every
# slice; at least 8 slices for fleet), so those two are printed but not
# fatal.  Any other failure -- a crash, a missing, wrong or duplicated
# delivery, decode errors, a failed operation -- fails the script.
if [[ "$SANITIZE" == OFF ]]; then
    PERF_DIR="$BUILD_DIR-perfbench"
    cmake -S perfbench -B "$PERF_DIR" -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$PERF_DIR" -j"$(nproc)" --target perfbench_driver 2>&1 |
        tee "$PERF_DIR/build.log"
    fail_on_warnings "$PERF_DIR/build.log"
    for workload in bulk duplex_lossy fleet des; do
        echo "== perfbench smoke: $workload (0.5 s) =="
        status=0
        "$PERF_DIR"/perfbench_driver --workload "$workload" --seed 1 --seconds 0.5 \
            > "$PERF_DIR/smoke_$workload.json" || status=$?
        if [[ "$status" -gt 1 ]]; then
            echo "perfbench_driver --workload $workload exited $status" >&2
            exit 1
        fi
        python3 - "$PERF_DIR/smoke_$workload.json" <<'PY'
import json
import sys

result = json.loads(open(sys.argv[1]).read().strip().splitlines()[-1])
short_run = {"fewer than 1000 latency samples in a slice", "timed window too short"}
fatal = [f for f in result["failures"] if f not in short_run]
print("attempted %d  failed %d  failures %s" % (result["attempted"], result["failed"],
                                                 result["failures"] or "none"))
sys.exit(1 if fatal or result["failed"] else 0)
PY
    done
fi
