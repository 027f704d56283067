#!/usr/bin/env bash
# Tier-1 CI gate: build, test, format, lint. Run from anywhere; operates on
# the repository root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q =="
cargo test -q

echo "== octotiger unit tests (release; includes distributed == node-level, bitwise) =="
cargo test -q --release -p octotiger

echo "== SIMD/scalar kernel agreement =="
cargo test -q -p octotiger dispatch_backends_agree_on_gravity
cargo test -q --test simd_gravity_prop
cargo test -q --test simd_hydro_prop

echo "== work-aggregation agreement (batched == per-leaf, bitwise) =="
cargo test -q --test aggregation_prop

echo "== incremental regrid agreement (incremental == full rebuild, bitwise) =="
cargo test -q --test regrid_incremental_prop

echo "== gravity bench smoke (one short iteration, no timing assertions) =="
BENCH_SMOKE=1 BENCH_HOST_TASKS=1 cargo bench -q -p repro-bench --bench bench_gravity
BENCH_SMOKE=1 BENCH_HOST_TASKS=16 cargo bench -q -p repro-bench --bench bench_gravity

echo "== hydro bench smoke =="
BENCH_SMOKE=1 BENCH_HOST_TASKS=1 cargo bench -q -p repro-bench --bench bench_hydro
BENCH_SMOKE=1 BENCH_HOST_TASKS=16 cargo bench -q -p repro-bench --bench bench_hydro

echo "== tracer overhead bench smoke =="
BENCH_SMOKE=1 cargo bench -q -p repro-bench --bench bench_trace

echo "== deep-tree scale smoke (level 4, mid-run regrid rebuilds < 25% of lists) =="
BENCH_SMOKE=1 cargo bench -q -p repro-bench --bench bench_scale

echo "== bench-regression gate (self-test + committed baselines) =="
cargo run --release -p repro-bench --bin bench_diff -- --self-test
BENCH_SMOKE=1 cargo run --release -p repro-bench --bin bench_diff

echo "== trace smoke run + checker + analyzer (coalesced, flow events) =="
TRACE_OUT=$(mktemp -t apexlite_ci_XXXXXX.json)
FLAME_OUT=$(mktemp -t apexlite_flame_XXXXXX.txt)
cargo run --release --example distributed_cluster -- \
  --max_level=1 --stop_step=2 --hpx:threads=2 --sample_interval_ms=5 \
  --coalesce=on --trace-out="$TRACE_OUT" >/dev/null
# --require-flow: the 2-locality run must pair every received parcel's
# "f" flow event with its sender's "s" (the Perfetto arrows exist).
cargo run --release -p apex-lite --bin trace_check -- \
  --require task,phase,comm --min-spans 10 --require-flow "$TRACE_OUT"
# trace_report --check: non-empty critical path within the wall window,
# utilization rows, the cluster-wide imbalance + parcel-latency series,
# a non-empty flamegraph, and (on a multi-locality trace with flows) a
# distributed critical path that routes through >= 1 network leg, bounds
# every single-locality path, and carries ordered latency percentiles
# with histogram count == parcels delivered.
cargo run --release -p apex-lite --bin trace_report -- \
  --check --require-counter=/runtime/imbalance \
  --require-counter=/comms/parcel_latency --flame-out="$FLAME_OUT" \
  "$TRACE_OUT"
test -s "$FLAME_OUT"
rm -f "$TRACE_OUT" "$FLAME_OUT"

# The overlap gates run at level 2 (64 leaves): on single-core CI hosts,
# overlap of two span families depends on the OS preempting a worker
# mid-span, and level-1 runs are short enough to miss that window ~40% of
# the time. Level 2 gives each family ~10x the open-span time and passes
# deterministically (measured 10/10 on a 1-core box vs 6/10 at level 1).
echo "== futurized trace: gravity/hydro spans must overlap =="
TRACE_FUT=$(mktemp -t apexlite_fut_XXXXXX.json)
cargo run --release --example rotating_star -- \
  --max_level=2 --stop_step=3 --hpx:threads=4 --futurize=on \
  --trace-out="$TRACE_FUT" >/dev/null
cargo run --release -p apex-lite --bin trace_check -- \
  --require-overlap=gravity_solve,hydro_step "$TRACE_FUT"
rm -f "$TRACE_FUT"

echo "== aggregated futurized trace: batched launches, overlap preserved =="
TRACE_AGG=$(mktemp -t apexlite_agg_XXXXXX.json)
cargo run --release --example rotating_star -- \
  --max_level=2 --stop_step=3 --hpx:threads=4 --futurize=on \
  --monopole_host_tasks=4 --multipole_host_tasks=4 --hydro_host_tasks=4 \
  --trace-out="$TRACE_AGG" >/dev/null
cargo run --release -p apex-lite --bin trace_check -- \
  --require aggregate_launch \
  --require-overlap=gravity_solve,hydro_step "$TRACE_AGG"
rm -f "$TRACE_AGG"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "CI OK"
