#!/usr/bin/env bash
# Full check: configure, build, and run the test suite twice — once plain,
# once under AddressSanitizer + UBSan (RHODOS_SANITIZE=address,undefined).
#
# Usage: scripts/check.sh [--plain-only|--sanitize-only]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
mode="${1:-all}"
case "$mode" in
  all|--plain-only|--sanitize-only) ;;
  *)
    echo "usage: scripts/check.sh [--plain-only|--sanitize-only]" >&2
    exit 2
    ;;
esac

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$jobs"
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
  # The transaction lock/log/crash matrix is the gate for commit-protocol
  # changes; run it by label so a mislabelled suite fails loudly here.
  echo "== $dir: transaction matrix (ctest -L txn) =="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L txn
  # The quorum / replica-fault matrix gates replication-protocol changes.
  echo "== $dir: replication matrix (ctest -L repl) =="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L repl
  # The placement / shard-failover / cross-shard matrix gates changes to
  # the sharded metadata plane (docs/SHARDING.md).
  echo "== $dir: shard matrix (ctest -L shard) =="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L shard
  # The callback/lease coherence matrix (break-before-reply, lease expiry,
  # crash grace, epoch fences) gates changes to the client-cache coherence
  # protocol.
  echo "== $dir: lease matrix (ctest -L lease) =="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L lease
  # The snapshot/clone crash-at-every-boundary + COW/refcount matrix gates
  # changes to the capture, copy-on-write, and shared-release paths.
  echo "== $dir: snapshot matrix (ctest -L snap) =="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L snap
  # The disk-service matrix (device model, track cache against its
  # byte-owning reference, delayed writes, torn writes) gates changes to
  # the disk server.
  echo "== $dir: disk matrix (ctest -L disk) =="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L disk
  # The cache-tier matrix (redirects, peer serving, busy shedding, fallback
  # bounds, the zero-stale-read storm) gates changes to the read fan-out
  # path.
  echo "== $dir: cache-tier matrix (ctest -L cachetier) =="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs" -L cachetier
}

if [[ "$mode" != "--sanitize-only" ]]; then
  echo "== plain build =="
  run_suite build

  echo "== observability: golden metric schema =="
  # DumpStats() metric names are a documented interface (docs/OBSERVABILITY.md):
  # any drift from the golden list is a breaking change until both the golden
  # file and the doc are updated.
  ./build/examples/trace_dump --schema > build/metrics_schema.out
  if ! diff -u docs/metrics_schema.golden build/metrics_schema.out; then
    echo "DumpStats() schema drifted from docs/metrics_schema.golden" >&2
    exit 1
  fi
  while read -r name _kind; do
    if ! grep -q "$name" docs/OBSERVABILITY.md; then
      echo "metric $name is not documented in docs/OBSERVABILITY.md" >&2
      exit 1
    fi
  done < docs/metrics_schema.golden

  echo "== observability: trace dump smoke test =="
  ./build/examples/trace_dump > /dev/null

  echo "== disk-efficiency baselines =="
  # Re-runs the I/O-sensitive benches and fails if disk references or arm
  # travel regressed >10% against the committed bench/baselines/*.json.
  scripts/bench_baseline.sh --check
fi

if [[ "$mode" != "--plain-only" ]]; then
  echo "== sanitized build (address,undefined) =="
  run_suite build-asan -DRHODOS_SANITIZE=address,undefined
fi

echo "All checks passed."
