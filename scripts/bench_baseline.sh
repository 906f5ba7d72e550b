#!/usr/bin/env bash
# Disk- and network-efficiency regression gate.
#
# Every bench binary writes <binary>.metrics.json (the drained facility
# metrics). This script runs the I/O- and message-sensitive benches and
# snapshots the counters that measure disk and network efficiency —
# references, arm travel, fragments read, track-cache hits, bus
# exchanges, writeback batches, peer serving —
# into bench/baselines/<bench>.json:
#
#   scripts/bench_baseline.sh            # (re)record the baselines
#   scripts/bench_baseline.sh --check    # fail if any counter regressed >10%
#
# The baselines are committed, and `--check` (which scripts/check.sh runs)
# knows which way each counter is better. A lower-is-better counter (disk
# references, seeks, exchanges) fails above 1.10x its recorded value; a
# higher-is-better one (peer serves, redirects, track-cache hits: work kept
# off the origin or off the platter) fails below 0.90x. So batching/elevator
# wins, the track cache and the cache tier's peer-serve path cannot silently
# rot. Improvements should be re-recorded.
set -euo pipefail

cd "$(dirname "$0")/.."

BENCHES=(bench_contiguous_read bench_fault_recovery bench_striping bench_group_commit bench_messages_per_op bench_client_cache bench_replica_faults bench_shard_scaling bench_callback_storm bench_snapshot bench_read_fanout)
BUILD=build
BASELINES=bench/baselines

mode="record"
if [[ "${1:-}" == "--check" ]]; then
  mode="check"
  shift
fi
if [[ $# -gt 0 ]]; then
  BENCHES=("$@")
fi

mkdir -p "$BASELINES"

gate() {
  # gate extract <metrics.json> <out.json>         — pull the gated counters
  # gate compare <bench> <baseline.json> <current.json> — fail on regression
  python3 - "$@" <<'EOF'
import json, sys

# The one gate table: counter -> the direction in which it is better.
KEYS = {
    "disk.read_references": "lower",
    "disk.write_references": "lower",
    "disk.tracks_seeked": "lower",
    "txn.log.forces": "lower",
    "bus.calls": "lower",
    "agent.writeback_batches": "lower",
    "replication.degraded_writes": "lower",
    "replication.hints_queued": "lower",
    "replication.read_repairs": "lower",
    "placement.lookups": "lower",
    "placement.reroutes": "lower",
    "file.callback_breaks": "lower",
    "agent.callback_renewals": "lower",
    "file.cow_blocks_copied": "lower",
    "disk.fragments_read": "lower",
    "disk.cache.hits": "higher",
    "agent.peer_serves": "higher",
    "file.redirects_issued": "higher",
}
TOLERANCE = 0.10

if sys.argv[1] == "extract":
    with open(sys.argv[2]) as f:
        counters = json.load(f).get("counters", {})
    picked = {k: int(counters.get(k, 0)) for k in KEYS}
    with open(sys.argv[3], "w") as f:
        json.dump(picked, f, indent=2, sort_keys=True)
        f.write("\n")
    sys.exit(0)

bench, base_path, cur_path = sys.argv[2:5]
with open(base_path) as f:
    base = json.load(f)
with open(cur_path) as f:
    cur = json.load(f)
failed = False
for key, base_value in sorted(base.items()):
    value = cur.get(key, 0)
    better = KEYS.get(key, "lower")
    if better == "lower":
        regressed = value > base_value * (1 + TOLERANCE)
    else:
        regressed = value < base_value * (1 - TOLERANCE)
    failed |= regressed
    status = "REGRESSED" if regressed else "ok"
    print(f"  {bench}: {key} ({better} is better) baseline={base_value} "
          f"now={value} [{status}]")
if failed:
    sys.exit(1)
EOF
}

fail=0
for bench in "${BENCHES[@]}"; do
  bin="$BUILD/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build the benches first (cmake --build $BUILD)" >&2
    exit 2
  fi
  echo "== $bench =="
  "$bin" >/dev/null 2>&1 || {
    echo "$bench run failed" >&2
    exit 1
  }
  metrics="$bin.metrics.json"
  if [[ ! -f "$metrics" ]]; then
    echo "$bench did not write $metrics" >&2
    exit 1
  fi
  if [[ "$mode" == "record" ]]; then
    gate extract "$metrics" "$BASELINES/$bench.json"
    echo "  recorded $BASELINES/$bench.json"
  else
    if [[ ! -f "$BASELINES/$bench.json" ]]; then
      echo "  no baseline for $bench — run scripts/bench_baseline.sh first" >&2
      exit 2
    fi
    gate extract "$metrics" "$BUILD/$bench.current.json"
    gate compare "$bench" "$BASELINES/$bench.json" \
      "$BUILD/$bench.current.json" || fail=1
  fi
done

if [[ "$mode" == "check" ]]; then
  if [[ $fail -ne 0 ]]; then
    echo "efficiency baselines regressed (>10% the worse way)" >&2
    exit 1
  fi
  echo "efficiency baselines hold."
fi
