// The benchmark's workloads. Each runs ONE round (fresh facility, preload,
// timed phase, oracle checks) and returns its raw measurements; main.cc
// turns rounds into metrics. Sizes and the reason for each workload are in
// perfbench/README.md.
#pragma once

#include "driver/harness.h"

namespace rhodos::perfbench {

// One 512 KiB file read by 10^4 reader machines under callbacks and the
// cache tier, with one writer breaking every holder now and then.
RoundResult RunHotFileCrowd(const RoundSpec& spec);

// 4096 files of 32 KiB on 4 file shards, 4 naming shards and 4 disks,
// churned by 4 clients: working set far larger than every cache.
RoundResult RunSmallFileChurn(const RoundSpec& spec);

// Transfer transactions over one record-locked file of 256 accounts.
RoundResult RunTxnLedger(const RoundSpec& spec);

}  // namespace rhodos::perfbench
