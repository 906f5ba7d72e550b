// hot-file-crowd: the holder-table workload.
//
// Nearly all of its work sits in agent -> bus -> FileServiceServer callback
// tables (Grant, PickPeers, break fan-out); the 512 KiB file fits the origin
// block pool, so disk and txn stay idle. Readers arrive lazily (a reader's
// first op opens the file), and both readers and blocks are Zipf-skewed, so
// a warm core re-reads cached blocks with zero exchanges while the cold tail
// is redirected to peers.
#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "driver/workloads.h"
#include "sim/parallel.h"

namespace rhodos::perfbench {
namespace {

constexpr std::uint64_t kReaders = 10'000;
constexpr std::uint64_t kFileBlocks = 64;  // 512 KiB
constexpr std::uint64_t kLanes = 16;       // reader ops in flight per step
constexpr std::uint64_t kReadsPerWrite = 1'000;
constexpr std::uint64_t kReads = 40'000;   // per round
constexpr double kReaderSkew = 0.9;
constexpr double kBlockSkew = 1.0;

struct Reader {
  core::Machine* machine = nullptr;
  ObjectDescriptor od{};
  bool open = false;
};

}  // namespace

RoundResult RunHotFileCrowd(const RoundSpec& spec) {
  RoundResult r;
  const double setup0 = ProcessCpuSeconds();

  core::FacilityConfig cfg;
  cfg.cache_tier.enabled = true;
  core::DistributedFileFacility f(cfg);

  // The oracle: the generation each block was last written with.
  std::vector<std::uint64_t> shadow(kFileBlocks, 0);
  std::vector<std::uint8_t> buf(kBlockSize), want(kBlockSize);

  core::Machine& writer = f.AddMachine();
  auto wd = writer.file_agent->Create(naming::ByName("hot"),
                                      file::ServiceType::kBasic);
  if (!wd.ok()) {
    r.Fail("create hot file: " + wd.error().ToString());
    return r;
  }
  for (std::uint64_t b = 0; b < kFileBlocks; ++b) {
    FillPattern(0, 0, b, buf.data(), kBlockSize);
    if (!writer.file_agent->Pwrite(*wd, b * kBlockSize, buf).ok()) {
      r.Fail("preload write");
      return r;
    }
  }
  if (!writer.file_agent->Flush(*wd).ok()) {
    r.Fail("preload flush");
    return r;
  }
  std::vector<Reader> readers(kReaders);
  for (Reader& rd : readers) rd.machine = &f.AddMachine();
  r.setup_cpu_s = ProcessCpuSeconds() - setup0;

  Rng rng(spec.seed);
  const SkewedPicker pick(kReaders, kReaderSkew, spec.seed);
  const SkewedPicker pick_block(kFileBlocks, kBlockSkew, spec.seed + 1);
  TraceFold* fold = spec.traced ? &r.trace : nullptr;
  f.observability().tracer.Enable(spec.traced);

  const Counters before = ReadCounters(f);
  const SimTime sim0 = f.clock().Now();
  const double cpu0 = ProcessCpuSeconds();
  double holders_peak = 0;
  std::uint64_t reads = 0, writes = 0, zero_exchange = 0, generation = 0;
  std::uint64_t opens = 0;
  const std::uint64_t resolutions0 = f.naming().stats().resolutions;
  std::uint64_t next_write = kReadsPerWrite;

  auto do_write = [&] {
    ++r.attempted;
    holders_peak = std::max(holders_peak, CallbackHolders(f));
    const std::uint64_t block = rng.Below(kFileBlocks);
    ++generation;
    FillPattern(0, generation, block, buf.data(), kBlockSize);
    const SimTime t0 = f.clock().Now();
    const double h0 = ThreadCpuMicros();
    bool ok;
    {
      OpSpan span(f, fold, "write");
      ok = writer.file_agent->Pwrite(*wd, block * kBlockSize, buf).ok() &&
           writer.file_agent->Flush(*wd).ok();
    }
    r.op_host_us.push_back(ThreadCpuMicros() - h0);
    r.sim_latency["write"].push_back(f.clock().Now() - t0);
    if (!ok) {
      r.Fail("write block " + std::to_string(block));
      return;
    }
    shadow[block] = generation;
    ++writes;
    ++r.ops;
  };

  std::vector<std::uint64_t> lane_reader;
  std::unordered_set<std::uint64_t> taken;
  while (reads < kReads) {
    lane_reader.clear();
    taken.clear();
    while (lane_reader.size() < kLanes) {
      const std::uint64_t who = pick.Pick(rng);
      if (taken.insert(who).second) lane_reader.push_back(who);
    }
    sim::ParallelSection section(&f.clock());
    for (const std::uint64_t who : lane_reader) {
      Reader& rd = readers[who];
      const std::uint64_t block = pick_block.Pick(rng);
      ++r.attempted;
      section.BeginLane();
      const SimTime t0 = f.clock().Now();
      const std::uint64_t calls0 = f.bus().stats().calls;
      const double h0 = ThreadCpuMicros();
      Result<std::uint64_t> n = std::uint64_t{0};
      {
        OpSpan span(f, fold, "read");
        if (!rd.open) {
          ++opens;
          auto od = rd.machine->file_agent->Open(naming::ByName("hot"));
          if (od.ok()) {
            rd.od = *od;
            rd.open = true;
          } else {
            n = od.error();
          }
        }
        if (rd.open) {
          n = rd.machine->file_agent->Pread(rd.od, block * kBlockSize, buf);
        }
      }
      r.op_host_us.push_back(ThreadCpuMicros() - h0);
      if (f.bus().stats().calls == calls0) ++zero_exchange;
      r.sim_latency["read"].push_back(f.clock().Now() - t0);
      section.EndLane();
      ++reads;
      if (!n.ok() || *n != kBlockSize) {
        r.Fail("read block " + std::to_string(block) + " by reader " +
               std::to_string(who));
        continue;
      }
      ++r.ops;
      FillPattern(0, shadow[block], block, want.data(), kBlockSize);
      if (std::memcmp(buf.data(), want.data(), kBlockSize) != 0) {
        r.Wrong("stale or torn read of block " + std::to_string(block) +
                " by reader " + std::to_string(who));
      }
    }
    section.Commit();
    if (reads >= next_write) {
      do_write();
      next_write += kReadsPerWrite;
    }
  }

  r.timed_cpu_s = ProcessCpuSeconds() - cpu0;
  r.sim_elapsed = f.clock().Now() - sim0;
  f.observability().tracer.Enable(false);
  r.delta = Delta(before, ReadCounters(f));
  r.driver = {{"reads", static_cast<double>(reads)},
              {"writes", static_cast<double>(writes)},
              {"zero_exchange_reads", static_cast<double>(zero_exchange)},
              {"callback_holders_peak", holders_peak},
              {"name_opens", static_cast<double>(opens)},
              {"naming_resolutions",
               static_cast<double>(f.naming().stats().resolutions -
                                   resolutions0)},
              {"user_bytes_written", static_cast<double>(writes * kBlockSize)}};

  // Final oracle: a fresh machine reads the whole file.
  core::Machine& audit = f.AddMachine();
  auto ad = audit.file_agent->Open(naming::ByName("hot"));
  for (std::uint64_t b = 0; ad.ok() && b < kFileBlocks; ++b) {
    auto n = audit.file_agent->Pread(*ad, b * kBlockSize, buf);
    FillPattern(0, shadow[b], b, want.data(), kBlockSize);
    if (!n.ok() || *n != kBlockSize ||
        std::memcmp(buf.data(), want.data(), kBlockSize) != 0) {
      r.Wrong("final audit of block " + std::to_string(b));
    }
  }
  if (!ad.ok()) r.Wrong("final audit open: " + ad.error().ToString());
  return r;
}

}  // namespace rhodos::perfbench
