// small-file-churn: the storage workload whose working set exceeds memory.
//
// 4096 files of 32 KiB (128 MiB) on 4 file shards, 4 naming shards and 4
// disks. Every cache is far smaller than the data: agent cache 512 KiB per
// machine, block pool 2 MiB per shard, track cache 1 MiB per disk. So the
// work lands in placement, naming, file (FIT loads, block-pool misses) and
// disk (references, seeks, free-space allocation). Callbacks see few holders
// per file; the cache tier and txn are not used. Four clients, one lane
// each, drive a skewed mix of read, write, delete/re-create and resolve ops.
// The round ends with a server crash and recovery, then re-reads every file:
// sharded services write through, so every closed file must survive.
#include <algorithm>
#include <array>
#include <cstring>
#include <unordered_set>
#include <vector>

#include "driver/workloads.h"
#include "sim/parallel.h"

namespace rhodos::perfbench {
namespace {

constexpr std::uint32_t kShards = 4;  // file shards = naming shards = disks
constexpr std::uint64_t kFiles = 4096;
constexpr std::uint64_t kFileBlocks = 4;  // 32 KiB
constexpr std::uint64_t kFileBytes = kFileBlocks * kBlockSize;
constexpr std::uint64_t kDiskFragments = 24 * 1024;  // 48 MiB per disk
constexpr std::uint64_t kOps = 24'000;               // per round
constexpr double kKeySkew = 0.8;
// Op mix (cumulative shares).
constexpr double kReadShare = 0.55;
constexpr double kWriteShare = 0.80;
constexpr double kMetaShare = 0.90;  // the rest are naming resolves

enum class Op { kRead, kWrite, kMeta, kResolve };
constexpr const char* kOpClass[] = {"read", "write", "meta", "resolve"};

struct Shadow {
  std::array<std::uint64_t, kFileBlocks> gen{};  // generation per block
  FileId id{};
  bool known = true;  // false after a failed op left the state unknown
};

std::string NameOf(std::uint64_t key) {
  std::string name = std::to_string(key);
  name.insert(name.begin(), 'f');
  return name;
}

void FillFile(std::uint64_t key, const Shadow& s, std::uint8_t* out) {
  for (std::uint64_t b = 0; b < kFileBlocks; ++b) {
    FillPattern(key, s.gen[b], b, out + b * kBlockSize, kBlockSize);
  }
}

// Creates `key` with fresh contents at generation `gen`; returns the id.
Result<FileId> CreateFile(agent::FileAgent& a, std::uint64_t key,
                          std::uint64_t gen, Shadow& s,
                          std::vector<std::uint8_t>& buf) {
  RHODOS_ASSIGN_OR_RETURN(
      ObjectDescriptor od,
      a.Create(naming::ByName(NameOf(key)), file::ServiceType::kBasic,
               kFileBytes));
  s.gen.fill(gen);
  FillFile(key, s, buf.data());
  RHODOS_ASSIGN_OR_RETURN(std::uint64_t n, a.Pwrite(od, 0, buf));
  if (n != kFileBytes) return Error{ErrorCode::kInternal, "short write"};
  RHODOS_ASSIGN_OR_RETURN(FileId id, a.FileOf(od));
  RHODOS_RETURN_IF_ERROR(a.Close(od));
  return id;
}

// Reads `key` whole through `a`; `match` tells whether it equals the shadow.
Status ReadFile(agent::FileAgent& a, std::uint64_t key, const Shadow& s,
                std::vector<std::uint8_t>& buf, std::vector<std::uint8_t>& want,
                bool* match) {
  RHODOS_ASSIGN_OR_RETURN(ObjectDescriptor od,
                          a.Open(naming::ByName(NameOf(key))));
  RHODOS_ASSIGN_OR_RETURN(std::uint64_t n, a.Pread(od, 0, buf));
  RHODOS_RETURN_IF_ERROR(a.Close(od));
  FillFile(key, s, want.data());
  *match = n == kFileBytes &&
           std::memcmp(buf.data(), want.data(), kFileBytes) == 0;
  return OkStatus();
}

}  // namespace

RoundResult RunSmallFileChurn(const RoundSpec& spec) {
  RoundResult r;
  const double setup0 = ProcessCpuSeconds();

  core::FacilityConfig cfg;
  cfg.disk_count = kShards;
  cfg.geometry.total_fragments = kDiskFragments;
  cfg.sharding.file_shards = kShards;
  cfg.sharding.naming_shards = kShards;
  core::DistributedFileFacility f(cfg);

  std::vector<std::uint8_t> buf(kFileBytes), want(kFileBytes);
  std::vector<Shadow> shadow(kFiles);
  std::uint64_t generation = 1;
  {
    core::Machine& loader = f.AddMachine();
    for (std::uint64_t k = 0; k < kFiles; ++k) {
      auto id = CreateFile(*loader.file_agent, k, generation++, shadow[k], buf);
      if (!id.ok()) {
        r.Fail("preload " + NameOf(k) + ": " + id.error().ToString());
        return r;
      }
      shadow[k].id = *id;
    }
  }
  std::array<core::Machine*, kShards> clients{};
  for (auto& c : clients) c = &f.AddMachine();
  r.setup_cpu_s = ProcessCpuSeconds() - setup0;

  Rng rng(spec.seed);
  const SkewedPicker pick(kFiles, kKeySkew, spec.seed);
  TraceFold* fold = spec.traced ? &r.trace : nullptr;
  f.observability().tracer.Enable(spec.traced);

  const Counters before = ReadCounters(f);
  const std::uint64_t resolutions0 = f.naming().stats().resolutions;
  const SimTime sim0 = f.clock().Now();
  const double cpu0 = ProcessCpuSeconds();
  std::uint64_t reads = 0, writes = 0, metas = 0, resolves = 0, opens = 0;
  std::uint64_t user_bytes = 0;
  double holders_peak = 0;

  std::array<std::uint64_t, kShards> lane_key{};
  std::unordered_set<std::uint64_t> taken;
  std::uint64_t done = 0;
  while (done < kOps) {
    if (done % 1024 == 0) {
      holders_peak = std::max(holders_peak, CallbackHolders(f));
    }
    taken.clear();
    for (auto& k : lane_key) {
      do {
        k = pick.Pick(rng);
      } while (!taken.insert(k).second);
    }
    sim::ParallelSection section(&f.clock());
    for (std::uint32_t lane = 0; lane < kShards && done < kOps; ++lane) {
      agent::FileAgent& a = *clients[lane]->file_agent;
      const std::uint64_t key = lane_key[lane];
      Shadow& s = shadow[key];
      const double mix = rng.Unit();
      const Op op = mix < kReadShare    ? Op::kRead
                    : mix < kWriteShare ? Op::kWrite
                    : mix < kMetaShare  ? Op::kMeta
                                        : Op::kResolve;
      const char* op_class = kOpClass[static_cast<int>(op)];
      const std::uint64_t block = rng.Below(kFileBlocks);
      ++r.attempted;
      ++done;
      section.BeginLane();
      const SimTime t0 = f.clock().Now();
      const double h0 = ThreadCpuMicros();
      Status st = OkStatus();
      bool match = true;
      {
        OpSpan span(f, fold, op_class);
        if (op == Op::kRead) {
          ++reads;
          ++opens;
          st = ReadFile(a, key, s, buf, want, &match);
        } else if (op == Op::kWrite) {
          ++writes;
          ++opens;
          const std::uint64_t gen = generation++;
          FillPattern(key, gen, block, buf.data(), kBlockSize);
          auto od = a.Open(naming::ByName(NameOf(key)));
          st = od.ok() ? OkStatus() : Status(od.error());
          if (st.ok()) {
            auto n = a.Pwrite(*od, block * kBlockSize,
                              std::span(buf.data(), kBlockSize));
            if (!n.ok()) st = n.error();
            const Status closed = a.Close(*od);
            if (st.ok()) st = closed;
          }
          if (st.ok()) {
            s.gen[block] = gen;
            user_bytes += kBlockSize;
          }
        } else if (op == Op::kMeta) {
          ++metas;
          st = a.Delete(naming::ByName(NameOf(key)));
          if (st.ok()) {
            auto id = CreateFile(a, key, generation++, s, buf);
            if (id.ok()) {
              s.id = *id;
              user_bytes += kFileBytes;
            } else {
              st = id.error();
            }
          }
        } else {
          ++resolves;
          const double rh0 = ThreadCpuMicros();
          auto id = f.naming().ResolveFile(naming::ByName(NameOf(key)));
          r.host_samples["naming.resolve_host_us"].push_back(ThreadCpuMicros() -
                                                             rh0);
          if (!id.ok()) {
            st = id.error();
          } else {
            match = *id == s.id;
          }
        }
      }
      r.op_host_us.push_back(ThreadCpuMicros() - h0);
      r.sim_latency[op_class].push_back(f.clock().Now() - t0);
      section.EndLane();
      if (!s.known) continue;
      if (!st.ok()) {
        s.known = false;
        r.Fail(std::string(op_class) + " " + NameOf(key) + ": " +
               st.error().ToString());
        continue;
      }
      ++r.ops;
      if (!match) r.Wrong(std::string(op_class) + " " + NameOf(key));
    }
    section.Commit();
  }

  r.timed_cpu_s = ProcessCpuSeconds() - cpu0;
  r.sim_elapsed = f.clock().Now() - sim0;
  f.observability().tracer.Enable(false);
  r.delta = Delta(before, ReadCounters(f));
  r.driver = {{"reads", static_cast<double>(reads)},
              {"writes", static_cast<double>(writes + metas)},
              {"metas", static_cast<double>(metas)},
              {"resolves", static_cast<double>(resolves)},
              {"name_opens", static_cast<double>(opens)},
              {"naming_resolutions",
               static_cast<double>(f.naming().stats().resolutions -
                                   resolutions0)},
              {"callback_holders_peak", holders_peak},
              {"user_bytes_written", static_cast<double>(user_bytes)}};

  const double total_frags =
      static_cast<double>(kShards) * static_cast<double>(kDiskFragments);
  const double used_bytes =
      (total_frags - static_cast<double>(f.disks().TotalFreeFragments())) *
      kFragmentSize;
  r.space_amplification = used_bytes / static_cast<double>(kFiles * kFileBytes);

  // Crash every server, recover, and re-read every acknowledged file from a
  // machine that never cached anything.
  const double redone0 =
      static_cast<double>(f.transactions().stats().recovered_redone);
  f.CrashServers();
  const SimTime rec0 = f.clock().Now();
  const double rech0 = ThreadCpuMicros();
  const Status recovered = f.RecoverServers();
  r.recovery_host_ms = (ThreadCpuMicros() - rech0) / 1e3;
  r.recovery_sim = f.clock().Now() - rec0;
  r.driver["recovered_redone"] =
      static_cast<double>(f.transactions().stats().recovered_redone) - redone0;
  if (!recovered.ok()) {
    r.Wrong("recovery: " + recovered.error().ToString());
    return r;
  }
  core::Machine& audit = f.AddMachine();
  for (std::uint64_t k = 0; k < kFiles; ++k) {
    if (!shadow[k].known) continue;
    bool match = false;
    const Status st =
        ReadFile(*audit.file_agent, k, shadow[k], buf, want, &match);
    if (!st.ok() || !match) {
      r.Wrong("after recovery " + NameOf(k) +
              (st.ok() ? std::string(" bytes differ")
                       : ": " + st.error().ToString()));
    }
  }
  return r;
}

}  // namespace rhodos::perfbench
