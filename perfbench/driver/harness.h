// Shared plumbing of the repo benchmark: seeded key choice, host clocks,
// counter deltas, the per-round result record and the trace fold.
//
// A run of the benchmark is a sequence of ROUNDS. Each round builds a fresh
// facility from the seed, preloads it, drives a fixed number of operations
// through the public API (the timed phase), and checks every output against
// an oracle. A round's op sequence depends only on the seed, so on the
// single-threaded workloads every sim-clock figure repeats exactly from
// round to round; host figures are reported as the median over rounds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "core/facility.h"
#include "obs/trace.h"

namespace rhodos::perfbench {

// --- Deterministic inputs ----------------------------------------------------

// splitmix64: the benchmark's only source of randomness, so inputs are a
// pure function of the seed (no implementation-defined distributions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  // Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Zipf-skewed choice over n items whose popularity order is a seeded
// permutation, so different seeds make different items hot.
class SkewedPicker {
 public:
  SkewedPicker(std::uint64_t n, double exponent, std::uint64_t seed);
  std::uint64_t Pick(Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<std::uint64_t> perm_;
};

// Deterministic content for (key, generation, block): every write carries
// bytes the oracle can recompute.
void FillPattern(std::uint64_t key, std::uint64_t generation,
                 std::uint64_t block, std::uint8_t* out, std::size_t n);

// --- Host clocks -------------------------------------------------------------

// CPU seconds of the whole process (user + system, every thread): the
// host cost of the simulation, steadier than wall time on a shared host.
double ProcessCpuSeconds();
// CPU microseconds of the calling thread: per-op host time, which leaves
// out time the thread sat descheduled or blocked (lock waits are reported
// on their own, as lock.wait_host_us_per_commit).
double ThreadCpuMicros();
// Monotonic wall time in microseconds.
double WallMicros();
// CPU seconds a fixed probe of host speed takes right now: random updates
// over a 16 MiB table plus string hashing, the two kinds of host work the
// simulator does most. The shared host's speed drifts by up to a third
// over minutes; the driver scales each round's host figures by
// kCalibrationSeconds / (probe time around the round), so they read as if
// measured on a host where the probe takes kCalibrationSeconds.
double CalibrationCpuSeconds();
inline constexpr double kCalibrationSeconds = 0.08;
// Peak resident set of the process, MiB.
double PeakRssMib();

// --- Counters ----------------------------------------------------------------

// One StatsSnapshot() flattened by name: counters, gauges, and for each
// histogram "<name>.count" and "<name>.sum".
using Counters = std::map<std::string, double>;
Counters ReadCounters(core::DistributedFileFacility& f);
// after - before, key by key (gauges included; callers read what they mean).
Counters Delta(const Counters& before, const Counters& after);
double At(const Counters& c, const std::string& name);

// Outstanding callback promises across every file-service shard.
double CallbackHolders(core::DistributedFileFacility& f);

// --- Trace fold --------------------------------------------------------------

// Per-layer self sim time, folded op by op: a span's duration minus the
// union of its children's intervals.
struct TraceFold {
  // op class -> layer -> self sim ns, summed over that class's ops.
  std::map<std::string, std::map<std::string, SimTime>> self_ns;
  std::map<std::string, std::uint64_t> ops;  // op class -> traced ops
  std::vector<obs::Trace> kept;              // first traces, written out
  std::size_t keep_limit = 2000;

  void Fold(const std::string& op_class, const obs::Trace& trace);
};

// Wraps one driver op in a root span when tracing is on, and folds the
// finished trace. No-op when `fold` is null.
class OpSpan {
 public:
  OpSpan(core::DistributedFileFacility& f, TraceFold* fold,
         const char* op_class);
  ~OpSpan();
  OpSpan(const OpSpan&) = delete;
  OpSpan& operator=(const OpSpan&) = delete;

 private:
  obs::TraceRecorder* tracer_ = nullptr;
  TraceFold* fold_;
  const char* op_class_;
  obs::TraceId trace_ = 0;
  obs::SpanId root_ = obs::kNoSpan;
};

// --- One round ---------------------------------------------------------------

struct RoundSpec {
  std::uint64_t seed = 1;
  bool traced = false;
  // Driver threads: 1 except for txn-ledger's committers. A traced round
  // uses one, because the trace recorder holds one active trace.
  int threads = 1;
  // txn-ledger only: transfers each committer runs between quiet points
  // (0 = never quiet), and the lock timeout LT (see txn_ledger.cc).
  std::uint64_t ledger_batch = 64;
  std::uint64_t lock_lt_ms = 1000;
};

struct RoundResult {
  RoundSpec spec;

  // Correctness.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // failed, refused or aborted ops
  std::uint64_t wrong = 0;   // oracle mismatches (reads, balances, recovery)
  std::vector<std::string> errors;  // first few of each kind, for the report

  // Host clock.
  double setup_cpu_s = 0;
  double timed_cpu_s = 0;
  std::vector<double> op_host_us;  // every timed op, all classes

  // Sim clock (timed phase).
  SimTime sim_elapsed = 0;
  std::uint64_t ops = 0;  // completed ops (ledger: commits)
  std::map<std::string, std::vector<SimTime>> sim_latency;  // by op class

  // End-of-round extras (0 where the workload has none).
  SimTime recovery_sim = 0;
  double recovery_host_ms = 0;
  double space_amplification = 0;

  // Per-layer inputs: facility counter deltas over the timed phase, plus
  // driver-side counts and driver-timed samples.
  Counters delta;
  Counters driver;
  std::map<std::string, std::vector<double>> host_samples;

  TraceFold trace;

  // Set by the driver when the round ends, after which it may release the
  // raw samples above so memory stays flat however many rounds run.
  double host_scale = 1;  // kCalibrationSeconds / probe time around it
  double host_p50_us = 0, host_p99_us = 0, host_p99_rank = 0;
  std::string sim_fingerprint;

  void Wrong(std::string what);
  void Fail(std::string what);
  void ReleaseSamples();
};

}  // namespace rhodos::perfbench
