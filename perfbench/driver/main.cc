// The repo benchmark driver.
//
//   perfbench --workload <hot-file-crowd|small-file-churn|txn-ledger>
//             --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//             [--ledger-batch <n>] [--lock-lt-ms <n>]
//
// Runs rounds of one workload (see harness.h) until the rounds have taken
// --seconds of wall time, at least three of them. A calibration probe runs
// between rounds and scales each round's host figures (harness.h). With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
// untraced rounds (counter deltas) with traced rounds (per-layer self sim
// time) and reports the per-layer metrics. Human-readable lines come first;
// the last line of stdout is one JSON object. Exit code 1 on any wrong
// result.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "driver/workloads.h"

namespace rhodos::perfbench {
namespace {

constexpr int kMinRounds = 3;
// txn-ledger committer threads. Fewer than the 4 cores of the reference
// host: with 4, per-op host CPU split into two modes run to run (12 %
// spread) as the committers competed with the rest of the host.
constexpr int kCommitters = 3;
constexpr const char* kLayers[] = {"agent", "rpc",  "bus", "service",
                                   "file",  "disk", "lock", "txn"};

struct Workload {
  const char* name;
  RoundResult (*run)(const RoundSpec&);
  // Sim figures repeat exactly per seed (single-threaded drivers).
  bool deterministic;
};

const Workload kWorkloads[] = {
    {"hot-file-crowd", RunHotFileCrowd, true},
    {"small-file-churn", RunSmallFileChurn, true},
    {"txn-ledger", RunTxnLedger, false},
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile. A tail percentile is lowered to the highest one
// that still has ten samples beyond it; `used` reports which was taken.
double Percentile(std::vector<double> v, double p, double* used = nullptr) {
  if (v.empty()) {
    if (used != nullptr) *used = p;
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  if (p > 0.5) {
    p = std::max(0.5, std::min(p, std::floor((1 - 10 / n) * 100) / 100));
  }
  if (used != nullptr) *used = p;
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::vector<double> ToMs(const std::vector<SimTime>& v) {
  std::vector<double> out;
  out.reserve(v.size());
  for (SimTime t : v) out.push_back(static_cast<double>(t) / kSimMillisecond);
  return out;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Every reported number: name, value, unit, and the base it was taken on.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;
};

void Print(const Metric& m) {
  std::printf("  %-38s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.base.c_str());
}

std::string Fmt(const char* f, double a, double b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

// A sim latency distribution: p50 and the supported tail, with counts.
void SimLatency(std::vector<Metric>& out, const RoundResult& r,
                const std::string& op_class, const std::string& prefix,
                bool p50) {
  const auto it = r.sim_latency.find(op_class);
  const std::vector<double> ms =
      it == r.sim_latency.end() ? std::vector<double>{} : ToMs(it->second);
  const double n = static_cast<double>(ms.size());
  if (p50) {
    out.push_back({prefix + "_p50_sim_ms", Percentile(ms, 0.5), "ms",
                   Fmt("(p50 of n=%.0f)", n)});
  }
  double used = 0;
  const double tail = Percentile(ms, 0.99, &used);
  out.push_back({prefix + "_p99_sim_ms", tail, "ms",
                 Fmt("(p%.0f of n=%.0f)", used * 100, n)});
}

// The gated end-to-end metrics (BENCHMARK.json), over the primary rounds.
// Host figures are medians over rounds of CPU time scaled by the round's
// calibration probe (harness.h); sim figures repeat per seed.
std::vector<Metric> EndToEnd(const std::vector<const RoundResult*>& rounds) {
  std::vector<double> ops_host, p50, setup, sim_rate, scale;
  for (const RoundResult* r : rounds) {
    ops_host.push_back(
        Ratio(static_cast<double>(r->ops), r->timed_cpu_s * r->host_scale));
    p50.push_back(r->host_p50_us * r->host_scale);
    setup.push_back(r->setup_cpu_s * r->host_scale);
    sim_rate.push_back(Ratio(static_cast<double>(r->ops),
                             static_cast<double>(r->sim_elapsed) / kSimSecond));
    scale.push_back(r->host_scale);
  }
  const RoundResult& r0 = *rounds.front();
  const double k = static_cast<double>(rounds.size());
  std::printf("  host figures: CPU time x %.3f (median calibration scale)\n",
              Median(scale));
  return {
      {"ops_per_sim_s", Median(sim_rate), "ops/s",
       Fmt("(%.0f ops per round / sim s, median of %.0f rounds)",
           static_cast<double>(r0.ops), k)},
      {"ops_per_host_s", Median(ops_host), "ops/s",
       Fmt("(completed ops / scaled process CPU s, median of %.0f rounds)",
           k)},
      {"op_p50_host_us", Median(p50), "us",
       Fmt("(scaled p50 of n=%.0f per round, median of %.0f rounds)",
           static_cast<double>(r0.op_host_us.size()), k)},
      {"setup_s", Median(setup), "s",
       Fmt("(scaled process CPU s, median of %.0f set-ups)", k)},
      {"peak_rss_mib", PeakRssMib(), "MiB", "(process peak)"},
  };
}

// End-to-end figures printed but not gated: each applies to only some
// workloads, or spreads too widely run to run on a shared host (see
// README.md).
std::vector<Metric> WorkloadExtras(
    const Workload& w, const std::vector<const RoundResult*>& primary,
    const std::vector<RoundResult>& rounds) {
  const RoundResult& r0 = *primary.front();
  std::vector<double> p99;
  double used99 = 0;
  for (const RoundResult* r : primary) {
    p99.push_back(r->host_p99_us * r->host_scale);
    used99 = r->host_p99_rank;
  }
  std::vector<Metric> m = {
      {"op_p99_host_us", Median(p99), "us",
       Fmt("(scaled p%.0f of n=%.0f per round, median of rounds)",
           used99 * 100, static_cast<double>(r0.op_host_us.size()))}};
  if (w.deterministic) {
    SimLatency(m, r0, "read", "read", true);
    SimLatency(m, r0, "write", "write", true);
  }
  if (r0.sim_latency.count("meta") != 0) {
    SimLatency(m, r0, "meta", "meta", false);
  }
  std::uint64_t attempted = 0, bad = 0;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    bad += r.failed + r.wrong;
  }
  m.push_back({"failed_op_share",
               Ratio(static_cast<double>(bad), static_cast<double>(attempted)),
               "ratio",
               Fmt("(%.0f failed or wrong / %.0f attempted)",
                   static_cast<double>(bad), static_cast<double>(attempted))});
  if (r0.recovery_sim > 0) {
    m.push_back({"recovery_sim_ms",
                 static_cast<double>(r0.recovery_sim) / kSimMillisecond, "ms",
                 "(RecoverServers after the final crash)"});
  }
  if (r0.space_amplification > 0) {
    m.push_back({"space_amplification", r0.space_amplification, "ratio",
                 "(allocated disk bytes / live user bytes)"});
  }
  return m;
}

std::vector<Metric> PerLayer(const std::vector<RoundResult>& rounds) {
  // Counter deltas and driver counts from the first round (untraced, at the
  // workload's own thread count).
  const RoundResult& r = rounds.front();
  auto d = [&](const char* name) { return At(r.delta, name); };
  auto drv = [&](const char* name) { return At(r.driver, name); };
  auto med = [&](const char* name) {
    const auto it = r.host_samples.find(name);
    return it == r.host_samples.end() ? 0.0 : Median(it->second);
  };
  const double ops = static_cast<double>(r.ops);
  const double reads = drv("reads"), writes = drv("writes");
  const double commits = d("txn.commits");
  const double redirects = d("file.redirects_issued");
  const double refs = d("disk.read_references") + d("disk.write_references");
  std::vector<Metric> m;
  auto ratio = [&](const char* name, double num, double den, const char* unit,
                   const char* num_label, const char* den_label) {
    m.push_back({name, Ratio(num, den), unit,
                 Fmt(("(%.0f " + std::string(num_label) + " / %.0f " +
                      den_label + ")")
                         .c_str(),
                     num, den)});
  };
  ratio("agent.zero_exchange_read_share", drv("zero_exchange_reads"), reads,
        "ratio", "reads without a bus call", "reads");
  ratio("agent.cache_hit_ratio", d("agent.cache.hits"),
        d("agent.cache.hits") + d("agent.cache.misses"), "ratio", "hits",
        "block lookups");
  ratio("agent.peer_fetch_ratio", d("agent.peer_fetches"), redirects, "ratio",
        "peer fetches", "redirects");
  ratio("agent.peer_fallbacks_per_redirect", d("agent.peer_fallbacks"),
        redirects, "ratio", "fallbacks", "redirects");
  ratio("agent.writeback_batches_per_write", d("agent.writeback_batches"),
        writes, "ratio", "batches", "write ops");
  ratio("agent.name_cache_hit_ratio", d("agent.name_cache_hits"),
        drv("name_opens"), "ratio", "name-cache hits", "opens by name");
  ratio("file.callback_grants_per_read", d("file.callback_grants"), reads,
        "ratio", "grants", "reads");
  m.push_back({"file.callback_holders_peak", drv("callback_holders_peak"),
               "count", "(sampled before writes / every 1024 ops)"});
  ratio("file.callback_breaks_per_write", d("file.callback_breaks"), writes,
        "ratio", "breaks", "write ops");
  ratio("file.redirects_per_read", redirects, reads, "ratio", "redirects",
        "reads");
  ratio("bus.calls_per_op", d("bus.calls"), ops, "ratio", "bus calls", "ops");
  ratio("bus.kib_per_op", d("bus.bytes_moved") / 1024, ops, "KiB", "KiB moved",
        "ops");
  ratio("bus.sim_ms_per_op", d("bus.time_charged_ns") / kSimMillisecond, ops,
        "ms", "sim ms charged", "ops");
  ratio("bus.host_us_per_call", r.timed_cpu_s * 1e6, d("bus.calls"), "us",
        "timed-phase CPU us", "bus calls");
  ratio("rpc.retries_per_call", d("rpc.retries"), d("rpc.calls"), "ratio",
        "retries", "rpc calls");
  ratio("placement.lookups_per_op", d("placement.lookups"), ops, "ratio",
        "lookups", "ops");
  m.push_back({"placement.reroutes", d("placement.reroutes"), "count",
               "(timed phase)"});
  ratio("naming.index_probes_per_resolve", d("naming.index_probes"),
        drv("naming_resolutions"), "ratio", "index probes", "resolutions");
  m.push_back({"naming.resolve_host_us", med("naming.resolve_host_us"), "us",
               "(median of driver-timed ResolveFile)"});
  ratio("file.cache_hit_ratio", d("file.cache.hits"),
        d("file.cache.hits") + d("file.cache.misses"), "ratio", "hits",
        "block-pool lookups");
  ratio("file.readahead_hit_ratio", d("file.readahead_hits"),
        d("file.readahead_issued"), "ratio", "read-ahead hits",
        "read-ahead issued");
  ratio("file.fit_loads_per_op", d("file.fit_loads"), ops, "ratio",
        "FIT loads", "ops");
  ratio("disk.read_refs_per_op", d("disk.read_references"), ops, "ratio",
        "read refs", "ops");
  ratio("disk.write_refs_per_op", d("disk.write_references"), ops, "ratio",
        "write refs", "ops");
  ratio("disk.bytes_written_per_user_byte",
        d("disk.fragments_written") * kFragmentSize, drv("user_bytes_written"),
        "ratio", "disk bytes written", "user bytes written");
  ratio("disk.tracks_seeked_per_ref", d("disk.tracks_seeked"), refs, "ratio",
        "tracks seeked", "references");
  ratio("disk.track_cache_hit_ratio", d("disk.cache.hits"),
        d("disk.cache.hits") + d("disk.cache.misses"), "ratio", "hits",
        "track-cache lookups");
  ratio("disk.busy_sim_ms_per_op", d("disk.time_charged_ns") / kSimMillisecond,
        ops, "ms", "disk sim ms", "ops");
  ratio("disk.free_space.array_hit_ratio", d("disk.free_space.array_hits"),
        d("disk.free_space.array_hits") + d("disk.free_space.array_misses"),
        "ratio", "array hits", "allocations");
  ratio("disk.stable.write_refs_per_commit",
        d("disk.stable.write_references"), commits, "ratio",
        "stable write refs", "commits");
  ratio("txn.log.forces_per_commit", d("txn.log.forces"), commits, "ratio",
        "log forces", "commits");
  ratio("txn.group_commit.records_per_batch", d("txn.group_commit.records"),
        d("txn.group_commit.batches"), "ratio", "records", "batches");
  ratio("txn.commit_sim_ms",
        d("txn.commit_latency_ns.sum") / kSimMillisecond,
        d("txn.commit_latency_ns.count"), "ms", "commit sim ms", "commits");
  ratio("lock.waits_per_commit", d("lock.waits"), commits, "ratio", "waits",
        "commits");
  ratio("lock.wait_host_us_per_commit", d("lock.wait_time_ns") / 1e3, commits,
        "us", "host us waited", "commits");
  m.push_back({"txn.end_host_us", med("txn.end_host_us"), "us",
               "(median of driver-timed End)"});
  m.push_back({"lock.breaks", d("lock.breaks"), "count", "(timed phase)"});
  m.push_back({"txn.aborts_broken", d("txn.aborts_broken"), "count",
               "(timed phase)"});
  m.push_back({"txn.recovered_redone", drv("recovered_redone"), "count",
               "(after the final crash)"});
  m.push_back({"recovery.host_ms", r.recovery_host_ms, "ms",
               "(driver-timed RecoverServers)"});

  // Traced rounds: per-layer self sim time, and the tracing overhead
  // against untraced rounds run with the same thread count.
  std::map<std::string, double> self_ns;
  double traced_ops = 0;
  std::vector<double> traced_cpu, plain_cpu;
  int traced_threads = 0;
  for (const RoundResult& t : rounds) {
    if (!t.spec.traced) continue;
    traced_threads = t.spec.threads;
    traced_cpu.push_back(
        Ratio(t.timed_cpu_s * t.host_scale, static_cast<double>(t.ops)));
    if (traced_ops > 0) continue;  // fold the first traced round only
    for (const auto& [cls, n] : t.trace.ops) {
      traced_ops += static_cast<double>(n);
    }
    for (const auto& [cls, layers] : t.trace.self_ns) {
      for (const auto& [layer, ns] : layers) {
        self_ns[layer] += static_cast<double>(ns);
      }
    }
  }
  for (const RoundResult& t : rounds) {
    if (t.spec.traced || t.spec.threads != traced_threads) continue;
    plain_cpu.push_back(
        Ratio(t.timed_cpu_s * t.host_scale, static_cast<double>(t.ops)));
  }
  for (const char* layer : kLayers) {
    ratio((std::string(layer) + ".self_sim_us_per_op").c_str(),
          self_ns[layer] / kSimMicrosecond, traced_ops, "us", "self sim us",
          "traced ops");
  }
  m.push_back({"trace.overhead_ratio",
               Ratio(Median(traced_cpu), Median(plain_cpu)), "ratio",
               Fmt("(traced %.2f / untraced %.2f scaled CPU us per op)",
                   Median(traced_cpu) * 1e6, Median(plain_cpu) * 1e6)});
  return m;
}

// Per op class: each layer's self sim time per op, from the traced rounds.
void PrintTraceTable(const std::vector<RoundResult>& rounds) {
  for (const RoundResult& t : rounds) {
    if (!t.spec.traced) continue;
    std::printf("per-layer self sim time, us per op (traced round, one "
                "driver thread):\n");
    std::printf("  %-10s %8s", "op class", "ops");
    std::vector<std::string> layers = {"bench"};
    for (const char* l : kLayers) layers.push_back(l);
    for (const std::string& l : layers) std::printf(" %9s", l.c_str());
    std::printf("\n");
    for (const auto& [cls, n] : t.trace.ops) {
      std::printf("  %-10s %8llu", cls.c_str(),
                  static_cast<unsigned long long>(n));
      const auto& by_layer = t.trace.self_ns.at(cls);
      for (const std::string& l : layers) {
        const auto it = by_layer.find(l);
        const double ns =
            it == by_layer.end() ? 0 : static_cast<double>(it->second);
        std::printf(" %9.2f", ns / kSimMicrosecond / static_cast<double>(n));
      }
      std::printf("\n");
    }
    return;
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Writes the kept spans of the first traced round, one trace per line.
void WriteSpans(const std::string& path,
                const std::vector<RoundResult>& rounds) {
  std::ofstream out(path);
  for (const RoundResult& t : rounds) {
    if (!t.spec.traced) continue;
    for (const obs::Trace& trace : t.trace.kept) {
      out << "{\"trace\":" << trace.id << ",\"spans\":[";
      for (std::size_t i = 0; i < trace.spans.size(); ++i) {
        const obs::Span& s = trace.spans[i];
        out << (i ? "," : "") << "{\"id\":" << s.id << ",\"parent\":"
            << s.parent << ",\"layer\":\"" << JsonEscape(s.layer)
            << "\",\"name\":\"" << JsonEscape(s.name) << "\",\"start_ns\":"
            << s.start << ",\"end_ns\":" << s.end << "}";
      }
      out << "]}\n";
    }
    return;
  }
}

// Sim-clock fingerprint of a round: identical for every round of a
// deterministic workload and seed.
std::string SimFingerprint(const RoundResult& r) {
  std::string fp = std::to_string(r.sim_elapsed) + "/" + std::to_string(r.ops);
  for (const auto& [cls, v] : r.sim_latency) {
    SimTime sum = 0;
    for (SimTime t : v) sum += t;
    fp += "/" + cls + ":" + std::to_string(v.size()) + ":" +
          std::to_string(sum);
  }
  for (const auto& [name, v] : r.delta) {
    fp += "/" + name + "=" + Fmt("%.17g", v);
  }
  fp += "/rec:" + std::to_string(r.recovery_sim);
  return fp;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <hot-file-crowd|small-file-churn|"
               "txn-ledger> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>] [--ledger-batch <n>] [--lock-lt-ms <n>]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1 || args.count("workload") == 0) return Usage();
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (args["workload"] == c.name) w = &c;
  }
  if (w == nullptr) return Usage();
  const std::uint64_t seed = std::strtoull(
      args.count("seed") ? args["seed"].c_str() : "1", nullptr, 10);
  const double seconds =
      std::atof(args.count("seconds") ? args["seconds"].c_str() : "10");
  const bool trace = args.count("trace") && args["trace"] == "1";
  const std::uint64_t ledger_batch = std::strtoull(
      args.count("ledger-batch") ? args["ledger-batch"].c_str() : "64",
      nullptr, 10);
  const std::uint64_t lock_lt_ms = std::strtoull(
      args.count("lock-lt-ms") ? args["lock-lt-ms"].c_str() : "1000",
      nullptr, 10);

  // In trace mode the rounds cycle through an untraced round (counter
  // deltas), a traced one, and — where the traced round uses fewer threads
  // than the workload — an untraced round at that thread count, the
  // baseline of the tracing overhead.
  const int threads = w->deterministic ? 1 : kCommitters;
  std::vector<RoundSpec> cycle = {
      RoundSpec{seed, false, threads, ledger_batch, lock_lt_ms}};
  if (trace) {
    cycle.push_back(RoundSpec{seed, true, 1, ledger_batch, lock_lt_ms});
    if (threads != 1) {
      cycle.push_back(RoundSpec{seed, false, 1, ledger_batch, lock_lt_ms});
    }
  }
  std::vector<RoundResult> rounds;
  const double wall0 = WallMicros();
  CalibrationCpuSeconds();  // first call builds the probe's table
  double probe = CalibrationCpuSeconds();
  while (rounds.size() < std::max<std::size_t>(kMinRounds, cycle.size()) ||
         (WallMicros() - wall0) / 1e6 < seconds) {
    const RoundSpec& spec = cycle[rounds.size() % cycle.size()];
    rounds.push_back(w->run(spec));
    RoundResult& r = rounds.back();
    r.spec = spec;
    const double probe_after = CalibrationCpuSeconds();
    r.host_scale = kCalibrationSeconds / ((probe + probe_after) / 2);
    probe = probe_after;
    r.host_p50_us = Percentile(r.op_host_us, 0.5);
    r.host_p99_us = Percentile(r.op_host_us, 0.99, &r.host_p99_rank);
    r.sim_fingerprint = SimFingerprint(r);
    // Later rounds keep only their summaries; the first round and the
    // first traced round keep their samples for the per-layer report.
    if (rounds.size() > cycle.size()) r.ReleaseSamples();
    std::fprintf(stderr,
                 "round %zu: setup %.3f s, timed %.3f s CPU, %llu ops, "
                 "op host p50 %.2f us p99 %.2f us, host scale %.3f\n",
                 rounds.size(), r.setup_cpu_s, r.timed_cpu_s,
                 static_cast<unsigned long long>(r.ops), r.host_p50_us,
                 r.host_p99_us, r.host_scale);
    if (r.ops == 0) break;
  }

  std::uint64_t attempted = 0, failed = 0, wrong = 0;
  std::vector<std::string> errors;
  for (const RoundResult& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
    wrong += r.wrong;
    for (const std::string& e : r.errors) {
      if (errors.size() < 16) errors.push_back(e);
    }
  }
  bool correct = wrong == 0 && rounds.front().ops > 0;
  if (w->deterministic) {
    // Same seed, same op sequence: every round, traced or not, must
    // reproduce the first one's sim clock exactly.
    for (const RoundResult& r : rounds) {
      if (r.sim_fingerprint == rounds.front().sim_fingerprint) continue;
      correct = false;
      errors.push_back("sim-clock figures differ between rounds of one seed");
      break;
    }
  }

  std::printf("workload %s, seed %llu, %zu rounds, %s\n", w->name,
              static_cast<unsigned long long>(seed), rounds.size(),
              trace ? "traced (per-layer metrics)"
                    : "untraced (end-to-end metrics)");
  for (const std::string& e : errors) std::printf("  %s\n", e.c_str());
  std::printf("end to end:\n");
  std::vector<const RoundResult*> primary;
  for (const RoundResult& r : rounds) {
    if (!r.spec.traced && r.spec.threads == threads) primary.push_back(&r);
  }
  const std::vector<Metric> e2e = EndToEnd(primary);
  for (const Metric& m : e2e) Print(m);
  for (const Metric& m : WorkloadExtras(*w, primary, rounds)) Print(m);
  std::vector<Metric> reported = e2e;
  if (trace) {
    std::printf("per layer:\n");
    reported = PerLayer(rounds);
    for (const Metric& m : reported) Print(m);
    PrintTraceTable(rounds);
    if (args.count("spans")) WriteSpans(args["spans"], rounds);
  }
  std::printf("sim fingerprint: %s\n", rounds.front().sim_fingerprint.c_str());

  std::string json = "{\"correct\": " +
                     std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed + wrong) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + reported[i].name +
            "\": {\"value\": " + Fmt("%.17g", reported[i].value) +
            ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rhodos::perfbench

int main(int argc, char** argv) { return rhodos::perfbench::Main(argc, argv); }
