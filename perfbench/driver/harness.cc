#include "driver/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

namespace rhodos::perfbench {

SkewedPicker::SkewedPicker(std::uint64_t n, double exponent,
                           std::uint64_t seed)
    : cdf_(n), perm_(n) {
  double total = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
  for (std::uint64_t i = 0; i < n; ++i) perm_[i] = i;
  Rng rng(seed ^ 0x5DEECE66Dull);
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(perm_[i - 1], perm_[rng.Below(i)]);
  }
}

std::uint64_t SkewedPicker::Pick(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), perm_.size() - 1);
  return perm_[rank];
}

void FillPattern(std::uint64_t key, std::uint64_t generation,
                 std::uint64_t block, std::uint8_t* out, std::size_t n) {
  Rng rng((key << 32) ^ (generation << 12) ^ block ^ 0xC0FFEEull);
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t v = rng.Next();
    for (std::size_t b = 0; b < 8 && i + b < n; ++b) {
      out[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

double WallMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CalibrationCpuSeconds() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 21, 1);
  const double t0 = ProcessCpuSeconds();
  Rng rng(7);
  std::uint64_t acc = 0;
  std::string key = "endpoint-0000000";
  for (int i = 0; i < 1'000'000; ++i) {
    std::uint64_t& slot = table[rng.Next() & (table.size() - 1)];
    slot += acc;
    acc ^= slot;
    key[9 + i % 7] = static_cast<char>('0' + acc % 10);
    acc += std::hash<std::string>{}(key);
  }
  volatile std::uint64_t keep = acc;  // the probe's result is used
  (void)keep;
  return ProcessCpuSeconds() - t0;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Counters ReadCounters(core::DistributedFileFacility& f) {
  const obs::MetricsSnapshot snap = f.StatsSnapshot();
  Counters c;
  for (const auto& [name, v] : snap.counters) c[name] = static_cast<double>(v);
  for (const auto& [name, v] : snap.gauges) c[name] = v;
  for (const auto& [name, h] : snap.histograms) {
    c[name + ".count"] = static_cast<double>(h.count);
    c[name + ".sum"] = static_cast<double>(h.sum);
  }
  return c;
}

Counters Delta(const Counters& before, const Counters& after) {
  Counters d;
  for (const auto& [name, v] : after) d[name] = v - At(before, name);
  return d;
}

double At(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

double CallbackHolders(core::DistributedFileFacility& f) {
  std::size_t n = 0;
  for (std::uint32_t s = 0; s < f.file_shard_count(); ++s) {
    n += f.file_server(s).CallbackHolderCount();
  }
  return static_cast<double>(n);
}

void TraceFold::Fold(const std::string& op_class, const obs::Trace& trace) {
  if (trace.spans.empty()) return;
  ++ops[op_class];
  std::unordered_map<obs::SpanId, std::vector<std::pair<SimTime, SimTime>>>
      children;
  for (const obs::Span& s : trace.spans) {
    if (s.parent != obs::kNoSpan) {
      children[s.parent].push_back({s.start, s.end});
    }
  }
  auto& by_layer = self_ns[op_class];
  for (const obs::Span& s : trace.spans) {
    SimTime covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      // Union of the children's intervals, clipped to the parent: lanes of
      // a parallel fan-out overlap, and their overlap is covered once.
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      SimTime cur_start = 0, cur_end = 0;
      bool open = false;
      for (auto [a, b] : iv) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (open && a <= cur_end) {
          cur_end = std::max(cur_end, b);
        } else {
          if (open) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
          open = true;
        }
      }
      if (open) covered += cur_end - cur_start;
    }
    by_layer[s.layer] += std::max<SimTime>(0, (s.end - s.start) - covered);
  }
  if (kept.size() < keep_limit) kept.push_back(trace);
}

OpSpan::OpSpan(core::DistributedFileFacility& f, TraceFold* fold,
               const char* op_class)
    : fold_(fold), op_class_(op_class) {
  if (fold_ == nullptr) return;
  tracer_ = &f.observability().tracer;
  trace_ = tracer_->StartTrace("bench", op_class_);
  const obs::Trace t = tracer_->GetTrace(trace_);
  if (!t.spans.empty()) root_ = t.spans.front().id;
}

OpSpan::~OpSpan() {
  if (tracer_ == nullptr || root_ == obs::kNoSpan) return;
  tracer_->EndSpan(root_);
  fold_->Fold(op_class_, tracer_->GetTrace(trace_));
}

void RoundResult::Wrong(std::string what) {
  if (wrong++ < 4) errors.push_back("wrong: " + std::move(what));
}

void RoundResult::Fail(std::string what) {
  if (failed++ < 4) errors.push_back("failed: " + std::move(what));
}

void RoundResult::ReleaseSamples() {
  std::vector<double>().swap(op_host_us);
  sim_latency.clear();
  host_samples.clear();
  std::vector<obs::Trace>().swap(trace.kept);
}

}  // namespace rhodos::perfbench
