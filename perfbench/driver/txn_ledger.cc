// txn-ledger: the transaction workload.
//
// Committer threads run transfers against one record-locked file of 256
// accounts: TRead(kForUpdate) both accounts in sorted order, TWrite both,
// End. Account choice is skewed, so record locks contend. This is the only
// workload on `txn` and stable storage; it bypasses agents, bus and
// placement. The oracle recomputes every balance from the committed
// transfers (a lost update at the commit point shows as a mismatch) and
// checks that money is conserved, before and after a server crash.
//
// Quiet points: the committers meet at a barrier every `ledger_batch`
// transfers each. The intention log is checkpointed (truncated) only when
// no transaction is active (TransactionService::Finish), so under unbroken
// commit load from several threads the 512-fragment log fills after a few
// thousand commits; then commits fail with NO_SPACE, some transfers whose
// End reported that error are applied anyway, and RecoverServers itself
// fails on the full log. `--ledger-batch 0` runs without quiet points and
// reproduces those defects (perfbench/selftest.py keeps it as a check).
//
// Lock timeout: the ledger runs with LT = 1 s (`lock_lt_ms`) instead of the
// facility's 50 ms. LT is wall-clock time, so at 50 ms a committer thread
// the host deschedules for a moment trips the timeout rule, and a break at
// the commit point loses an update (the commit-point race in ROADMAP.md).
// That made roughly one 20-second run in thirty fail. `--lock-lt-ms 1`
// makes breaks frequent and reproduces the race; selftest.py keeps it as a
// check.
//
// Threads share one SimClock, so a transaction's sim interval includes
// other threads' charges: the ledger reports no sim-latency percentiles.
#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "driver/workloads.h"

namespace rhodos::perfbench {
namespace {

constexpr std::uint64_t kAccounts = 256;
constexpr std::uint64_t kRecord = sizeof(std::int64_t);
constexpr std::int64_t kOpening = 1'000'000;
// Per round, split evenly over the committers (3 x 40 quiet points of 64).
constexpr std::uint64_t kTxns = 7'680;
constexpr double kAccountSkew = 0.8;

struct Transfer {
  std::uint64_t from, to;
  std::int64_t amount;
};

struct ThreadLog {
  std::vector<Transfer> committed;
  std::vector<Transfer> end_failed;  // End returned an error
  std::vector<double> op_host_us, end_host_us;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
};

std::int64_t Decode(const std::uint8_t* p) {
  std::int64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void Encode(std::int64_t v, std::uint8_t* p) { std::memcpy(p, &v, sizeof v); }

// Reads every balance in one query transaction.
Result<std::vector<std::int64_t>> ReadLedger(txn::TransactionService& txns,
                                             FileId ledger) {
  RHODOS_ASSIGN_OR_RETURN(TxnId t, txns.Begin(ProcessId{999}));
  std::vector<std::uint8_t> raw(kAccounts * kRecord);
  auto n = txns.TRead(t, ledger, 0, raw, txn::ReadIntent::kQuery);
  const Status ended = txns.End(t);
  if (!n.ok()) return n.error();
  RHODOS_RETURN_IF_ERROR(ended);
  if (*n != raw.size()) return Error{ErrorCode::kInternal, "short read"};
  std::vector<std::int64_t> out(kAccounts);
  for (std::uint64_t a = 0; a < kAccounts; ++a) {
    out[a] = Decode(raw.data() + a * kRecord);
  }
  return out;
}

// One transfer; returns the error that stopped it, if any, and sets
// `at_end` when that error came from End.
Status RunTransfer(txn::TransactionService& txns, FileId ledger, ProcessId pid,
                   const Transfer& x, ThreadLog& log, bool* at_end) {
  RHODOS_ASSIGN_OR_RETURN(TxnId t, txns.Begin(pid));
  auto abort = [&](Status st) {
    if (txns.IsActive(t)) (void)txns.Abort(t);
    return st;
  };
  // Sorted lock order: no deadlock among committers.
  const std::uint64_t acct[2] = {std::min(x.from, x.to),
                                 std::max(x.from, x.to)};
  std::int64_t bal[2];
  std::uint8_t rec[kRecord];
  for (int i = 0; i < 2; ++i) {
    auto n = txns.TRead(t, ledger, acct[i] * kRecord, rec,
                        txn::ReadIntent::kForUpdate);
    if (!n.ok()) return abort(n.error());
    bal[i] = Decode(rec);
  }
  const std::int64_t delta = x.from == acct[0] ? -x.amount : x.amount;
  bal[0] += delta;
  bal[1] -= delta;
  for (int i = 0; i < 2; ++i) {
    Encode(bal[i], rec);
    auto n = txns.TWrite(t, ledger, acct[i] * kRecord, rec);
    if (!n.ok()) return abort(n.error());
  }
  const double h0 = ThreadCpuMicros();
  const Status ended = txns.End(t);
  log.end_host_us.push_back(ThreadCpuMicros() - h0);
  *at_end = !ended.ok();
  if (!ended.ok()) return abort(ended);
  return OkStatus();
}

void Committer(txn::TransactionService& txns, FileId ledger,
               const SkewedPicker& pick, const RoundSpec& spec, int thread,
               std::uint64_t count, std::barrier<>& quiet,
               core::DistributedFileFacility& f, TraceFold* fold,
               ThreadLog& log) {
  const std::uint64_t seed = spec.seed;
  Rng rng(seed * 0x100000001B3ull + static_cast<std::uint64_t>(thread));
  const ProcessId pid{static_cast<std::uint64_t>(thread + 1)};
  for (std::uint64_t i = 0; i < count; ++i) {
    Transfer x{pick.Pick(rng), 0,
               1 + static_cast<std::int64_t>(rng.Below(100))};
    do {
      x.to = pick.Pick(rng);
    } while (x.to == x.from);
    ++log.attempted;
    const double h0 = ThreadCpuMicros();
    Status st = OkStatus();
    bool at_end = false;
    {
      OpSpan span(f, fold, "transfer");
      st = RunTransfer(txns, ledger, pid, x, log, &at_end);
    }
    log.op_host_us.push_back(ThreadCpuMicros() - h0);
    if (st.ok()) {
      log.committed.push_back(x);
    } else {
      ++log.failed;
      if (at_end) log.end_failed.push_back(x);
      if (log.errors.size() < 4) {
        log.errors.push_back("transfer: " + st.error().ToString());
      }
    }
    if (spec.ledger_batch != 0 && (i + 1) % spec.ledger_batch == 0) {
      quiet.arrive_and_wait();
    }
  }
}

}  // namespace

RoundResult RunTxnLedger(const RoundSpec& spec) {
  RoundResult r;
  const double setup0 = ProcessCpuSeconds();
  core::FacilityConfig cfg;
  cfg.txn.lock_timeout.lt = std::chrono::milliseconds(spec.lock_lt_ms);
  core::DistributedFileFacility f(cfg);
  txn::TransactionService& txns = f.transactions();

  FileId ledger{};
  {
    auto t = txns.Begin(ProcessId{1000});
    auto id = t.ok() ? txns.TCreate(*t, file::LockLevel::kRecord,
                                    kAccounts * kRecord)
                     : Result<FileId>(t.error());
    std::vector<std::uint8_t> raw(kAccounts * kRecord);
    for (std::uint64_t a = 0; a < kAccounts; ++a) {
      Encode(kOpening, raw.data() + a * kRecord);
    }
    Status st = id.ok() ? OkStatus() : Status(id.error());
    if (st.ok()) {
      auto n = txns.TWrite(*t, *id, 0, raw);
      st = n.ok() ? txns.End(*t) : Status(n.error());
    }
    if (!st.ok()) {
      r.Fail("ledger setup: " + st.error().ToString());
      return r;
    }
    ledger = *id;
  }
  r.setup_cpu_s = ProcessCpuSeconds() - setup0;

  const SkewedPicker pick(kAccounts, kAccountSkew, spec.seed);
  TraceFold* fold = spec.traced ? &r.trace : nullptr;
  f.observability().tracer.Enable(spec.traced);
  const int threads = spec.threads;
  std::vector<ThreadLog> logs(static_cast<std::size_t>(threads));

  const Counters before = ReadCounters(f);
  const SimTime sim0 = f.clock().Now();
  const double cpu0 = ProcessCpuSeconds();
  {
    std::barrier<> quiet(threads);
    std::vector<std::thread> pool;
    for (int i = 0; i < threads; ++i) {
      pool.emplace_back(Committer, std::ref(txns), ledger, std::cref(pick),
                        std::cref(spec), i,
                        kTxns / static_cast<std::uint64_t>(threads),
                        std::ref(quiet), std::ref(f), fold,
                        std::ref(logs[static_cast<std::size_t>(i)]));
    }
    for (std::thread& t : pool) t.join();
  }
  r.timed_cpu_s = ProcessCpuSeconds() - cpu0;
  r.sim_elapsed = f.clock().Now() - sim0;
  f.observability().tracer.Enable(false);
  r.delta = Delta(before, ReadCounters(f));

  std::vector<std::int64_t> expect(kAccounts, kOpening);
  // Accounts touched by a transfer whose End returned an error.
  std::vector<bool> end_failed_touch(kAccounts, false);
  for (const ThreadLog& log : logs) {
    r.attempted += log.attempted;
    for (const std::string& e : log.errors) r.Fail(e);
    r.failed += log.failed - log.errors.size();
    r.ops += log.committed.size();
    for (const Transfer& x : log.committed) {
      expect[x.from] -= x.amount;
      expect[x.to] += x.amount;
    }
    for (const Transfer& x : log.end_failed) {
      end_failed_touch[x.from] = end_failed_touch[x.to] = true;
    }
    r.op_host_us.insert(r.op_host_us.end(), log.op_host_us.begin(),
                        log.op_host_us.end());
    auto& end_us = r.host_samples["txn.end_host_us"];
    end_us.insert(end_us.end(), log.end_host_us.begin(), log.end_host_us.end());
  }
  r.driver = {{"commits", static_cast<double>(r.ops)}};

  // Oracle: balances recomputed from the committed transfers, money
  // conserved — checked on the live service, then after crash + recovery.
  auto check = [&](const char* when) {
    auto got = ReadLedger(txns, ledger);
    if (!got.ok()) {
      r.Wrong(std::string(when) + " ledger read: " + got.error().ToString());
      return;
    }
    std::int64_t total = 0;
    bool explained = true;
    for (std::uint64_t a = 0; a < kAccounts; ++a) {
      total += (*got)[a];
      if ((*got)[a] != expect[a]) explained = explained && end_failed_touch[a];
    }
    if (*got != expect && explained) {
      r.Wrong(std::string(when) +
              " every account that differs from the committed transfers "
              "took part in a transfer whose End returned an error: "
              "transfers reported as failed were applied");
    }
    for (std::uint64_t a = 0; a < kAccounts; ++a) {
      if ((*got)[a] != expect[a]) {
        r.Wrong(std::string(when) + " account " + std::to_string(a) + " = " +
                std::to_string((*got)[a]) + ", committed transfers give " +
                std::to_string(expect[a]));
      }
    }
    if (total != kOpening * static_cast<std::int64_t>(kAccounts)) {
      r.Wrong(std::string(when) + " money not conserved: total " +
              std::to_string(total));
    }
  };
  check("before crash:");
  const double redone0 = static_cast<double>(txns.stats().recovered_redone);
  f.CrashServers();
  const SimTime rec0 = f.clock().Now();
  const double rech0 = ThreadCpuMicros();
  const Status recovered = f.RecoverServers();
  r.recovery_host_ms = (ThreadCpuMicros() - rech0) / 1e3;
  r.recovery_sim = f.clock().Now() - rec0;
  r.driver["recovered_redone"] =
      static_cast<double>(txns.stats().recovered_redone) - redone0;
  if (!recovered.ok()) {
    r.Wrong("recovery: " + recovered.error().ToString());
    return r;
  }
  check("after recovery:");
  return r;
}

}  // namespace rhodos::perfbench
