// Differential test of the disk server's residency-only track cache.
//
// The real DiskServer keeps only presence/dirty bits for clean fragments and
// serves clean hits from its platter. RefServer below is a byte-owning model
// with the new torn-write rule: every resident fragment is a copy in the
// cache, a read miss and a track sweep copy the platter's bytes into it, and
// a failed platter write drops the clean copies of the range it covered.
// It is the byte-owning cache the residency cache replaced, except where
// marked "Departure" below: the torn-write rule, and the dirty overlay on a
// read miss that keeps a delayed write from being lost. Both are driven
// through the same seeded schedule — write-through and delayed puts, reads
// spanning tracks, range and full flushes, eviction under all-dirty
// pressure, crashes, torn writes and media errors — and after every step
// the returned status and bytes, the TrackCacheStats, the device counters,
// the simulated time and the whole platter must agree.
#include <gtest/gtest.h>

#include <cstring>
#include <list>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "disk/disk_server.h"

namespace rhodos::disk {
namespace {

class RefServer {
 public:
  RefServer(const DiskServerConfig& config)
      : config_(config),
        disk_(config.geometry, &clock_, config.fault_seed),
        per_track_(config.geometry.fragments_per_track) {}

  sim::DiskModel& disk() { return disk_; }
  const SimClock& clock() const { return clock_; }
  const TrackCacheStats& stats() const { return stats_; }

  Status Get(FragmentIndex first, std::uint32_t count,
             std::span<std::uint8_t> out) {
    if (Lookup(first, count, out)) return OkStatus();
    RHODOS_RETURN_IF_ERROR(disk_.ReadFragments(first, count, out));
    // Departure: the replaced cache installed the platter's bytes over
    // dirty fragments here and so lost the delayed write at the next flush.
    for (std::uint32_t i = 0; i < count; ++i) {
      const Track* t = Find(first + i);
      const std::size_t slot = (first + i) % per_track_;
      if (t != nullptr && t->dirty[slot]) {
        std::memcpy(out.data() + i * kFragmentSize,
                    t->data.data() + slot * kFragmentSize, kFragmentSize);
      }
    }
    Install(first, count, out, /*dirty=*/false, /*keep_dirty=*/true);
    if (config_.track_readahead) Sweep(first, count);
    return OkStatus();
  }

  Status Put(FragmentIndex first, std::uint32_t count,
             std::span<const std::uint8_t> in, WritePolicy policy) {
    if (policy == WritePolicy::kDelayed && enabled()) {
      Install(first, count, in, /*dirty=*/true, /*keep_dirty=*/false);
      return OkStatus();
    }
    if (Status st = disk_.WriteFragments(first, count, in); !st.ok()) {
      DropClean(first, count);
      return st;
    }
    Install(first, count, in, /*dirty=*/false, /*keep_dirty=*/false);
    return OkStatus();
  }

  // count == ~0u flushes every dirty fragment.
  Status Flush(FragmentIndex first, std::uint32_t count) {
    const FragmentIndex end =
        count == ~std::uint32_t{0} ? ~FragmentIndex{0} : first + count;
    Status result = OkStatus();
    std::vector<FragmentIndex> failed;
    for (auto& [track, t] : tracks_) {
      for (std::uint32_t slot = 0; slot < per_track_; ++slot) {
        const FragmentIndex f = track * per_track_ + slot;
        if (!t.dirty[slot] || f < first || f >= end) continue;
        std::span<const std::uint8_t> bytes{
            t.data.data() + slot * kFragmentSize, kFragmentSize};
        if (Status st = disk_.WriteFragments(f, 1, bytes); !st.ok()) {
          result = st;
          failed.push_back(f);
        }
        t.dirty[slot] = false;
        ++stats_.dirty_writebacks;
      }
    }
    for (FragmentIndex f : failed) DropClean(f, 1);
    return result;
  }

  void Crash() {
    tracks_.clear();
    lru_.clear();
    disk_.Crash();
  }

  // Mirrors DiskServer::Recover's device traffic: one read of the metadata
  // region from the main device.
  void Recover(std::uint32_t metadata_fragments) {
    disk_.Recover();
    tracks_.clear();
    lru_.clear();
    std::vector<std::uint8_t> region(metadata_fragments * kFragmentSize);
    (void)disk_.ReadFragments(0, metadata_fragments, region);
  }

 private:
  struct Track {
    std::vector<std::uint8_t> data;
    std::vector<bool> present;
    std::vector<bool> dirty;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  bool enabled() const { return config_.cache_capacity_tracks > 0; }

  Track* Find(FragmentIndex f) {
    auto it = tracks_.find(f / per_track_);
    return it == tracks_.end() ? nullptr : &it->second;
  }

  bool Contains(FragmentIndex f) {
    const Track* t = Find(f);
    return t != nullptr && t->present[f % per_track_];
  }

  bool Lookup(FragmentIndex first, std::uint32_t count,
              std::span<std::uint8_t> out) {
    bool hit = enabled();
    for (std::uint32_t i = 0; hit && i < count; ++i) hit = Contains(first + i);
    if (!hit) {
      stats_.misses += count;
      return false;
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      Track& t = Touch((first + i) / per_track_);
      std::memcpy(out.data() + i * kFragmentSize,
                  t.data.data() + ((first + i) % per_track_) * kFragmentSize,
                  kFragmentSize);
    }
    stats_.hits += count;
    return true;
  }

  // keep_dirty: the bytes come from the platter (a read miss or a sweep),
  // so a dirty slot's own, newer bytes stay.
  void Install(FragmentIndex first, std::uint32_t count,
               std::span<const std::uint8_t> data, bool dirty,
               bool keep_dirty) {
    if (!enabled()) return;
    for (std::uint32_t i = 0; i < count; ++i) {
      Track& t = Touch((first + i) / per_track_);
      const std::size_t slot = (first + i) % per_track_;
      if (!(keep_dirty && t.dirty[slot])) {
        std::memcpy(t.data.data() + slot * kFragmentSize,
                    data.data() + i * kFragmentSize, kFragmentSize);
      }
      t.present[slot] = true;
      if (dirty) t.dirty[slot] = true;
    }
    Evict();
  }

  // Departure: the replaced cache kept serving the pre-write bytes (or, for
  // a failed flush, the delayed write) as hits after a failed platter write.
  // Dropping the clean copies sends the next read to the device, which
  // reports the crash instead.
  void DropClean(FragmentIndex first, std::uint32_t count) {
    for (std::uint32_t i = 0; i < count; ++i) {
      Track* t = Find(first + i);
      const std::size_t slot = (first + i) % per_track_;
      if (t != nullptr && !t->dirty[slot]) t->present[slot] = false;
    }
  }

  void Sweep(FragmentIndex first, std::uint32_t count) {
    const FragmentIndex req_end = first + count;
    for (std::uint64_t track = first / per_track_;
         track <= (req_end - 1) / per_track_; ++track) {
      const FragmentIndex end = std::min<FragmentIndex>(
          (track + 1) * per_track_, config_.geometry.total_fragments);
      FragmentIndex f = track * per_track_;
      while (f < end) {
        auto skip = [&](FragmentIndex g) {
          return (g >= first && g < req_end) || Contains(g);
        };
        while (f < end && skip(f)) ++f;
        const FragmentIndex run = f;
        while (f < end && !skip(f)) ++f;
        if (f == run) continue;
        const auto n = static_cast<std::uint32_t>(f - run);
        std::vector<std::uint8_t> buf(n * kFragmentSize);
        if (disk_.ReadFragments(run, n, buf, /*charge_seek=*/false).ok()) {
          Install(run, n, buf, /*dirty=*/false, /*keep_dirty=*/true);
        }
      }
    }
  }

  Track& Touch(std::uint64_t track) {
    auto it = tracks_.find(track);
    if (it == tracks_.end()) {
      Track t;
      t.data.resize(per_track_ * kFragmentSize);
      t.present.assign(per_track_, false);
      t.dirty.assign(per_track_, false);
      lru_.push_front(track);
      t.lru_pos = lru_.begin();
      it = tracks_.emplace(track, std::move(t)).first;
    } else {
      lru_.erase(it->second.lru_pos);
      lru_.push_front(track);
      it->second.lru_pos = lru_.begin();
    }
    return it->second;
  }

  void Evict() {
    while (tracks_.size() > config_.cache_capacity_tracks) {
      std::uint64_t victim = lru_.back();
      for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
        const Track& t = tracks_.at(*rit);
        bool dirty = false;
        for (bool d : t.dirty) dirty |= d;
        if (!dirty) {
          victim = *rit;
          break;
        }
      }
      auto it = tracks_.find(victim);
      lru_.erase(it->second.lru_pos);
      tracks_.erase(it);
      ++stats_.evictions;
    }
  }

  DiskServerConfig config_;
  SimClock clock_;
  sim::DiskModel disk_;
  std::uint32_t per_track_;
  std::unordered_map<std::uint64_t, Track> tracks_;
  std::list<std::uint64_t> lru_;
  TrackCacheStats stats_;
};

std::string Describe(const TrackCacheStats& s) {
  std::ostringstream os;
  os << "hits=" << s.hits << " misses=" << s.misses
     << " evictions=" << s.evictions
     << " dirty_writebacks=" << s.dirty_writebacks;
  return os.str();
}

::testing::AssertionResult SameState(DiskServer& server, SimTime server_t0,
                                     RefServer& ref, SimTime ref_t0) {
  if (!(server.cache_stats() == ref.stats())) {
    return ::testing::AssertionFailure()
           << "cache stats: server " << Describe(server.cache_stats())
           << " vs reference " << Describe(ref.stats());
  }
  const sim::DiskStats& a = server.main_stats();
  const sim::DiskStats& b = ref.disk().stats();
  if (a.read_references != b.read_references ||
      a.write_references != b.write_references ||
      a.fragments_read != b.fragments_read ||
      a.fragments_written != b.fragments_written ||
      a.tracks_seeked != b.tracks_seeked ||
      a.time_charged != b.time_charged) {
    return ::testing::AssertionFailure()
           << "device counters differ: reads " << a.read_references << "/"
           << b.read_references << " writes " << a.write_references << "/"
           << b.write_references << " fragments_read " << a.fragments_read
           << "/" << b.fragments_read << " time " << a.time_charged << "/"
           << b.time_charged;
  }
  if (server.clock()->Now() - server_t0 != ref.clock().Now() - ref_t0) {
    return ::testing::AssertionFailure() << "simulated time differs";
  }
  if (server.crashed() != ref.disk().crashed()) {
    return ::testing::AssertionFailure() << "crash state differs";
  }
  const auto total =
      static_cast<std::uint32_t>(server.config().geometry.total_fragments);
  const auto pa = server.main_device().RawFragments(0, total);
  const auto pb = ref.disk().RawFragments(0, total);
  if (std::memcmp(pa.data(), pb.data(), pa.size()) != 0) {
    return ::testing::AssertionFailure() << "platters differ";
  }
  return ::testing::AssertionSuccess();
}

void RunSchedule(std::uint64_t seed, std::size_t capacity_tracks) {
  DiskServerConfig config;
  config.geometry.total_fragments = 256;
  config.geometry.fragments_per_track = 8;
  config.cache_capacity_tracks = capacity_tracks;
  config.fault_seed = seed;
  SimClock clock;
  DiskServer server(DiskId{0}, config, &clock);
  RefServer ref(config);
  // The server formatted its metadata region write-through at
  // construction; give the reference the same bytes and residency.
  const auto meta = static_cast<std::uint32_t>(server.MetadataFragments());
  ASSERT_TRUE(ref.Put(0, meta, server.main_device().RawFragments(0, meta),
                      WritePolicy::kWriteThrough)
                  .ok());
  ref.disk().ResetStats();
  const SimTime server_t0 = clock.Now();
  const SimTime ref_t0 = ref.clock().Now();
  ASSERT_TRUE(SameState(server, server_t0, ref, ref_t0));

  // Data lives past track 0, which holds the metadata region.
  const FragmentIndex lo = config.geometry.fragments_per_track;
  const FragmentIndex hi = config.geometry.total_fragments;
  Rng rng(seed * 7919 + capacity_tracks);
  sim::DiskFaultPlan plan;
  std::uint8_t stamp = 0;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " capacity " +
                 std::to_string(capacity_tracks) + " step " +
                 std::to_string(step));
    const auto count = static_cast<std::uint32_t>(rng.Between(1, 20));
    const FragmentIndex first = rng.Between(lo, hi - count);
    const std::uint64_t op = rng.Below(100);
    if (server.crashed() && rng.Chance(0.3)) {
      server.Crash();
      ASSERT_TRUE(server.Recover().ok());
      ref.Crash();
      ref.Recover(meta);
    } else if (op < 30) {
      std::vector<std::uint8_t> a(count * kFragmentSize);
      std::vector<std::uint8_t> b(count * kFragmentSize);
      const Status sa = server.GetBlock(first, count, a);
      const Status sb = ref.Get(first, count, b);
      ASSERT_EQ(sa.code(), sb.code());
      if (sa.ok()) {
        ASSERT_TRUE(a == b) << "read bytes differ";
      }
    } else if (op < 65) {
      // Delayed puts outnumber write-throughs so that every cached track
      // is often dirty and eviction must drop a dirty one.
      const WritePolicy policy = op < 45 ? WritePolicy::kDelayed
                                         : WritePolicy::kWriteThrough;
      std::vector<std::uint8_t> in(count * kFragmentSize);
      for (std::size_t i = 0; i < in.size(); i += 97) in[i] = ++stamp;
      const Status sa = server.PutBlock(first, count, in, StableMode::kNone,
                                        WriteSync::kSynchronous, policy);
      const Status sb = ref.Put(first, count, in, policy);
      ASSERT_EQ(sa.code(), sb.code());
      if (!sa.ok()) {
        // Read back what a failed (possibly torn) write covered.
        std::vector<std::uint8_t> a(count * kFragmentSize);
        std::vector<std::uint8_t> b(count * kFragmentSize);
        const Status ra = server.GetBlock(first, count, a);
        ASSERT_EQ(ra.code(), ref.Get(first, count, b).code());
        if (ra.ok()) {
          ASSERT_TRUE(a == b) << "read-back bytes differ";
        }
      }
    } else if (op < 75) {
      ASSERT_EQ(server.FlushBlock(first, count).code(),
                ref.Flush(first, count).code());
    } else if (op < 80) {
      ASSERT_EQ(server.FlushAll().code(),
                ref.Flush(0, ~std::uint32_t{0}).code());
    } else if (op < 84) {
      server.Crash();
      ref.Crash();
      ASSERT_TRUE(server.Recover().ok());
      ref.Recover(meta);
    } else if (op < 90) {
      // Arm a torn write within the next few write references.
      plan.crash_after_writes = static_cast<std::int64_t>(rng.Below(4));
      server.SetFaultPlan(plan);
      ref.disk().SetFaultPlan(plan);
    } else if (op < 95) {
      plan.media_error_rate = plan.media_error_rate > 0 ? 0.0 : 0.05;
      plan.crash_after_writes = -1;
      server.SetFaultPlan(plan);
      ref.disk().SetFaultPlan(plan);
    } else {
      // A read of a whole run of tracks: a long sweep.
      const auto tracks = static_cast<std::uint32_t>(rng.Between(2, 4));
      const std::uint32_t n = tracks * config.geometry.fragments_per_track;
      const FragmentIndex at = rng.Between(lo, hi - n);
      std::vector<std::uint8_t> a(n * kFragmentSize);
      std::vector<std::uint8_t> b(n * kFragmentSize);
      const Status sa = server.GetBlock(at, n, a);
      const Status sb = ref.Get(at, n, b);
      ASSERT_EQ(sa.code(), sb.code());
      if (sa.ok()) {
        ASSERT_TRUE(a == b) << "read bytes differ";
      }
    }
    ASSERT_TRUE(SameState(server, server_t0, ref, ref_t0));
  }
}

TEST(TrackCacheDiffTest, ResidencyCacheMatchesByteOwningModel) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (std::size_t capacity : {std::size_t{4}, std::size_t{1},
                                 std::size_t{0}}) {
      RunSchedule(seed, capacity);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace rhodos::disk
