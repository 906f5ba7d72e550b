// Track-grained cache of the disk service (paper §4).
//
// "This service retrieves only those blocks/fragments from a disk track
// which are necessary to immediately fulfill the requirement of a read
// request. Then the disk service caches the rest of the data from the same
// track ... to satisfy any subsequent requests to read data from
// blocks/fragments pertaining to the same track."
//
// The cache is organized per track: each resident track holds a presence
// bit and a dirty bit per fragment slot. Eviction is LRU over whole tracks;
// a crash clears the cache (it is volatile), which is what makes the stable
// storage and flush semantics of the disk server meaningful.
//
// The cache records *residency*, not bytes. In this simulation the platter
// is memory, so a clean resident fragment is byte-for-byte the platter's
// fragment; a hit on it copies straight from the backing DiskModel (a
// read-only view that charges nothing). Only dirty (delayed-write)
// fragments, which the platter does not hold yet, own bytes here. The
// residency contract the disk server keeps: a fragment is marked clean and
// resident only while the platter holds its bytes — after a successful
// read, sweep or write of it — and a failed platter write drops the clean
// residency of the range it may have torn (DropClean).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sim/disk_model.h"

namespace rhodos::disk {

struct TrackCacheStats {
  std::uint64_t hits = 0;          // fragments served from cache
  std::uint64_t misses = 0;        // fragments that needed the disk
  std::uint64_t evictions = 0;     // tracks evicted
  std::uint64_t dirty_writebacks = 0;

  double HitRate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }

  friend bool operator==(const TrackCacheStats&,
                         const TrackCacheStats&) = default;
};

class TrackCache {
 public:
  // `backing` is the drive whose platter clean hits are copied from; its
  // geometry gives the track size. capacity_tracks == 0 disables caching
  // entirely (the Amoeba "Bullet-server without client caching"
  // configuration the paper warns about; benches use it as the baseline).
  TrackCache(const sim::DiskModel& backing, std::size_t capacity_tracks)
      : backing_(&backing),
        fragments_per_track_(backing.geometry().fragments_per_track),
        capacity_tracks_(capacity_tracks) {}

  bool enabled() const { return capacity_tracks_ > 0; }

  // True iff every fragment of [first, first+count) is resident; copies the
  // data into `out` when it is (dirty fragments from the cache, clean ones
  // from the platter).
  bool Lookup(FragmentIndex first, std::uint32_t count,
              std::span<std::uint8_t> out);

  // True iff the single fragment is resident (no copy). Used to decide which
  // part of a request still needs the platter.
  bool Contains(FragmentIndex f) const;

  // Marks [first, first+count) resident after the platter served it (a read
  // miss or a track sweep), evicting LRU tracks as needed. Dirty fragments
  // keep their bytes and their dirty bit: the platter's copy is older.
  void MarkResident(FragmentIndex first, std::uint32_t count);

  // Installs written fragments, evicting LRU tracks as needed. `dirty` marks
  // them as not yet on the platter (delayed-write policy) and the cache
  // keeps their bytes. A clean install follows a write-through that reached
  // the platter: it marks residency, and a fragment that was already dirty
  // takes `data` as its newer bytes and stays dirty. An empty `data` only
  // marks residency (MarkResident).
  void Install(FragmentIndex first, std::uint32_t count,
               std::span<const std::uint8_t> data, bool dirty = false);

  // Copies the bytes of every dirty fragment of [first, first+count) over
  // the matching slice of `out`, which holds the platter's bytes for the
  // range. A read miss uses this so a delayed write is never lost to it.
  void OverlayDirty(FragmentIndex first, std::uint32_t count,
                    std::span<std::uint8_t> out) const;

  // Drops the residency of the clean fragments of [first, first+count): the
  // platter may no longer hold their bytes (a torn or failed write). Dirty
  // fragments keep their own bytes. Does not touch LRU order.
  void DropClean(FragmentIndex first, std::uint32_t count);

  // Invokes fn(fragment, span) for every dirty fragment and marks it clean.
  // The disk server uses this to implement flush_block. fn must not mutate
  // the cache.
  void FlushDirty(
      const std::function<void(FragmentIndex, std::span<const std::uint8_t>)>&
          fn);

  // As FlushDirty, but only for dirty fragments within [first, first+count);
  // fragments outside the range stay dirty.
  void FlushDirtyRange(
      FragmentIndex first, std::uint32_t count,
      const std::function<void(FragmentIndex, std::span<const std::uint8_t>)>&
          fn);

  // Count of dirty fragments currently held.
  std::size_t DirtyCount() const;

  // Drops everything: models loss of volatile memory at a crash.
  void InvalidateAll();

  const TrackCacheStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TrackCacheStats{}; }

 private:
  // Per-slot state bits.
  static constexpr std::uint8_t kPresent = 1;
  static constexpr std::uint8_t kDirty = 2;

  struct TrackEntry {
    std::vector<std::uint8_t> state;  // kPresent | kDirty per slot
    std::uint32_t dirty_count = 0;
    // fragments_per_track * kFragmentSize while dirty_count > 0, else
    // empty: only delayed-write data owns bytes.
    std::vector<std::uint8_t> owned;
    std::list<std::uint64_t>::iterator lru_pos;
  };

  std::uint64_t TrackOf(FragmentIndex f) const {
    return f / fragments_per_track_;
  }
  // Calls fn(track, first_fragment, count) for each track-aligned piece of
  // [first, first+count), in ascending order.
  template <typename Fn>
  void ForEachTrackPiece(FragmentIndex first, std::uint32_t count,
                         Fn&& fn) const;
  TrackEntry& Touch(std::uint64_t track);
  void EvictIfNeeded();

  const sim::DiskModel* backing_;
  std::uint32_t fragments_per_track_;
  std::size_t capacity_tracks_;
  std::unordered_map<std::uint64_t, TrackEntry> tracks_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  TrackCacheStats stats_;
};

}  // namespace rhodos::disk
