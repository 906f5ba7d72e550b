#include "disk/track_cache.h"

#include <algorithm>
#include <cstring>

namespace rhodos::disk {

template <typename Fn>
void TrackCache::ForEachTrackPiece(FragmentIndex first, std::uint32_t count,
                                   Fn&& fn) const {
  const FragmentIndex end = first + count;
  FragmentIndex f = first;
  while (f < end) {
    const std::uint64_t track = TrackOf(f);
    const FragmentIndex track_end =
        std::min<FragmentIndex>((track + 1) * fragments_per_track_, end);
    fn(track, f, static_cast<std::uint32_t>(track_end - f));
    f = track_end;
  }
}

bool TrackCache::Contains(FragmentIndex f) const {
  auto it = tracks_.find(TrackOf(f));
  if (it == tracks_.end()) return false;
  return (it->second.state[f % fragments_per_track_] & kPresent) != 0;
}

bool TrackCache::Lookup(FragmentIndex first, std::uint32_t count,
                        std::span<std::uint8_t> out) {
  if (!enabled()) {
    stats_.misses += count;
    return false;
  }
  // First pass: residency check without disturbing LRU order on a miss.
  bool resident = true;
  ForEachTrackPiece(first, count,
                    [&](std::uint64_t track, FragmentIndex f, std::uint32_t n) {
                      if (!resident) return;
                      auto it = tracks_.find(track);
                      if (it == tracks_.end()) {
                        resident = false;
                        return;
                      }
                      const std::size_t slot = f % fragments_per_track_;
                      for (std::size_t s = slot; s < slot + n; ++s) {
                        resident &= (it->second.state[s] & kPresent) != 0;
                      }
                    });
  if (!resident) {
    stats_.misses += count;
    return false;
  }
  // Second pass: refresh LRU order and copy. Dirty slots come from the
  // cache; each run of clean slots is one copy from the platter.
  ForEachTrackPiece(
      first, count, [&](std::uint64_t track, FragmentIndex f, std::uint32_t n) {
        const TrackEntry& entry = Touch(track);
        const std::size_t slot = f % fragments_per_track_;
        std::uint8_t* dst =
            out.data() + static_cast<std::size_t>(f - first) * kFragmentSize;
        std::size_t s = slot;
        while (s < slot + n) {
          if ((entry.state[s] & kDirty) != 0) {
            std::memcpy(dst, entry.owned.data() + s * kFragmentSize,
                        kFragmentSize);
            dst += kFragmentSize;
            ++s;
            continue;
          }
          std::size_t run_end = s + 1;
          while (run_end < slot + n && (entry.state[run_end] & kDirty) == 0) {
            ++run_end;
          }
          const auto run = static_cast<std::uint32_t>(run_end - s);
          const auto src = backing_->RawFragments(f + (s - slot), run);
          std::memcpy(dst, src.data(), src.size());
          dst += src.size();
          s = run_end;
        }
      });
  stats_.hits += count;
  return true;
}

void TrackCache::MarkResident(FragmentIndex first, std::uint32_t count) {
  Install(first, count, {}, /*dirty=*/false);
}

void TrackCache::Install(FragmentIndex first, std::uint32_t count,
                         std::span<const std::uint8_t> data, bool dirty) {
  if (!enabled()) return;
  const std::size_t track_bytes =
      static_cast<std::size_t>(fragments_per_track_) * kFragmentSize;
  ForEachTrackPiece(
      first, count, [&](std::uint64_t track, FragmentIndex f, std::uint32_t n) {
        TrackEntry& entry = Touch(track);
        const std::size_t slot = f % fragments_per_track_;
        for (std::size_t s = slot; s < slot + n; ++s) {
          std::uint8_t& state = entry.state[s];
          state |= kPresent;
          if (dirty && (state & kDirty) == 0) {
            state |= kDirty;
            if (entry.dirty_count++ == 0) entry.owned.resize(track_bytes);
          }
          if ((state & kDirty) != 0 && !data.empty()) {
            std::memcpy(entry.owned.data() + s * kFragmentSize,
                        data.data() + static_cast<std::size_t>(
                                          f + (s - slot) - first) *
                                          kFragmentSize,
                        kFragmentSize);
          }
        }
      });
  EvictIfNeeded();
}

void TrackCache::OverlayDirty(FragmentIndex first, std::uint32_t count,
                              std::span<std::uint8_t> out) const {
  ForEachTrackPiece(
      first, count, [&](std::uint64_t track, FragmentIndex f, std::uint32_t n) {
        auto it = tracks_.find(track);
        if (it == tracks_.end() || it->second.dirty_count == 0) return;
        const TrackEntry& entry = it->second;
        const std::size_t slot = f % fragments_per_track_;
        for (std::size_t s = slot; s < slot + n; ++s) {
          if ((entry.state[s] & kDirty) == 0) continue;
          std::memcpy(out.data() + static_cast<std::size_t>(
                                       f + (s - slot) - first) *
                                       kFragmentSize,
                      entry.owned.data() + s * kFragmentSize, kFragmentSize);
        }
      });
}

void TrackCache::DropClean(FragmentIndex first, std::uint32_t count) {
  ForEachTrackPiece(first, count,
                    [&](std::uint64_t track, FragmentIndex f, std::uint32_t n) {
                      auto it = tracks_.find(track);
                      if (it == tracks_.end()) return;
                      const std::size_t slot = f % fragments_per_track_;
                      for (std::size_t s = slot; s < slot + n; ++s) {
                        std::uint8_t& state = it->second.state[s];
                        if ((state & kDirty) == 0) state = 0;
                      }
                    });
}

void TrackCache::FlushDirty(
    const std::function<void(FragmentIndex, std::span<const std::uint8_t>)>&
        fn) {
  FlushDirtyRange(0, ~std::uint32_t{0},
                  fn);  // whole address space: every dirty fragment
}

void TrackCache::FlushDirtyRange(
    FragmentIndex first, std::uint32_t count,
    const std::function<void(FragmentIndex, std::span<const std::uint8_t>)>&
        fn) {
  const FragmentIndex end =
      count == ~std::uint32_t{0} ? ~FragmentIndex{0} : first + count;
  for (auto& [track, entry] : tracks_) {
    if (entry.dirty_count == 0) continue;
    for (std::uint32_t slot = 0; slot < fragments_per_track_; ++slot) {
      if ((entry.state[slot] & kDirty) == 0) continue;
      const FragmentIndex f = track * fragments_per_track_ + slot;
      if (f < first || f >= end) continue;
      fn(f, {entry.owned.data() + slot * kFragmentSize, kFragmentSize});
      entry.state[slot] &= ~kDirty;
      --entry.dirty_count;
      ++stats_.dirty_writebacks;
    }
    if (entry.dirty_count == 0) entry.owned = {};
  }
}

std::size_t TrackCache::DirtyCount() const {
  std::size_t n = 0;
  for (const auto& [track, entry] : tracks_) n += entry.dirty_count;
  return n;
}

void TrackCache::InvalidateAll() {
  tracks_.clear();
  lru_.clear();
}

TrackCache::TrackEntry& TrackCache::Touch(std::uint64_t track) {
  auto it = tracks_.find(track);
  if (it == tracks_.end()) {
    TrackEntry entry;
    entry.state.assign(fragments_per_track_, 0);
    lru_.push_front(track);
    entry.lru_pos = lru_.begin();
    it = tracks_.emplace(track, std::move(entry)).first;
  } else if (it->second.lru_pos != lru_.begin()) {
    lru_.erase(it->second.lru_pos);
    lru_.push_front(track);
    it->second.lru_pos = lru_.begin();
  }
  return it->second;
}

void TrackCache::EvictIfNeeded() {
  while (tracks_.size() > capacity_tracks_) {
    // Evict the least-recently-used *clean* track; keep dirty tracks until
    // flushed. If everything is dirty, evict the LRU track anyway — the
    // caller is responsible for flushing before relying on delayed writes.
    std::uint64_t victim = lru_.back();
    for (auto rit = lru_.rbegin(); rit != lru_.rend(); ++rit) {
      if (tracks_.at(*rit).dirty_count == 0) {
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

}  // namespace rhodos::disk
