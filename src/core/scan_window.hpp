#pragma once

/// \file scan_window.hpp
/// The live service's working-phase window: the last few scans a
/// client delivered, kept as the `Observation` their per-AP means make
/// (§3, §5.1 scored live, §6 item 4).
///
/// `Observation::from_scans` re-groups a whole window per call. On the
/// serve path the window moves by one scan at a time, so `ScanWindow`
/// edits the observation in place instead: a new scan's samples are
/// appended to their APs, the evicted scan's samples are removed from
/// the front of theirs, and only the APs either scan touched get their
/// mean recomputed. After every push, `observation()` is
/// `operator==` to `from_scans` over the finite-filtered scans the
/// window holds, bit for bit.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/observation.hpp"
#include "radio/scanner.hpp"

namespace loctk::core {

class ScanWindow {
 public:
  /// Holds at most `capacity` scans (at least one).
  explicit ScanWindow(std::size_t capacity);

  /// Appends `scan`'s finite samples and evicts the oldest scan once
  /// more than `capacity` are held. Returns how many non-finite
  /// samples were dropped. Allocates only when an AP enters the window
  /// (its BSSID copy, its sample list, more room for the ring) or an
  /// AP holds more samples than ever before, which takes a BSSID
  /// repeated within a scan. If an allocation throws, the window is
  /// left empty.
  std::size_t push(const radio::ScanRecord& scan);

  /// Per-AP aggregate of the scans held: BSSID-sorted, samples in
  /// capture order, mean = capture-order sum / n.
  const Observation& observation() const { return obs_; }

  /// Scans held (empty scans count).
  std::size_t size() const { return fill_; }
  std::size_t capacity() const { return ring_.size() - 1; }

  /// Forgets every scan.
  void clear();

 private:
  using Positions = std::vector<std::uint32_t>;

  /// Position of `bssid` in the window, inserting it when new.
  std::uint32_t find_or_insert(const std::string& bssid);
  /// Removes `oldest`'s samples and the APs left without one; dropped
  /// APs' positions in `oldest` become a sentinel.
  void evict(Positions& oldest);
  /// Recomputes the mean of an AP whose samples changed.
  void refresh(std::uint32_t pos);

  Observation obs_;
  /// One entry per held scan, plus the one being filled: the positions
  /// in `obs_.aps_` of that scan's finite samples, in capture order.
  std::vector<Positions> ring_;
  std::size_t head_ = 0;  // ring index of the oldest held scan
  std::size_t fill_ = 0;
  /// Every entry's capacity, and `remap_`'s, is at least the window's
  /// AP count, so a scan of APs already in the window (no repeats)
  /// grows neither.
  std::size_t entry_reserve_ = 0;
  std::vector<std::uint32_t> remap_;  // eviction compaction scratch
};

}  // namespace loctk::core
