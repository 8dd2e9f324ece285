#pragma once

/// \file scan_window.hpp
/// The live service's working-phase window: the last few scans a
/// client delivered, kept as the `Observation` their per-AP means make
/// (§3, §5.1 scored live, §6 item 4).
///
/// `Observation::from_scans` re-groups a whole window per call. On the
/// serve path the window moves by one scan at a time, so `ScanWindow`
/// keeps its per-AP aggregates up to date instead. A ring holds each
/// held scan's finite readings as (AP id, dBm); each AP in the
/// window has one record (BSSID, reading count, mean, cached slot)
/// under an id it keeps while held, and a BSSID-sorted list of ids
/// orders them, so an AP entering or leaving moves ids, never
/// readings. After a push every mean is re-summed over the held
/// readings in capture order, one pass over the ring, so after every
/// push `observation()` is `operator==` to `from_scans` over the
/// finite-filtered scans the window holds, bit for bit.
///
/// The serve path scores the window without building that observation:
/// `query` lowers the window onto a compiled map's universe for the
/// probabilistic scorer. Each AP caches its universe slot, tagged with
/// the map's `universe_id()`, so a slot is looked up once per AP per
/// universe, not once per scan; republishes that keep the universe (a
/// resurvey of known APs) keep every cached slot.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/compiled_db.hpp"
#include "core/observation.hpp"
#include "radio/scanner.hpp"

namespace loctk::core {

class ScanWindow {
 public:
  /// Holds at most `capacity` scans (at least one).
  explicit ScanWindow(std::size_t capacity);

  /// Appends `scan`'s finite samples and evicts the oldest scan once
  /// more than `capacity` are held. Returns how many non-finite
  /// samples were dropped. Allocates only when the window holds more
  /// APs than ever before, or a scan more readings than it has room
  /// for, which takes a BSSID repeated within a scan: a record freed
  /// by an AP that left keeps its string for the next to enter. If an
  /// allocation throws, the window is left empty.
  std::size_t push(const radio::ScanRecord& scan);

  /// Per-AP aggregate of the scans held: BSSID-sorted, samples in
  /// capture order, mean = capture-order sum / n. Built from the ring
  /// on the first call after a change, so it is not safe to call
  /// concurrently with itself.
  const Observation& observation() const;

  /// Writes to `out` the held APs `db`'s universe knows, as (slot,
  /// mean) pairs in ascending slot order: what
  /// `db.lower_observation(observation(), out)` writes, without walking
  /// the universe. An AP's slot is found by binary search on the first
  /// query after it enters, and again only when a query names a
  /// different `universe_id()`.
  void query(const CompiledDatabase& db, std::vector<SlotMean>* out);

  /// APs held: `observation().ap_count()`.
  std::size_t ap_count() const { return order_.size(); }
  /// `observation().is_finite()`. The window drops non-finite samples
  /// at the door, so only a mean (a sum that overflowed) can fail it.
  bool is_finite() const;

  /// Scans held (empty scans count).
  std::size_t size() const { return fill_; }
  std::size_t capacity() const { return filled_.size() - 1; }

  /// Forgets every scan.
  void clear();

 private:
  /// Index of an AP's record in `records_`, fixed while the AP is in
  /// the window.
  using Id = std::uint32_t;

  /// One AP in the window.
  struct Record {
    std::string bssid;
    /// Readings of it the window holds; 0 marks a free record.
    std::uint32_t held = 0;
    /// Universe slot, resolved in `universe_id_`.
    std::uint32_t slot = 0;
    double mean_dbm = 0.0;
  };

  /// Id of `bssid`'s record, giving it one when new. Every held BSSID
  /// before `order_[at]` must sort before `bssid`; the search walks
  /// forward from there and leaves `at` on the AP's position.
  Id find_or_insert(const std::string& bssid, std::size_t& at);
  /// Drops the oldest scan's readings and frees the records left
  /// without one.
  void evict();
  /// Re-lays the ring out with room for `segment` readings per scan.
  void grow_ring(std::size_t segment);
  /// Calls `visit(id, dBm)` for every held reading in capture order.
  template <class Visit>
  void for_each_reading(Visit&& visit) const;

  std::vector<Record> records_;
  std::vector<Id> free_ids_;
  /// The held APs' ids, BSSID-ascending.
  std::vector<Id> order_;
  /// The ring: per held scan, plus one for the scan being filled, a
  /// segment of `segment_` readings, each a record id and its dBm;
  /// `filled_[e]` of segment e's are in use. `segment_`, and the
  /// per-record tables' capacity, is at least the record count, so a
  /// scan of APs already in the window (no repeats) grows none of them.
  std::vector<Id> ring_ids_;
  std::vector<double> ring_dbm_;
  std::vector<std::uint32_t> filled_;
  std::size_t segment_ = 0;
  std::size_t head_ = 0;  // segment of the oldest held scan
  std::size_t fill_ = 0;
  /// The universe the cached slots were resolved in.
  std::uint64_t universe_id_ = 0;
  /// observation()'s copy, rebuilt when stale, and each record's
  /// position in it while it is rebuilt.
  mutable Observation obs_;
  mutable std::vector<std::uint32_t> obs_position_;
  mutable bool obs_stale_ = false;
};

}  // namespace loctk::core
