#pragma once

/// \file bucket_table.hpp
/// Per-BSSID grouping of RSSI readings: the one grouping step shared by
/// the Training Database Generator (§4.3: readings per <point, AP>),
/// the survey intake and the working-phase observation (§3, §5.1:
/// readings per AP over the scan window).

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

namespace loctk::wiscan {

/// A survey file has thousands of rows but only a handful of distinct
/// APs, so the table keeps a bssid-sorted vector of buckets and
/// binary-searches each row into place: O(n log k) string compares
/// with small k, versus the O(n log n) of sorting every row. Scan
/// passes also visit APs in a stable order, so each bucket remembers
/// which bucket the next row landed in last time; that one-step
/// prediction usually replaces the search with a single equality
/// check. Buckets stay in ascending BSSID order with capture order
/// preserved inside each — the <key order, sample order> of an
/// ordered-map grouping, without a node allocation per entry. Keys are
/// views: the caller keeps the BSSID strings alive while the table
/// lives.
struct BucketTable {
  static constexpr std::size_t kNoBucket = static_cast<std::size_t>(-1);

  struct Bucket {
    std::string_view bssid;
    std::vector<double> rows;  // dBm, capture order
    std::size_t next_pred = kNoBucket;
  };
  std::vector<Bucket> buckets;
  std::size_t predicted = kNoBucket;
  std::size_t previous = kNoBucket;

  /// Appends `rssi_dbm` to `key`'s bucket, creating it (with
  /// `reserve_hint` rows reserved) on first sight.
  void add(std::string_view key, double rssi_dbm,
           std::size_t reserve_hint = 0) {
    std::size_t idx;
    if (predicted != kNoBucket && buckets[predicted].bssid == key) {
      idx = predicted;
    } else {
      auto it = std::lower_bound(
          buckets.begin(), buckets.end(), key,
          [](const Bucket& b, std::string_view k) { return b.bssid < k; });
      if (it == buckets.end() || it->bssid != key) {
        const std::size_t inserted =
            static_cast<std::size_t>(it - buckets.begin());
        buckets.insert(it, Bucket{key, {}, kNoBucket});
        if (reserve_hint > 0) buckets[inserted].rows.reserve(reserve_hint);
        // Insertion shifted every index at or past the slot.
        for (Bucket& b : buckets) {
          if (b.next_pred != kNoBucket && b.next_pred >= inserted) {
            ++b.next_pred;
          }
        }
        if (previous != kNoBucket && previous >= inserted) ++previous;
        idx = inserted;
      } else {
        idx = static_cast<std::size_t>(it - buckets.begin());
      }
    }
    buckets[idx].rows.push_back(rssi_dbm);
    if (previous != kNoBucket) buckets[previous].next_pred = idx;
    predicted = buckets[idx].next_pred;
    previous = idx;
  }
};

}  // namespace loctk::wiscan
