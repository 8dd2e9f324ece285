#include "core/scan_window.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace loctk::core {

namespace {

/// Cached slot of an AP not yet looked up in the current universe.
constexpr std::uint32_t kUnresolved = kNoSlot - 1;

}  // namespace

ScanWindow::ScanWindow(std::size_t capacity)
    : filled_(std::max<std::size_t>(1, capacity) + 1, 0) {}

void ScanWindow::clear() {
  records_.clear();
  free_ids_.clear();
  order_.clear();
  std::ranges::fill(filled_, 0);
  head_ = 0;
  fill_ = 0;
  obs_stale_ = true;
}

std::size_t ScanWindow::push(const radio::ScanRecord& scan) {
  obs_stale_ = true;
  std::size_t rejected = 0;
  try {
    const std::size_t fresh = (head_ + fill_) % filled_.size();
    // A scan that lists its BSSIDs in ascending order without a
    // repeat, as scanners usually do, merges into the window in one
    // forward pass; any other is searched for sample by sample.
    const bool in_order =
        std::ranges::adjacent_find(scan.samples, std::greater_equal<>{},
                                   &radio::ScanSample::bssid) ==
        scan.samples.end();
    std::size_t at = 0;
    for (const radio::ScanSample& s : scan.samples) {
      if (!std::isfinite(s.rssi_dbm)) {
        ++rejected;
        continue;
      }
      if (!in_order) {
        at = static_cast<std::size_t>(
            std::ranges::lower_bound(order_, s.bssid, std::less<>{},
                                     [this](Id id) -> const std::string& {
                                       return records_[id].bssid;
                                     }) -
            order_.begin());
      }
      const Id id = find_or_insert(s.bssid, at);
      if (in_order) ++at;  // the next sample sorts after this one
      ++records_[id].held;
      if (filled_[fresh] == segment_) grow_ring(2 * segment_ + 1);
      const std::size_t at_ring = fresh * segment_ + filled_[fresh]++;
      ring_ids_[at_ring] = id;
      ring_dbm_[at_ring] = s.rssi_dbm;
    }
    if (records_.size() > segment_) grow_ring(records_.size());
    if (fill_ < capacity()) {
      ++fill_;
    } else {
      evict();
      head_ = (head_ + 1) % filled_.size();
    }
    // Observation::from_scans' arithmetic: each AP's readings summed
    // in capture order, over n.
    for (const Id id : order_) records_[id].mean_dbm = 0.0;
    for_each_reading(
        [this](Id id, double dbm) { records_[id].mean_dbm += dbm; });
    for (const Id id : order_) {
      records_[id].mean_dbm /= static_cast<double>(records_[id].held);
    }
  } catch (...) {
    clear();
    throw;
  }
  return rejected;
}

template <class Visit>
void ScanWindow::for_each_reading(Visit&& visit) const {
  for (std::size_t k = 0; k < fill_; ++k) {
    const std::size_t first = (head_ + k) % filled_.size() * segment_;
    const std::size_t last = first + filled_[(head_ + k) % filled_.size()];
    for (std::size_t i = first; i < last; ++i) visit(ring_ids_[i], ring_dbm_[i]);
  }
}

void ScanWindow::grow_ring(std::size_t segment) {
  std::vector<Id> ids(filled_.size() * segment);
  std::vector<double> dbm(filled_.size() * segment);
  for (std::size_t e = 0; e < filled_.size(); ++e) {
    const auto from = static_cast<std::ptrdiff_t>(e * segment_);
    const auto to = static_cast<std::ptrdiff_t>(e * segment);
    std::copy_n(ring_ids_.begin() + from, filled_[e], ids.begin() + to);
    std::copy_n(ring_dbm_.begin() + from, filled_[e], dbm.begin() + to);
  }
  free_ids_.reserve(segment);
  order_.reserve(segment);
  ring_ids_ = std::move(ids);
  ring_dbm_ = std::move(dbm);
  segment_ = segment;
}

ScanWindow::Id ScanWindow::find_or_insert(const std::string& bssid,
                                          std::size_t& at) {
  int order = 1;
  while (at < order_.size() &&
         (order = records_[order_[at]].bssid.compare(bssid)) < 0) {
    ++at;
  }
  if (at < order_.size() && order == 0) return order_[at];

  // A new AP, in a free record when there is one.
  Id id = static_cast<Id>(records_.size());
  if (free_ids_.empty()) {
    records_.emplace_back();
  } else {
    id = free_ids_.back();
    free_ids_.pop_back();
  }
  Record& r = records_[id];
  r.bssid = bssid;
  r.slot = kUnresolved;
  order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(at), id);
  return id;
}

void ScanWindow::evict() {
  bool emptied = false;
  const std::size_t first = head_ * segment_;
  for (std::size_t i = first; i < first + filled_[head_]; ++i) {
    emptied = --records_[ring_ids_[i]].held == 0 || emptied;
  }
  filled_[head_] = 0;
  if (!emptied) return;
  // Free the records left without a reading; only the evicted scan
  // can name one.
  std::size_t kept = 0;
  for (const Id id : order_) {
    if (records_[id].held != 0) {
      order_[kept++] = id;
    } else {
      free_ids_.push_back(id);
    }
  }
  order_.resize(kept);
}

const Observation& ScanWindow::observation() const {
  if (obs_stale_) {
    std::vector<ObservedAp>& aps = obs_.aps_;
    aps.resize(order_.size());
    obs_position_.resize(records_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const Record& r = records_[order_[i]];
      aps[i].bssid = r.bssid;
      aps[i].mean_dbm = r.mean_dbm;
      aps[i].sample_count = r.held;
      aps[i].samples_dbm.clear();
      obs_position_[order_[i]] = static_cast<std::uint32_t>(i);
    }
    for_each_reading([&aps, this](Id id, double dbm) {
      aps[obs_position_[id]].samples_dbm.push_back(dbm);
    });
    obs_stale_ = false;
  }
  return obs_;
}

bool ScanWindow::is_finite() const {
  return std::ranges::all_of(order_, [this](Id id) {
    return std::isfinite(records_[id].mean_dbm);
  });
}

void ScanWindow::query(const CompiledDatabase& db,
                       std::vector<SlotMean>* out) {
  if (db.universe_id() != universe_id_) {
    for (Record& r : records_) r.slot = kUnresolved;
    universe_id_ = db.universe_id();
  }
  // Both sides are BSSID-sorted, so an AP's slot lies past the
  // previous AP's: each lookup searches only the rest of the universe.
  const std::vector<std::string>& universe = db.database().bssid_universe();
  auto from = universe.begin();
  out->clear();
  for (const Id id : order_) {
    Record& r = records_[id];
    if (r.slot == kUnresolved) {
      const auto it = std::lower_bound(from, universe.end(), r.bssid);
      r.slot = it != universe.end() && *it == r.bssid
                   ? static_cast<std::uint32_t>(it - universe.begin())
                   : kNoSlot;
    }
    if (r.slot == kNoSlot) continue;
    out->push_back({r.slot, r.mean_dbm});
    from = universe.begin() + r.slot + 1;
  }
}

}  // namespace loctk::core
