#include "core/scan_window.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace loctk::core {

namespace {

constexpr std::uint32_t kGone = std::numeric_limits<std::uint32_t>::max();

}  // namespace

ScanWindow::ScanWindow(std::size_t capacity)
    : ring_(std::max<std::size_t>(1, capacity) + 1) {}

void ScanWindow::clear() {
  obs_.aps_.clear();
  for (Positions& e : ring_) e.clear();
  head_ = 0;
  fill_ = 0;
}

std::size_t ScanWindow::push(const radio::ScanRecord& scan) {
  std::size_t rejected = 0;
  try {
    // A touched AP's sample_count is zeroed and restored by refresh();
    // an AP in the window always holds at least one sample, so zero
    // marks it stale and an AP touched by both scans is summed once.
    Positions& fresh = ring_[(head_ + fill_) % ring_.size()];
    for (const radio::ScanSample& s : scan.samples) {
      if (!std::isfinite(s.rssi_dbm)) {
        ++rejected;
        continue;
      }
      const std::uint32_t pos = find_or_insert(s.bssid);
      ObservedAp& ap = obs_.aps_[pos];
      ap.samples_dbm.push_back(s.rssi_dbm);
      ap.sample_count = 0;
      fresh.push_back(pos);
    }
    if (obs_.aps_.size() > entry_reserve_) {
      entry_reserve_ = 2 * obs_.aps_.size();
      for (Positions& e : ring_) e.reserve(entry_reserve_);
      remap_.reserve(entry_reserve_);
    }
    if (fill_ < capacity()) {
      ++fill_;
    } else {
      Positions& evicted = ring_[head_];
      evict(evicted);
      for (const std::uint32_t pos : evicted) {
        if (pos != kGone) refresh(pos);
      }
      evicted.clear();
      head_ = (head_ + 1) % ring_.size();
    }
    for (const std::uint32_t pos : fresh) refresh(pos);
  } catch (...) {
    clear();
    throw;
  }
  return rejected;
}

std::uint32_t ScanWindow::find_or_insert(const std::string& bssid) {
  std::vector<ObservedAp>& aps = obs_.aps_;
  const auto it = std::lower_bound(
      aps.begin(), aps.end(), bssid,
      [](const ObservedAp& a, const std::string& b) { return a.bssid < b; });
  const auto pos = static_cast<std::uint32_t>(it - aps.begin());
  if (it != aps.end() && it->bssid == bssid) return pos;
  // A new AP: insert it in BSSID order and renumber the held positions.
  ObservedAp ap;
  ap.bssid = bssid;
  ap.samples_dbm.reserve(capacity() + 1);
  aps.insert(it, std::move(ap));
  for (Positions& e : ring_) {
    for (std::uint32_t& p : e) p += p >= pos ? 1 : 0;
  }
  return pos;
}

void ScanWindow::evict(Positions& oldest) {
  // The oldest scan's samples are the front of each AP's list.
  bool emptied = false;
  for (const std::uint32_t pos : oldest) {
    ObservedAp& ap = obs_.aps_[pos];
    ap.samples_dbm.erase(ap.samples_dbm.begin());
    ap.sample_count = 0;
    emptied = emptied || ap.samples_dbm.empty();
  }
  if (!emptied) return;
  // Drop the APs that left the window and renumber every held
  // position; only `oldest` can name a dropped AP.
  std::vector<ObservedAp>& aps = obs_.aps_;
  remap_.resize(aps.size());
  std::uint32_t kept = 0;
  for (std::size_t i = 0; i < aps.size(); ++i) {
    remap_[i] = aps[i].samples_dbm.empty() ? kGone : kept++;
  }
  std::erase_if(aps,
                [](const ObservedAp& ap) { return ap.samples_dbm.empty(); });
  for (Positions& e : ring_) {
    for (std::uint32_t& p : e) p = remap_[p];
  }
}

void ScanWindow::refresh(std::uint32_t pos) {
  ObservedAp& ap = obs_.aps_[pos];
  if (ap.sample_count != 0) return;
  // Observation::from_scans' arithmetic: capture-order sum over n.
  double sum = 0.0;
  for (const double s : ap.samples_dbm) sum += s;
  ap.sample_count = static_cast<std::uint32_t>(ap.samples_dbm.size());
  ap.mean_dbm = sum / static_cast<double>(ap.samples_dbm.size());
}

}  // namespace loctk::core
