#include "core/observation.hpp"

#include <algorithm>
#include <cmath>

#include "wiscan/bucket_table.hpp"

namespace loctk::core {

namespace {

// One ObservedAp per bucket, BSSID-ascending; the mean is the sum in
// capture order over n, and the readings move into `samples_dbm`.
std::vector<ObservedAp> observed_aps(wiscan::BucketTable& table) {
  std::vector<ObservedAp> aps;
  aps.reserve(table.buckets.size());
  for (wiscan::BucketTable::Bucket& bucket : table.buckets) {
    ObservedAp ap;
    ap.bssid = bucket.bssid;
    ap.sample_count = static_cast<std::uint32_t>(bucket.rows.size());
    double sum = 0.0;
    for (const double s : bucket.rows) sum += s;
    ap.mean_dbm = sum / static_cast<double>(bucket.rows.size());
    ap.samples_dbm = std::move(bucket.rows);
    aps.push_back(std::move(ap));
  }
  return aps;
}

}  // namespace

Observation Observation::from_scans(
    const std::vector<radio::ScanRecord>& scans) {
  wiscan::BucketTable table;
  for (const radio::ScanRecord& scan : scans) {
    for (const radio::ScanSample& s : scan.samples) {
      table.add(s.bssid, s.rssi_dbm, scans.size());
    }
  }
  Observation obs;
  obs.aps_ = observed_aps(table);
  return obs;
}

Observation Observation::from_entries(
    const std::vector<wiscan::WiScanEntry>& entries) {
  wiscan::BucketTable table;
  for (const wiscan::WiScanEntry& e : entries) table.add(e.bssid, e.rssi_dbm);
  Observation obs;
  obs.aps_ = observed_aps(table);
  return obs;
}

bool Observation::is_finite() const {
  for (const ObservedAp& ap : aps_) {
    if (!std::isfinite(ap.mean_dbm)) return false;
    for (const double s : ap.samples_dbm) {
      if (!std::isfinite(s)) return false;
    }
  }
  return true;
}

const ObservedAp* Observation::find(const std::string& bssid) const {
  const auto it = std::lower_bound(
      aps_.begin(), aps_.end(), bssid,
      [](const ObservedAp& a, const std::string& b) { return a.bssid < b; });
  if (it == aps_.end() || it->bssid != bssid) return nullptr;
  return &*it;
}

std::optional<double> Observation::mean_of(const std::string& bssid) const {
  const ObservedAp* ap = find(bssid);
  if (!ap) return std::nullopt;
  return ap->mean_dbm;
}

std::vector<double> Observation::signature(
    const std::vector<std::string>& universe, double missing_dbm) const {
  std::vector<double> out;
  out.reserve(universe.size());
  for (const std::string& bssid : universe) {
    const auto m = mean_of(bssid);
    out.push_back(m.value_or(missing_dbm));
  }
  return out;
}

}  // namespace loctk::core
