#include "core/location_service.hpp"

#include <algorithm>
#include <stdexcept>

#include "base/metrics.hpp"

namespace loctk::core {

namespace {

metrics::Counter& scans_counter() {
  static metrics::Counter& c = metrics::counter("service.scans");
  return c;
}
metrics::Counter& rejected_samples_counter() {
  static metrics::Counter& c =
      metrics::counter("service.rejected_samples");
  return c;
}
metrics::Counter& degraded_fixes_counter() {
  static metrics::Counter& c = metrics::counter("service.degraded_fixes");
  return c;
}
metrics::Gauge& innovation_gauge() {
  static metrics::Gauge& g =
      metrics::gauge("service.kalman.innovation_ft");
  return g;
}

}  // namespace

LocationService::LocationService(LocationServiceConfig config)
    : locator_(nullptr),
      config_(config),
      window_(config.window_scans),
      kalman_(config.kalman) {
  config_.window_scans = window_.capacity();
  config_.min_scans =
      std::clamp<std::size_t>(config_.min_scans, 1, config_.window_scans);
  config_.place_debounce = std::max(1, config_.place_debounce);
}

LocationService::LocationService(const Locator& locator,
                                 LocationServiceConfig config)
    : LocationService(config) {
  locator_ = &locator;
}

LocationService::LocationService(std::shared_ptr<const Locator> locator,
                                 LocationServiceConfig config)
    : LocationService(*locator, config) {
  owned_locator_ = std::move(locator);
}

const Locator& LocationService::bound_locator() const {
  if (!locator_) {
    throw std::logic_error(
        "LocationService: unbound service needs the "
        "on_scan(locator, scan) form");
  }
  return *locator_;
}

std::vector<LocationEstimate> LocationService::locate_batch(
    std::span<const Observation> observations,
    concurrency::ThreadPool* pool) const {
  return bound_locator().locate_batch(observations, pool);
}

std::vector<ServiceFix> LocationService::replay(
    std::span<const radio::ScanRecord> scans) {
  std::vector<ServiceFix> fixes;
  fixes.reserve(scans.size());
  for (const radio::ScanRecord& scan : scans) {
    fixes.push_back(on_scan(scan));
  }
  return fixes;
}

Result<LocationEstimate> LocationService::try_locate(
    const Observation& obs) const {
  return bound_locator().try_locate(obs);
}

void LocationService::reset() {
  window_.clear();
  kalman_.reset();
  fix_ = {};
  candidate_place_.clear();
  candidate_streak_ = 0;
  announced_place_.clear();
}

ServiceFix LocationService::on_scan(const radio::ScanRecord& scan) {
  return on_scan(bound_locator(), scan);
}

ServiceFix LocationService::on_scan(const Locator& locator,
                                    const radio::ScanRecord& scan) {
  // A NIC driver glitch or hostile replay can hand us inf/nan dBm;
  // once inside the window it would poison every mean the locator
  // sees until the window drains. The window drops such samples at
  // the door.
  scans_counter().increment();
  ++scans_seen_;
  const std::size_t rejected = window_.push(scan);
  if (rejected > 0) {
    rejected_samples_ += rejected;
    rejected_samples_counter().add(rejected);
  }
  fix_.window_fill = window_.size();
  fix_.degraded_reason.clear();

  if (window_.size() < config_.min_scans) {
    fix_.valid = false;
    return fix_;
  }

  const Result<LocationEstimate> result = locator.try_locate(window_);
  const LocationEstimate est =
      result.ok() ? result.value() : LocationEstimate{};

  if (est.valid) {
    fix_.valid = true;
    if (config_.kalman_smoothing) {
      // Step the filter by the real inter-scan interval; a missing or
      // rewound timestamp falls back to the configured dt inside the
      // tracker.
      fix_.position = kalman_.update_at(est.position, scan.timestamp_s);
      innovation_gauge().set(kalman_.last_innovation_ft());
    } else {
      fix_.position = est.position;
    }
  } else if (config_.kalman_smoothing && kalman_.initialized()) {
    // Coast through a bad window, reporting why the fix is degraded.
    fix_.valid = true;
    fix_.position = kalman_.predict_at(scan.timestamp_s);
    fix_.degraded_reason = result.error().to_string();
    degraded_fixes_counter().increment();
  } else {
    fix_.valid = false;
    fix_.degraded_reason = result.error().to_string();
    return fix_;
  }

  // Debounced place resolution.
  const std::string& place = est.location_name;
  if (!place.empty()) {
    if (place == candidate_place_) {
      ++candidate_streak_;
    } else {
      candidate_place_ = place;
      candidate_streak_ = 1;
    }
    if (candidate_streak_ >= config_.place_debounce &&
        candidate_place_ != announced_place_) {
      const std::string from = announced_place_;
      announced_place_ = candidate_place_;
      fix_.place = announced_place_;
      for (const PlaceChangeCallback& cb : callbacks_) {
        cb(from, announced_place_);
      }
    }
  }
  fix_.place = announced_place_;
  return fix_;
}

}  // namespace loctk::core
