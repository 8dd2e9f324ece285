#include "core/locator.hpp"

#include "base/metrics.hpp"
#include "concurrency/parallel_for.hpp"
#include "core/scan_window.hpp"

namespace loctk::core {

namespace {

// Shared across every Locator implementation: the non-virtual entry
// points (try_locate / locate_batch) are the choke points, so counters
// here see all production traffic regardless of algorithm.
metrics::Counter& locate_calls() {
  static metrics::Counter& c = metrics::counter("locate.calls");
  return c;
}
metrics::Counter& locate_degenerate() {
  static metrics::Counter& c = metrics::counter("locate.degenerate");
  return c;
}
metrics::Counter& locate_errors() {
  static metrics::Counter& c = metrics::counter("locate.errors");
  return c;
}
metrics::HistogramMetric& locate_latency() {
  static metrics::HistogramMetric& h =
      metrics::histogram("locate.latency.seconds");
  return h;
}
metrics::Counter& batch_calls() {
  static metrics::Counter& c = metrics::counter("locate.batch.calls");
  return c;
}
metrics::Counter& batch_observations() {
  static metrics::Counter& c =
      metrics::counter("locate.batch.observations");
  return c;
}

/// The try_locate contract over either query form: typed errors for
/// an empty or non-finite observation, for an algorithm that throws
/// and for one with no answer, each counted.
template <class Locate>
Result<LocationEstimate> checked_locate(const Locator& locator, bool empty,
                                        bool finite, Locate&& locate) {
  locate_calls().increment();
  metrics::ScopedTimer timer(locate_latency());
  if (empty) {
    locate_degenerate().increment();
    return Error(ErrorCode::kDegenerate, "empty observation")
        .with_context("locating with " + locator.name());
  }
  if (!finite) {
    locate_degenerate().increment();
    return Error(ErrorCode::kDegenerate,
                 "observation contains non-finite dBm values")
        .with_context("locating with " + locator.name());
  }
  LocationEstimate est;
  try {
    est = locate();
  } catch (const std::exception& e) {
    locate_errors().increment();
    return Error(ErrorCode::kInternal, e.what())
        .with_context("locating with " + locator.name());
  }
  if (!est.valid) {
    // The observation was well-formed but the algorithm has no
    // answer: all-unknown BSSIDs, < min_common_aps overlap, or fewer
    // usable ranging circles than the geometry needs.
    locate_degenerate().increment();
    return Error(ErrorCode::kDegenerate,
                 "no usable estimate (observation shares too little "
                 "with the training data)")
        .with_context("locating with " + locator.name());
  }
  return est;
}

}  // namespace

Result<LocationEstimate> Locator::try_locate(const Observation& obs) const {
  return checked_locate(*this, obs.empty(), obs.is_finite(),
                        [&] { return locate(obs); });
}

Result<LocationEstimate> Locator::try_locate(ScanWindow& window) const {
  return checked_locate(*this, window.ap_count() == 0, window.is_finite(),
                        [&] { return locate_window(window); });
}

LocationEstimate Locator::locate_window(ScanWindow& window) const {
  return locate(window.observation());
}

std::vector<LocationEstimate> Locator::locate_batch(
    std::span<const Observation> obs, concurrency::ThreadPool* pool) const {
  batch_calls().increment();
  batch_observations().add(obs.size());
  locate_calls().add(obs.size());
  // One timer for the whole batch, weighted so the latency histogram
  // sees the per-observation mean n times. Per-item timers inside the
  // parallel body would measure contention, not locate cost.
  metrics::ScopedTimer timer(locate_latency(), obs.size());
  std::vector<LocationEstimate> out(obs.size());
  auto body = [&](std::size_t i) {
    out[i] = locate(obs[i]);
    if (!out[i].valid) locate_degenerate().increment();
  };
  if (pool && obs.size() > 1) {
    concurrency::parallel_for(*pool, 0, obs.size(), body);
  } else {
    for (std::size_t i = 0; i < obs.size(); ++i) body(i);
  }
  return out;
}

}  // namespace loctk::core
