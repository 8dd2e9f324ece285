#pragma once

/// \file drift.hpp
/// Per-<training point, AP> RSSI drift detection.
///
/// The paper treats the radio map as a one-shot survey; in deployment
/// APs move, change transmit power, and get replaced, and accuracy
/// decays until the map is refreshed ("Autonomous WiFi Fingerprinting
/// for Indoor Localization", PAPERS.md). `DriftMonitor` turns the
/// serve path's own traffic into the refresh signal: every valid fix
/// attributes its observation to the winning training point, and the
/// monitor folds the residual between each live per-AP mean and the
/// trained mean into an EWMA per <point, AP> pair. Three conditions
/// flag a pair or point for resurvey:
///
///  * **drift** — |residual EWMA| exceeds a dB threshold after warm-up
///    (the AP's power or position changed);
///  * **vanish** — the visibility EWMA of a trained AP collapses (the
///    AP was removed; its fingerprint rows are now misleading);
///  * **staleness** — a point has received no attributed traffic for a
///    configured span (nothing validates its row anymore).
///
/// The monitor reports through `lifecycle.drift.*` in the process
/// metrics registry and feeds `LifecycleJanitor` (janitor.hpp), which
/// decides when the evidence justifies a resurvey + re-publish.
///
/// Thread-safety: none. The monitor is control-plane state owned by
/// one janitor; feed it from one thread (or serialize externally).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/metrics.hpp"
#include "core/compiled_db.hpp"
#include "core/observation.hpp"

namespace loctk::lifecycle {

struct DriftConfig {
  /// EWMA weight of the newest residual (and of presence/absence in
  /// the visibility EWMA).
  double alpha = 0.125;
  /// |residual EWMA| above this flags the pair as drifted (dB).
  double drift_threshold_db = 6.0;
  /// Updates before a pair's EWMA is trusted (warm-up).
  std::uint32_t min_updates = 8;
  /// A trained AP whose visibility EWMA falls below this after
  /// warm-up is considered vanished.
  double vanish_visibility = 0.2;
  /// A point with no attributed observation for this many monitor
  /// observations (across all points) is stale.
  std::uint64_t stale_after = 512;
};

/// Why a pair was flagged.
enum class DriftKind : std::uint8_t { kShifted, kVanished };

struct DriftedPair {
  std::size_t point = 0;
  std::string bssid;
  DriftKind kind = DriftKind::kShifted;
  /// Residual EWMA in dB (live minus trained; meaningful for kShifted).
  double ewma_db = 0.0;
  /// Visibility EWMA in [0, 1].
  double visibility = 1.0;
};

struct DriftReport {
  std::vector<DriftedPair> drifted;
  /// Points with no attributed traffic inside the staleness window.
  std::vector<std::size_t> stale_points;
  double max_abs_ewma_db = 0.0;
  std::uint64_t observations = 0;

  bool clean() const { return drifted.empty() && stale_points.empty(); }
  /// Unique, ascending point indices appearing in `drifted`.
  std::vector<std::size_t> drifted_points() const;
};

class DriftMonitor {
 public:
  /// `db` is the currently-published compilation the residuals are
  /// measured against.
  explicit DriftMonitor(std::shared_ptr<const core::CompiledDatabase> db,
                        DriftConfig config = {});

  /// Folds one observation attributed to training point `point` (the
  /// winning fix) into the per-pair EWMAs. Out-of-range points are
  /// ignored (counted in `lifecycle.drift.dropped`).
  void observe(std::size_t point, const core::Observation& obs);

  /// Convenience: attribute by location name. Returns false (and
  /// counts a drop) when the name is not a training point.
  bool observe(const std::string& location, const core::Observation& obs);

  /// Current flags + staleness; also refreshes the
  /// `lifecycle.drift.*` gauges.
  DriftReport report() const;

  /// Swaps the baseline after a republish: residual state is kept for
  /// <point, AP> pairs whose trained mean is unchanged and reset where
  /// the new compilation disagrees with the old (resurveyed rows, new
  /// or re-interned slots) — a refreshed row must re-earn its drift
  /// evidence against the new means. One merge by slot per row under
  /// the old → new slot remap: O(universe + trained pairs).
  void rebase(std::shared_ptr<const core::CompiledDatabase> db);

  const core::CompiledDatabase& database() const { return *db_; }
  std::uint64_t observations() const { return observations_; }

 private:
  struct PairState {
    double ewma_db = 0.0;
    double visibility = 1.0;
    std::uint32_t updates = 0;
  };

  std::shared_ptr<const core::CompiledDatabase> db_;
  DriftConfig config_;
  /// One state per trained pair, aligned with db_->pairs(): row p's
  /// states are state_[row_offsets()[p] .. row_offsets()[p + 1]).
  std::vector<PairState> state_;
  /// Monitor observation index of each point's last attribution; 0
  /// means never seen.
  std::vector<std::uint64_t> last_seen_;
  std::uint64_t observations_ = 0;

  metrics::Counter* observations_counter_;
  metrics::Counter* dropped_counter_;
  metrics::Gauge* drifted_gauge_;
  metrics::Gauge* stale_gauge_;
  metrics::Gauge* max_ewma_gauge_;
};

}  // namespace loctk::lifecycle
