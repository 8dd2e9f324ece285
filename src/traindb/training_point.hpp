#pragma once

/// \file training_point.hpp
/// Aggregated training data for one survey location.
///
/// The paper §5.1: "We then group the signal strength values for each
/// training point, and calculate the average value and standard
/// deviation for each <training point, AP> pair." `ApStatistics` is
/// that pair's record; `TrainingPoint` is one row of the training
/// database. Raw samples can optionally be retained for the
/// histogram/quantile locators (paper §6 item 2 proposes using the
/// full distribution).

#include <optional>
#include <string>
#include <vector>

#include "geom/vec2.hpp"
#include "stats/gaussian.hpp"

namespace loctk::traindb {

/// Signal-strength statistics of one AP at one training point.
struct ApStatistics {
  std::string bssid;
  double mean_dbm = 0.0;
  double stddev_db = 0.0;
  /// Number of scan passes in which the AP was heard here.
  std::uint32_t sample_count = 0;
  /// Number of scan passes at this point overall (heard or not) —
  /// `sample_count / scan_count` is the AP's visibility rate.
  std::uint32_t scan_count = 0;
  double min_dbm = 0.0;
  double max_dbm = 0.0;
  /// Raw per-pass readings in centi-dBm (present only when the
  /// database keeps samples).
  std::vector<std::int32_t> samples_centi_dbm;

  /// Visibility rate in [0, 1].
  double visibility() const {
    return scan_count ? static_cast<double>(sample_count) /
                            static_cast<double>(scan_count)
                      : 0.0;
  }

  /// Gaussian fitted to this pair, with `sigma_floor` regularization.
  stats::Gaussian gaussian(double sigma_floor = 0.5) const {
    return stats::Gaussian{mean_dbm, stddev_db}.regularized(sigma_floor);
  }

  friend bool operator==(const ApStatistics&,
                         const ApStatistics&) = default;
};

/// One training database row: a named, positioned survey point with
/// per-AP statistics (sorted by BSSID).
struct TrainingPoint {
  std::string location;
  geom::Vec2 position;
  std::vector<ApStatistics> per_ap;

  /// Statistics for `bssid`, or nullptr when the AP was never heard.
  const ApStatistics* find(const std::string& bssid) const;

  /// Sorts `per_ap` by BSSID, the order every database keeps.
  void sort_per_ap();

  /// Mean-signal signature over an ordered BSSID universe; APs not
  /// heard at this point yield `missing_dbm` (a weak-floor sentinel).
  std::vector<double> signature(const std::vector<std::string>& universe,
                                double missing_dbm = -100.0) const;

  friend bool operator==(const TrainingPoint&,
                         const TrainingPoint&) = default;
};

}  // namespace loctk::traindb
