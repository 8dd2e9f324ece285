#include "lifecycle/intake.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "traindb/generator.hpp"
#include "wiscan/bucket_table.hpp"

namespace loctk::lifecycle {

SurveyIntake::SurveyIntake(IntakeConfig config)
    : config_(config),
      accepted_counter_(&metrics::counter("lifecycle.intake.accepted")),
      quarantined_counter_(&metrics::counter("lifecycle.intake.quarantined")),
      pending_gauge_(&metrics::gauge("lifecycle.intake.pending")) {}

Result<traindb::TrainingPoint> SurveyIntake::submit(
    const SurveyDwell& dwell) {
  auto quarantine = [&](Error error) -> Result<traindb::TrainingPoint> {
    quarantined_counter_->increment();
    quarantined_.push_back({dwell.location, error});
    return std::move(error).with_context("survey intake at '" +
                                         dwell.location + "'");
  };

  if (dwell.location.empty()) {
    return quarantine(Error(ErrorCode::kParse, "dwell has no location name"));
  }
  if (dwell.scans.size() < config_.min_scans) {
    return quarantine(Error(
        ErrorCode::kDegenerate,
        "dwell has " + std::to_string(dwell.scans.size()) +
            " scans, need " + std::to_string(config_.min_scans)));
  }

  // One bucket per BSSID across every scan pass, summarized with the
  // generator's arithmetic so a resurveyed row matches an original one.
  wiscan::BucketTable buckets;
  for (const radio::ScanRecord& scan : dwell.scans) {
    for (const radio::ScanSample& sample : scan.samples) {
      if (!std::isfinite(sample.rssi_dbm)) {
        return quarantine(Error(ErrorCode::kCorrupt,
                                "non-finite RSSI for " + sample.bssid));
      }
      if (sample.rssi_dbm < config_.min_plausible_dbm ||
          sample.rssi_dbm > config_.max_plausible_dbm) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "implausible RSSI %.1f dBm for %s",
                      sample.rssi_dbm, sample.bssid.c_str());
        return quarantine(Error(ErrorCode::kCorrupt, buf));
      }
      buckets.add(sample.bssid, sample.rssi_dbm, dwell.scans.size());
    }
  }

  const traindb::TrainingPoint point{
      dwell.location, dwell.position,
      traindb::summarize_aps(buckets, dwell.scans.size(),
                             config_.min_samples_per_ap,
                             /*keep_samples=*/false)};
  if (point.per_ap.empty()) {
    return quarantine(Error(ErrorCode::kDegenerate,
                            "no AP survived the min-samples cut"));
  }

  // Later dwells for the same location replace earlier staged ones —
  // the freshest survey wins, matching delta upsert semantics.
  bool replaced = false;
  for (traindb::TrainingPoint& staged : staged_) {
    if (staged.location == point.location) {
      staged = point;
      replaced = true;
      break;
    }
  }
  if (!replaced) staged_.push_back(point);
  accepted_counter_->increment();
  pending_gauge_->set(static_cast<double>(staged_.size()));
  return point;
}

core::DatabaseDelta SurveyIntake::drain() {
  core::DatabaseDelta delta;
  delta.upserts = std::move(staged_);
  staged_.clear();
  pending_gauge_->set(0.0);
  return delta;
}

}  // namespace loctk::lifecycle
