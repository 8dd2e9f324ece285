#include "lifecycle/drift.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace loctk::lifecycle {

DriftMonitor::DriftMonitor(
    std::shared_ptr<const core::CompiledDatabase> db, DriftConfig config)
    : db_(std::move(db)),
      config_(config),
      state_(db_->pairs().size()),
      last_seen_(db_->point_count(), 0),
      observations_counter_(&metrics::counter("lifecycle.drift.observations")),
      dropped_counter_(&metrics::counter("lifecycle.drift.dropped")),
      drifted_gauge_(&metrics::gauge("lifecycle.drift.drifted_pairs")),
      stale_gauge_(&metrics::gauge("lifecycle.drift.stale_points")),
      max_ewma_gauge_(&metrics::gauge("lifecycle.drift.max_abs_ewma_db")) {}

void DriftMonitor::observe(std::size_t point, const core::Observation& obs) {
  if (point >= db_->point_count()) {
    dropped_counter_->increment();
    return;
  }
  ++observations_;
  observations_counter_->increment();
  last_seen_[point] = observations_;

  // Walk the point's trained row: residual where the AP was heard,
  // absence fold where it was not. APs heard but not trained here say
  // nothing about this row's health (they may simply be new — the
  // intake path, not the monitor, brings them into the map).
  const auto& universe = db_->database().bssid_universe();
  const double a = config_.alpha;
  PairState* state = state_.data() + db_->row_offsets()[point];
  for (const core::TrainedPair& e : db_->row(point)) {
    PairState& s = *state++;
    const std::optional<double> live = obs.mean_of(universe[e.slot]);
    if (live.has_value() && std::isfinite(*live)) {
      s.ewma_db = s.updates == 0 ? *live - e.mean_dbm
                                 : (1.0 - a) * s.ewma_db +
                                       a * (*live - e.mean_dbm);
      s.visibility = (1.0 - a) * s.visibility + a;
      ++s.updates;
    } else {
      s.visibility = (1.0 - a) * s.visibility;
      ++s.updates;
    }
  }
}

bool DriftMonitor::observe(const std::string& location,
                           const core::Observation& obs) {
  const auto& points = db_->database().points();
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (points[p].location == location) {
      observe(p, obs);
      return true;
    }
  }
  dropped_counter_->increment();
  return false;
}

DriftReport DriftMonitor::report() const {
  DriftReport report;
  report.observations = observations_;
  const auto& universe = db_->database().bssid_universe();
  const PairState* state = state_.data();
  for (std::size_t p = 0; p < db_->point_count(); ++p) {
    for (const core::TrainedPair& e : db_->row(p)) {
      const PairState& s = *state++;
      if (s.updates < config_.min_updates) continue;
      report.max_abs_ewma_db =
          std::max(report.max_abs_ewma_db, std::abs(s.ewma_db));
      if (s.visibility < config_.vanish_visibility) {
        report.drifted.push_back({p, universe[e.slot], DriftKind::kVanished,
                                  s.ewma_db, s.visibility});
      } else if (std::abs(s.ewma_db) > config_.drift_threshold_db) {
        report.drifted.push_back({p, universe[e.slot], DriftKind::kShifted,
                                  s.ewma_db, s.visibility});
      }
    }
    if (observations_ >= config_.stale_after &&
        observations_ - last_seen_[p] >= config_.stale_after) {
      report.stale_points.push_back(p);
    }
  }
  drifted_gauge_->set(static_cast<double>(report.drifted.size()));
  stale_gauge_->set(static_cast<double>(report.stale_points.size()));
  max_ewma_gauge_->set(report.max_abs_ewma_db);
  return report;
}

void DriftMonitor::rebase(std::shared_ptr<const core::CompiledDatabase> db) {
  const std::shared_ptr<const core::CompiledDatabase> old = std::move(db_);
  std::vector<PairState> old_state = std::move(state_);
  std::vector<std::uint64_t> old_last = std::move(last_seen_);

  db_ = std::move(db);
  state_.assign(db_->pairs().size(), PairState{});
  last_seen_.assign(db_->point_count(), 0);

  // New slot of every old universe BSSID; monotonic, so an old row's
  // run stays ascending under it and merges with the new row's run.
  const std::vector<std::uint32_t> new_slot =
      core::remap_slots(old->database().bssid_universe(),
                        db_->database().bssid_universe());

  const auto& old_points = old->database().points();
  for (std::size_t p = 0; p < db_->point_count(); ++p) {
    // Replacements land in place and appends at the end, so a carried
    // point keeps its index; guard on the name anyway.
    if (p >= old_points.size() ||
        old_points[p].location != db_->point(p).location) {
      continue;
    }
    last_seen_[p] = old_last[p];
    const std::span<const core::TrainedPair> was = old->row(p);
    const std::span<const core::TrainedPair> now = db_->row(p);
    const PairState* from = old_state.data() + old->row_offsets()[p];
    PairState* to = state_.data() + db_->row_offsets()[p];
    for (std::size_t i = 0, j = 0; i < was.size() && j < now.size();) {
      const std::uint32_t slot = new_slot[was[i].slot];
      if (slot == core::kNoSlot || slot < now[j].slot) {
        ++i;
      } else if (slot > now[j].slot) {
        ++j;
      } else {
        // Same trained mean ⇒ the evidence still applies; a changed
        // mean (resurveyed row) must re-earn its EWMA against the new
        // baseline.
        if (was[i].mean_dbm == now[j].mean_dbm) to[j] = from[i];
        ++i;
        ++j;
      }
    }
  }
}

std::vector<std::size_t> DriftReport::drifted_points() const {
  std::vector<std::size_t> points;
  points.reserve(drifted.size());
  for (const DriftedPair& d : drifted) points.push_back(d.point);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

}  // namespace loctk::lifecycle
