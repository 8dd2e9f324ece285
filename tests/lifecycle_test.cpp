// The fingerprint lifecycle layer: drift detection (EWMA residuals,
// vanish, staleness), quarantined survey intake, and the janitor's
// re-publish protocol (intake → delta-compile → swap_site → drift
// rebase) against a live LocationServer.

#include "lifecycle/janitor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_db.hpp"
#include "core/probabilistic.hpp"
#include "lifecycle/drift.hpp"
#include "lifecycle/intake.hpp"
#include "stats/rng.hpp"
#include "stats/running_stats.hpp"
#include "test_fixtures.hpp"
#include "testkit/differential.hpp"
#include "traindb/database.hpp"
#include "traindb/generator.hpp"
#include "wiscan/bucket_table.hpp"

namespace loctk::lifecycle {
namespace {

using loctk::testing::fixture_bssids;
using loctk::testing::fixture_mean_rssi;
using loctk::testing::fixture_observation;
using loctk::testing::make_fixture_db;

std::shared_ptr<const core::CompiledDatabase> fixture_compiled() {
  return core::CompiledDatabase::compile_owned(make_fixture_db());
}

// ---------------------------------------------------------------- drift

TEST(DriftMonitor, CleanTrafficStaysClean) {
  DriftConfig config;
  config.min_updates = 4;
  DriftMonitor monitor(fixture_compiled(), config);
  // Noiseless observations at the training point itself: residual 0.
  for (int i = 0; i < 16; ++i) {
    EXPECT_TRUE(monitor.observe("g20-20", fixture_observation({20, 20})));
  }
  const DriftReport report = monitor.report();
  EXPECT_TRUE(report.clean()) << report.drifted.size();
  EXPECT_EQ(report.max_abs_ewma_db, 0.0);
  EXPECT_EQ(report.observations, 16u);
}

TEST(DriftMonitor, ShiftedApsFlagAfterWarmup) {
  DriftConfig config;
  config.min_updates = 4;
  config.drift_threshold_db = 6.0;
  DriftMonitor monitor(fixture_compiled(), config);
  // Every AP reads 10 dB hot at this point: all four pairs drift. The
  // EWMA seeds at the first residual and every residual is exactly
  // +10, so the EWMA is exactly +10 dB.
  for (int i = 0; i < 8; ++i) {
    monitor.observe("g20-20", fixture_observation({20, 20}, +10.0));
  }
  const DriftReport report = monitor.report();
  ASSERT_EQ(report.drifted.size(), fixture_bssids().size());
  for (const DriftedPair& d : report.drifted) {
    EXPECT_EQ(d.kind, DriftKind::kShifted);
    EXPECT_NEAR(d.ewma_db, 10.0, 1e-9);
  }
  EXPECT_NEAR(report.max_abs_ewma_db, 10.0, 1e-9);
  const std::vector<std::size_t> points = report.drifted_points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(monitor.database().point(points[0]).location, "g20-20");
}

TEST(DriftMonitor, VanishedApFlagsOnVisibilityCollapse) {
  DriftConfig config;
  config.min_updates = 4;
  config.vanish_visibility = 0.2;
  DriftMonitor monitor(fixture_compiled(), config);
  // Observations that never hear fx:03: its visibility EWMA decays as
  // (1-alpha)^n -> needs ~12 updates to cross 0.2 at alpha=0.125.
  std::vector<radio::ScanRecord> scans(1);
  for (std::size_t a = 0; a + 1 < fixture_bssids().size(); ++a) {
    scans[0].samples.push_back(
        {fixture_bssids()[a], fixture_mean_rssi(a, {20, 20}), 1});
  }
  const core::Observation partial = core::Observation::from_scans(scans);
  for (int i = 0; i < 20; ++i) monitor.observe("g20-20", partial);

  const DriftReport report = monitor.report();
  ASSERT_EQ(report.drifted.size(), 1u);
  EXPECT_EQ(report.drifted[0].kind, DriftKind::kVanished);
  EXPECT_EQ(report.drifted[0].bssid, "fx:03");
  EXPECT_LT(report.drifted[0].visibility, 0.2);
}

TEST(DriftMonitor, UntouchedPointsGoStale) {
  DriftConfig config;
  config.stale_after = 10;
  DriftMonitor monitor(fixture_compiled(), config);
  for (int i = 0; i < 12; ++i) {
    monitor.observe("g20-20", fixture_observation({20, 20}));
  }
  const DriftReport report = monitor.report();
  // Every point except the one receiving traffic is stale (25-point
  // fixture grid).
  EXPECT_EQ(report.stale_points.size(),
            monitor.database().point_count() - 1);
  for (const std::size_t p : report.stale_points) {
    EXPECT_NE(monitor.database().point(p).location, "g20-20");
  }
}

TEST(DriftMonitor, UnknownLocationIsDropped) {
  DriftMonitor monitor(fixture_compiled());
  EXPECT_FALSE(monitor.observe("atlantis", fixture_observation({20, 20})));
  EXPECT_EQ(monitor.observations(), 0u);
}

TEST(DriftMonitor, RebaseResetsResurveyedRowsKeepsOthers) {
  DriftConfig config;
  config.min_updates = 4;
  DriftMonitor monitor(fixture_compiled(), config);
  // Drift evidence on two points.
  for (int i = 0; i < 8; ++i) {
    monitor.observe("g20-20", fixture_observation({20, 20}, +10.0));
    monitor.observe("g0-0", fixture_observation({0, 0}, +10.0));
  }
  ASSERT_EQ(monitor.report().drifted_points().size(), 2u);

  // Resurvey g20-20 (its trained means move to the live reality) and
  // republish; g0-0 is untouched.
  core::DatabaseDelta delta;
  traindb::TrainingPoint fixed =
      *monitor.database().database().find("g20-20");
  for (traindb::ApStatistics& s : fixed.per_ap) s.mean_dbm += 10.0;
  delta.upserts.push_back(std::move(fixed));
  monitor.rebase(monitor.database().delta_compile(delta));

  const DriftReport report = monitor.report();
  const std::vector<std::size_t> points = report.drifted_points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(monitor.database().point(points[0]).location, "g0-0");
}

// ------------------------------------------------ drift rebase oracle

/// The dense reference: DriftMonitor's observe/rebase/report as they
/// were over points x universe matrices, transcribed with the matrices
/// rebuilt here from the string-keyed database, so the oracle shares
/// nothing with the compiled CSR the monitor walks.
class DenseDriftReference {
 public:
  DenseDriftReference(std::shared_ptr<const core::CompiledDatabase> db,
                      DriftConfig config)
      : config_(config) {
    set_db(std::move(db));
    state_.assign(points() * universe(), PairState{});
    last_seen_.assign(points(), 0);
  }

  void observe(std::size_t point, const core::Observation& obs) {
    if (point >= points()) return;
    ++observations_;
    last_seen_[point] = observations_;
    const auto& names = db_->database().bssid_universe();
    const double a = config_.alpha;
    for (std::size_t u = 0; u < universe(); ++u) {
      if (mask_[point * universe() + u] == 0.0) continue;
      PairState& s = state_[point * universe() + u];
      const double mean = mean_[point * universe() + u];
      const std::optional<double> live = obs.mean_of(names[u]);
      if (live.has_value() && std::isfinite(*live)) {
        s.ewma_db = s.updates == 0 ? *live - mean
                                   : (1.0 - a) * s.ewma_db + a * (*live - mean);
        s.visibility = (1.0 - a) * s.visibility + a;
        ++s.updates;
      } else {
        s.visibility = (1.0 - a) * s.visibility;
        ++s.updates;
      }
    }
  }

  DriftReport report() const {
    DriftReport report;
    report.observations = observations_;
    const auto& names = db_->database().bssid_universe();
    for (std::size_t p = 0; p < points(); ++p) {
      for (std::size_t u = 0; u < universe(); ++u) {
        if (mask_[p * universe() + u] == 0.0) continue;
        const PairState& s = state_[p * universe() + u];
        if (s.updates < config_.min_updates) continue;
        report.max_abs_ewma_db =
            std::max(report.max_abs_ewma_db, std::abs(s.ewma_db));
        if (s.visibility < config_.vanish_visibility) {
          report.drifted.push_back(
              {p, names[u], DriftKind::kVanished, s.ewma_db, s.visibility});
        } else if (std::abs(s.ewma_db) > config_.drift_threshold_db) {
          report.drifted.push_back(
              {p, names[u], DriftKind::kShifted, s.ewma_db, s.visibility});
        }
      }
      if (observations_ >= config_.stale_after &&
          observations_ - last_seen_[p] >= config_.stale_after) {
        report.stale_points.push_back(p);
      }
    }
    return report;
  }

  void rebase(std::shared_ptr<const core::CompiledDatabase> db) {
    const std::shared_ptr<const core::CompiledDatabase> old = db_;
    const std::vector<double> old_mean = mean_;
    const std::vector<double> old_mask = mask_;
    const std::size_t old_universe = universe();
    std::vector<PairState> old_state = std::move(state_);
    std::vector<std::uint64_t> old_last = std::move(last_seen_);

    set_db(std::move(db));
    state_.assign(points() * universe(), PairState{});
    last_seen_.assign(points(), 0);
    const auto& names = db_->database().bssid_universe();
    const auto& old_points = old->database().points();
    for (std::size_t p = 0; p < points(); ++p) {
      if (p >= old_points.size() ||
          old_points[p].location != db_->point(p).location) {
        continue;
      }
      last_seen_[p] = old_last[p];
      for (std::size_t u = 0; u < universe(); ++u) {
        const auto ou = old->database().bssid_index(names[u]);
        if (mask_[p * universe() + u] == 0.0 || !ou.has_value()) continue;
        if (old_mask[p * old_universe + *ou] != 0.0 &&
            old_mean[p * old_universe + *ou] == mean_[p * universe() + u]) {
          state_[p * universe() + u] = old_state[p * old_universe + *ou];
        }
      }
    }
  }

 private:
  struct PairState {
    double ewma_db = 0.0;
    double visibility = 1.0;
    std::uint32_t updates = 0;
  };

  std::size_t points() const { return db_->point_count(); }
  std::size_t universe() const { return db_->universe_size(); }

  void set_db(std::shared_ptr<const core::CompiledDatabase> db) {
    db_ = std::move(db);
    mean_.assign(points() * universe(), 0.0);
    mask_.assign(points() * universe(), 0.0);
    const traindb::TrainingDatabase& tdb = db_->database();
    for (std::size_t p = 0; p < points(); ++p) {
      for (const traindb::ApStatistics& s : tdb.points()[p].per_ap) {
        const std::size_t u = *tdb.bssid_index(s.bssid);
        if (mask_[p * universe() + u] != 0.0) continue;  // first wins
        mean_[p * universe() + u] = s.mean_dbm;
        mask_[p * universe() + u] = 1.0;
      }
    }
  }

  std::shared_ptr<const core::CompiledDatabase> db_;
  DriftConfig config_;
  std::vector<double> mean_;
  std::vector<double> mask_;
  std::vector<PairState> state_;
  std::vector<std::uint64_t> last_seen_;
  std::uint64_t observations_ = 0;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_report(const DriftReport& got, const DriftReport& want,
                        const std::string& where) {
  EXPECT_EQ(got.observations, want.observations) << where;
  EXPECT_TRUE(same_bits(got.max_abs_ewma_db, want.max_abs_ewma_db))
      << where << ": " << got.max_abs_ewma_db << " vs "
      << want.max_abs_ewma_db;
  EXPECT_EQ(got.stale_points, want.stale_points) << where;
  ASSERT_EQ(got.drifted.size(), want.drifted.size()) << where;
  for (std::size_t i = 0; i < got.drifted.size(); ++i) {
    const DriftedPair& g = got.drifted[i];
    const DriftedPair& w = want.drifted[i];
    EXPECT_EQ(g.point, w.point) << where << " #" << i;
    EXPECT_EQ(g.bssid, w.bssid) << where << " #" << i;
    EXPECT_EQ(g.kind, w.kind) << where << " #" << i;
    EXPECT_TRUE(same_bits(g.ewma_db, w.ewma_db)) << where << " #" << i;
    EXPECT_TRUE(same_bits(g.visibility, w.visibility)) << where << " #" << i;
  }
}

std::string drift_bssid(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "dr:%04d", i);
  return buf;
}

traindb::ApStatistics drift_stat(int bssid, double mean) {
  traindb::ApStatistics s;
  s.bssid = drift_bssid(bssid);
  s.mean_dbm = mean;
  s.stddev_db = 2.0;
  s.sample_count = 10;
  s.scan_count = 10;
  return s;
}

/// Random row over BSSIDs [0, span): each AP trained with probability
/// `density` at a whole-dB mean.
traindb::TrainingPoint drift_point(stats::Rng& rng, std::string location,
                                   int span, double density) {
  traindb::TrainingPoint tp;
  tp.location = std::move(location);
  tp.position = {rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)};
  for (int b = 0; b < span; ++b) {
    if (rng.bernoulli(density)) {
      tp.per_ap.push_back(drift_stat(
          b, static_cast<double>(rng.uniform_int(-90, -40))));
    }
  }
  return tp;
}

/// An observation near `tp` (some APs shifted, some missing, a few
/// untrained ones heard).
core::Observation drift_observation(stats::Rng& rng,
                                    const traindb::TrainingPoint& tp,
                                    int span) {
  std::vector<radio::ScanRecord> scans(1);
  const double shift = rng.bernoulli(0.3) ? 9.0 : 0.0;
  for (const traindb::ApStatistics& s : tp.per_ap) {
    if (rng.bernoulli(0.8)) {
      scans[0].samples.push_back(
          {s.bssid, s.mean_dbm + shift + rng.uniform(-1.0, 1.0), 1});
    }
  }
  for (int k = 0; k < 2; ++k) {
    const std::string b = drift_bssid(
        static_cast<int>(rng.uniform_int(0, span + 4)));
    if (tp.find(b) == nullptr) {
      scans[0].samples.push_back({b, rng.uniform(-90.0, -40.0), 1});
    }
  }
  return core::Observation::from_scans(scans);
}

// DriftMonitor keeps one state per trained pair, aligned with the
// compiled CSR. Randomized observe -> delta -> rebase sequences must
// give the dense reference's report, field for field and bit for bit,
// across universe growth (new BSSIDs) and shrink (a BSSID's last
// occurrence resurveyed away), appended rows, resurveys with moved
// means and upserts whose means are unchanged.
TEST(DriftMonitor, RebaseMatchesDenseReferenceOnRandomizedSequences) {
  DriftConfig config;
  config.min_updates = 2;
  config.drift_threshold_db = 4.0;
  config.vanish_visibility = 0.6;
  config.stale_after = 24;
  std::size_t carried_flags = 0;
  std::size_t stale = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    stats::Rng rng(9100 + seed);
    int span = 24;
    std::vector<traindb::TrainingPoint> points;
    for (int p = 0; p < 14; ++p) {
      points.push_back(drift_point(rng, "d" + std::to_string(p), span, 0.35));
    }
    auto db = core::CompiledDatabase::compile_owned(
        traindb::TrainingDatabase::from_points(points, "drift"));
    DriftMonitor monitor(db, config);
    DenseDriftReference reference(db, config);
    int appended = 0;
    for (int round = 0; round < 6; ++round) {
      const std::string where =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      for (int k = 0; k < 40; ++k) {
        const std::size_t p = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(db->point_count()) - 1));
        const core::Observation obs =
            drift_observation(rng, db->point(p), span);
        monitor.observe(p, obs);
        reference.observe(p, obs);
      }
      expect_same_report(monitor.report(), reference.report(), where);

      core::DatabaseDelta delta;
      const auto& current = db->database().points();
      auto pick = [&] {
        return current[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(current.size()) - 1))];
      };
      // Unchanged means (a re-submitted row, one AP dropped).
      traindb::TrainingPoint same = pick();
      if (same.per_ap.size() > 1) same.per_ap.pop_back();
      delta.upserts.push_back(same);
      // A resurvey: means move, one new BSSID joins the universe.
      traindb::TrainingPoint moved = pick();
      for (traindb::ApStatistics& s : moved.per_ap) {
        if (rng.bernoulli(0.5)) s.mean_dbm += 3.0;
      }
      moved.per_ap.push_back(drift_stat(span++, -60.0));
      delta.upserts.push_back(moved);
      // An appended row.
      delta.upserts.push_back(drift_point(
          rng, "annex" + std::to_string(appended++), span, 0.35));
      // Shrink: one trained BSSID leaves every upsert and every other
      // row that trains it.
      const auto& names = db->database().bssid_universe();
      const std::string gone = names[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1))];
      auto drop_gone = [&](traindb::TrainingPoint& tp) {
        std::erase_if(tp.per_ap, [&](const traindb::ApStatistics& s) {
          return s.bssid == gone;
        });
      };
      for (traindb::TrainingPoint& up : delta.upserts) drop_gone(up);
      for (const traindb::TrainingPoint& tp : current) {
        const bool upserted = std::any_of(
            delta.upserts.begin(), delta.upserts.end(),
            [&](const traindb::TrainingPoint& up) {
              return up.location == tp.location;
            });
        if (upserted || tp.find(gone) == nullptr) continue;
        traindb::TrainingPoint cut = tp;
        drop_gone(cut);
        delta.upserts.push_back(std::move(cut));
      }

      db = db->delta_compile(delta);
      ASSERT_FALSE(db->slot_of(gone).has_value()) << where;
      monitor.rebase(db);
      reference.rebase(db);
      const DriftReport after = monitor.report();
      expect_same_report(after, reference.report(), where + " after rebase");
      carried_flags += after.drifted.size();
      stale += after.stale_points.size();
    }
  }
  // The sequences exercise what they claim: flags survive rebases and
  // rows go stale.
  EXPECT_GT(carried_flags, 0u);
  EXPECT_GT(stale, 0u);
}

// --------------------------------------------------------------- intake

radio::ScanRecord intake_scan(geom::Vec2 pos, double t,
                              double offset_db = 0.0) {
  radio::ScanRecord rec;
  rec.timestamp_s = t;
  for (std::size_t a = 0; a < fixture_bssids().size(); ++a) {
    rec.samples.push_back(
        {fixture_bssids()[a], fixture_mean_rssi(a, pos) + offset_db, 1});
  }
  return rec;
}

SurveyDwell clean_dwell(std::string location, geom::Vec2 pos,
                        int scans = 4, double offset_db = 0.0) {
  SurveyDwell dwell;
  dwell.location = std::move(location);
  dwell.position = pos;
  for (int i = 0; i < scans; ++i) {
    dwell.scans.push_back(intake_scan(pos, 1.0 * i, offset_db));
  }
  return dwell;
}

TEST(SurveyIntake, AcceptsCleanDwellWithGeneratorStatistics) {
  SurveyIntake intake;
  const auto result = intake.submit(clean_dwell("annex", {15, 25}));
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  const traindb::TrainingPoint& tp = result.value();
  EXPECT_EQ(tp.location, "annex");
  EXPECT_EQ(tp.position, (geom::Vec2{15, 25}));
  ASSERT_EQ(tp.per_ap.size(), fixture_bssids().size());
  // Constant readings: mean exact, stddev 0, counts = scan passes.
  EXPECT_NEAR(tp.per_ap[0].mean_dbm, fixture_mean_rssi(0, {15, 25}), 1e-12);
  EXPECT_EQ(tp.per_ap[0].stddev_db, 0.0);
  EXPECT_EQ(tp.per_ap[0].sample_count, 4u);
  EXPECT_EQ(tp.per_ap[0].scan_count, 4u);
  EXPECT_EQ(intake.pending(), 1u);
  EXPECT_TRUE(intake.quarantined().empty());
}

TEST(SurveyIntake, QuarantinesTooFewScans) {
  SurveyIntake intake;
  const auto result = intake.submit(clean_dwell("thin", {0, 0}, 2));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kDegenerate);
  EXPECT_EQ(intake.pending(), 0u);
  ASSERT_EQ(intake.quarantined().size(), 1u);
  EXPECT_EQ(intake.quarantined()[0].location, "thin");
}

TEST(SurveyIntake, QuarantinesNonFiniteRssi) {
  SurveyIntake intake;
  SurveyDwell dwell = clean_dwell("nan", {0, 0});
  dwell.scans[1].samples[2].rssi_dbm =
      std::numeric_limits<double>::quiet_NaN();
  const auto result = intake.submit(dwell);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCorrupt);
}

TEST(SurveyIntake, QuarantinesImplausibleRssi) {
  SurveyIntake intake;
  SurveyDwell dwell = clean_dwell("hot", {0, 0});
  dwell.scans[0].samples[0].rssi_dbm = +30.0;  // no indoor AP reads this
  const auto result = intake.submit(dwell);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kCorrupt);
  EXPECT_NE(result.error().to_string().find("implausible"),
            std::string::npos);
}

TEST(SurveyIntake, QuarantinesMissingLocation) {
  SurveyIntake intake;
  const auto result = intake.submit(clean_dwell("", {0, 0}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code(), ErrorCode::kParse);
}

TEST(SurveyIntake, DropsSparseApsAndRejectsEmptyResult) {
  IntakeConfig config;
  config.min_samples_per_ap = 3;
  SurveyIntake intake(config);
  // One AP heard once across 3 scans: dropped; the rest survive.
  SurveyDwell dwell = clean_dwell("sparse", {10, 10}, 3);
  dwell.scans[0].samples.push_back({"one:hit", -80.0, 1});
  const auto result = intake.submit(dwell);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().find("one:hit"), nullptr);
  EXPECT_EQ(result.value().per_ap.size(), fixture_bssids().size());

  // A dwell where nothing survives the cut is degenerate.
  SurveyDwell empty;
  empty.location = "void";
  empty.position = {0, 0};
  empty.scans.resize(3);
  empty.scans[0].samples.push_back({"one:hit", -80.0, 1});
  const auto rejected = intake.submit(empty);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code(), ErrorCode::kDegenerate);
}

TEST(SurveyIntake, LaterDwellForSameLocationReplacesStaged) {
  SurveyIntake intake;
  ASSERT_TRUE(intake.submit(clean_dwell("annex", {15, 25})).ok());
  ASSERT_TRUE(intake.submit(clean_dwell("annex", {15, 25}, 4, -5.0)).ok());
  EXPECT_EQ(intake.pending(), 1u);
  core::DatabaseDelta delta = intake.drain();
  ASSERT_EQ(delta.upserts.size(), 1u);
  EXPECT_NEAR(delta.upserts[0].per_ap[0].mean_dbm,
              fixture_mean_rssi(0, {15, 25}) - 5.0, 1e-12);
  EXPECT_EQ(intake.pending(), 0u);
}

TEST(SurveyIntake, StatisticsMatchTheSharedSummaryAndTheMapOracle) {
  // A noisy dwell: dropouts, unsorted samples, a repeated BSSID and
  // APs below the min-samples cut.
  stats::Rng rng(7919);
  SurveyDwell dwell;
  dwell.location = "noisy";
  dwell.position = {12, 34};
  for (int t = 0; t < 9; ++t) {
    radio::ScanRecord scan;
    scan.timestamp_s = t;
    for (int ap = 0; ap < 40; ++ap) {
      if (rng.bernoulli(ap < 30 ? 0.1 : 0.8)) continue;
      scan.samples.push_back({"ap:" + std::to_string((ap * 17) % 41),
                              std::round(rng.uniform(-95.0, -35.0)), 1});
    }
    if (!scan.samples.empty() && rng.bernoulli(0.3)) {
      scan.samples.push_back(scan.samples.front());
    }
    std::shuffle(scan.samples.begin(), scan.samples.end(), rng.engine());
    dwell.scans.push_back(std::move(scan));
  }
  IntakeConfig config;
  config.min_samples_per_ap = 4;
  SurveyIntake intake(config);
  const auto result = intake.submit(dwell);
  ASSERT_TRUE(result.ok()) << result.error().to_string();

  wiscan::BucketTable table;
  for (const radio::ScanRecord& scan : dwell.scans) {
    for (const radio::ScanSample& s : scan.samples) {
      table.add(s.bssid, s.rssi_dbm);
    }
  }
  std::size_t dropped = 0;
  EXPECT_EQ(result.value().per_ap,
            traindb::summarize_aps(table, dwell.scans.size(),
                                   config.min_samples_per_ap, false,
                                   &dropped));
  EXPECT_GT(dropped, 0u);

  // The per-BSSID RunningStats map the intake carried before the
  // shared summary.
  std::map<std::string, stats::RunningStats> buckets;
  for (const radio::ScanRecord& scan : dwell.scans) {
    for (const radio::ScanSample& s : scan.samples) {
      buckets[s.bssid].add(s.rssi_dbm);
    }
  }
  std::vector<traindb::ApStatistics> oracle;
  for (const auto& [bssid, rs] : buckets) {
    if (rs.count() < config.min_samples_per_ap) continue;
    traindb::ApStatistics ap;
    ap.bssid = bssid;
    ap.mean_dbm = rs.mean();
    ap.stddev_db = rs.stddev();
    ap.sample_count = static_cast<std::uint32_t>(rs.count());
    ap.scan_count = static_cast<std::uint32_t>(dwell.scans.size());
    ap.min_dbm = rs.min();
    ap.max_dbm = rs.max();
    oracle.push_back(std::move(ap));
  }
  EXPECT_EQ(result.value().per_ap, oracle);
}

// -------------------------------------------------------------- janitor

LocatorFactory probabilistic_factory() {
  return [](std::shared_ptr<const core::CompiledDatabase> db) {
    return std::make_shared<core::ProbabilisticLocator>(std::move(db));
  };
}

TEST(LifecycleJanitor, RepublishesThroughDeltaCompileAndSwap) {
  serve::LocationServerConfig server_config;
  server_config.max_sites = 4;
  serve::LocationServer server(server_config);
  auto compiled = fixture_compiled();
  const serve::SiteId site =
      server.add_site("living", probabilistic_factory()(compiled));

  LifecycleJanitor janitor(server, site, compiled,
                           probabilistic_factory());
  EXPECT_FALSE(janitor.tick().has_value());  // nothing pending

  // A resurvey of one point plus a brand-new annex point.
  ASSERT_TRUE(janitor.submit_survey(clean_dwell("g20-20", {20, 20})).ok());
  SurveyDwell annex = clean_dwell("annex", {45, 45});
  for (radio::ScanRecord& scan : annex.scans) {
    scan.samples.push_back({"an:ex", -70.0, 1});
  }
  ASSERT_TRUE(janitor.submit_survey(annex).ok());

  const auto report = janitor.tick();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->generation, 2u);
  EXPECT_EQ(report->points_upserted, 2u);
  EXPECT_EQ(report->universe_after, report->universe_before + 1);
  EXPECT_EQ(server.generation(site), 2u);

  // The published compilation is oracle-equal to a from-scratch build
  // of its own merged database.
  const auto rebuild = core::CompiledDatabase::compile(
      janitor.compiled()->database());
  const auto diff =
      testkit::compare_compiled_databases(*janitor.compiled(), *rebuild);
  EXPECT_TRUE(diff.ok()) << diff.to_text();

  // The server now serves the annex.
  const auto estimate =
      server.try_locate(site, fixture_observation({45, 45}));
  ASSERT_TRUE(estimate.ok());

  EXPECT_FALSE(janitor.tick().has_value());  // drained
}

TEST(LifecycleJanitor, HonorsMinimumRepublishBatch) {
  serve::LocationServerConfig server_config;
  server_config.max_sites = 4;
  serve::LocationServer server(server_config);
  auto compiled = fixture_compiled();
  const serve::SiteId site =
      server.add_site("batchy", probabilistic_factory()(compiled));
  JanitorConfig config;
  config.min_republish_batch = 2;
  LifecycleJanitor janitor(server, site, compiled,
                           probabilistic_factory(), config);

  ASSERT_TRUE(janitor.submit_survey(clean_dwell("g0-0", {0, 0})).ok());
  EXPECT_FALSE(janitor.tick().has_value());
  ASSERT_TRUE(janitor.submit_survey(clean_dwell("g10-0", {10, 0})).ok());
  const auto report = janitor.tick();
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->points_upserted, 2u);
}

TEST(LifecycleJanitor, ObserveFixAttributesDriftEvidence) {
  serve::LocationServerConfig server_config;
  server_config.max_sites = 4;
  serve::LocationServer server(server_config);
  auto compiled = fixture_compiled();
  const serve::SiteId site =
      server.add_site("attributed", probabilistic_factory()(compiled));
  LifecycleJanitor janitor(server, site, compiled,
                           probabilistic_factory());

  core::ServiceFix fix;
  fix.valid = true;
  fix.place = "g20-20";
  janitor.observe_fix(fix, fixture_observation({20, 20}));
  EXPECT_EQ(janitor.drift().observations(), 1u);

  core::ServiceFix invalid;
  invalid.valid = false;
  invalid.place = "g20-20";
  janitor.observe_fix(invalid, fixture_observation({20, 20}));
  EXPECT_EQ(janitor.drift().observations(), 1u);
}

}  // namespace
}  // namespace loctk::lifecycle
