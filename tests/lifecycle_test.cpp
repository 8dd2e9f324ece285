// The fingerprint lifecycle layer: drift detection (EWMA residuals,
// vanish, staleness), quarantined survey intake, and the janitor's
// re-publish protocol (intake → delta-compile → swap_site → drift
// rebase) against a live LocationServer.

#include "lifecycle/janitor.hpp"

#include <algorithm>
#include <cmath>
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
