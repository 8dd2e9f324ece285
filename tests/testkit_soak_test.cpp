// Quick-tier tests for the soak replay on one fleet: invariants hold
// on a small fleet, the run report is deterministic across replays and
// thread counts, and the fault/degraded accounting is exact.

#include "testkit/server_soak.hpp"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "core/probabilistic.hpp"
#include "testkit/scenario.hpp"

namespace loctk::testkit {
namespace {

struct SmallFleet {
  SmallFleet() : scenario(ScenarioSpec::fleet(6, 20, /*seed=*/11)) {
    trace = scenario.record_trace();
    locator = std::make_shared<core::ProbabilisticLocator>(
        scenario.database());
  }
  /// The fleet as a one-site replay.
  std::vector<SoakSite> sites() const { return {{trace, locator}}; }
  Scenario scenario;
  ScanTrace trace;
  std::shared_ptr<const core::Locator> locator;
};

TEST(FleetSoak, SmallFleetPassesAllInvariants) {
  SmallFleet f;
  const ServerSoakResult result = replay_server_soak(f.sites());
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(result.ok());

  const RunReport& r = result.report;
  EXPECT_EQ(r.scans_replayed, f.trace.scans.size());
  EXPECT_EQ(r.device_count, 6u);
  EXPECT_EQ(r.valid_fixes + r.degraded_fixes + r.invalid_fixes,
            r.scans_replayed);
  // A clean trace rejects nothing and most scans fix (only the
  // min_scans warm-up per device cannot).
  EXPECT_EQ(r.rejected_samples, 0u);
  EXPECT_GT(r.valid_fix_fraction(), 0.8);
  EXPECT_EQ(r.errors_ft.size(), r.valid_fixes);
  EXPECT_TRUE(std::is_sorted(r.errors_ft.begin(), r.errors_ft.end()));
  EXPECT_GT(result.p99_on_scan_s, 0.0);
}

TEST(FleetSoak, ReportIsIdenticalAcrossReplays) {
  SmallFleet f;
  const ServerSoakResult once = replay_server_soak(f.sites());
  const ServerSoakResult twice = replay_server_soak(f.sites());
  EXPECT_EQ(once.report, twice.report);
}

TEST(FleetSoak, ReportIsThreadCountInvariant) {
  SmallFleet f;
  concurrency::ThreadPool one(1);
  concurrency::ThreadPool many(4);
  ServerSoakConfig serial;
  serial.pool = &one;
  ServerSoakConfig parallel;
  parallel.pool = &many;
  const ServerSoakResult a = replay_server_soak(f.sites(), serial);
  const ServerSoakResult b = replay_server_soak(f.sites(), parallel);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_EQ(a.report, b.report);
}

TEST(FleetSoak, CountsInjectedFaults) {
  ScenarioSpec spec = ScenarioSpec::fleet(4, 15, /*seed=*/23);
  spec.faults.push_back({.device = 0, .scan_index = 5,
                         .kind = FaultEvent::Kind::kNonFiniteRssi});
  spec.faults.push_back({.device = 2, .scan_index = 9,
                         .kind = FaultEvent::Kind::kNonFiniteRssi});
  spec.faults.push_back({.device = 3, .scan_index = 3,
                         .kind = FaultEvent::Kind::kDropScan});
  const Scenario scenario(spec);
  const ScanTrace trace = scenario.record_trace();
  const auto locator =
      std::make_shared<core::ProbabilisticLocator>(scenario.database());

  const ServerSoakResult result = replay_server_soak({{trace, locator}});
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
  EXPECT_EQ(result.report.scans_replayed, 4u * 15u - 1u);  // one dropped
  EXPECT_EQ(result.report.rejected_samples, 2u);  // one NaN sample each
}

TEST(FleetSoak, LatencyBoundViolationIsReported) {
  SmallFleet f;
  ServerSoakConfig config;
  config.max_p99_on_scan_s = 1e-12;  // impossible bound
  const ServerSoakResult result = replay_server_soak(f.sites(), config);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.violations.front().find("p99"), std::string::npos);
}

TEST(FleetSoak, ReportSerializationIsStable) {
  SmallFleet f;
  const ServerSoakResult result = replay_server_soak(f.sites());
  const std::string json = result.report.to_json();
  EXPECT_EQ(json, replay_server_soak(f.sites()).report.to_json());
  EXPECT_NE(json.find("\"scans_replayed\""), std::string::npos);
  EXPECT_NE(json.find("\"errors_ft\""), std::string::npos);
  EXPECT_NE(result.report.to_text().find("run report"), std::string::npos);
}

TEST(RunReport, FractionsAndPercentiles) {
  RunReport r;
  EXPECT_EQ(r.valid_fix_fraction(), 0.0);
  EXPECT_EQ(r.degraded_fix_rate(), 0.0);
  EXPECT_EQ(r.p90_error_ft(), 0.0);

  r.scans_replayed = 10;
  r.valid_fixes = 6;
  r.degraded_fixes = 2;
  r.invalid_fixes = 2;
  r.errors_ft = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  EXPECT_DOUBLE_EQ(r.valid_fix_fraction(), 0.8);
  EXPECT_DOUBLE_EQ(r.degraded_fix_rate(), 0.25);
  EXPECT_DOUBLE_EQ(r.mean_error_ft(), 3.5);
  EXPECT_DOUBLE_EQ(r.median_error_ft(), 3.0);
  EXPECT_DOUBLE_EQ(r.max_error_ft(), 6.0);
  EXPECT_DOUBLE_EQ(r.error_percentile(1.0), 6.0);
  EXPECT_DOUBLE_EQ(r.error_percentile(0.0), 1.0);
}

}  // namespace
}  // namespace loctk::testkit
