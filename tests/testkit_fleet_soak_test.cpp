// Fleet-scale soak (ctest label: soak): >= 64 concurrent simulated
// devices replayed as one site through the soak replay (one
// LocationService session per device) on the default pool, with the
// full invariant battery and a fault schedule mixed in. The scheduled
// CI job runs this suite under TSan — the per-device sessions share
// one locator, so any unsynchronized state in the locate path
// surfaces here.

#include "testkit/server_soak.hpp"

#include <cstdio>

#include <gtest/gtest.h>

#include "core/probabilistic.hpp"
#include "testkit/scenario.hpp"

namespace loctk::testkit {
namespace {

constexpr std::size_t kFleetDevices = 64;
constexpr int kScansPerDevice = 40;

ScenarioSpec fleet_spec() {
  ScenarioSpec spec =
      ScenarioSpec::fleet(kFleetDevices, kScansPerDevice, /*seed=*/64);
  // Sprinkle every fault kind across the fleet so the soak also
  // exercises rejection and coasting under load.
  for (std::uint32_t d = 0; d < kFleetDevices; d += 7) {
    spec.faults.push_back({.device = d, .scan_index = (d % 13) + 3,
                           .kind = FaultEvent::Kind::kNonFiniteRssi});
  }
  for (std::uint32_t d = 3; d < kFleetDevices; d += 11) {
    spec.faults.push_back({.device = d, .scan_index = (d % 17) + 2,
                           .kind = FaultEvent::Kind::kDropScan});
  }
  for (std::uint32_t d = 5; d < kFleetDevices; d += 9) {
    spec.faults.push_back({.device = d, .scan_index = (d % 19) + 1,
                           .kind = FaultEvent::Kind::kDropStrongestAp});
  }
  return spec;
}

TEST(FleetSoakFull, SixtyFourDevicesZeroInvariantViolations) {
  const Scenario scenario(fleet_spec());
  const ScanTrace trace = scenario.record_trace();
  ASSERT_GE(trace.device_count, 64u);

  const auto locator =
      std::make_shared<core::ProbabilisticLocator>(scenario.database());
  ServerSoakConfig config;
  // Generous bound: the scheduled job runs this under TSan on shared
  // CI machines. The quick-tier soak tests keep the tight default.
  config.max_p99_on_scan_s = 5.0;

  const ServerSoakResult result =
      replay_server_soak({{trace, locator}}, config);
  for (const std::string& v : result.violations) ADD_FAILURE() << v;
  EXPECT_TRUE(result.ok());

  const RunReport& r = result.report;
  EXPECT_EQ(r.device_count, kFleetDevices);
  EXPECT_GT(r.rejected_samples, 0u);  // the NaN schedule really ran
  EXPECT_GT(r.valid_fix_fraction(), 0.8);
  std::fputs(r.to_text().c_str(), stderr);
  std::fprintf(stderr, "  wall %.2fs  mean on_scan %.1fus  p99 %.1fus\n",
               result.wall_s, 1e6 * result.mean_on_scan_s,
               1e6 * result.p99_on_scan_s);
}

TEST(FleetSoakFull, ReportIdenticalAcrossConcurrentReplays) {
  const Scenario scenario(fleet_spec());
  const ScanTrace trace = scenario.record_trace();
  const std::vector<SoakSite> sites = {
      {trace,
       std::make_shared<core::ProbabilisticLocator>(scenario.database())}};
  ServerSoakConfig config;
  config.max_p99_on_scan_s = 5.0;

  const ServerSoakResult once = replay_server_soak(sites, config);
  const ServerSoakResult twice = replay_server_soak(sites, config);
  EXPECT_TRUE(once.ok());
  EXPECT_TRUE(twice.ok());
  EXPECT_EQ(once.report, twice.report);
  EXPECT_EQ(once.report.to_json(), twice.report.to_json());
}

}  // namespace
}  // namespace loctk::testkit
