// Unit tests for working-phase observations.

#include "core/observation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stats/rng.hpp"

namespace loctk::core {
namespace {

std::vector<radio::ScanRecord> scripted_scans() {
  std::vector<radio::ScanRecord> scans(3);
  scans[0].timestamp_s = 0.0;
  scans[0].samples = {{"bb", -70.0, 6}, {"aa", -50.0, 1}};
  scans[1].timestamp_s = 1.0;
  scans[1].samples = {{"aa", -52.0, 1}};
  scans[2].timestamp_s = 2.0;
  scans[2].samples = {{"aa", -54.0, 1}, {"bb", -72.0, 6}};
  return scans;
}

TEST(Observation, FromScansAggregatesPerAp) {
  const Observation obs = Observation::from_scans(scripted_scans());
  EXPECT_EQ(obs.ap_count(), 2u);
  EXPECT_FALSE(obs.empty());

  const ObservedAp* aa = obs.find("aa");
  ASSERT_NE(aa, nullptr);
  EXPECT_DOUBLE_EQ(aa->mean_dbm, -52.0);
  EXPECT_EQ(aa->sample_count, 3u);
  ASSERT_EQ(aa->samples_dbm.size(), 3u);

  const ObservedAp* bb = obs.find("bb");
  ASSERT_NE(bb, nullptr);
  EXPECT_DOUBLE_EQ(bb->mean_dbm, -71.0);
  EXPECT_EQ(bb->sample_count, 2u);

  EXPECT_EQ(obs.find("cc"), nullptr);
}

TEST(Observation, ApsSortedByBssid) {
  const Observation obs = Observation::from_scans(scripted_scans());
  ASSERT_EQ(obs.aps().size(), 2u);
  EXPECT_EQ(obs.aps()[0].bssid, "aa");
  EXPECT_EQ(obs.aps()[1].bssid, "bb");
}

TEST(Observation, FromEntriesMatchesFromScans) {
  const auto scans = scripted_scans();
  const Observation from_scans = Observation::from_scans(scans);
  const Observation from_entries =
      Observation::from_entries(wiscan::entries_from_scans(scans));
  EXPECT_EQ(from_scans.aps().size(), from_entries.aps().size());
  for (std::size_t i = 0; i < from_scans.aps().size(); ++i) {
    EXPECT_EQ(from_scans.aps()[i].bssid, from_entries.aps()[i].bssid);
    EXPECT_DOUBLE_EQ(from_scans.aps()[i].mean_dbm,
                     from_entries.aps()[i].mean_dbm);
  }
}

TEST(Observation, MeanOfAndSignature) {
  const Observation obs = Observation::from_scans(scripted_scans());
  EXPECT_DOUBLE_EQ(*obs.mean_of("aa"), -52.0);
  EXPECT_FALSE(obs.mean_of("zz").has_value());

  const auto sig = obs.signature({"aa", "zz", "bb"}, -99.0);
  ASSERT_EQ(sig.size(), 3u);
  EXPECT_DOUBLE_EQ(sig[0], -52.0);
  EXPECT_DOUBLE_EQ(sig[1], -99.0);
  EXPECT_DOUBLE_EQ(sig[2], -71.0);
}

TEST(Observation, EmptyCases) {
  const Observation obs = Observation::from_scans({});
  EXPECT_TRUE(obs.empty());
  EXPECT_EQ(obs.ap_count(), 0u);
  EXPECT_TRUE(obs.signature({}, -100.0).empty());

  // Scans that heard nothing also produce an empty observation.
  std::vector<radio::ScanRecord> silent(5);
  EXPECT_TRUE(Observation::from_scans(silent).empty());
}

// The std::map grouping `from_scans`/`from_entries` used before the
// shared BucketTable, kept as the oracle: keys in map order, readings
// in capture order, mean = capture-order sum / n.
std::vector<ObservedAp> map_grouping_oracle(
    const std::vector<radio::ScanRecord>& scans) {
  std::map<std::string, std::vector<double>> grouped;
  for (const radio::ScanRecord& scan : scans) {
    for (const radio::ScanSample& s : scan.samples) {
      grouped[s.bssid].push_back(s.rssi_dbm);
    }
  }
  std::vector<ObservedAp> aps;
  for (const auto& [bssid, samples] : grouped) {
    ObservedAp ap;
    ap.bssid = bssid;
    ap.sample_count = static_cast<std::uint32_t>(samples.size());
    double sum = 0.0;
    for (const double v : samples) sum += v;
    ap.mean_dbm = sum / static_cast<double>(samples.size());
    ap.samples_dbm = samples;
    aps.push_back(std::move(ap));
  }
  return aps;
}

std::vector<std::string> bssid_universe(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "00:17:ab:%02zx:%02zx:%02zx",
                  (i >> 16) & 0xff, (i >> 8) & 0xff, i & 0xff);
    out.emplace_back(buf);
  }
  // Prefixes and mixed lengths exercise string ordering.
  for (const char* odd : {"", "0", "00:17", "zz", "ZZ", "00:17:ab:00:00:0"}) {
    out.emplace_back(odd);
  }
  return out;
}

// Windows the serve path can see and some it should not: dropouts,
// empty scans, unsorted sample order, a BSSID repeated inside one
// scan, whole-dBm and fractional readings.
std::vector<radio::ScanRecord> random_window(
    stats::Rng& rng, const std::vector<std::string>& universe) {
  const auto heard = static_cast<std::size_t>(
      rng.uniform_int(1, std::min<std::int64_t>(
                             80, static_cast<std::int64_t>(universe.size()))));
  std::vector<std::size_t> pool(universe.size());
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  std::shuffle(pool.begin(), pool.end(), rng.engine());
  pool.resize(heard);

  std::vector<radio::ScanRecord> scans(
      static_cast<std::size_t>(rng.uniform_int(0, 10)));
  for (std::size_t t = 0; t < scans.size(); ++t) {
    scans[t].timestamp_s = static_cast<double>(t);
    if (rng.bernoulli(0.1)) continue;  // an empty scan
    for (const std::size_t ap : pool) {
      if (rng.bernoulli(0.1)) continue;  // dropout
      const double raw = rng.uniform(-100.0, -30.0);
      const double rssi = rng.bernoulli(0.5) ? std::round(raw) : raw;
      scans[t].samples.push_back({universe[ap], rssi, 1});
      if (rng.bernoulli(0.02)) {
        scans[t].samples.push_back({universe[ap], rssi - 1.0, 1});
      }
    }
    if (rng.bernoulli(0.5)) {
      std::shuffle(scans[t].samples.begin(), scans[t].samples.end(),
                   rng.engine());
    }
  }
  return scans;
}

TEST(Observation, GroupingMatchesMapOracleOnRandomizedWindows) {
  stats::Rng rng(20261017);
  for (const std::size_t universe_size : {3u, 6u, 77u, 1000u}) {
    const std::vector<std::string> universe = bssid_universe(universe_size);
    for (int trial = 0; trial < 60; ++trial) {
      const std::vector<radio::ScanRecord> scans =
          random_window(rng, universe);
      const std::vector<ObservedAp> want = map_grouping_oracle(scans);
      EXPECT_TRUE(Observation::from_scans(scans).aps() == want)
          << "universe " << universe_size << " trial " << trial;
      EXPECT_TRUE(Observation::from_entries(
                      wiscan::entries_from_scans(scans)).aps() == want)
          << "universe " << universe_size << " trial " << trial;
    }
  }
}

TEST(Observation, RepeatedBssidWithinOneScanKeepsCaptureOrder) {
  std::vector<radio::ScanRecord> scans(2);
  scans[0].samples = {{"bb", -60.0, 1}, {"aa", -40.0, 1}, {"bb", -62.0, 1}};
  scans[1].samples = {{"bb", -64.0, 1}};
  const Observation obs = Observation::from_scans(scans);
  ASSERT_EQ(obs.ap_count(), 2u);
  EXPECT_EQ(obs.aps()[1].samples_dbm, (std::vector<double>{-60, -62, -64}));
  EXPECT_EQ(obs.aps()[1].sample_count, 3u);
  EXPECT_TRUE(obs.aps() == map_grouping_oracle(scans));
}

}  // namespace
}  // namespace loctk::core
