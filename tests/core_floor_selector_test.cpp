// Unit tests for multi-floor training and floor selection, including
// the regression pins for the two campus-cardinality fixes: per-term
// score normalization across floors with different AP universes, and
// explicit rejection of non-finite per-floor scores.

#include "core/floor_selector.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/evaluation.hpp"

namespace loctk::core {
namespace {

struct BuildingFixture {
  BuildingFixture()
      : building(radio::make_office_building(3, 18.0)),
        map(make_training_grid(building->floor(0).footprint(), 10.0)),
        dbs(train_building(*building, map, 40, 9000)) {}

  std::unique_ptr<radio::Building> building;
  wiscan::LocationMap map;
  std::vector<traindb::TrainingDatabase> dbs;
};

std::vector<const traindb::TrainingDatabase*> ptrs(
    const std::vector<traindb::TrainingDatabase>& dbs) {
  std::vector<const traindb::TrainingDatabase*> out;
  for (const auto& db : dbs) out.push_back(&db);
  return out;
}

TEST(TrainBuilding, OneDatabasePerFloorWithCrossFloorAps) {
  const BuildingFixture fx;
  ASSERT_EQ(fx.dbs.size(), 3u);
  for (std::size_t f = 0; f < 3; ++f) {
    EXPECT_EQ(fx.dbs[f].size(), 12u) << f;
    EXPECT_EQ(fx.dbs[f].site_name(), "floor-" + std::to_string(f));
    // Same-floor APs always trained; adjacent-floor APs usually heard
    // somewhere too (slab 18 dB leaves them above sensitivity near
    // their own corner).
    EXPECT_GE(fx.dbs[f].bssid_universe().size(), 4u);
  }
  // Floor-1 surveys should hear more total APs than floor-0 or 2 (two
  // adjacent floors instead of one).
  EXPECT_GE(fx.dbs[1].bssid_universe().size(),
            fx.dbs[0].bssid_universe().size());
}

TEST(FloorSelector, RejectsBadConstruction) {
  using DbPtrs = std::vector<const traindb::TrainingDatabase*>;
  using Compiled = std::vector<std::shared_ptr<const CompiledDatabase>>;
  EXPECT_THROW(FloorSelector(DbPtrs{}), std::invalid_argument);
  EXPECT_THROW(FloorSelector(DbPtrs{nullptr}), std::invalid_argument);
  EXPECT_THROW(FloorSelector(Compiled{}), std::invalid_argument);
  EXPECT_THROW(FloorSelector(Compiled{nullptr}), std::invalid_argument);
}

TEST(FloorSelector, PicksTheRightFloor) {
  const BuildingFixture fx;
  const FloorSelector selector(ptrs(fx.dbs));
  EXPECT_EQ(selector.floor_count(), 3u);

  int correct = 0, total = 0;
  for (std::size_t truth_floor = 0; truth_floor < 3; ++truth_floor) {
    const radio::FloorView view(*fx.building, truth_floor);
    radio::Scanner scanner(view, radio::ChannelConfig{},
                           7000 + truth_floor);
    for (const geom::Vec2 pos :
         {geom::Vec2{12.0, 12.0}, geom::Vec2{25.0, 20.0},
          geom::Vec2{40.0, 30.0}}) {
      scanner.reset_session();
      const Observation obs =
          Observation::from_scans(scanner.collect(pos, 30));
      const FloorEstimate est = selector.locate(obs);
      ASSERT_TRUE(est.valid);
      correct += est.floor == truth_floor;
      ++total;
      // In-floor estimate still lands in the right neighborhood.
      EXPECT_LT(geom::distance(est.estimate.position, pos), 20.0);
    }
  }
  // 18 dB slabs make floors very separable.
  EXPECT_GE(correct, total - 1) << correct << "/" << total;
}

TEST(FloorSelector, ConfidenceDropsWithThinSlabs) {
  // Same building geometry, nearly transparent floors: selection gets
  // less confident.
  const auto thick = radio::make_office_building(2, 24.0);
  const auto thin = radio::make_office_building(2, 4.0);

  auto confidence_of = [](const radio::Building& b) {
    const auto map =
        make_training_grid(b.floor(0).footprint(), 10.0);
    const auto dbs = train_building(b, map, 30, 4242);
    std::vector<const traindb::TrainingDatabase*> p;
    for (const auto& db : dbs) p.push_back(&db);
    const FloorSelector sel(p);
    const radio::FloorView view(b, 0);
    radio::Scanner scanner(view, radio::ChannelConfig{}, 99);
    const Observation obs =
        Observation::from_scans(scanner.collect({25.0, 20.0}, 30));
    const FloorEstimate est = sel.locate(obs);
    return est.valid ? est.floor_confidence : 0.0;
  };

  EXPECT_GT(confidence_of(*thick), confidence_of(*thin));
}

TEST(FloorSelector, EmptyObservationInvalid) {
  const BuildingFixture fx;
  const FloorSelector selector(ptrs(fx.dbs));
  EXPECT_FALSE(selector.locate(Observation{}).valid);
}

traindb::ApStatistics trained_ap(const std::string& bssid, double mean_dbm,
                                 double stddev_db = 2.0) {
  traindb::ApStatistics s;
  s.bssid = bssid;
  s.mean_dbm = mean_dbm;
  s.stddev_db = stddev_db;
  s.sample_count = 40;
  s.scan_count = 40;
  s.min_dbm = mean_dbm - 6.0;
  s.max_dbm = mean_dbm + 6.0;
  return s;
}

Observation observation_of(
    const std::vector<std::pair<std::string, double>>& readings) {
  std::vector<radio::ScanRecord> scans(1);
  for (const auto& [bssid, dbm] : readings) {
    scans[0].samples.push_back({bssid, dbm, 1});
  }
  return Observation::from_scans(scans);
}

// Regression (campus fix #2a): raw per-floor best log-likelihoods are
// not on a common scale when floors have different AP universes — a
// richer floor pays more missing-AP penalty *terms* for the same
// observation, so the raw max systematically favors the small
// universe. The selector must compare per scored term.
TEST(FloorSelector, NormalizesAcrossUnequalFloorUniverses) {
  // Floor 0: two trained APs, both observed 6 dB (3 sigma) off.
  traindb::TrainingPoint small;
  small.location = "small";
  small.position = {0.0, 0.0};
  small.per_ap = {trained_ap("fs:00", -60.0), trained_ap("fs:01", -60.0)};
  const auto small_db = traindb::TrainingDatabase::from_points({small});

  // Floor 1: the same two APs observed spot-on, plus ten more trained
  // APs the (partial) observation never reports.
  traindb::TrainingPoint rich;
  rich.location = "rich";
  rich.position = {0.0, 0.0};
  rich.per_ap = {trained_ap("fs:00", -66.0), trained_ap("fs:01", -66.0)};
  for (int a = 0; a < 10; ++a) {
    rich.per_ap.push_back(
        trained_ap("fr:" + std::to_string(10 + a), -70.0));
  }
  const auto rich_db = traindb::TrainingDatabase::from_points({rich});

  const FloorSelector selector(
      std::vector<const traindb::TrainingDatabase*>{&small_db, &rich_db});
  const Observation obs =
      observation_of({{"fs:00", -66.0}, {"fs:01", -66.0}});

  // The bug this pins: by raw sum, the small floor "wins"…
  const double raw_small = selector.floor_locator(0).locate(obs).score;
  const double raw_rich = selector.floor_locator(1).locate(obs).score;
  ASSERT_GT(raw_small, raw_rich);

  // …but per scored term the rich floor explains the observation
  // better (two exact matches vs two 3-sigma misses), and the
  // selector must say so.
  const FloorEstimate est = selector.locate(obs);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.floor, 1u);
  EXPECT_EQ(est.estimate.location_name, "rich");
  EXPECT_GT(est.floor_confidence, 0.0);
  EXPECT_LE(est.floor_confidence, 1.0);

  // Pin the normalization arithmetic itself: score / (common +
  // penalties), penalties = trained + in + outside - 2*common.
  const auto scores = selector.floor_scores(obs);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_GT(scores[1], scores[0]);
  EXPECT_NEAR(scores[0], raw_small / 2.0, 1e-12);
  EXPECT_NEAR(scores[1], raw_rich / 12.0, 1e-12);
}

// Regression (campus fix #2b): a NaN reading reaching one floor's
// kernel used to corrupt the max_element fold (NaN comparisons are
// all false, so the NaN floor "won" at index 0) and leak a NaN score
// out of the estimate. Non-finite floors must be disqualified.
TEST(FloorSelector, RejectsNonFiniteFloorScores) {
  traindb::TrainingPoint f0;
  f0.location = "f0";
  f0.position = {0.0, 0.0};
  f0.per_ap = {trained_ap("na:00", -55.0), trained_ap("sh:01", -60.0)};
  const auto db0 = traindb::TrainingDatabase::from_points({f0});

  traindb::TrainingPoint f1;
  f1.location = "f1";
  f1.position = {0.0, 0.0};
  f1.per_ap = {trained_ap("sh:01", -60.0), trained_ap("ot:02", -65.0)};
  const auto db1 = traindb::TrainingDatabase::from_points({f1});

  const FloorSelector selector(
      std::vector<const traindb::TrainingDatabase*>{&db0, &db1});
  // na:00 reads NaN: floor 0 scores it as a common AP (NaN Gaussian);
  // floor 1 has never heard of it (finite penalty term).
  const Observation obs = observation_of(
      {{"na:00", std::numeric_limits<double>::quiet_NaN()},
       {"sh:01", -60.0}});

  const auto scores = selector.floor_scores(obs);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_EQ(scores[0], -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isfinite(scores[1]));

  const FloorEstimate est = selector.locate(obs);
  ASSERT_TRUE(est.valid);
  EXPECT_EQ(est.floor, 1u);
  EXPECT_EQ(est.estimate.location_name, "f1");
  EXPECT_TRUE(std::isfinite(est.estimate.score));
  EXPECT_TRUE(std::isfinite(est.floor_confidence));

  // When every floor is poisoned, the fix must refuse rather than
  // return floor 0 with a NaN score.
  const Observation all_nan = observation_of(
      {{"na:00", std::numeric_limits<double>::quiet_NaN()}});
  EXPECT_FALSE(selector.locate(all_nan).valid);
}

// Campus fix #1: selection rides the compiled locate() path, so a
// shared compilation must work and agree with the private one bit for
// bit.
TEST(FloorSelector, SharedCompilationAgreesWithExact) {
  const BuildingFixture fx;
  const FloorSelector exact(ptrs(fx.dbs));

  std::vector<std::shared_ptr<const CompiledDatabase>> shared;
  for (const auto& db : fx.dbs) {
    shared.push_back(CompiledDatabase::compile(db));
  }
  const FloorSelector shared_sel(std::move(shared));

  for (std::size_t truth_floor = 0; truth_floor < 3; ++truth_floor) {
    const radio::FloorView view(*fx.building, truth_floor);
    radio::Scanner scanner(view, radio::ChannelConfig{},
                           6100 + truth_floor);
    const Observation obs =
        Observation::from_scans(scanner.collect({18.0, 22.0}, 20));
    const FloorEstimate e = exact.locate(obs);
    const FloorEstimate s = shared_sel.locate(obs);
    ASSERT_TRUE(e.valid);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.floor, e.floor);
    EXPECT_EQ(s.estimate.location_name, e.estimate.location_name);
    EXPECT_EQ(s.estimate.score, e.estimate.score);
    EXPECT_EQ(s.floor_confidence, e.floor_confidence);
  }
}

TEST(TrainCampus, OneDatabasePerFlatFloorMergeableCampusWide) {
  radio::CampusSpec spec;
  spec.buildings = 2;
  spec.floors_per_building = 2;
  spec.floor_width_ft = 120.0;
  spec.floor_depth_ft = 80.0;
  spec.rooms_x = 3;
  spec.rooms_y = 2;
  spec.aps_per_floor = 12;
  spec.seed = 404;
  const auto campus = radio::make_campus(spec);

  const auto dbs = train_campus(*campus, 6, 5150);
  ASSERT_EQ(dbs.size(), 4u);
  for (std::size_t flat = 0; flat < dbs.size(); ++flat) {
    const std::string tag =
        "B" + std::to_string(campus->building_of(flat)) + "F" +
        std::to_string(campus->floor_of(flat));
    EXPECT_EQ(dbs[flat].site_name(), tag);
    EXPECT_EQ(dbs[flat].size(), 6u);
    // Every room survey hears at least its own floor's nearby APs.
    EXPECT_GE(dbs[flat].bssid_universe().size(), 4u);
    for (const auto& tp : dbs[flat].points()) {
      EXPECT_EQ(tp.location.rfind(tag + "-R", 0), 0u) << tp.location;
    }
  }

  const auto merged = merge_floor_databases(dbs, "campus");
  EXPECT_EQ(merged.size(), 24u);
  EXPECT_EQ(merged.site_name(), "campus");
  // The merged universe is the union of the per-floor universes.
  std::size_t widest = 0;
  for (const auto& db : dbs) {
    widest = std::max(widest, db.bssid_universe().size());
  }
  EXPECT_GE(merged.bssid_universe().size(), widest);

  // Floor selection over the flat floors: a receiver standing in a
  // surveyed room on a known (building, floor) should be assigned its
  // flat index.
  std::vector<const traindb::TrainingDatabase*> p;
  for (const auto& db : dbs) p.push_back(&db);
  const FloorSelector selector(p);
  int correct = 0, total = 0;
  for (std::size_t b = 0; b < campus->building_count(); ++b) {
    const auto rooms = campus->room_centers(b);
    for (std::size_t f = 0; f < campus->floors_per_building(); ++f) {
      const radio::CampusFloorView view(*campus, b, f);
      radio::Scanner scanner(view, radio::ChannelConfig{},
                             900 + campus->flat_floor(b, f));
      for (std::size_t r = 0; r < rooms.size(); r += 2) {
        scanner.reset_session();
        const Observation obs =
            Observation::from_scans(scanner.collect(rooms[r], 20));
        const FloorEstimate est = selector.locate(obs);
        ASSERT_TRUE(est.valid);
        correct += est.floor == campus->flat_floor(b, f);
        ++total;
      }
    }
  }
  EXPECT_GE(correct, total - 1) << correct << "/" << total;
}

TEST(FloorSelector, FloorScoresAlignedAndFinite) {
  const BuildingFixture fx;
  const FloorSelector selector(ptrs(fx.dbs));
  const radio::FloorView view(*fx.building, 2);
  radio::Scanner scanner(view, radio::ChannelConfig{}, 1);
  const Observation obs =
      Observation::from_scans(scanner.collect({20.0, 20.0}, 20));
  const auto scores = selector.floor_scores(obs);
  ASSERT_EQ(scores.size(), 3u);
  // The true floor's score is the maximum.
  EXPECT_GE(scores[2], scores[0]);
  EXPECT_GE(scores[2], scores[1]);
}

}  // namespace
}  // namespace loctk::core
