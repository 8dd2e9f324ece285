// Scoring engine v2 tests.
//
// 1. Backend bit-compatibility: every kernel in core/score_kernels.hpp
//    instantiated with the native backend (simd::Vec4d — AVX2/NEON
//    when LOCTK_SIMD is on) must produce BIT-identical results to the
//    always-compiled scalar fallback (simd::ScalarVec4d), including
//    NaN observations, zero-mask (empty-overlap) rows, and the stride
//    pad. This is the contract that lets CI build the fallback on its
//    own matrix leg and trust it never rots.
// 2. The probabilistic locator's one exact sparse scorer: score_all
//    against the string-keyed reference on randomized corpora (1000+
//    slot universes, every min_common_aps regime, pooled sigma on and
//    off), locate() bit-equal to the arg-max of score_all,
//    locate_batch bit-equal to locate(), delta-compiled maps bit-equal
//    to fresh compiles, the non-finite-observation contract, and the
//    postings gauge exported through the registry.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/metrics.hpp"
#include "base/simd.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/probabilistic.hpp"
#include "core/score_kernels.hpp"
#include "radio/access_point.hpp"
#include "stats/rng.hpp"
#include "test_fixtures.hpp"
#include "testkit/differential.hpp"
#include "testkit/scenario.hpp"

namespace loctk::core {
namespace {

/// Bitwise double equality (NaN-aware: identical bit patterns).
::testing::AssertionResult bits_equal(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits 0x" << std::hex
         << std::bit_cast<std::uint64_t>(a) << " vs 0x"
         << std::bit_cast<std::uint64_t>(b) << ")";
}

/// A randomized padded row set mimicking CompiledDatabase layout.
struct KernelRow {
  simd::AlignedDoubles mean, mask, log_norm, inv_two_var;
  simd::AlignedDoubles q_mean, q_present;
  std::size_t stride = 0;
};

KernelRow random_row(stats::Rng& rng, std::size_t universe,
                     bool zero_mask, bool nan_query) {
  KernelRow r;
  r.stride = simd::padded_stride(universe);
  for (auto* v : {&r.mean, &r.mask, &r.log_norm, &r.inv_two_var, &r.q_mean,
                  &r.q_present}) {
    v->assign(r.stride, 0.0);
  }
  for (std::size_t u = 0; u < universe; ++u) {
    const bool trained = !zero_mask && rng.bernoulli(0.7);
    r.mask[u] = trained ? 1.0 : 0.0;
    if (trained) {
      r.mean[u] = rng.uniform(-95.0, -35.0);
      r.log_norm[u] = rng.uniform(-4.0, -1.0);
      r.inv_two_var[u] = rng.uniform(0.01, 0.5);
    }
    const bool heard = rng.bernoulli(0.6);
    r.q_present[u] = heard ? 1.0 : 0.0;
    if (heard) {
      r.q_mean[u] = nan_query && rng.bernoulli(0.3)
                        ? std::numeric_limits<double>::quiet_NaN()
                        : rng.uniform(-105.0, -25.0);
    }
  }
  return r;
}

TEST(ScoringV2Kernels, NativeBackendBitIdenticalToScalarFallback) {
  stats::Rng rng(9100);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t universe = 1 + static_cast<std::size_t>(trial) % 21;
    const bool zero_mask = trial % 7 == 0;   // empty-overlap row
    const bool nan_query = trial % 5 == 0;   // degenerate observation
    const KernelRow r = random_row(rng, universe, zero_mask, nan_query);

    EXPECT_TRUE(bits_equal(
        kernels::sq_dist_row<simd::ScalarVec4d>(r.mean.data(),
                                                r.q_mean.data(), r.stride),
        kernels::sq_dist_row<simd::Vec4d>(r.mean.data(), r.q_mean.data(),
                                          r.stride)))
        << "trial " << trial;

    const auto ms = kernels::ssd_moments_row<simd::ScalarVec4d>(
        r.mean.data(), r.mask.data(), r.q_mean.data(), r.q_present.data(),
        r.stride);
    const auto mv = kernels::ssd_moments_row<simd::Vec4d>(
        r.mean.data(), r.mask.data(), r.q_mean.data(), r.q_present.data(),
        r.stride);
    EXPECT_TRUE(bits_equal(ms.n, mv.n));
    EXPECT_TRUE(bits_equal(ms.sum_o, mv.sum_o));
    EXPECT_TRUE(bits_equal(ms.sum_t, mv.sum_t));

    const double mo = ms.n > 0.0 ? ms.sum_o / ms.n : 0.0;
    const double mt = ms.n > 0.0 ? ms.sum_t / ms.n : 0.0;
    EXPECT_TRUE(bits_equal(
        kernels::ssd_sq_dist_row<simd::ScalarVec4d>(
            r.mean.data(), r.mask.data(), r.q_mean.data(),
            r.q_present.data(), mo, mt, r.stride),
        kernels::ssd_sq_dist_row<simd::Vec4d>(
            r.mean.data(), r.mask.data(), r.q_mean.data(),
            r.q_present.data(), mo, mt, r.stride)))
        << "trial " << trial;
  }
}

TEST(ScoringV2Kernels, AxpyAndHistFoldBitIdentical) {
  stats::Rng rng(9101);
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n =
        simd::padded_stride(1 + static_cast<std::size_t>(trial) % 40);
    simd::AlignedDoubles col(n), mask(n), acc_s(n, 0.0), acc_v(n, 0.0);
    simd::AlignedDoubles tot_s(n, 0.0), tot_v(n, 0.0), com_s(n, 0.0),
        com_v(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      col[i] = rng.uniform(-8.0, 0.0);
      mask[i] = rng.bernoulli(0.5) ? 1.0 : 0.0;
    }
    const double a = rng.uniform(0.5, 4.0);
    const double inv_n = 1.0 / rng.uniform(1.0, 9.0);
    kernels::axpy<simd::ScalarVec4d>(a, col.data(), acc_s.data(), n);
    kernels::axpy<simd::Vec4d>(a, col.data(), acc_v.data(), n);
    kernels::hist_fold_slot<simd::ScalarVec4d>(
        acc_s.data(), mask.data(), inv_n, tot_s.data(), com_s.data(), n);
    kernels::hist_fold_slot<simd::Vec4d>(acc_v.data(), mask.data(), inv_n,
                                         tot_v.data(), com_v.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(bits_equal(acc_s[i], acc_v[i])) << i;
      EXPECT_TRUE(bits_equal(tot_s[i], tot_v[i])) << i;
      EXPECT_TRUE(bits_equal(com_s[i], com_v[i])) << i;
    }
  }
}

TEST(ScoringV2Kernels, PaddedCellsContributeExactZero) {
  // A row whose pad region is the only difference must score
  // identically to a stride-sized universe: pad cells carry mask 0
  // and value 0, so each padded term is an exact +/-0.0.
  stats::Rng rng(9102);
  const KernelRow r = random_row(rng, 5, false, false);
  ASSERT_GT(r.stride, 5u);
  double serial_n = 0.0, serial_o = 0.0, serial_t = 0.0;
  for (std::size_t u = 0; u < r.stride; ++u) {
    const double m = r.mask[u] * r.q_present[u];
    serial_n += m;
    serial_o += m * r.q_mean[u];
    serial_t += m * r.mean[u];
  }
  const auto got = kernels::ssd_moments_row<simd::Vec4d>(
      r.mean.data(), r.mask.data(), r.q_mean.data(), r.q_present.data(),
      r.stride);
  EXPECT_EQ(got.n, serial_n);
  EXPECT_NEAR(got.sum_o, serial_o, 1e-12);
  EXPECT_NEAR(got.sum_t, serial_t, 1e-12);
}

/// Campus-cardinality fixture: `points` training rows over a >1000
/// slot universe, row p trained on the contiguous AP window
/// [p*step, p*step + width). Two-byte synthetic BSSIDs sort in index
/// order, so slot u is AP u.
traindb::TrainingDatabase make_wide_universe_db(int points = 40,
                                                int step = 26,
                                                int width = 30) {
  std::vector<traindb::TrainingPoint> rows(
      static_cast<std::size_t>(points));
  for (int p = 0; p < points; ++p) {
    rows[p].location = "w" + std::to_string(p);
    rows[p].position = {static_cast<double>(p) * 10.0, 0.0};
    for (int a = p * step; a < p * step + width; ++a) {
      traindb::ApStatistics s;
      s.bssid = radio::synthetic_bssid(a);
      s.mean_dbm = -50.0 - (a % 7);
      s.stddev_db = 2.0;
      s.sample_count = 30;
      s.scan_count = 30;
      s.min_dbm = s.mean_dbm - 4.0;
      s.max_dbm = s.mean_dbm + 4.0;
      rows[p].per_ap.push_back(std::move(s));
    }
  }
  return traindb::TrainingDatabase::from_points(std::move(rows),
                                                "wide-universe");
}

Observation wide_observation(int first_ap, int count, double dbm = -50.0) {
  std::vector<radio::ScanRecord> scans(1);
  for (int a = first_ap; a < first_ap + count; ++a) {
    scans[0].samples.push_back({radio::synthetic_bssid(a), dbm, 1});
  }
  return Observation::from_scans(scans);
}

/// Random corpus over `universe_n` synthetic BSSIDs: each row trains
/// each slot with probability `density` (at least one slot per row),
/// with per-row sigmas and sample counts so pooled sigma has real
/// weights to pool.
traindb::TrainingDatabase random_corpus(stats::Rng& rng, int points,
                                        int universe_n, double density) {
  std::vector<traindb::TrainingPoint> rows(static_cast<std::size_t>(points));
  for (int p = 0; p < points; ++p) {
    traindb::TrainingPoint& tp = rows[static_cast<std::size_t>(p)];
    tp.location = "r" + std::to_string(p);
    tp.position = {rng.uniform(0.0, 300.0), rng.uniform(0.0, 200.0)};
    const int anchor = static_cast<int>(rng.uniform_int(0, universe_n - 1));
    for (int a = 0; a < universe_n; ++a) {
      if (a != anchor && !rng.bernoulli(density)) continue;
      traindb::ApStatistics s;
      s.bssid = radio::synthetic_bssid(a);
      s.mean_dbm = rng.uniform(-95.0, -35.0);
      s.stddev_db = rng.uniform(0.0, 6.0);
      s.sample_count = static_cast<std::uint32_t>(rng.uniform_int(1, 90));
      s.scan_count = 90;
      s.min_dbm = s.mean_dbm - 5.0;
      s.max_dbm = s.mean_dbm + 5.0;
      tp.per_ap.push_back(std::move(s));
    }
  }
  return traindb::TrainingDatabase::from_points(std::move(rows), "random");
}

/// A query near one row: most of that row's APs with noisy means,
/// plus stray universe APs and a few rogues outside the universe.
Observation random_query(stats::Rng& rng, const traindb::TrainingDatabase& db,
                         int universe_n) {
  const auto& near = db.points()[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(db.size()) - 1))];
  std::vector<radio::ScanRecord> scans(1);
  for (const traindb::ApStatistics& s : near.per_ap) {
    if (rng.bernoulli(0.3)) continue;
    scans[0].samples.push_back(
        {s.bssid, s.mean_dbm + rng.uniform(-8.0, 8.0), 1});
  }
  const int strays = static_cast<int>(rng.uniform_int(0, 6));
  for (int k = 0; k < strays; ++k) {
    scans[0].samples.push_back(
        {radio::synthetic_bssid(
             static_cast<int>(rng.uniform_int(0, universe_n - 1))),
         rng.uniform(-100.0, -40.0), 1});
  }
  const int rogues = static_cast<int>(rng.uniform_int(0, 2));
  for (int r = 0; r < rogues; ++r) {
    scans[0].samples.push_back(
        {"rogue:" + std::to_string(r), rng.uniform(-90.0, -40.0), 1});
  }
  return Observation::from_scans(scans);
}

/// One randomized corpus with its queries.
struct Corpus {
  traindb::TrainingDatabase db;
  std::vector<Observation> queries;
};

/// Small, office-sized and campus-sized (1000-slot, ~8% dense)
/// corpora, plus the contiguous-window 1044-slot universe.
std::vector<Corpus> random_corpora(std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<Corpus> out;
  const struct {
    int points, universe;
    double density;
  } shapes[] = {{12, 5, 0.6}, {40, 30, 0.4}, {60, 1000, 0.08}};
  for (const auto& shape : shapes) {
    for (int trial = 0; trial < 3; ++trial) {
      Corpus c{random_corpus(rng, shape.points, shape.universe,
                             shape.density),
               {}};
      for (int q = 0; q < 8; ++q) {
        c.queries.push_back(random_query(rng, c.db, shape.universe));
      }
      out.push_back(std::move(c));
    }
  }
  Corpus wide{make_wide_universe_db(), {}};
  for (int q = 0; q < 8; ++q) {
    wide.queries.push_back(random_query(rng, wide.db, 1044));
  }
  // Zero overlap with every row: only min_common_aps = 0 scores it.
  wide.queries.push_back(Observation{});
  out.push_back(std::move(wide));
  return out;
}

std::vector<ProbabilisticConfig> scorer_configs() {
  std::vector<ProbabilisticConfig> configs;
  for (const int min_common : {0, 1, 3}) {
    for (const bool pooled : {false, true}) {
      ProbabilisticConfig cfg;
      cfg.min_common_aps = min_common;
      cfg.use_pooled_sigma = pooled;
      configs.push_back(cfg);
    }
  }
  return configs;
}

void expect_same_estimate(const LocationEstimate& got,
                          const LocationEstimate& want,
                          const std::string& where) {
  EXPECT_EQ(got.valid, want.valid) << where;
  EXPECT_EQ(got.location_name, want.location_name) << where;
  EXPECT_TRUE(bits_equal(got.position.x, want.position.x)) << where;
  EXPECT_TRUE(bits_equal(got.position.y, want.position.y)) << where;
  EXPECT_TRUE(bits_equal(got.score, want.score)) << where;
  EXPECT_EQ(got.aps_used, want.aps_used) << where;
}

TEST(SparseScorer, ScoreAllMatchesReferenceOnRandomizedCorpora) {
  const double tol = testkit::DifferentialConfig{}.score_tol;
  for (const Corpus& c : random_corpora(9200)) {
    const auto compiled = CompiledDatabase::compile(c.db);
    for (const ProbabilisticConfig& cfg : scorer_configs()) {
      const ProbabilisticLocator locator(compiled, cfg);
      for (std::size_t q = 0; q < c.queries.size(); ++q) {
        const auto scores = locator.score_all(c.queries[q]);
        ASSERT_EQ(scores.size(), c.db.size());
        for (std::size_t p = 0; p < c.db.size(); ++p) {
          int common = 0;
          const double ref =
              locator.log_likelihood(c.queries[q], c.db.points()[p], &common);
          const std::string where =
              c.db.site_name() + " u=" +
              std::to_string(compiled->universe_size()) + " min=" +
              std::to_string(cfg.min_common_aps) + " pooled=" +
              std::to_string(cfg.use_pooled_sigma) + " q" +
              std::to_string(q) + " row " + std::to_string(p);
          EXPECT_EQ(scores[p].point, &c.db.points()[p]) << where;
          EXPECT_EQ(scores[p].common_aps, common) << where;
          if (common < cfg.min_common_aps) {
            EXPECT_EQ(scores[p].log_likelihood,
                      -std::numeric_limits<double>::infinity())
                << where;
          } else {
            EXPECT_NEAR(scores[p].log_likelihood, ref, tol) << where;
          }
        }
      }
    }
  }
}

TEST(SparseScorer, LocateIsBitEqualToTheArgMaxOfScoreAll) {
  for (const Corpus& c : random_corpora(9201)) {
    const auto compiled = CompiledDatabase::compile(c.db);
    for (const ProbabilisticConfig& cfg : scorer_configs()) {
      const ProbabilisticLocator locator(compiled, cfg);
      for (std::size_t q = 0; q < c.queries.size(); ++q) {
        const auto scores = locator.score_all(c.queries[q]);
        // First strictly-greater maximum wins; -inf rows never do, and
        // an empty observation is invalid whatever the penalties say.
        LocationEstimate want;
        double best = -std::numeric_limits<double>::infinity();
        for (const ScoredPoint& sp : scores) {
          if (!c.queries[q].empty() && sp.log_likelihood > best) {
            best = sp.log_likelihood;
            want.valid = true;
            want.position = sp.point->position;
            want.location_name = sp.point->location;
            want.score = sp.log_likelihood;
            want.aps_used = sp.common_aps;
          }
        }
        expect_same_estimate(locator.locate(c.queries[q]), want,
                             "min=" + std::to_string(cfg.min_common_aps) +
                                 " q" + std::to_string(q));
      }
    }
  }
}

TEST(SparseScorer, LocateBatchBitEqualToLocateWithAndWithoutPool) {
  const testkit::Scenario scenario(testkit::ScenarioSpec::fleet(
      6, 24, 73, testkit::SiteModel::kOfficeFloor));
  std::vector<Observation> batch =
      testkit::observations_from_trace(scenario.record_trace(), 8);
  ASSERT_GT(batch.size(), 8u);
  // Degenerate members ride along: empty, and a NaN in-universe mean.
  batch.insert(batch.begin() + 3, Observation{});
  std::vector<radio::ScanRecord> scans(1);
  scans[0].samples.push_back({scenario.database().bssid_universe().front(),
                              std::numeric_limits<double>::quiet_NaN(), 1});
  batch.push_back(Observation::from_scans(scans));

  concurrency::ThreadPool pool(3);
  for (const ProbabilisticConfig& cfg : scorer_configs()) {
    const ProbabilisticLocator locator(scenario.database(), cfg);
    const auto serial = locator.locate_batch(batch);
    const auto pooled = locator.locate_batch(batch, &pool);
    ASSERT_EQ(serial.size(), batch.size());
    ASSERT_EQ(pooled.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const LocationEstimate want = locator.locate(batch[i]);
      expect_same_estimate(serial[i], want, "serial #" + std::to_string(i));
      expect_same_estimate(pooled[i], want, "pooled #" + std::to_string(i));
    }
  }
}

TEST(SparseScorer, DeltaCompiledLocatorBitEqualToFreshCompile) {
  stats::Rng rng(9202);
  for (const int universe_n : {30, 1000}) {
    const auto base = random_corpus(rng, 40, universe_n, 0.1);
    // Replace two rows (one of them now trains new slots past the old
    // universe) and append one.
    const auto extra = random_corpus(rng, 3, universe_n + 20, 0.15);
    DatabaseDelta delta;
    for (std::size_t i = 0; i < extra.size(); ++i) {
      traindb::TrainingPoint tp = extra.points()[i];
      tp.location = i < 2 ? base.points()[5 * i + 1].location : "appended";
      delta.upserts.push_back(std::move(tp));
    }
    std::vector<traindb::TrainingPoint> merged = base.points();
    merged[1] = delta.upserts[0];
    merged[6] = delta.upserts[1];
    merged.push_back(delta.upserts[2]);

    const auto delta_compiled =
        CompiledDatabase::compile(base)->delta_compile(delta);
    const auto fresh = CompiledDatabase::compile_owned(
        traindb::TrainingDatabase::from_points(std::move(merged),
                                               base.site_name()));
    ASSERT_EQ(delta_compiled->universe_size(), fresh->universe_size());
    for (const ProbabilisticConfig& cfg : scorer_configs()) {
      const ProbabilisticLocator a(delta_compiled, cfg);
      const ProbabilisticLocator b(fresh, cfg);
      EXPECT_EQ(a.posting_count(), b.posting_count());
      EXPECT_EQ(a.scorer_bytes(), b.scorer_bytes());
      for (int q = 0; q < 8; ++q) {
        const Observation obs =
            random_query(rng, fresh->database(), universe_n + 20);
        const auto sa = a.score_all(obs);
        const auto sb = b.score_all(obs);
        ASSERT_EQ(sa.size(), sb.size());
        for (std::size_t p = 0; p < sa.size(); ++p) {
          EXPECT_EQ(sa[p].point->location, sb[p].point->location);
          EXPECT_TRUE(bits_equal(sa[p].log_likelihood, sb[p].log_likelihood))
              << "u=" << universe_n << " q" << q << " row " << p;
          EXPECT_EQ(sa[p].common_aps, sb[p].common_aps);
        }
        expect_same_estimate(a.locate(obs), b.locate(obs),
                             "u=" + std::to_string(universe_n) + " q" +
                                 std::to_string(q));
      }
    }
  }
}

// Regression: a NaN mean must not poison the scores into a "valid"
// answer at row 0 with score NaN. A non-finite mean on an in-universe
// AP makes the observation degenerate for every entry point.
TEST(SparseScorer, NonFiniteObservationIsInvalid) {
  const testkit::Scenario scenario(testkit::ScenarioSpec::fleet(2, 8, 72));
  const ProbabilisticLocator locator(scenario.database());
  const auto& universe = scenario.database().bssid_universe();
  ASSERT_GE(universe.size(), 3u);

  std::vector<radio::ScanRecord> nan_only(1);
  nan_only[0].samples.push_back(
      {universe.front(), std::numeric_limits<double>::quiet_NaN(), 1});
  std::vector<radio::ScanRecord> mixed(1);
  mixed[0].samples.push_back({universe[0], -55.0, 1});
  mixed[0].samples.push_back(
      {universe[1], std::numeric_limits<double>::infinity(), 1});
  mixed[0].samples.push_back({universe[2], -70.0, 1});
  const std::vector<Observation> degenerate = {
      Observation::from_scans(nan_only), Observation::from_scans(mixed)};

  concurrency::ThreadPool pool(2);
  for (const Observation& obs : degenerate) {
    EXPECT_FALSE(locator.locate(obs).valid);
    for (const ScoredPoint& sp : locator.score_all(obs)) {
      EXPECT_EQ(sp.log_likelihood, -std::numeric_limits<double>::infinity());
    }
  }
  for (const auto& est : locator.locate_batch(degenerate)) {
    EXPECT_FALSE(est.valid);
  }
  for (const auto& est : locator.locate_batch(degenerate, &pool)) {
    EXPECT_FALSE(est.valid);
  }
  EXPECT_FALSE(locator.locate(Observation{}).valid);

  // A NaN outside the universe touches no row: it only counts as an
  // observed-but-untrained AP, as any rogue does.
  std::vector<radio::ScanRecord> rogue(1);
  rogue[0].samples.push_back({universe[0], -55.0, 1});
  rogue[0].samples.push_back(
      {"rogue:nan", std::numeric_limits<double>::quiet_NaN(), 1});
  const LocationEstimate est = locator.locate(Observation::from_scans(rogue));
  EXPECT_TRUE(est.valid);
  EXPECT_TRUE(std::isfinite(est.score));
}

TEST(SparseScorer, ExportsPostingsGauge) {
  const testkit::Scenario scenario(testkit::ScenarioSpec::fleet(
      3, 12, 75, testkit::SiteModel::kOfficeFloor));
  const auto compiled = CompiledDatabase::compile(scenario.database());
  const ProbabilisticLocator locator(compiled);

  std::size_t trained = 0;
  for (std::size_t p = 0; p < compiled->point_count(); ++p) {
    trained += static_cast<std::size_t>(compiled->trained_count(p));
  }
  const std::size_t cells =
      compiled->point_count() * compiled->universe_size();
  EXPECT_EQ(locator.posting_count(), trained);
  EXPECT_GT(locator.posting_count(), 0u);
  EXPECT_LE(locator.posting_count(), cells);
  EXPECT_GT(locator.scorer_bytes(), 0u);
  EXPECT_EQ(metrics::gauge("score.postings").value(),
            static_cast<double>(trained));
  EXPECT_EQ(metrics::gauge("score.dense_cells").value(),
            static_cast<double>(cells));
}

// Campus-cardinality audit: slot bookkeeping past the 1000-AP mark,
// up to the universe's last slot, where slot indices no longer fit
// habits formed on 4-AP sites.
TEST(SparseScorer, HandlesAThousandSlotUniverse) {
  const auto db = make_wide_universe_db();  // 40*26+30-26 = 1044 slots
  const auto compiled = CompiledDatabase::compile(db);
  ASSERT_GT(compiled->universe_size(), 1000u);
  const ProbabilisticLocator locator(compiled);
  for (const int first : {0, 511, 1010, 1036}) {
    const Observation obs = wide_observation(first, 8);
    ASSERT_EQ(compiled->compile_observation(obs).in_universe(), 8);
    // The row whose training window holds the whole query wins.
    const std::size_t owner = static_cast<std::size_t>(
        std::min(first / 26, 39));
    const LocationEstimate est = locator.locate(obs);
    ASSERT_TRUE(est.valid) << "window at " << first;
    EXPECT_EQ(est.location_name, "w" + std::to_string(owner));
    EXPECT_EQ(est.aps_used, 8);
    const auto scores = locator.score_all(obs);
    EXPECT_TRUE(bits_equal(est.score, scores[owner].log_likelihood));
    int common = 0;
    EXPECT_NEAR(est.score,
                locator.log_likelihood(obs, db.points()[owner], &common),
                testkit::DifferentialConfig{}.score_tol);
    EXPECT_EQ(common, 8);
  }
}

// The likelihood charges a flat penalty per visibility disagreement,
// so a sparsely trained row (one exact AP, five cheap penalties) beats
// densely trained rows that misfit every observed AP by 15 dB. The
// scorer must find that winner, which only a handful of postings name.
TEST(SparseScorer, SparselyTrainedRowWinsOnPenalties) {
  auto trained = [](int ap, double mean) {
    traindb::ApStatistics s;
    s.bssid = radio::synthetic_bssid(ap);
    s.mean_dbm = mean;
    s.stddev_db = 2.0;
    s.sample_count = 30;
    s.scan_count = 30;
    s.min_dbm = mean - 4.0;
    s.max_dbm = mean + 4.0;
    return s;
  };
  std::vector<traindb::TrainingPoint> rows(3);
  for (std::size_t p = 0; p < 2; ++p) {
    const double offset = static_cast<double>(p);
    rows[p].location = "dense" + std::to_string(p);
    rows[p].position = {10.0 * offset, 0.0};
    for (int a = 0; a < 6; ++a) {
      rows[p].per_ap.push_back(trained(a, -60.0 - offset));
    }
  }
  rows[2].location = "sparse";
  rows[2].position = {50.0, 0.0};
  rows[2].per_ap.push_back(trained(5, -70.0));
  const auto db =
      traindb::TrainingDatabase::from_points(std::move(rows), "ml-recall");

  std::vector<radio::ScanRecord> scans(1);
  for (int a = 0; a < 5; ++a) {
    scans[0].samples.push_back({radio::synthetic_bssid(a), -45.0, 1});
  }
  scans[0].samples.push_back({radio::synthetic_bssid(5), -70.0, 1});
  const Observation obs = Observation::from_scans(scans);

  const ProbabilisticLocator locator(db);
  const LocationEstimate e = locator.locate(obs);
  ASSERT_TRUE(e.valid);
  EXPECT_EQ(e.location_name, "sparse");
  EXPECT_EQ(e.aps_used, 1);
  EXPECT_TRUE(bits_equal(e.score, locator.score_all(obs)[2].log_likelihood));
}
}  // namespace
}  // namespace loctk::core
