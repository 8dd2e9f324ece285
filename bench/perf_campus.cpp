// PERF — campus-cardinality serving costs: the compiled scoring
// engine on a generated 2-building x 3-floor campus (1020 APs, 240
// surveyed rooms) instead of the single-floor office corpus
// perf_score_kernel uses. The interesting deltas live here, not
// there: the sparse scorer reads a few percent of a 240 x 1020 map,
// floor selection folds six per-floor locators per fix, and compiling
// a 1000-slot universe is the unit of work every snapshot swap pays.
// The window benches slide a device's scans through the serve window
// at campus density (about 79 APs per eight-scan window), and the serve
// benches run the whole per-scan LocationService::on_scan over it,
// with and without republishes between scans. The
// republish benches take one 8-row resurvey delta (the batch the
// serving benchmark's janitor republishes) through each stage of the
// lifecycle re-publish, against the from-scratch rebuild it avoids.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <thread>
#include <vector>

#include "bench_metrics.hpp"
#include "window_bench.hpp"
#include "core/compiled_db.hpp"
#include "core/floor_selector.hpp"
#include "core/location_service.hpp"
#include "core/observation.hpp"
#include "core/probabilistic.hpp"
#include "lifecycle/drift.hpp"
#include "radio/campus.hpp"
#include "radio/scanner.hpp"
#include "testkit/scenario.hpp"

using namespace loctk;

namespace {

struct CampusCorpus {
  CampusCorpus() : scenario(make_spec()) {
    for (const auto& db : scenario.floor_databases()) floors.push_back(&db);
    const radio::Campus& campus = scenario.campus();
    const auto rooms = campus.room_centers(0);
    const radio::CampusFloorView view(campus, 0, 0);
    radio::Scanner scanner(view, radio::ChannelConfig{}, 99);
    observation =
        core::Observation::from_scans(scanner.collect(rooms[3], 8));
    // A closed loop through building 0's ground floor, inscribed in
    // the box of its room centres.
    geom::Vec2 lo = rooms[0], hi = rooms[0];
    for (const geom::Vec2& r : rooms) {
      lo = {std::min(lo.x, r.x), std::min(lo.y, r.y)};
      hi = {std::max(hi.x, r.x), std::max(hi.y, r.y)};
    }
    const geom::Vec2 mid = (lo + hi) * 0.5;
    const geom::Vec2 half = (hi - lo) * 0.5;
    for (int i = 0; i < 512; ++i) {
      const double a = 2.0 * std::numbers::pi * i / 512.0;
      walk.push_back(scanner.scan_at(
          {mid.x + half.x * std::cos(a), mid.y + half.y * std::sin(a)}));
    }
  }

  static testkit::ScenarioSpec make_spec() {
    testkit::ScenarioSpec spec =
        testkit::ScenarioSpec::campus_fleet(4, 2, /*seed=*/55);
    spec.train_scans = 6;
    return spec;
  }

  testkit::Scenario scenario;
  std::vector<const traindb::TrainingDatabase*> floors;
  core::Observation observation;
  std::vector<radio::ScanRecord> walk;
};

const CampusCorpus& campus() {
  static const CampusCorpus c;
  return c;
}

// The §5.1 locate over all 240 rows x 1020 slots. `bytes` is the
// sparse scorer's CSR postings, `map_bytes` the compiled map's
// (CompiledDatabase::memory_bytes).
void BM_CampusLocate(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const core::ProbabilisticLocator locator(c.scenario.database());
  for (auto _ : state) {
    benchmark::DoNotOptimize(locator.locate(c.observation));
  }
  state.counters["points"] =
      static_cast<double>(c.scenario.database().size());
  state.counters["universe"] = static_cast<double>(
      c.scenario.database().bssid_universe().size());
  state.counters["postings"] =
      static_cast<double>(locator.posting_count());
  state.counters["bytes"] = static_cast<double>(locator.scorer_bytes());
  state.counters["map_bytes"] =
      static_cast<double>(locator.compiled().memory_bytes());
}
BENCHMARK(BM_CampusLocate)->Unit(benchmark::kMicrosecond);

// Floor determination + in-floor fix: six per-floor locates plus the
// per-term normalized fold.
void BM_CampusFloorSelect(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const core::FloorSelector selector(c.floors);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.locate(c.observation));
  }
  state.counters["floors"] = static_cast<double>(selector.floor_count());
}
BENCHMARK(BM_CampusFloorSelect)->Unit(benchmark::kMicrosecond);

// The locator build every republish pays on top of the compile: the
// pooled sigmas and the scorer's per-cell Gaussian constants.
void BM_CampusBuildLocator(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const auto compiled = core::CompiledDatabase::compile(c.scenario.database());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ProbabilisticLocator(compiled));
  }
}
BENCHMARK(BM_CampusBuildLocator)->Unit(benchmark::kMicrosecond);

// What every republish of a campus site pays before its snapshot can
// swap in: one compile of the merged 1000-slot database.
void BM_CampusCompileDatabase(benchmark::State& state) {
  const CampusCorpus& c = campus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::CompiledDatabase::compile(c.scenario.database()));
  }
}
BENCHMARK(BM_CampusCompileDatabase)->Unit(benchmark::kMillisecond);

// A resurvey of 8 rooms spread over the campus: each row's means move
// +1 dB, and (unless `same_universe`) the first room also hears one new
// BSSID, so the universe grows by a slot and every later slot
// renumbers.
core::DatabaseDelta resurvey_delta(const traindb::TrainingDatabase& db,
                                   bool same_universe = false) {
  constexpr std::size_t kRows = 8;
  core::DatabaseDelta delta;
  for (std::size_t i = 0; i < kRows; ++i) {
    traindb::TrainingPoint tp = db.points()[i * db.size() / kRows];
    for (traindb::ApStatistics& s : tp.per_ap) s.mean_dbm += 1.0;
    if (i == 0 && !same_universe) {
      traindb::ApStatistics fresh = tp.per_ap.front();
      fresh.bssid = "00:00:00:00:00:00";
      tp.per_ap.push_back(fresh);
    }
    delta.upserts.push_back(std::move(tp));
  }
  return delta;
}

// The janitor's compile step: the merged map from the published one.
void BM_CampusDeltaCompile(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const auto base = core::CompiledDatabase::compile(c.scenario.database());
  const core::DatabaseDelta delta = resurvey_delta(c.scenario.database());
  for (auto _ : state) {
    benchmark::DoNotOptimize(base->delta_compile(delta));
  }
  state.counters["rows"] = static_cast<double>(delta.upserts.size());
  state.counters["map_bytes"] = static_cast<double>(base->memory_bytes());
}
BENCHMARK(BM_CampusDeltaCompile)->Unit(benchmark::kMillisecond);

// The oracle the delta path must beat: merge the same upserts into a
// copy of the points, from_points, compile_owned.
void BM_CampusRebuild(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const traindb::TrainingDatabase& db = c.scenario.database();
  const core::DatabaseDelta delta = resurvey_delta(db);
  for (auto _ : state) {
    std::vector<traindb::TrainingPoint> merged = db.points();
    for (const traindb::TrainingPoint& up : delta.upserts) {
      for (traindb::TrainingPoint& p : merged) {
        if (p.location == up.location) p = up;
      }
    }
    benchmark::DoNotOptimize(core::CompiledDatabase::compile_owned(
        traindb::TrainingDatabase::from_points(std::move(merged),
                                               db.site_name())));
  }
  state.counters["rows"] = static_cast<double>(delta.upserts.size());
}
BENCHMARK(BM_CampusRebuild)->Unit(benchmark::kMillisecond);

// The drift monitor moving its per-pair state onto the republished
// map and back (one rebase per iteration, alternating direction).
void BM_CampusDriftRebase(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const auto base = core::CompiledDatabase::compile(c.scenario.database());
  const auto next = base->delta_compile(resurvey_delta(c.scenario.database()));
  lifecycle::DriftMonitor monitor(base);
  for (std::size_t p = 0; p < base->point_count(); ++p) {
    monitor.observe(p, c.observation);
  }
  bool forward = true;
  for (auto _ : state) {
    monitor.rebase(forward ? next : base);
    forward = !forward;
  }
  state.counters["pairs"] = static_cast<double>(base->pairs().size());
}
BENCHMARK(BM_CampusDriftRebase)->Unit(benchmark::kMillisecond);

// The whole compute side of a janitor republish: delta-compile, the
// serving locator's build, the drift rebase.
void BM_CampusRepublish(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const auto base = core::CompiledDatabase::compile(c.scenario.database());
  const core::DatabaseDelta delta = resurvey_delta(c.scenario.database());
  lifecycle::DriftMonitor monitor(base);
  for (auto _ : state) {
    const auto next = base->delta_compile(delta);
    benchmark::DoNotOptimize(
        std::make_shared<const core::ProbabilisticLocator>(next));
    monitor.rebase(next);
  }
  state.counters["rows"] = static_cast<double>(delta.upserts.size());
}
BENCHMARK(BM_CampusRepublish)->Unit(benchmark::kMillisecond);

// The serve window at campus density, default eight-scan window:
// Slide is what on_scan runs per scan, FromScans the copy +
// re-grouping it replaced.
void BM_Window_FromScans(benchmark::State& state) {
  bench::run_window_from_scans(state, campus().walk,
                               core::LocationServiceConfig{}.window_scans);
}
BENCHMARK(BM_Window_FromScans)->Unit(benchmark::kMicrosecond);

void BM_Window_Slide(benchmark::State& state) {
  bench::run_window_slide(state, campus().walk,
                          core::LocationServiceConfig{}.window_scans);
}
BENCHMARK(BM_Window_Slide)->Unit(benchmark::kMicrosecond);

// One served campus scan: LocationService::on_scan in the snapshot
// form the server calls (window slide, slot query, score, Kalman step)
// over the campus walk, against one published map. Compare with
// BM_CampusLocate, the score alone.
void BM_CampusServeScan(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const core::ProbabilisticLocator locator(c.scenario.database());
  core::LocationService service{core::LocationServiceConfig{}};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service.on_scan(locator, c.walk[i++ % c.walk.size()]));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["aps"] = bench::mean_window_aps(
      c.walk, core::LocationServiceConfig{}.window_scans);
}
BENCHMARK(BM_CampusServeScan)->Unit(benchmark::kMicrosecond);

// The same scans with the site republished every 2 scans, as a janitor
// publishing resurveys of known APs does: each republish is a
// same-universe delta, so it keeps the universe id and every session's
// cached slots stay valid. CI fails when this costs more than 1.25x
// BM_CampusServeScan: a slot cache keyed by the map instead of the
// universe re-resolves the whole window after every swap.
void BM_CampusServeScan_Republished(benchmark::State& state) {
  const CampusCorpus& c = campus();
  const auto base = core::CompiledDatabase::compile(c.scenario.database());
  const core::ProbabilisticLocator maps[] = {
      core::ProbabilisticLocator(base),
      core::ProbabilisticLocator(base->delta_compile(
          resurvey_delta(c.scenario.database(), /*same_universe=*/true)))};
  if (maps[0].compiled().universe_id() != maps[1].compiled().universe_id()) {
    state.SkipWithError("the same-universe republish changed the universe");
    return;
  }
  core::LocationService service{core::LocationServiceConfig{}};
  std::size_t i = 0;
  for (auto _ : state) {
    const core::ProbabilisticLocator& published = maps[(i / 2) % 2];
    benchmark::DoNotOptimize(
        service.on_scan(published, c.walk[i++ % c.walk.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CampusServeScan_Republished)->Unit(benchmark::kMicrosecond);

}  // namespace

LOCTK_BENCHMARK_MAIN_WITH_METRICS("perf_campus")
