// PERF — campus-cardinality serving costs: the compiled scoring
// engine on a generated 2-building x 3-floor campus (1020 APs, 240
// surveyed rooms) instead of the single-floor office corpus
// perf_score_kernel uses. The interesting deltas live here, not
// there: the sparse scorer reads a few percent of a 240 x 1020 map,
// floor selection folds six per-floor locators per fix, and compiling
// a 1000-slot universe is the unit of work every snapshot swap pays.
// The window benches slide a device's scans through the serve window
// at campus density (about 79 APs per eight-scan window).

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
// sparse scorer's CSR postings against `dense_bytes`, the two
// points x stride Gaussian tables the dense sweep it replaced kept.
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
  state.counters["dense_bytes"] = static_cast<double>(
      2 * c.scenario.database().size() * locator.compiled().row_stride() *
      sizeof(double));
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

}  // namespace

LOCTK_BENCHMARK_MAIN_WITH_METRICS("perf_campus")
