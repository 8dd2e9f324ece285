#pragma once

// The serve window's per-scan cost, shared by perf_serve (office
// corpus) and perf_campus (campus walk): the sliding `ScanWindow` the
// live service keeps, against re-grouping the whole window through
// `Observation::from_scans` on every scan, over the same stream of one
// device's scans.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "core/observation.hpp"
#include "core/scan_window.hpp"
#include "radio/scanner.hpp"

namespace loctk::bench {

/// Mean APs in the window over one pass of `stream`.
inline double mean_window_aps(const std::vector<radio::ScanRecord>& stream,
                              std::size_t window_scans) {
  core::ScanWindow window(window_scans);
  double aps = 0.0;
  for (const radio::ScanRecord& scan : stream) {
    window.push(scan);
    aps += static_cast<double>(window.ap_count());
  }
  return aps / static_cast<double>(stream.size());
}

/// Per scan: copy it, drop its non-finite samples, slide a vector of
/// records and re-group the window (the serve path before
/// `ScanWindow`; still what batch callers of `from_scans` pay).
inline void run_window_from_scans(benchmark::State& state,
                                  const std::vector<radio::ScanRecord>& stream,
                                  std::size_t window_scans) {
  std::vector<radio::ScanRecord> window;
  std::size_t i = 0;
  for (auto _ : state) {
    radio::ScanRecord clean = stream[i++ % stream.size()];
    std::erase_if(clean.samples, [](const radio::ScanSample& s) {
      return !std::isfinite(s.rssi_dbm);
    });
    window.push_back(std::move(clean));
    if (window.size() > window_scans) window.erase(window.begin());
    const core::Observation obs = core::Observation::from_scans(window);
    benchmark::DoNotOptimize(obs.aps().data());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["aps"] = mean_window_aps(stream, window_scans);
}

/// Per scan: one `ScanWindow::push`, all the window upkeep on_scan
/// does before it scores.
inline void run_window_slide(benchmark::State& state,
                             const std::vector<radio::ScanRecord>& stream,
                             std::size_t window_scans) {
  core::ScanWindow window(window_scans);
  std::size_t i = 0;
  for (auto _ : state) {
    window.push(stream[i++ % stream.size()]);
    benchmark::DoNotOptimize(window.ap_count());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["aps"] = mean_window_aps(stream, window_scans);
}

}  // namespace loctk::bench
