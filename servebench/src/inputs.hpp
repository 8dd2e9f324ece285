#pragma once

/// \file inputs.hpp
/// Workload definitions and the seeded input generator.
///
/// Everything here is input, never measured program work: scenario
/// synthesis (`radio` + `testkit`), the survey written as wi-scan
/// files, the recorded fleet trace, the resurvey dwells, the open-loop
/// due times and the per-tick frame specs. The same seed (and run
/// length) always yields byte-identical inputs; `digest` proves it.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "floorplan/fleet_compositor.hpp"
#include "lifecycle/intake.hpp"
#include "testkit/scenario.hpp"
#include "testkit/trace.hpp"

namespace servebench {

/// A workload: which sites, which fleet, which load.
struct WorkloadSpec {
  std::string name;
  /// A generated campus with 2% AP churn; otherwise office floors with
  /// the server soak's standing fault schedule.
  bool campus = false;
  std::size_t sites = 1;
  /// Scan passes per surveyed location in the wi-scan files.
  int survey_scans = 30;
  /// Open-loop offered rate over the whole fleet (scans/s). A fixed
  /// number, also named in BENCHMARK.json.
  double offered_rate = 1000.0;
  /// Every device scans once per `scan_interval_s`, the recorded
  /// trace's own scan clock (`radio::ChannelConfig`), so the fleet
  /// that offers `offered_rate` holds `offered_rate × scan_interval_s`
  /// devices.
  double scan_interval_s = 1.0;
  std::size_t devices_per_site = 0;
  /// Share of `--seconds` spent in each measured phase.
  double open_share = 0.5;
  double closed_share = 0.25;
  double control_share = 0.25;
  /// campus-ops: the control plane runs beside the open loop.
  bool control_under_load = false;
  /// Times the whole set-up path is repeated (setup_s is the median).
  std::size_t setup_repeats = 11;
};

/// The named workload; throws on an unknown name.
WorkloadSpec workload_spec(const std::string& name);

/// One served site's inputs.
struct SiteInput {
  std::string name;
  std::unique_ptr<loctk::testkit::Scenario> scenario;
  loctk::testkit::ScanTrace trace;
  /// Scan indices into `trace.scans`, per device, capture order.
  std::vector<std::vector<std::size_t>> by_device;
  std::filesystem::path survey_dir;  ///< one .wiscan file per location
  std::filesystem::path map_file;    ///< the location map
  std::uint64_t survey_bytes = 0;
  std::size_t survey_files = 0;
  /// The original survey dwells, re-submitted by the resurvey path.
  std::vector<loctk::lifecycle::SurveyDwell> dwells;
};

/// One open-loop scan: due time from the start of the phase, which
/// fleet device (index into Inputs::devices), which of its scans.
struct DueScan {
  double due_s = 0.0;
  std::uint32_t device = 0;
  std::uint32_t scan = 0;
};

struct FleetDevice {
  std::uint32_t site = 0;
  std::uint32_t device = 0;  ///< device index within its site's trace
  std::uint32_t floor = 0;   ///< campus floor (building-major); 0 in an office
};

struct Inputs {
  std::vector<SiteInput> sites;
  std::vector<FleetDevice> devices;
  /// The first window's worth of every device's scans, served untimed
  /// before the open loop so the measured scans see full windows (the
  /// fleet is already connected). Ordered by scan index.
  std::vector<DueScan> preroll;
  /// Every measured scan of the open loop, in due order.
  std::vector<DueScan> schedule;
  /// Per-tick frame specs of site 0.
  std::vector<loctk::floorplan::FleetFrameSpec> frames;
  std::uint64_t digest = 0;
};

/// Generates every input of `spec` for `seed` under `dir` (survey
/// files) and in memory. `open_s` sizes the trace and the schedule.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double open_s, std::size_t frames,
                   const std::filesystem::path& dir);

/// Deals the schedule to `threads` load threads: device g goes to
/// thread g % threads, so each device's scans stay in order on one
/// thread; each queue keeps due order.
std::vector<std::vector<DueScan>> deal(const std::vector<DueScan>& schedule,
                                       std::size_t threads);

}  // namespace servebench
