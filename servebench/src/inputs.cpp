#include "inputs.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/evaluation.hpp"
#include "core/location_service.hpp"
#include "radio/campus.hpp"
#include "stats/rng.hpp"
#include "testkit/fleet_frame.hpp"
#include "wiscan/collection.hpp"
#include "wiscan/survey.hpp"

namespace servebench {

namespace fs = std::filesystem;
using namespace loctk;

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "office-fleet") {
    spec.sites = 4;
    spec.survey_scans = 30;
    spec.offered_rate = 10000.0;
    spec.setup_repeats = 15;
  } else if (name == "campus-ops") {
    spec.campus = true;
    spec.survey_scans = 20;
    spec.offered_rate = 960.0;
    spec.open_share = 0.75;
    spec.closed_share = 0.25;
    spec.control_share = 0.0;
    spec.control_under_load = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  spec.scan_interval_s = radio::ChannelConfig{}.scan_interval_s;
  spec.devices_per_site = static_cast<std::size_t>(
      std::lround(spec.offered_rate * spec.scan_interval_s / static_cast<double>(spec.sites)));
  return spec;
}

namespace {

constexpr std::size_t kCampusChunks = 4;

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) { add(s.data(), s.size()); }
};

std::string read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// The standing fault schedule of the server soak: a NaN sample, a
/// lost scan and a vanished strongest AP on a fixed subset of devices.
void add_fault_schedule(testkit::ScenarioSpec& spec) {
  using Kind = testkit::FaultEvent::Kind;
  const auto devices = static_cast<std::uint32_t>(spec.devices.size());
  for (std::uint32_t d = 0; d < devices; d += 7) {
    spec.faults.push_back({d, (d % 13) + 3, Kind::kNonFiniteRssi});
  }
  for (std::uint32_t d = 3; d < devices; d += 11) {
    spec.faults.push_back({d, (d % 17) + 2, Kind::kDropScan});
  }
  for (std::uint32_t d = 5; d < devices; d += 9) {
    spec.faults.push_back({d, (d % 19) + 1, Kind::kDropStrongestAp});
  }
}

/// A survey dwell per surveyed location, rebuilt from the wi-scan rows
/// exactly as written: one scan per distinct timestamp, in file order.
std::vector<lifecycle::SurveyDwell> dwells_from(
    const wiscan::Collection& collection, const wiscan::LocationMap& map) {
  std::vector<lifecycle::SurveyDwell> dwells;
  for (const wiscan::WiScanFile& file : collection.files) {
    lifecycle::SurveyDwell dwell;
    dwell.location = file.location;
    dwell.position = map.find(file.location).value();
    for (const wiscan::WiScanEntry& e : file.entries) {
      if (dwell.scans.empty() ||
          dwell.scans.back().timestamp_s != e.timestamp_s) {
        dwell.scans.push_back({e.timestamp_s, {}});
      }
      dwell.scans.back().samples.push_back({e.bssid, e.rssi_dbm, e.channel});
    }
    dwells.push_back(std::move(dwell));
  }
  return dwells;
}

/// Static office floor drawing plus one marker per device at `tick`.
floorplan::FleetFrameSpec office_frame(const testkit::Scenario& scenario,
                                       const testkit::ScanTrace& trace,
                                       const std::vector<std::vector<std::size_t>>& by_device,
                                       std::size_t tick) {
  constexpr double kPxPerFt = 4.0;
  constexpr int kMargin = 16;
  const radio::Environment& env = scenario.testbed().environment();
  const geom::Rect fp = env.footprint();
  auto px = [&](double ft, double origin) {
    return kMargin + static_cast<int>(std::lround((ft - origin) * kPxPerFt));
  };
  floorplan::FleetFrameSpec spec;
  spec.width = px(fp.max.x, fp.min.x) + kMargin;
  spec.height = px(fp.max.y, fp.min.y) + kMargin;
  spec.add_rect(px(fp.min.x, fp.min.x), px(fp.min.y, fp.min.y),
                spec.width - 2 * kMargin, spec.height - 2 * kMargin,
                image::colors::kBlack);
  for (const radio::Wall& wall : env.walls()) {
    spec.add_line(px(wall.segment.a.x, fp.min.x), px(wall.segment.a.y, fp.min.y),
                  px(wall.segment.b.x, fp.min.x), px(wall.segment.b.y, fp.min.y),
                  image::colors::kDarkGray);
  }
  for (const radio::AccessPoint& ap : env.access_points()) {
    const int x = px(ap.position.x, fp.min.x);
    const int y = px(ap.position.y, fp.min.y);
    spec.add_marker(x, y, image::MarkerShape::kTriangle, image::colors::kRed, 5);
    spec.add_text(x + 7, y - 4, ap.name.empty() ? ap.bssid : ap.name,
                  image::colors::kBlack);
  }
  for (const auto& scans : by_device) {
    if (scans.empty()) continue;
    const geom::Vec2 truth = trace.scans[scans[tick % scans.size()]].truth;
    spec.add_marker(px(truth.x, fp.min.x), px(truth.y, fp.min.y),
                    image::MarkerShape::kDot, image::colors::kBlue, 2);
  }
  return spec;
}

/// Runs independent input-generation jobs on up to four threads.
void run_parallel(const std::vector<std::function<void()>>& jobs) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < jobs.size();) {
      try {
        jobs[i]();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        error = std::current_exception();
      }
    }
  };
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, std::min<std::size_t>(4, jobs.size()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

void add_file_digest(Fnv& fnv, const fs::path& dir) {
  std::vector<fs::path> files;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    fnv.add(f.filename().string());
    fnv.add(read_file(f));
  }
}

}  // namespace

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double open_s, std::size_t frames, const fs::path& dir) {
  Inputs in;
  const double period_s = spec.scan_interval_s;
  const std::size_t preroll = core::LocationServiceConfig{}.window_scans;
  const int scans_per_device =
      static_cast<int>(std::ceil(open_s / period_s)) + 2 + static_cast<int>(preroll);
  const bool campus = spec.campus;
  // A campus fleet is recorded as independent chunks of devices on the
  // same campus (its AP layout is fixed by CampusSpec::seed), so the
  // radio simulation can run on several threads.
  const std::size_t chunks = campus ? kCampusChunks : 1;
  const std::size_t chunk_devices = spec.devices_per_site / chunks;
  if (chunk_devices * chunks != spec.devices_per_site) {
    throw std::invalid_argument("devices per site must split into equal chunks");
  }

  fs::remove_all(dir);
  fs::create_directories(dir);
  in.sites.resize(spec.sites);
  std::vector<std::vector<std::unique_ptr<testkit::Scenario>>> scenarios(spec.sites);
  std::vector<std::vector<testkit::ScanTrace>> traces(spec.sites);
  std::vector<std::function<void()>> jobs;
  for (std::size_t s = 0; s < spec.sites; ++s) {
    const std::uint64_t site_seed = mix(seed, s);
    in.sites[s].name = spec.name + "-site" + std::to_string(s);
    in.sites[s].survey_dir = dir / in.sites[s].name;
    in.sites[s].map_file = dir / (in.sites[s].name + ".map");
    fs::create_directories(in.sites[s].survey_dir);
    scenarios[s].resize(chunks);
    traces[s].resize(chunks);
    for (std::size_t k = 0; k < chunks; ++k) {
      jobs.push_back([&, s, k, site_seed] {
        const std::uint64_t chunk_seed = mix(site_seed, 1000 + k);
        testkit::ScenarioSpec scenario_spec =
            campus ? testkit::ScenarioSpec::campus_fleet(
                         chunk_devices, scans_per_device, chunk_seed)
                   : testkit::ScenarioSpec::fleet(
                         chunk_devices, scans_per_device, chunk_seed,
                         testkit::SiteModel::kOfficeFloor);
        scenario_spec.name = in.sites[s].name;
        if (scenario_spec.channel.scan_interval_s != period_s) {
          throw std::logic_error("the trace's scan interval is not the fleet's period");
        }
        // The scenario's own training survey is not served (the served
        // map comes from the wi-scan files); keep it minimal.
        scenario_spec.train_scans = 3;
        scenario_spec.keep_samples = false;
        if (!campus) {
          add_fault_schedule(scenario_spec);
        } else {
          // 2% of the campus APs go off the air at seeded times inside
          // the recorded span; every chunk sees the same churn.
          stats::Rng rng(site_seed ^ 0xC4A2ULL);
          const int aps = scenario_spec.campus.total_aps();
          const double span_s = 0.25 * static_cast<double>(chunk_devices) +
                                static_cast<double>(scans_per_device);
          for (int i = 0; i < aps / 50; ++i) {
            const auto ap = static_cast<std::uint32_t>(rng.uniform() * aps);
            scenario_spec.ap_churn.push_back(
                {ap % static_cast<std::uint32_t>(aps), span_s * (0.2 + 0.6 * rng.uniform())});
          }
        }
        scenarios[s][k] = std::make_unique<testkit::Scenario>(std::move(scenario_spec));
        traces[s][k] = scenarios[s][k]->record_trace();
      });
    }
  }
  run_parallel(jobs);
  jobs.clear();

  // Merge the chunks; device indices continue across chunks.
  std::vector<std::vector<std::uint32_t>> floors(spec.sites);
  for (std::size_t s = 0; s < spec.sites; ++s) {
    SiteInput& site = in.sites[s];
    site.trace.scenario = site.name;
    for (std::size_t k = 0; k < chunks; ++k) {
      const testkit::ScenarioSpec& chunk = scenarios[s][k]->spec();
      const auto per_building = static_cast<std::uint32_t>(chunk.campus.floors_per_building);
      for (const testkit::DeviceSpec& dev : chunk.devices) {
        floors[s].push_back(campus ? dev.building * per_building + dev.floor : 0);
      }
      for (testkit::TraceScan& ts : traces[s][k].scans) {
        ts.device += site.trace.device_count;
        site.trace.scans.push_back(std::move(ts));
      }
      site.trace.device_count += traces[s][k].device_count;
    }
    site.by_device = site.trace.scans_by_device();
    site.scenario = std::move(scenarios[s][0]);
  }

  // The survey, written as wi-scan files plus a location map: one job
  // per office site, or per campus floor.
  wiscan::SurveyConfig survey;
  survey.scans_per_location = spec.survey_scans;
  std::vector<wiscan::LocationMap> maps(spec.sites);
  for (std::size_t s = 0; s < spec.sites; ++s) {
    SiteInput& site = in.sites[s];
    const std::uint64_t site_seed = mix(seed, s);
    if (campus) {
      const radio::Campus& c = site.scenario->campus();
      for (std::size_t b = 0; b < c.building_count(); ++b) {
        const std::vector<geom::Vec2> rooms = c.room_centers(b);
        for (std::size_t f = 0; f < c.floors_per_building(); ++f) {
          std::string tag = "B";
          tag += std::to_string(b) + "F" + std::to_string(f);
          wiscan::LocationMap floor_map;
          for (std::size_t r = 0; r < rooms.size(); ++r) {
            floor_map.add(tag + "-R" + std::to_string(r), rooms[r]);
            maps[s].add(tag + "-R" + std::to_string(r), rooms[r]);
          }
          jobs.push_back([&c, &site, &survey, b, f, site_seed, floor_map] {
            const radio::CampusFloorView view(c, b, f);
            radio::Scanner scanner(view, radio::ChannelConfig{},
                                   mix(site_seed, 100 + c.flat_floor(b, f)));
            wiscan::SurveyCampaign(scanner, survey)
                .run_to_directory(floor_map, site.survey_dir);
          });
        }
      }
    } else {
      const core::Testbed& testbed = site.scenario->testbed();
      maps[s] = core::make_training_grid(testbed.environment().footprint(), 5.0);
      jobs.push_back([&testbed, &site, &survey, &map = maps[s], site_seed] {
        radio::Scanner scanner = testbed.make_scanner(mix(site_seed, 100));
        wiscan::SurveyCampaign(scanner, survey).run_to_directory(map, site.survey_dir);
      });
    }
  }
  run_parallel(jobs);
  for (std::size_t s = 0; s < spec.sites; ++s) {
    SiteInput& site = in.sites[s];
    maps[s].write(site.map_file);
    for (const auto& entry : fs::directory_iterator(site.survey_dir)) {
      site.survey_bytes += entry.file_size();
      ++site.survey_files;
    }
    site.dwells = dwells_from(wiscan::load_collection(site.survey_dir), maps[s]);
  }

  // Open-loop due times: each device scans on its own period with a
  // seeded phase and jitter, so the fleet offers `offered_rate` in
  // aggregate without phase-locking. The jitter only delays: a due time
  // before the start would pile up at 0 as a burst.
  stats::Rng rng(mix(seed, 0x5C4ED));
  for (std::uint32_t s = 0; s < spec.sites; ++s) {
    for (std::uint32_t d = 0; d < in.sites[s].by_device.size(); ++d) {
      const auto g = static_cast<std::uint32_t>(in.devices.size());
      in.devices.push_back({s, d, floors[s][d]});
      const double phase = rng.uniform() * period_s;
      const std::size_t scans = in.sites[s].by_device[d].size();
      for (std::uint32_t k = 0; k < scans; ++k) {
        if (k < preroll) {
          in.preroll.push_back({static_cast<double>(k), g, k});
          continue;
        }
        const double jitter = rng.uniform() * 0.5 * period_s;
        const double due = phase + static_cast<double>(k - preroll) * period_s + jitter;
        if (due >= open_s) break;
        in.schedule.push_back({due, g, k});
      }
    }
  }
  const auto by_due = [](const DueScan& a, const DueScan& b) { return a.due_s < b.due_s; };
  std::stable_sort(in.preroll.begin(), in.preroll.end(), by_due);
  std::stable_sort(in.schedule.begin(), in.schedule.end(), by_due);

  // Per-tick frames of site 0.
  const SiteInput& first = in.sites.front();
  if (campus) {
    const testkit::FleetFrameBuilder builder(*first.scenario);
    const std::size_t ticks = builder.tick_count(first.trace);
    for (std::size_t t = 0; t < frames; ++t) {
      in.frames.push_back(builder.frame(first.trace, t % ticks));
    }
  } else {
    for (std::size_t t = 0; t < frames; ++t) {
      in.frames.push_back(office_frame(*first.scenario, first.trace,
                                       first.by_device, t));
    }
  }

  Fnv fnv;
  for (const SiteInput& site : in.sites) {
    fnv.add(testkit::encode_trace(site.trace));
    add_file_digest(fnv, site.survey_dir);
    fnv.add(read_file(site.map_file));
  }
  for (const DueScan& d : in.preroll) fnv.add(&d, sizeof d);
  for (const DueScan& d : in.schedule) fnv.add(&d, sizeof d);
  in.digest = fnv.h;
  return in;
}

std::vector<std::vector<DueScan>> deal(const std::vector<DueScan>& schedule,
                                       std::size_t threads) {
  std::vector<std::vector<DueScan>> queues(threads);
  for (const DueScan& item : schedule) queues[item.device % threads].push_back(item);
  return queues;
}

}  // namespace servebench
