#include "workload.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "base/simd.hpp"
#include "concurrency/thread_pool.hpp"
#include "core/compiled_db.hpp"
#include "core/location_service.hpp"
#include "core/observation.hpp"
#include "core/probabilistic.hpp"
#include "core/tracking.hpp"
#include "floorplan/fleet_compositor.hpp"
#include "lifecycle/janitor.hpp"
#include "serve/location_server.hpp"
#include "tracer.hpp"
#include "traindb/codec.hpp"
#include "traindb/generator.hpp"
#include "wiscan/collection.hpp"
#include "wiscan/location_map.hpp"

namespace servebench {

namespace {

namespace fs = std::filesystem;
using namespace loctk;
using std::chrono::duration;
using std::chrono::duration_cast;

double us_between(Clock::time_point a, Clock::time_point b) {
  return duration<double, std::micro>(b - a).count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return duration<double, std::milli>(b - a).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

/// Never sleeps: an idle vCPU that halts can take milliseconds to be
/// scheduled again on a shared host, which would be charged to the
/// scans due meanwhile. Far from the due time the thread yields, so
/// other runnable threads of the process (the control plane) still get
/// the core; close to it, it spins.
void wait_until(Clock::time_point due) {
  const auto near = std::chrono::microseconds(50);
  for (Clock::time_point now = Clock::now(); now < due; now = Clock::now()) {
    if (due - now > near) {
      std::this_thread::yield();
    } else {
      cpu_relax();
    }
  }
}

/// A kB figure of /proc/self/status (`VmRSS`, `VmHWM`); -1 when it
/// cannot be read.
double status_kb(const std::string& key) {
  std::ifstream is("/proc/self/status");
  for (std::string line; std::getline(is, line);) {
    if (line.rfind(key + ":", 0) == 0) return std::stod(line.substr(key.size() + 1));
  }
  return -1.0;
}

/// Restarts the resident-set high-water mark (`VmHWM`) from the
/// current resident set.
bool reset_peak_rss() {
  std::ofstream os("/proc/self/clear_refs");
  os << "5" << std::flush;
  return static_cast<bool>(os);
}

/// Hands free heap pages back to the kernel, so the resident set holds
/// live data only.
void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// Scans per window of the tail-latency figure. On a shared host the
/// run-wide p99 is set by the host's millisecond vCPU stalls rather
/// than by the program; short windows leave those stalls to a minority
/// of windows, which the median over windows passes over. A window's
/// p99 is its second-largest latency.
constexpr std::size_t kTailWindow = 100;

struct Latency {
  std::size_t samples = 0;
  std::size_t windows = 0;
  double p50_us = 0.0;
  double p99_whole_us = 0.0;
  /// Median over consecutive windows (in due order) of each window's
  /// p99: the steady tail, not the one host stall a run happened to
  /// catch.
  double p99_us = 0.0;
};

Latency latency_of(std::vector<std::pair<double, double>> due_latency) {
  Latency out;
  std::sort(due_latency.begin(), due_latency.end());
  std::vector<double> all;
  for (const auto& [due, us] : due_latency) all.push_back(us);
  out.samples = all.size();
  out.p50_us = quantile(all, 0.5);
  out.p99_whole_us = quantile(all, 0.99);
  std::vector<double> tails;
  for (std::size_t i = 0; i + kTailWindow <= all.size(); i += kTailWindow) {
    tails.push_back(quantile({all.begin() + static_cast<std::ptrdiff_t>(i),
                              all.begin() + static_cast<std::ptrdiff_t>(i + kTailWindow)},
                             0.99));
  }
  out.windows = tails.size();
  out.p99_us = tails.empty() ? out.p99_whole_us : median(tails);
  return out;
}

bool same_bits(geom::Vec2 a, geom::Vec2 b) {
  return std::bit_cast<std::uint64_t>(a.x) == std::bit_cast<std::uint64_t>(b.x) &&
         std::bit_cast<std::uint64_t>(a.y) == std::bit_cast<std::uint64_t>(b.y);
}

/// Device ids carry the phase in the high bits and the fleet device
/// below, so each phase has sessions of its own.
serve::DeviceId device_id(std::uint64_t pass, std::uint32_t fleet_device) {
  return ((pass + 1) << 40) | (static_cast<serve::DeviceId>(fleet_device) + 1);
}
constexpr std::uint64_t kOpenPass = 0;
constexpr std::uint64_t kClosedPass = 1;
constexpr std::uint64_t kStagePass = 0x200;
constexpr std::uint64_t kStageUntracedPass = 0x201;
constexpr std::uint64_t kProbePass = 0xFFFF;
constexpr std::size_t kRounds = 4;
/// Set-ups timed before serving starts; the last one is served.
constexpr std::size_t kSetupsBefore = 3;

/// Control plane: one frame per tick, a janitor republish of a batch
/// of resurvey dwells every few ticks.
constexpr double kTickSeconds = 0.1;
constexpr std::size_t kRepublishEvery = 4;
constexpr std::size_t kDwellsPerRepublish = 8;
/// Distinct frame specs; ticks cycle through them.
constexpr std::size_t kFrames = 16;

/// One fix of the serial replay through a bound LocationService.
struct RefFix {
  bool valid = false;
  bool degraded = false;
  /// Some scan in the window heard an AP. A window that heard nothing
  /// has no answer by construction (a typed "empty observation").
  bool heard = false;
  geom::Vec2 position;
  std::string place;
};

bool same_fix(const core::ServiceFix& fix, const RefFix& ref) {
  return fix.valid == ref.valid && fix.degraded() == ref.degraded &&
         same_bits(fix.position, ref.position) && fix.place == ref.place;
}

struct ServedSite {
  serve::SiteId id = 0;
  std::shared_ptr<const core::CompiledDatabase> compiled;
  std::shared_ptr<const core::ProbabilisticLocator> locator;
};

/// Per-thread tallies of served scans; merged after each phase.
struct Tally {
  /// Open loop only: (due time, latency) per scan.
  std::vector<std::pair<double, double>> latency_us;
  std::vector<double> late_us;
  std::uint64_t attempted = 0;
  std::uint64_t no_answer = 0;
  std::uint64_t degraded = 0;
  std::uint64_t mismatches = 0;
  std::vector<std::uint64_t> site_scans;
  std::vector<std::uint64_t> site_sessions;
  Clock::time_point last_end{};

  void merge(const Tally& o) {
    latency_us.insert(latency_us.end(), o.latency_us.begin(), o.latency_us.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    attempted += o.attempted;
    no_answer += o.no_answer;
    degraded += o.degraded;
    mismatches += o.mismatches;
    for (std::size_t s = 0; s < site_scans.size(); ++s) {
      site_scans[s] += o.site_scans[s];
      site_sessions[s] += o.site_sessions[s];
    }
    last_end = std::max(last_end, o.last_end);
  }
};

class Run {
 public:
  Run(const WorkloadSpec& spec, const RunOptions& options)
      : spec_(spec),
        opt_(options),
        tracer_(options.trace),
        tr_(options.trace ? &tracer_ : nullptr),
        render_pool_(options.workers),
        compositor_(floorplan::FleetCompositorOptions{64, &render_pool_}) {}

  RunResult execute();

 private:
  Tally new_tally() const {
    Tally t;
    t.site_scans.assign(spec_.sites, 0);
    t.site_sessions.assign(spec_.sites, 0);
    return t;
  }
  const radio::ScanRecord& scan_of(std::uint32_t fleet_device,
                                   std::uint32_t k) const {
    const FleetDevice& dev = in_.devices[fleet_device];
    const SiteInput& site = in_.sites[dev.site];
    return site.trace.scans[site.by_device[dev.device][k]].scan;
  }
  void problem(std::string what) {
    std::lock_guard<std::mutex> lock(problems_mutex_);
    result_.correct = false;
    result_.problems.push_back(std::move(what));
  }
  /// Wraps a thread body so an exception becomes a failed check instead
  /// of ending the process before the other threads are joined.
  template <typename F>
  auto guarded(F body) {
    return [this, body]() mutable {
      try {
        body();
      } catch (const std::exception& e) {
        problem(std::string("load thread: ") + e.what());
      }
    };
  }
  void end_to_end(std::string name, double value, std::string unit) {
    result_.end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void per_layer(std::string name, double value, std::string unit) {
    result_.per_layer.push_back({std::move(name), value, std::move(unit)});
  }

  core::ServiceFix serve(serve::LocationServer& server, std::uint64_t pass,
                         const DueScan& item, Tally& t, Tracer* tracer,
                         const char* span_name);
  serve::LocationServerConfig server_config() const;
  double setup_once(bool keep);
  void replay_reference();
  void make_janitors();
  /// A closed-loop phase's threads, where each one stopped, and the
  /// server of the current pass. Each pass over the queues serves on a
  /// fresh server with the same sites, so the closed loop holds one
  /// fleet of sessions however many passes a fast program makes.
  struct ClosedLoop {
    ClosedLoop(const std::vector<DueScan>& scans, std::size_t threads)
        : queues(deal(scans, threads)), cursor(threads, 0) {}
    std::vector<std::vector<DueScan>> queues;
    std::vector<std::size_t> cursor;
    std::unique_ptr<serve::LocationServer> server;
    /// The pass barrier: the last thread to finish a pass starts the
    /// next one.
    std::mutex mutex;
    std::condition_variable turned;
    std::size_t arrived = 0;
    std::uint64_t passes = 0;
    std::vector<double> rates;
  };

  void preroll(Tally& total);
  void open_loop(std::size_t round, Tally& total);
  void next_pass(ClosedLoop& loop);
  bool pass_barrier(ClosedLoop& loop, const std::atomic<bool>& stop);
  void check_pass_server(const ClosedLoop& loop);
  void closed_loop(ClosedLoop& loop, double seconds, Tally& total);
  void control_tick();
  void control_loop(double seconds, bool paced);
  void stage_replay(double seconds, Tally& total);
  void traced_extras();
  void check_frames();
  std::uint64_t close_out(const Tally& served);
  void report_accuracy();
  void report_layers(const Tally& open, double peak_w, double peak_1);

  const WorkloadSpec& spec_;
  RunOptions opt_;
  Tracer tracer_;
  Tracer* tr_;
  concurrency::ThreadPool render_pool_;
  floorplan::FleetCompositor compositor_;
  core::LocationServiceConfig service_config_{};
  std::mutex problems_mutex_;  ///< guards result_.problems, correct, failure_notes_
  std::vector<std::string> failure_notes_;
  RunResult result_;
  Inputs in_;

  std::unique_ptr<serve::LocationServer> server_;
  std::vector<ServedSite> sites_;
  /// Shard counters live in the process metrics registry and outlive
  /// each set-up's server; served traffic is judged against these.
  std::vector<serve::SiteStats> baseline_;
  std::vector<std::vector<RefFix>> reference_;

  // Control plane.
  std::vector<std::unique_ptr<lifecycle::LifecycleJanitor>> janitors_;
  std::vector<std::shared_ptr<const core::Locator>> last_locator_;
  std::size_t dwell_cursor_ = 0;
  std::vector<double> republish_ms_;
  std::vector<double> frame_ms_;
  std::size_t retired_max_ = 0;

  // Set-up figures of the final set-up.
  std::uint64_t encoded_bytes_ = 0;
  std::uint64_t map_bytes_ = 0;
  std::uint64_t probe_scans_ = 0;       ///< every set-up's probe scans
  std::uint64_t late_probe_scans_ = 0;  ///< per site, after the served set-up
  double open_overrun_s_ = 0.0;
  std::vector<std::vector<DueScan>> open_queues_;
  std::vector<std::size_t> open_cursor_;
  std::size_t tick_ = 0;

  // Stage table (traced run only).
  std::vector<double> stage_traced_us_;
  std::vector<double> stage_untraced_us_;
};

/// Serves one scan and checks it against the serial replay.
core::ServiceFix Run::serve(serve::LocationServer& server, std::uint64_t pass,
                            const DueScan& item, Tally& t, Tracer* tracer,
                            const char* span_name) {
  const FleetDevice& dev = in_.devices[item.device];
  const serve::DeviceId id = device_id(pass, item.device);
  core::ServiceFix fix;
  {
    Span span(tracer, span_name, {id, item.scan});
    fix = server.on_scan(sites_[dev.site].id, id, scan_of(item.device, item.scan));
  }
  ++t.attempted;
  ++t.site_scans[dev.site];
  if (item.scan == 0) ++t.site_sessions[dev.site];
  const RefFix& ref = reference_[item.device][item.scan];
  if (!fix.valid && fix.window_fill >= service_config_.min_scans && ref.heard) {
    ++t.no_answer;
    std::lock_guard<std::mutex> lock(problems_mutex_);
    if (failure_notes_.size() < 5) {
      failure_notes_.push_back("no answer: site " + in_.sites[dev.site].name + " device " +
                               std::to_string(dev.device) + " scan " +
                               std::to_string(item.scan) + ": " + fix.degraded_reason);
    }
  }
  if (fix.degraded()) ++t.degraded;
  if (!same_fix(fix, ref)) ++t.mismatches;
  return fix;
}

serve::LocationServerConfig Run::server_config() const {
  serve::LocationServerConfig config;
  config.service = service_config_;
  config.max_sites = spec_.sites;
  config.sessions_per_site = 1 << 16;
  return config;
}

/// Generated files on disk to every site serving its first fix:
/// load the wi-scan files and the location map, generate the training
/// database, ship it through the codec, compile, build the locator
/// with the library defaults, publish it, and serve a probe device.
/// The set-up that is kept is checked and becomes the served one; the
/// others are dropped.
double Run::setup_once(bool keep) {
  const serve::LocationServerConfig config = server_config();
  std::unique_ptr<serve::LocationServer> server;
  std::vector<ServedSite> sites;
  std::vector<traindb::TrainingDatabase> built;
  std::vector<std::uint64_t> encoded;
  Span setup_span(tr_, "bench.setup");
  const Clock::time_point start = Clock::now();
  server = std::make_unique<serve::LocationServer>(config);
  for (std::size_t s = 0; s < spec_.sites; ++s) {
    const SiteInput& site = in_.sites[s];
    wiscan::LocationMap map;
    {
      Span span(tr_, "wiscan.read_location_map");
      map = wiscan::LocationMap::read(site.map_file);
    }
    wiscan::Collection collection;
    {
      Span span(tr_, "wiscan.load_collection");
      collection = wiscan::load_collection(site.survey_dir);
    }
    traindb::GeneratorConfig gen;
    gen.site_name = site.name;
    traindb::TrainingDatabase db;
    {
      Span span(tr_, "traindb.generate_database");
      db = traindb::generate_database(collection, map, gen);
    }
    std::string bytes;
    {
      Span span(tr_, "traindb.encode_database");
      bytes = traindb::encode_database(db);
    }
    traindb::TrainingDatabase decoded;
    {
      Span span(tr_, "traindb.decode_database");
      decoded = traindb::decode_database(bytes);
    }
    ServedSite served;
    {
      Span span(tr_, "core.compile");
      served.compiled = core::CompiledDatabase::compile_owned(std::move(decoded));
    }
    {
      Span span(tr_, "core.make_locator");
      served.locator = std::make_shared<const core::ProbabilisticLocator>(
          served.compiled, core::ProbabilisticConfig{});
    }
    {
      Span span(tr_, "serve.add_site");
      served.id = server->add_site(site.name, served.locator);
    }
    core::ServiceFix fix;
    const serve::DeviceId probe = device_id(kProbePass, static_cast<std::uint32_t>(s));
    for (std::uint32_t k = 0; k < service_config_.min_scans; ++k) {
      Span span(tr_, "serve.on_scan.first", {probe, k});
      fix = server->on_scan(served.id, probe, site.trace.scans[site.by_device[0][k]].scan);
    }
    if (!fix.valid) problem(site.name + ": set-up probe got no fix");
    sites.push_back(std::move(served));
    if (keep) {
      built.push_back(std::move(db));
      encoded.push_back(bytes.size());
    }
  }
  const double seconds = duration<double>(Clock::now() - start).count();
  probe_scans_ += spec_.sites * service_config_.min_scans;
  // Probes of set-ups after the served one reach the same shard counters.
  if (!baseline_.empty()) late_probe_scans_ += service_config_.min_scans;

  if (keep) {
    for (std::size_t s = 0; s < spec_.sites; ++s) {
      const SiteInput& site = in_.sites[s];
      const core::CompiledDatabase& c = *sites[s].compiled;
      encoded_bytes_ += encoded[s];
      // mean, stddev, mask and weight: four padded matrices of doubles.
      map_bytes_ += 4 * c.point_count() * c.row_stride() * sizeof(double);
      if (!(c.database() == built[s])) {
        problem(site.name + ": decode(encode(db)) != db");
      }
      traindb::GeneratorConfig gen;
      gen.site_name = site.name;
      Span span(tr_, "traindb.generate_database_from_path");
      if (!(traindb::generate_database_from_path(site.survey_dir, site.map_file,
                                                 gen) == built[s])) {
        problem(site.name + ": generate_database_from_path != load + generate");
      }
    }
    server_ = std::move(server);
    sites_ = std::move(sites);
    for (const ServedSite& site : sites_) baseline_.push_back(server_->stats(site.id));
  }
  return seconds;
}

/// The oracle: every fleet device's whole trace through a bound
/// LocationService on the served locator, one device at a time.
void Run::replay_reference() {
  Span span(tr_, "bench.reference_replay");
  reference_.assign(in_.devices.size(), {});
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t g; (g = next.fetch_add(1)) < in_.devices.size();) {
      const FleetDevice& dev = in_.devices[g];
      const SiteInput& site = in_.sites[dev.site];
      core::LocationService service(*sites_[dev.site].locator, service_config_);
      auto& out = reference_[g];
      const auto& scans = site.by_device[dev.device];
      out.reserve(scans.size());
      for (std::size_t k = 0; k < scans.size(); ++k) {
        const radio::ScanRecord& scan = site.trace.scans[scans[k]].scan;
        const core::ServiceFix fix = service.on_scan(scan);
        bool heard = false;
        for (std::size_t j = k + 1 - std::min(k + 1, service_config_.window_scans); j <= k; ++j) {
          for (const radio::ScanSample& s : site.trace.scans[scans[j]].scan.samples) {
            heard = heard || std::isfinite(s.rssi_dbm);
          }
        }
        out.push_back({fix.valid, fix.degraded(), heard, fix.position, fix.place});
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < opt_.workers; ++w) threads.emplace_back(guarded(work));
  for (auto& t : threads) t.join();
}

void Run::make_janitors() {
  last_locator_.assign(spec_.sites, nullptr);
  for (std::size_t s = 0; s < spec_.sites; ++s) {
    last_locator_[s] = sites_[s].locator;
    janitors_.push_back(std::make_unique<lifecycle::LifecycleJanitor>(
        *server_, sites_[s].id, sites_[s].compiled,
        [this, s](std::shared_ptr<const core::CompiledDatabase> compiled) {
          auto locator = std::make_shared<const core::ProbabilisticLocator>(
              std::move(compiled), core::ProbabilisticConfig{});
          last_locator_[s] = locator;
          return locator;
        }));
  }
}

/// Untimed: fills every open-loop session's window before the
/// measured traffic starts.
void Run::preroll(Tally& total) {
  Span phase(tr_, "bench.preroll");
  const auto queues = deal(in_.preroll, opt_.workers);
  std::vector<Tally> tallies(queues.size(), new_tally());
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < queues.size(); ++w) {
    threads.emplace_back(guarded([&, w] {
      for (const DueScan& item : queues[w]) {
        serve(*server_, kOpenPass, item, tallies[w], nullptr, "");
      }
    }));
  }
  for (auto& t : threads) t.join();
  for (const Tally& t : tallies) total.merge(t);
}

/// Every scheduled scan is sent at its due time whether or not earlier
/// ones have finished; latency counts from the due time. One call
/// serves round `round`'s slice of the schedule.
void Run::open_loop(std::size_t round, Tally& total) {
  Span phase(tr_, "bench.open_loop");
  const std::size_t workers = open_queues_.size();
  const double slice_s = opt_.seconds * spec_.open_share / static_cast<double>(kRounds);
  const double from_s = slice_s * static_cast<double>(round);
  std::vector<Tally> tallies(workers, new_tally());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back(guarded([&, w] {
      Tally& t = tallies[w];
      const auto& queue = open_queues_[w];
      std::size_t& cursor = open_cursor_[w];
      // No tally may grow between scans: a reallocation would delay the
      // next scan due.
      t.latency_us.reserve(queue.size() - cursor);
      t.late_us.reserve(queue.size() - cursor);
      for (; cursor < queue.size() && queue[cursor].due_s < from_s + slice_s; ++cursor) {
        const DueScan& item = queue[cursor];
        const Clock::time_point due =
            start + duration_cast<Clock::duration>(duration<double>(item.due_s - from_s));
        const bool idle = Clock::now() < due;
        if (idle) wait_until(due);
        const Clock::time_point begin = Clock::now();
        serve(*server_, kOpenPass, item, t, tr_, "serve.on_scan");
        const Clock::time_point end = Clock::now();
        t.latency_us.emplace_back(item.due_s, us_between(due, end));
        if (idle) t.late_us.push_back(us_between(due, begin));
        t.last_end = end;
      }
    }));
  }
  if (spec_.control_under_load) {
    std::this_thread::sleep_until(start);
    try {
      control_loop(slice_s, /*paced=*/true);
    } catch (const std::exception& e) {
      problem(std::string("control plane: ") + e.what());
    }
  }
  for (auto& t : threads) t.join();
  Tally slice = new_tally();
  for (const Tally& t : tallies) slice.merge(t);
  open_overrun_s_ = std::max(
      open_overrun_s_, duration<double>(slice.last_end - start).count() - slice_s);
  total.merge(slice);
}

/// Retires the current pass's server, once checked, and starts the
/// next pass on a fresh one. Runs while every thread of the loop waits.
void Run::next_pass(ClosedLoop& loop) {
  if (loop.server) check_pass_server(loop);
  loop.server = std::make_unique<serve::LocationServer>(server_config());
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    if (loop.server->add_site(in_.sites[s].name, sites_[s].locator) != sites_[s].id) {
      throw std::logic_error("a pass server numbered its sites differently");
    }
  }
  std::fill(loop.cursor.begin(), loop.cursor.end(), 0);
  ++loop.passes;
}

/// Called by a thread at the end of its queue. False when the phase
/// stopped first; the thread then arrives again in the next phase.
bool Run::pass_barrier(ClosedLoop& loop, const std::atomic<bool>& stop) {
  std::unique_lock<std::mutex> lock(loop.mutex);
  const std::uint64_t pass = loop.passes;
  if (++loop.arrived == loop.queues.size()) {
    loop.arrived = 0;
    next_pass(loop);
    loop.turned.notify_all();
    return true;
  }
  loop.turned.wait(lock, [&] { return loop.passes != pass || stop.load(); });
  if (loop.passes != pass) return true;
  --loop.arrived;
  return false;
}

/// A pass server closes out: one session per device served so far, no
/// reader stalls, nothing retired (it never swaps). Its scans, errors
/// and rejected sessions go to the shard counters `close_out` checks.
void Run::check_pass_server(const ClosedLoop& loop) {
  std::vector<std::size_t> opened(sites_.size(), 0);
  for (std::size_t w = 0; w < loop.queues.size(); ++w) {
    for (std::size_t i = 0; i < loop.cursor[w]; ++i) {
      const DueScan& item = loop.queues[w][i];
      if (item.scan == 0) ++opened[in_.devices[item.device].site];
    }
  }
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    loop.server->reclaim(sites_[s].id);
    const serve::SiteStats stats = loop.server->stats(sites_[s].id);
    const std::string site = in_.sites[s].name + ": closed-loop pass: ";
    if (stats.sessions != opened[s]) {
      problem(site + std::to_string(stats.sessions) + " sessions, expected " +
              std::to_string(opened[s]));
    }
    if (stats.reader_stalls != 0) problem(site + "reader stalls");
    if (stats.retired_snapshots != 0) problem(site + "retired snapshots not reclaimed");
  }
}

/// Each thread sends its next scan as soon as the previous one
/// returns, continuing where its previous slice stopped. Pushes the
/// completion rate of every 100 ms window after the first into `rates`.
void Run::closed_loop(ClosedLoop& loop, double seconds, Tally& total) {
  Span phase(tr_, "bench.closed_loop");
  struct alignas(64) Count {
    std::atomic<std::uint64_t> n{0};
  };
  if (!loop.server) next_pass(loop);
  const std::size_t threads = loop.queues.size();
  std::vector<Tally> tallies(threads, new_tally());
  std::vector<Count> done(threads);
  std::atomic<bool> stop{false};
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back(guarded([&, w] {
      Tally& t = tallies[w];
      const auto& queue = loop.queues[w];
      do {
        for (; loop.cursor[w] < queue.size(); ++loop.cursor[w]) {
          if (stop.load(std::memory_order_relaxed)) return;
          serve(*loop.server, kClosedPass, queue[loop.cursor[w]], t, tr_, "serve.on_scan");
          done[w].n.store(t.attempted, std::memory_order_relaxed);
        }
      } while (pass_barrier(loop, stop));
    }));
  }
  const Clock::time_point start = Clock::now();
  Clock::time_point prev_t = start;
  std::uint64_t prev_n = 0;
  for (std::size_t window = 0; duration<double>(prev_t - start).count() < seconds; ++window) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const Clock::time_point now = Clock::now();
    std::uint64_t n = 0;
    for (const Count& c : done) n += c.n.load(std::memory_order_relaxed);
    if (window > 0) {
      loop.rates.push_back(static_cast<double>(n - prev_n) /
                           duration<double>(now - prev_t).count());
    }
    prev_n = n;
    prev_t = now;
  }
  {
    std::lock_guard<std::mutex> lock(loop.mutex);
    stop.store(true);
  }
  loop.turned.notify_all();
  for (auto& t : pool) t.join();
  // The loop's sessions live on its pass servers, checked there.
  for (Tally& t : tallies) {
    std::fill(t.site_sessions.begin(), t.site_sessions.end(), 0);
    total.merge(t);
  }
}

/// One control-plane tick: every `republish_every` ticks a janitor
/// takes a batch of resurvey dwells through intake, delta-compile and
/// swap; every tick renders one fleet frame.
void Run::control_tick() {
  const std::size_t tick = tick_++;
  Span span(tr_, "bench.control_tick");
  if (tick % kRepublishEvery == 0) {
    const std::size_t s = (tick / kRepublishEvery) % spec_.sites;
    lifecycle::LifecycleJanitor& janitor = *janitors_[s];
    const auto& dwells = in_.sites[s].dwells;
    for (std::size_t i = 0; i < kDwellsPerRepublish; ++i) {
      const lifecycle::SurveyDwell& dwell = dwells[dwell_cursor_++ % dwells.size()];
      Span submit(tr_, "lifecycle.submit_survey");
      if (!janitor.submit_survey(dwell).ok()) {
        problem("resurvey of " + dwell.location + " was quarantined");
      }
    }
    const Clock::time_point t0 = Clock::now();
    std::optional<lifecycle::RepublishReport> report;
    {
      Span tick_span(tr_, "lifecycle.tick");
      report = janitor.tick();
    }
    const Clock::time_point t1 = Clock::now();
    if (report) {
      republish_ms_.push_back(ms_between(t0, t1));
    } else {
      problem("janitor tick with pending surveys did not republish");
    }
    if (tr_) {
      Span swap(tr_, "serve.swap_site");
      server_->swap_site(sites_[s].id, last_locator_[s]);
    }
    retired_max_ = std::max(retired_max_, server_->stats(sites_[s].id).retired_snapshots);
  }
  const floorplan::FleetFrameSpec& frame = in_.frames[tick % in_.frames.size()];
  const Clock::time_point t0 = Clock::now();
  {
    Span render(tr_, "floorplan.render");
    const image::Raster raster = compositor_.render(frame);
  }
  frame_ms_.push_back(ms_between(t0, Clock::now()));
}

/// Paced: one tick every `tick_s` (beside the open loop). Unpaced:
/// ticks back to back, at least a few.
void Run::control_loop(double seconds, bool paced) {
  Span phase(tr_, "bench.control");
  const Clock::time_point start = Clock::now();
  constexpr std::size_t kMinTicks = 8;
  for (std::size_t n = 0;; ++n) {
    if (paced) {
      const double due_s = static_cast<double>(n) * kTickSeconds;
      if (due_s >= seconds) break;
      std::this_thread::sleep_until(
          start + duration_cast<Clock::duration>(duration<double>(due_s)));
    } else if (n >= kMinTicks && duration<double>(Clock::now() - start).count() >= seconds) {
      break;
    }
    control_tick();
  }
}

/// The stage table: every scan of a sample of devices on one thread,
/// in blocks of a few scans, each block run three times. Pass A serves
/// the block through the composed `on_scan`; pass B replays each window
/// through the stage calls `on_scan` is made of (`from_scans`,
/// `compile_observation`, `try_locate`, the Kalman update) on a shadow
/// window; pass C serves the block again untraced on twin sessions, so
/// A - C is what a span costs. Within a pass the scans keep serving
/// order, so caches see what serving sees; short blocks put all three
/// passes under the same host conditions. Only full windows enter the
/// table.
void Run::stage_replay(double seconds, Tally& total) {
  Span phase(tr_, "bench.stage_replay");
  constexpr std::size_t kStageDevices = 48;
  constexpr std::size_t kBlock = 32;
  const std::size_t full = service_config_.window_scans;
  // The sample covers every site and every campus floor alike: each
  // (site, floor) gives the same number of devices, evenly spaced.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::uint32_t>> zones;
  for (std::uint32_t g = 0; g < in_.devices.size(); ++g) {
    zones[{in_.devices[g].site, in_.devices[g].floor}].push_back(g);
  }
  const std::size_t per_zone = (kStageDevices + zones.size() - 1) / zones.size();
  std::vector<bool> sampled(in_.devices.size(), false);
  for (const auto& [zone, members] : zones) {
    for (std::size_t i = 0; i < std::min(per_zone, members.size()); ++i) {
      sampled[members[i * members.size() / per_zone]] = true;
    }
  }
  std::vector<DueScan> items;
  for (const auto* list : {&in_.preroll, &in_.schedule}) {
    for (const DueScan& item : *list) {
      if (sampled[item.device]) items.push_back(item);
    }
  }

  struct Shadow {
    std::vector<radio::ScanRecord> window;
    core::KalmanTracker kalman;
  };
  std::unordered_map<std::uint32_t, Shadow> shadows;
  std::vector<core::ServiceFix> fixes(kBlock);
  Tally t = new_tally();
  const Clock::time_point start = Clock::now();
  for (std::size_t b = 0; b < items.size(); b += kBlock) {
    if (duration<double>(Clock::now() - start).count() >= seconds) break;
    const std::size_t end = std::min(items.size(), b + kBlock);
    for (std::size_t i = b; i < end; ++i) {
      const bool timed = items[i].scan + 1 >= full;
      const Clock::time_point t0 = Clock::now();
      fixes[i - b] = serve(*server_, kStagePass, items[i], t, tr_,
                           timed ? "serve.on_scan.serial" : "serve.on_scan.warmup");
      if (timed) stage_traced_us_.push_back(us_between(t0, Clock::now()));
    }
    for (std::size_t i = b; i < end; ++i) {
      const DueScan& item = items[i];
      Tracer* tracer = item.scan + 1 >= full ? tr_ : nullptr;
      const RequestId rq{device_id(kStagePass, item.device), item.scan};
      const ServedSite& site = sites_[in_.devices[item.device].site];
      const radio::ScanRecord& scan = scan_of(item.device, item.scan);
      Shadow& shadow =
          shadows.try_emplace(item.device, Shadow{{}, core::KalmanTracker(service_config_.kalman)})
              .first->second;
      Span request(tracer, "bench.stage_request", rq);
      radio::ScanRecord clean = scan;
      std::erase_if(clean.samples, [](const radio::ScanSample& s) {
        return !std::isfinite(s.rssi_dbm);
      });
      shadow.window.push_back(std::move(clean));
      if (shadow.window.size() > full) shadow.window.erase(shadow.window.begin());
      if (shadow.window.size() < service_config_.min_scans) continue;
      core::Observation obs;
      {
        Span span(tracer, "core.from_scans", rq);
        obs = core::Observation::from_scans(shadow.window);
      }
      {
        Span span(tracer, "core.compile_observation", rq);
        const core::CompiledObservation q = site.compiled->compile_observation(obs);
        if (q.total_aps != obs.ap_count()) problem("compile_observation lost APs");
      }
      std::optional<Result<core::LocationEstimate>> located;
      {
        Span span(tracer, "core.try_locate", rq);
        located.emplace(site.locator->try_locate(obs));
      }
      const core::ServiceFix& fix = fixes[i - b];
      if (located->ok() && located->value().valid) {
        geom::Vec2 position;
        {
          Span span(tracer, "core.kalman_update", rq);
          position = shadow.kalman.update_at(located->value().position, scan.timestamp_s);
        }
        if (!fix.valid || fix.degraded() || !same_bits(position, fix.position)) {
          problem("stage replay disagrees with the composed on_scan");
        }
      } else if (shadow.kalman.initialized()) {
        shadow.kalman.predict_at(scan.timestamp_s);
      }
    }
    for (std::size_t i = b; i < end; ++i) {
      const Clock::time_point t0 = Clock::now();
      serve(*server_, kStageUntracedPass, items[i], t, nullptr, "");
      if (items[i].scan + 1 >= full) stage_untraced_us_.push_back(us_between(t0, Clock::now()));
    }
  }
  total.merge(t);
}

/// Layer calls the traced run times on their own: delta-compile of a
/// resurvey batch and the serial frame reference.
void Run::traced_extras() {
  const auto& dwells = in_.sites[0].dwells;
  for (std::size_t round = 0; round < 5; ++round) {
    lifecycle::SurveyIntake intake;
    for (std::size_t i = 0; i < kDwellsPerRepublish; ++i) {
      Span submit(tr_, "lifecycle.submit_survey");
      (void)intake.submit(dwells[(round * kDwellsPerRepublish + i) % dwells.size()]);
    }
    const core::DatabaseDelta delta = intake.drain();
    Span span(tr_, "core.delta_compile");
    const auto next = janitors_[0]->compiled()->delta_compile(delta);
    if (next->point_count() != janitors_[0]->compiled()->point_count()) {
      problem("resurvey delta changed the row count");
    }
  }
  for (std::size_t i = 1; i < std::min<std::size_t>(4, in_.frames.size()); ++i) {
    Span span(tr_, "floorplan.render_serial");
    (void)compositor_.render_serial(in_.frames[i]);
  }
}

/// A sampled frame from the tiled renderer must be byte-equal to the
/// serial reference.
void Run::check_frames() {
  const floorplan::FleetFrameSpec& frame = in_.frames.front();
  const image::Raster tiled = compositor_.render(frame);
  image::Raster serial;
  {
    Span span(tr_, "floorplan.render_serial");
    serial = compositor_.render_serial(frame);
  }
  if (!(tiled == serial)) problem("render != render_serial on a sampled frame");
}

/// SiteStats must close out; returns the scans the server counted as
/// failed (locator unwinds and rejected sessions).
std::uint64_t Run::close_out(const Tally& served) {
  std::uint64_t failed = 0;
  for (std::size_t s = 0; s < spec_.sites; ++s) {
    server_->reclaim(sites_[s].id);
    const serve::SiteStats stats = server_->stats(sites_[s].id);
    const serve::SiteStats& base = baseline_[s];
    const std::uint64_t scans = stats.scans - base.scans - late_probe_scans_;
    const std::uint64_t sessions = served.site_sessions[s] + 1;
    const std::string site = in_.sites[s].name + ": ";
    if (scans != served.site_scans[s]) {
      problem(site + "shard counted " + std::to_string(scans) + " scans, " +
              std::to_string(served.site_scans[s]) + " attempted");
    }
    if (stats.sessions != sessions) {
      problem(site + std::to_string(stats.sessions) + " sessions, expected " +
              std::to_string(sessions));
    }
    if (stats.reader_stalls != base.reader_stalls) problem(site + "reader stalls");
    if (stats.retired_snapshots != 0) problem(site + "retired snapshots not reclaimed");
    failed += (stats.errors - base.errors) + (stats.sessions_rejected - base.sessions_rejected);
  }
  return failed;
}

void Run::report_accuracy() {
  std::uint64_t scans = 0;
  std::uint64_t valid = 0;
  std::vector<double> errors;
  for (std::size_t g = 0; g < in_.devices.size(); ++g) {
    const FleetDevice& dev = in_.devices[g];
    const SiteInput& site = in_.sites[dev.site];
    for (std::size_t k = 0; k < reference_[g].size(); ++k) {
      const RefFix& fix = reference_[g][k];
      ++scans;
      if (!fix.valid || fix.degraded) continue;
      ++valid;
      errors.push_back(geom::distance(
          fix.position, site.trace.scans[site.by_device[dev.device][k]].truth));
    }
  }
  end_to_end("valid_fix_frac", static_cast<double>(valid) / static_cast<double>(scans), "frac");
  end_to_end("median_error_ft", quantile(errors, 0.5), "ft");
  end_to_end("p90_error_ft", quantile(errors, 0.9), "ft");
}

void Run::report_layers(const Tally& open, double peak_w, double peak_1) {
  const std::map<std::string, SelfTime> self = tracer_.self_times();
  auto med = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.median_ns();
  };
  const double window_us = med("core.from_scans") / 1e3;
  const double locate_us = med("core.try_locate") / 1e3;
  const double track_us = med("core.kalman_update") / 1e3;
  const double on_scan_us = med("serve.on_scan.serial") / 1e3;
  per_layer("core.window_us", window_us, "us");
  per_layer("core.query_us", med("core.compile_observation") / 1e3, "us");
  per_layer("core.locate_us", locate_us, "us");
  per_layer("core.track_us", track_us, "us");
  per_layer("core.map_bytes", static_cast<double>(map_bytes_), "bytes");
  per_layer("core.compile_s", med("core.compile") / 1e9, "s");
  per_layer("core.delta_compile_ms", med("core.delta_compile") / 1e6, "ms");
  per_layer("serve.on_scan_us", on_scan_us, "us");
  per_layer("serve.unattributed_us", on_scan_us - window_us - locate_us - track_us, "us");
  per_layer("serve.scaling", peak_1 > 0 ? peak_w / peak_1 : 0.0, "ratio");
  std::uint64_t errors = 0, rejected = 0, stalls = 0;
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    const serve::SiteStats stats = server_->stats(sites_[s].id);
    errors += stats.errors - baseline_[s].errors;
    rejected += stats.sessions_rejected - baseline_[s].sessions_rejected;
    stalls += stats.reader_stalls - baseline_[s].reader_stalls;
  }
  per_layer("serve.errors", static_cast<double>(errors), "count");
  per_layer("serve.sessions_rejected", static_cast<double>(rejected), "count");
  per_layer("serve.degraded_frac",
            static_cast<double>(open.degraded) / static_cast<double>(open.attempted), "frac");
  per_layer("serve.swap_us", med("serve.swap_site") / 1e3, "us");
  per_layer("serve.reader_stalls", static_cast<double>(stalls), "count");
  per_layer("serve.retired_max", static_cast<double>(retired_max_), "count");
  std::size_t quarantined = 0;
  for (const auto& j : janitors_) quarantined += j->intake().quarantined().size();
  per_layer("lifecycle.tick_ms", med("lifecycle.tick") / 1e6, "ms");
  per_layer("lifecycle.intake_us", med("lifecycle.submit_survey") / 1e3, "us");
  per_layer("lifecycle.quarantined", static_cast<double>(quarantined), "count");
  std::uint64_t files = 0, survey_bytes = 0;
  for (const SiteInput& site : in_.sites) {
    files += site.survey_files;
    survey_bytes += site.survey_bytes;
  }
  const double load_s = med("wiscan.load_collection") / 1e9;
  per_layer("wiscan.load_s", load_s, "s");
  per_layer("wiscan.mb_per_s",
            load_s > 0 ? static_cast<double>(survey_bytes) / static_cast<double>(spec_.sites) / 1e6 / load_s : 0.0,
            "MB/s");
  per_layer("wiscan.files", static_cast<double>(files), "count");
  per_layer("traindb.generate_s", med("traindb.generate_database") / 1e9, "s");
  per_layer("traindb.encode_s", med("traindb.encode_database") / 1e9, "s");
  per_layer("traindb.decode_s", med("traindb.decode_database") / 1e9, "s");
  per_layer("traindb.bytes", static_cast<double>(encoded_bytes_), "bytes");
  const double render_ms = med("floorplan.render") / 1e6;
  const double serial_ms = med("floorplan.render_serial") / 1e6;
  const floorplan::FleetFrameSpec& frame = in_.frames.front();
  per_layer("floorplan.render_ms", render_ms, "ms");
  per_layer("floorplan.render_serial_ms", serial_ms, "ms");
  per_layer("floorplan.tile_speedup", render_ms > 0 ? serial_ms / render_ms : 0.0, "ratio");
  per_layer("floorplan.ops", static_cast<double>(frame.ops.size()), "count");
  per_layer("floorplan.mpix_per_s",
            render_ms > 0 ? static_cast<double>(frame.width) * frame.height / 1e3 / render_ms : 0.0,
            "Mpix/s");
  per_layer("bench.traced_fix_p50_us", latency_of(open.latency_us).p50_us, "us");
  per_layer("bench.trace_overhead_us",
            median(stage_traced_us_) - median(stage_untraced_us_), "us");
  per_layer("bench.spans", static_cast<double>(tracer_.span_count()), "count");
}

RunResult Run::execute() {
  const double open_s = opt_.seconds * spec_.open_share;
  const double closed_s = opt_.seconds * spec_.closed_share;
  const double control_s = opt_.seconds * spec_.control_share;
  {
    Span span(tr_, "bench.inputs");
    in_ = make_inputs(spec_, opt_.seed, open_s, kFrames,
                      opt_.work_dir / "inputs" / spec_.name);
  }
  char note[256];
  std::snprintf(note, sizeof note, "inputs: digest=%016llx devices=%zu scheduled=%zu",
                static_cast<unsigned long long>(in_.digest), in_.devices.size(),
                in_.schedule.size());
  result_.notes.push_back(note);

  // peak_rss_mb is the program's memory, not the inputs': it counts
  // from the resident set once the inputs are built.
  trim_heap();
  const double inputs_kb = status_kb("VmRSS");
  // Set-up repeats are spread over the run, a few before serving (the
  // last of them is served) and the rest after each round: the host's
  // speed drifts over seconds, and repeats back to back would all
  // sample one stretch of it.
  const std::size_t late_setups = (spec_.setup_repeats - kSetupsBefore) / kRounds;
  std::vector<double> setups;
  for (std::size_t r = 0; r < kSetupsBefore; ++r) {
    setups.push_back(setup_once(r + 1 == kSetupsBefore));
  }
  replay_reference();
  make_janitors();
  // The high-water mark restarts once set-up and oracle are built, so
  // the input generator's transient peak is not in it.
  trim_heap();
  const double served_kb = status_kb("VmRSS");
  if (!reset_peak_rss()) problem("cannot reset the resident-set high-water mark");

  // The measured phases run in rounds, each a slice of the open loop,
  // the closed loop and the control plane, so every metric samples the
  // whole run rather than one stretch of it.
  // One core stays free for the rest of the process and the system in
  // the open loop: a waiting load thread spins, and a spinning thread
  // preempted by anything else would stall every scan behind it.
  open_queues_ = deal(in_.schedule, std::max<std::size_t>(1, opt_.workers - 1));
  open_cursor_.assign(open_queues_.size(), 0);
  // A closed-loop pass starts fresh sessions, so it serves each
  // device's pre-roll before its measured scans.
  std::vector<DueScan> pass_scans = in_.preroll;
  pass_scans.insert(pass_scans.end(), in_.schedule.begin(), in_.schedule.end());
  ClosedLoop closed(pass_scans, opt_.workers);
  ClosedLoop serial(pass_scans, 1);
  Tally served = new_tally();
  preroll(served);
  Tally open = new_tally();
  for (std::size_t round = 0; round < kRounds; ++round) {
    open_loop(round, open);
    closed_loop(closed, closed_s / kRounds, served);
    if (tr_) closed_loop(serial, closed_s / kRounds / 2, served);
    if (!spec_.control_under_load) control_loop(control_s / kRounds, /*paced=*/false);
    for (std::size_t r = 0; r < late_setups; ++r) setups.push_back(setup_once(false));
  }
  served.merge(open);
  const double peak_w = median(closed.rates);
  const double peak_1 = median(serial.rates);
  if (tr_) {
    stage_replay(opt_.seconds * 0.1, served);
    traced_extras();
  }
  check_frames();

  if (open.attempted != in_.schedule.size()) problem("open loop did not send every scheduled scan");
  if (served.mismatches > 0) {
    problem(std::to_string(served.mismatches) +
            " served fixes differ from the serial replay");
  }
  for (const ClosedLoop* loop : {&closed, &serial}) {
    if (loop->server) check_pass_server(*loop);
  }
  const std::uint64_t server_failed = close_out(served);
  result_.attempted = served.attempted + probe_scans_;
  result_.failed = served.no_answer + served.mismatches + server_failed;
  if (result_.failed > 0) {
    std::snprintf(note, sizeof note,
                  "failed: %llu no answer, %llu differ from the serial replay, "
                  "%llu locator unwinds or rejected sessions",
                  static_cast<unsigned long long>(served.no_answer),
                  static_cast<unsigned long long>(served.mismatches),
                  static_cast<unsigned long long>(server_failed));
    result_.notes.push_back(note);
    result_.notes.insert(result_.notes.end(), failure_notes_.begin(), failure_notes_.end());
  }

  const double late_p99 = quantile(open.late_us, 0.99);
  const bool unsteady = late_p99 > 100.0 || open_overrun_s_ > 0.1;
  std::snprintf(note, sizeof note,
                "open loop: %zu samples, generator late p99 %.1f us, overrun %.4f s%s",
                open.latency_us.size(), late_p99, open_overrun_s_,
                unsteady ? " -- UNSTEADY: the generator fell behind" : "");
  result_.notes.push_back(note);

  const Latency latency = latency_of(open.latency_us);
  std::snprintf(note, sizeof note,
                "latency: %zu samples, p50 %.2f us, p99 %.2f us over the whole run, "
                "median p99 of %zu windows of %zu scans %.2f us",
                latency.samples, latency.p50_us, latency.p99_whole_us, latency.windows,
                kTailWindow, latency.p99_us);
  result_.notes.push_back(note);
  end_to_end("fix_p50_us", latency.p50_us, "us");
  end_to_end("fix_p99_us", latency.p99_us, "us");
  end_to_end("peak_scans_s", peak_w, "1/s");
  report_accuracy();
  end_to_end("setup_s", median(setups), "s");
  const double peak_kb = status_kb("VmHWM");
  if (inputs_kb < 0 || served_kb < 0 || peak_kb < 0) problem("cannot read the resident set");
  end_to_end("peak_rss_mb", (peak_kb - inputs_kb) / 1024.0, "MB");
  std::snprintf(note, sizeof note,
                "memory: %.1f MB resident with the inputs, %.1f MB once set up, "
                "%.1f MB peak while serving; closed loop made %llu passes",
                inputs_kb / 1024.0, served_kb / 1024.0, peak_kb / 1024.0,
                static_cast<unsigned long long>(closed.passes));
  result_.notes.push_back(note);
  end_to_end("republish_ms", median(republish_ms_), "ms");
  end_to_end("frame_ms", median(frame_ms_), "ms");

  if (tr_) {
    report_layers(open, peak_w, peak_1);
    per_layer("bench.late_p99_us", late_p99, "us");
    per_layer("bench.unsteady", unsteady ? 1.0 : 0.0, "count");
    const fs::path spans = opt_.work_dir / "traces" / (spec_.name + ".spans.tsv");
    tracer_.write_tsv(spans);
    result_.notes.push_back("spans: " + spans.string());
  }

  return std::move(result_);
}

}  // namespace

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options) {
  Run run(spec, options);
  return run.execute();
}

std::uint64_t input_digest(const WorkloadSpec& spec, std::uint64_t seed,
                           double seconds, const fs::path& dir) {
  return make_inputs(spec, seed, seconds * spec.open_share, 2, dir).digest;
}

}  // namespace servebench
