// Unit tests for the serve path's sliding scan window: after every
// scan its observation must equal `Observation::from_scans` over the
// finite-filtered scans it holds, its slot query must equal the
// lowered observation on whatever map it is scored against, and a scan
// of APs already in the window must be served without touching the
// heap.

#include "core/scan_window.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled_db.hpp"
#include "core/evaluation.hpp"
#include "core/location_service.hpp"
#include "core/pipeline.hpp"
#include "core/probabilistic.hpp"
#include "radio/environment.hpp"
#include "stats/rng.hpp"

// Counting global allocator for this test binary. It is a plain
// malloc pass-through until a test arms it on its own thread: then it
// counts allocations, and can fail the Nth one. Every plain, array and
// nothrow form is replaced, so each allocation meets its own release
// (a sanitizer runtime would otherwise pair its own nothrow new with
// this free).
namespace {
thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;
thread_local std::size_t t_fail_at = 0;  // 0: never fail

void* counted_alloc(std::size_t size) {
  if (t_counting) {
    ++t_allocations;
    if (t_fail_at != 0 && t_allocations == t_fail_at) return nullptr;
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* counted_alloc_or_throw(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) {
  return counted_alloc_or_throw(size);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
// GCC cannot see that this operator new is the malloc behind free.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace loctk::core {
namespace {

// Counts the allocations made on this thread while it lives.
class AllocationScope {
 public:
  explicit AllocationScope(std::size_t fail_at = 0) {
    t_allocations = 0;
    t_fail_at = fail_at;
    t_counting = true;
  }
  ~AllocationScope() {
    t_counting = false;
    t_fail_at = 0;
  }
  std::size_t count() const { return t_allocations; }
};

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<std::string> bssid_universe(std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "00:17:ab:%02zx:%02zx:%02zx",
                  (i >> 16) & 0xff, (i >> 8) & 0xff, i & 0xff);
    out.emplace_back(buf);
  }
  return out;
}

// What the window must hold: the last `capacity` scans, each with its
// non-finite samples dropped.
class OracleWindow {
 public:
  explicit OracleWindow(std::size_t capacity) : capacity_(capacity) {}

  // Returns the non-finite samples dropped from `scan`.
  std::size_t push(const radio::ScanRecord& scan) {
    radio::ScanRecord clean = scan;
    const std::size_t dropped = std::erase_if(
        clean.samples,
        [](const radio::ScanSample& s) { return !std::isfinite(s.rssi_dbm); });
    held_.push_back(std::move(clean));
    if (held_.size() > capacity_) held_.pop_front();
    return dropped;
  }
  void clear() { held_.clear(); }
  std::size_t size() const { return held_.size(); }
  Observation observation() const {
    return Observation::from_scans({held_.begin(), held_.end()});
  }

 private:
  std::size_t capacity_;
  std::deque<radio::ScanRecord> held_;
};

// Makes a clean scan hostile: an empty scan now and then, NaN and
// +-inf readings, a BSSID repeated within the scan, shuffled order.
void roughen(stats::Rng& rng, radio::ScanRecord& scan) {
  if (rng.bernoulli(0.06)) {
    scan.samples.clear();
    return;
  }
  std::vector<radio::ScanSample> out;
  for (radio::ScanSample s : scan.samples) {
    const double u = rng.uniform();
    if (u < 0.03) {
      s.rssi_dbm = kNaN;
    } else if (u < 0.04) {
      s.rssi_dbm = kInf;
    } else if (u < 0.05) {
      s.rssi_dbm = -kInf;
    }
    out.push_back(s);
    if (rng.bernoulli(0.02)) {
      out.push_back({s.bssid, s.rssi_dbm - 1.5, s.channel});
    }
  }
  if (rng.bernoulli(0.3)) std::shuffle(out.begin(), out.end(), rng.engine());
  scan.samples = std::move(out);
}

// A walk across a BSSID universe: each scan hears a band of up to 40
// neighbouring APs around a drifting centre, so APs keep entering and
// leaving the window; readings are whole or fractional dBm.
std::vector<radio::ScanRecord> walking_stream(
    stats::Rng& rng, const std::vector<std::string>& universe,
    std::size_t scans) {
  const auto n = static_cast<double>(universe.size());
  const double band = std::min(n, 40.0);
  double centre = rng.uniform(0.0, n);
  std::vector<radio::ScanRecord> out(scans);
  for (std::size_t t = 0; t < scans; ++t) {
    out[t].timestamp_s = static_cast<double>(t);
    centre = std::fmod(centre + rng.uniform(-1.0, 4.0) + n, n);
    const bool whole = rng.bernoulli(0.5);
    for (std::size_t i = 0; i < universe.size(); ++i) {
      const double d = std::abs(static_cast<double>(i) - centre);
      const double gap = std::min(d, n - d);
      if (gap > band / 2.0 || rng.bernoulli(0.15)) continue;
      const double rssi = -40.0 - 1.3 * gap + rng.normal(0.0, 3.0);
      out[t].samples.push_back(
          {universe[i], whole ? std::round(rssi) : rssi, 1});
    }
    roughen(rng, out[t]);
  }
  return out;
}

TEST(ScanWindow, MatchesFromScansAfterEveryScan) {
  stats::Rng rng(15150);
  for (const std::size_t universe_size : {6u, 1000u}) {
    const std::vector<std::string> universe = bssid_universe(universe_size);
    for (const std::size_t capacity : {1u, 2u, 8u, 90u}) {
      const std::vector<radio::ScanRecord> stream =
          walking_stream(rng, universe, 2 * capacity + 60);
      ScanWindow window(capacity);
      OracleWindow oracle(capacity);
      ASSERT_EQ(window.capacity(), capacity);
      for (std::size_t t = 0; t < stream.size(); ++t) {
        if (rng.bernoulli(0.01)) {
          window.clear();
          oracle.clear();
        }
        const std::size_t dropped = oracle.push(stream[t]);
        ASSERT_EQ(window.push(stream[t]), dropped);
        ASSERT_EQ(window.size(), oracle.size());
        ASSERT_TRUE(window.observation() == oracle.observation())
            << "universe " << universe_size << " capacity " << capacity
            << " scan " << t;
      }
    }
  }
}

TEST(ScanWindow, EvictsTheOldestScansSamplesFromTheFront) {
  std::vector<radio::ScanRecord> scans(4);
  scans[0].samples = {{"bb", -60.0, 1}, {"aa", -40.0, 1}, {"bb", -62.0, 1}};
  scans[1].samples = {{"bb", -64.0, 1}, {"cc", kNaN, 1}};
  scans[2].samples = {{"cc", -80.5, 1}, {"bb", -66.0, 1}};
  scans[3].samples = {};
  ScanWindow window(2);
  EXPECT_EQ(window.push(scans[0]), 0u);
  EXPECT_EQ(window.push(scans[1]), 1u);
  ASSERT_EQ(window.observation().ap_count(), 2u);
  EXPECT_EQ(window.observation().aps()[1].samples_dbm,
            (std::vector<double>{-60, -62, -64}));

  // Scan 0 leaves: "aa" goes with it, "bb" loses its first two.
  window.push(scans[2]);
  ASSERT_EQ(window.observation().ap_count(), 2u);
  EXPECT_EQ(window.observation().aps()[0].bssid, "bb");
  EXPECT_EQ(window.observation().aps()[0].samples_dbm,
            (std::vector<double>{-64, -66}));
  EXPECT_EQ(window.observation().aps()[0].mean_dbm, -65.0);
  EXPECT_EQ(window.observation().aps()[1].bssid, "cc");
  EXPECT_EQ(window.observation().aps()[1].sample_count, 1u);

  window.push(scans[3]);
  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(window.observation().find("bb")->samples_dbm,
            (std::vector<double>{-66}));
  window.push(scans[3]);
  EXPECT_TRUE(window.observation().empty());
  EXPECT_EQ(window.size(), 2u);
}

// The whole service against the oracle: a walk over the office floor
// with a fractional-dBm NIC (no quantization, an odd device offset),
// roughened, through every window and min-scans setting. Each fix must
// carry the bits of try_locate on the oracle's observation, and the
// service's counters must count what the oracle counted.
TEST(ScanWindow, ServiceFixesMatchTheFromScansOracle) {
  radio::ChannelConfig channel;
  channel.quantize_dbm = false;
  channel.device_offset_db = -2.37;
  const Testbed testbed(radio::make_office_floor(6), {}, channel);
  const traindb::TrainingDatabase db = testbed.train(
      make_training_grid(testbed.environment().footprint(), 20.0), 8, 5);
  const ProbabilisticLocator locator(db);

  stats::Rng rng(6006);
  for (const std::size_t capacity : {1u, 2u, 8u, 90u}) {
    for (const std::size_t min_scans : {std::size_t{1}, capacity}) {
      radio::Scanner scanner = testbed.make_scanner(capacity + min_scans);
      LocationServiceConfig config;
      config.window_scans = capacity;
      config.min_scans = min_scans;
      config.kalman_smoothing = false;
      config.place_debounce = 1;
      LocationService service(locator, config);
      OracleWindow oracle(capacity);
      std::size_t dropped = 0;
      const std::size_t scans = 2 * capacity + 40;
      for (std::size_t t = 0; t < scans; ++t) {
        if (t == scans / 2) {
          service.reset();
          oracle.clear();
        }
        const double f = static_cast<double>(t) / static_cast<double>(scans);
        radio::ScanRecord scan = scanner.scan_at({10.0 + 100.0 * f, 40.0});
        roughen(rng, scan);
        dropped += oracle.push(scan);
        const ServiceFix fix = service.on_scan(scan);
        ASSERT_EQ(fix.window_fill, oracle.size());
        ASSERT_EQ(service.rejected_samples(), dropped);
        ASSERT_EQ(service.scans_seen(), t + 1);
        if (oracle.size() < min_scans) {
          EXPECT_FALSE(fix.valid);
          continue;
        }
        const Result<LocationEstimate> want =
            locator.try_locate(oracle.observation());
        if (want.ok()) {
          ASSERT_TRUE(fix.valid && !fix.degraded()) << "scan " << t;
          EXPECT_EQ(fix.position.x, want.value().position.x);
          EXPECT_EQ(fix.position.y, want.value().position.y);
        } else {
          EXPECT_FALSE(fix.valid);
          EXPECT_EQ(fix.degraded_reason, want.error().to_string());
        }
      }
    }
  }
}

// An office map and its republishes, each scored through the window's
// slot cache: a resurvey that keeps the universe, one that adds a
// BSSID sorting before all others (every slot shifts up), one that
// drops it again (every slot shifts back), and a from-scratch compile
// of another survey.
struct Republishes {
  Republishes()
      : testbed(radio::make_office_floor(6), {}, fractional_channel()) {
    const wiscan::LocationMap grid =
        make_training_grid(testbed.environment().footprint(), 20.0);
    const auto base = CompiledDatabase::compile_owned(testbed.train(grid, 8, 5));

    DatabaseDelta same;
    same.upserts.push_back(base->point(0));
    for (traindb::ApStatistics& s : same.upserts[0].per_ap) s.mean_dbm += 1.0;
    const auto kept = base->delta_compile(same);

    DatabaseDelta grow;
    grow.upserts.push_back(kept->point(1));
    traindb::ApStatistics first = grow.upserts[0].per_ap.front();
    first.bssid = kFirst;
    grow.upserts[0].per_ap.push_back(first);
    const auto grown = kept->delta_compile(grow);

    DatabaseDelta shrink;
    shrink.upserts.push_back(kept->point(1));
    const auto shrunk = grown->delta_compile(shrink);

    const auto other = CompiledDatabase::compile_owned(testbed.train(
        make_training_grid(testbed.environment().footprint(), 15.0), 6, 9));

    for (const auto& map : {base, kept, grown, shrunk, other}) {
      locators.push_back(std::make_shared<const ProbabilisticLocator>(map));
    }
  }

  static radio::ChannelConfig fractional_channel() {
    radio::ChannelConfig channel;
    channel.quantize_dbm = false;
    return channel;
  }

  const CompiledDatabase& map(std::size_t i) const {
    return locators[i]->compiled();
  }

  /// A BSSID that sorts before every office AP; the scans hear it, so
  /// it is outside the universe until `grow` trains it.
  static constexpr const char* kFirst = "00:00:00:00:00:00";

  Testbed testbed;
  std::vector<std::shared_ptr<const ProbabilisticLocator>> locators;
};

TEST(ScanWindow, UniverseIdIsKeptOnlyWhenTheUniverseIs) {
  const Republishes r;
  EXPECT_EQ(r.map(1).universe_id(), r.map(0).universe_id());
  EXPECT_EQ(r.map(1).database().bssid_universe(),
            r.map(0).database().bssid_universe());
  EXPECT_NE(r.map(2).universe_id(), r.map(1).universe_id());
  EXPECT_EQ(r.map(2).slot_of(Republishes::kFirst), 0u);
  EXPECT_NE(r.map(3).universe_id(), r.map(2).universe_id());
  EXPECT_EQ(r.map(3).database().bssid_universe(),
            r.map(1).database().bssid_universe());
  // Equal universes reached by different paths still differ in id:
  // the id names a compile lineage, never a string comparison.
  EXPECT_NE(r.map(3).universe_id(), r.map(1).universe_id());
  EXPECT_NE(r.map(4).universe_id(), r.map(0).universe_id());
  EXPECT_NE(CompiledDatabase::compile(r.map(0).database())->universe_id(),
            r.map(0).universe_id());
}

// The window scored against the maps in turn, switching every few
// scans and coming back to earlier ones: its slot query must equal the
// lowered observation bit for bit after every scan, and try_locate on
// the window must give what try_locate on its observation gives.
TEST(ScanWindow, SlotQueryFollowsTheUniverseItIsScoredIn) {
  const Republishes r;
  stats::Rng rng(1717);
  radio::Scanner scanner = r.testbed.make_scanner(3);
  ScanWindow window(8);
  std::vector<SlotMean> query;
  std::vector<SlotMean> lowered;
  for (std::size_t t = 0; t < 300; ++t) {
    const double f = static_cast<double>(t % 100) / 100.0;
    radio::ScanRecord scan = scanner.scan_at({10.0 + 100.0 * f, 40.0});
    if (rng.bernoulli(0.7)) {
      scan.samples.push_back({Republishes::kFirst, -70.0 + f, 1});
    }
    if (rng.bernoulli(0.5)) scan.samples.push_back({"zz:unknown", -80.0, 1});
    roughen(rng, scan);
    window.push(scan);

    const ProbabilisticLocator& locator =
        *r.locators[(t / 7 + t / 50) % r.locators.size()];
    const CompiledDatabase& map = locator.compiled();
    window.query(map, &query);
    map.lower_observation(window.observation(), &lowered);
    ASSERT_EQ(query.size(), lowered.size()) << "scan " << t;
    for (std::size_t i = 0; i < query.size(); ++i) {
      ASSERT_EQ(query[i].slot, lowered[i].slot) << "scan " << t;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(query[i].mean_dbm),
                std::bit_cast<std::uint64_t>(lowered[i].mean_dbm));
    }

    const Result<LocationEstimate> got = locator.try_locate(window);
    const Result<LocationEstimate> want =
        locator.try_locate(window.observation());
    ASSERT_EQ(got.ok(), want.ok()) << "scan " << t;
    if (!want.ok()) {
      EXPECT_EQ(got.error().to_string(), want.error().to_string());
      continue;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value().score),
              std::bit_cast<std::uint64_t>(want.value().score));
    EXPECT_EQ(got.value().location_name, want.value().location_name);
    EXPECT_EQ(got.value().aps_used, want.value().aps_used);
  }
}

// Once every BSSID of a scan is in the window, pushing it only moves
// numbers: the window's strings, sample lists and ring entries already
// have the room. The old path copied the scan (a string per sample)
// and re-grouped the whole window.
TEST(ScanWindow, PushOfKnownApsDoesNotAllocate) {
  stats::Rng rng(77);
  const std::vector<std::string> universe = bssid_universe(77);
  std::vector<radio::ScanRecord> stream = walking_stream(rng, universe, 1000);
  ScanWindow window(8);
  std::size_t checked = 0;
  for (radio::ScanRecord& scan : stream) {
    // Repeats are the one way a known AP can outgrow its sample list.
    std::vector<std::string> seen;
    std::erase_if(scan.samples, [&seen](const radio::ScanSample& s) {
      if (std::find(seen.begin(), seen.end(), s.bssid) != seen.end()) {
        return true;
      }
      seen.push_back(s.bssid);
      return false;
    });
    bool known = window.size() == window.capacity();
    for (const radio::ScanSample& s : scan.samples) {
      known = known && window.observation().find(s.bssid) != nullptr;
    }
    if (!known) {
      window.push(scan);
      continue;
    }
    std::size_t allocations = 0;
    {
      const AllocationScope scope;
      window.push(scan);
      allocations = scope.count();
    }
    EXPECT_EQ(allocations, 0u) << "scan of " << scan.samples.size();
    ++checked;
  }
  EXPECT_GT(checked, 100u);

  // The counter is live: the re-grouping oracle allocates.
  std::vector<radio::ScanRecord> tail(stream.end() - 8, stream.end());
  const AllocationScope scope;
  (void)Observation::from_scans(tail);
  EXPECT_GT(scope.count(), 0u);
}

// The same for a whole steady-state LocationService::on_scan: the
// slide, the slot query, the score, the Kalman step and the returned
// fix, with the site's map republished (same universe) every few
// scans. The office's location names fit a string's inline buffer, so
// copying the winning name into the estimate and the fix allocates
// nothing either.
TEST(ScanWindow, SteadyStateOnScanDoesNotAllocate) {
  const Republishes r;
  ASSERT_EQ(r.map(0).universe_id(), r.map(1).universe_id());
  radio::Scanner scanner = r.testbed.make_scanner(21);
  LocationService service{LocationServiceConfig{}};
  ScanWindow shadow(service.config().window_scans);
  std::size_t checked = 0;
  for (std::size_t t = 0; t < 400; ++t) {
    const double f = static_cast<double>(t) / 400.0;
    const radio::ScanRecord scan =
        scanner.scan_at({20.0 + 60.0 * f, 30.0 + 10.0 * f});
    const ProbabilisticLocator& locator = *r.locators[(t / 5) % 2];
    bool known = shadow.size() == shadow.capacity();
    for (const radio::ScanSample& s : scan.samples) {
      known = known && shadow.observation().find(s.bssid) != nullptr;
    }
    shadow.push(scan);
    if (!known) {
      service.on_scan(locator, scan);
      continue;
    }
    std::size_t allocations = 0;
    ServiceFix fix;
    {
      const AllocationScope scope;
      fix = service.on_scan(locator, scan);
      allocations = scope.count();
    }
    ASSERT_TRUE(fix.valid && !fix.degraded()) << "scan " << t;
    EXPECT_EQ(allocations, 0u) << "scan " << t;
    ++checked;
  }
  EXPECT_GT(checked, 200u);
}

TEST(ScanWindow, FailedAllocationLeavesAnEmptyWindow) {
  stats::Rng rng(404);
  const std::vector<std::string> universe = bssid_universe(200);
  const std::vector<radio::ScanRecord> stream =
      walking_stream(rng, universe, 80);
  ScanWindow window(8);
  OracleWindow oracle(8);
  std::size_t failures = 0;
  for (std::size_t t = 0; t < stream.size(); ++t) {
    bool threw = false;
    {
      const AllocationScope scope(t % 3 == 0 ? 1 : 0);
      try {
        window.push(stream[t]);
      } catch (const std::bad_alloc&) {
        threw = true;
      }
    }
    if (threw) {
      ++failures;
      oracle.clear();
      EXPECT_EQ(window.size(), 0u);
      EXPECT_TRUE(window.observation().empty());
    } else {
      oracle.push(stream[t]);
    }
    ASSERT_TRUE(window.observation() == oracle.observation()) << "scan " << t;
  }
  EXPECT_GT(failures, 0u);
}

}  // namespace
}  // namespace loctk::core
