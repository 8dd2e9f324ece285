#include "core/compiled_db.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <string_view>
#include <unordered_map>

#include "traindb/codec.hpp"

namespace loctk::core {

namespace {

/// Appends `tp`'s pairs against `universe`. per_ap is sorted, so each
/// BSSID is searched from just past the previous match; a repeated
/// BSSID finds nothing there and is skipped, keeping its first entry.
void append_row(const traindb::TrainingPoint& tp,
                const std::vector<std::string>& universe,
                std::vector<TrainedPair>* out) {
  auto from = universe.begin();
  for (const traindb::ApStatistics& s : tp.per_ap) {
    const auto it = std::lower_bound(from, universe.end(), s.bssid);
    if (it == universe.end() || *it != s.bssid) continue;
    out->push_back({.slot = static_cast<std::uint32_t>(it - universe.begin()),
                    .mean_dbm = s.mean_dbm,
                    .stddev_db = s.stddev_db,
                    .weight = static_cast<double>(s.sample_count)});
    from = it + 1;
  }
}

std::uint64_t next_universe_id() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// The merge both query forms run: walks `obs`'s BSSID-sorted APs
/// against the sorted universe, calling `in(slot, ap)` for each AP the
/// universe knows and `out()` for each it does not.
template <class In, class Out>
void merge_with_universe(const Observation& obs,
                         const std::vector<std::string>& universe, In&& in,
                         Out&& out) {
  std::size_t j = 0;
  for (const ObservedAp& ap : obs.aps()) {
    while (j < universe.size() && universe[j] < ap.bssid) ++j;
    if (j < universe.size() && universe[j] == ap.bssid) {
      in(static_cast<std::uint32_t>(j++), ap);
    } else {
      out();
    }
  }
}

}  // namespace

std::vector<std::uint32_t> remap_slots(const std::vector<std::string>& from,
                                       const std::vector<std::string>& to) {
  std::vector<std::uint32_t> slot(from.size(), kNoSlot);
  for (std::size_t i = 0, j = 0; i < from.size(); ++i) {
    while (j < to.size() && to[j] < from[i]) ++j;
    if (j < to.size() && to[j] == from[i]) {
      slot[i] = static_cast<std::uint32_t>(j++);
    }
  }
  return slot;
}

CompiledDatabase::CompiledDatabase(const traindb::TrainingDatabase& db)
    : db_(&db), universe_id_(next_universe_id()) {
  build_rows();
}

CompiledDatabase::CompiledDatabase(traindb::TrainingDatabase&& db)
    : owned_(std::make_shared<const traindb::TrainingDatabase>(
          std::move(db))),
      db_(owned_.get()),
      universe_id_(next_universe_id()) {
  build_rows();
}

CompiledDatabase::CompiledDatabase(traindb::TrainingDatabase&& merged,
                                   std::vector<std::uint32_t> row_offsets,
                                   std::vector<TrainedPair> pairs,
                                   std::uint64_t universe_id)
    : owned_(std::make_shared<const traindb::TrainingDatabase>(
          std::move(merged))),
      db_(owned_.get()),
      universe_id_(universe_id),
      row_offsets_(std::move(row_offsets)),
      pairs_(std::move(pairs)) {
  set_shape();
}

void CompiledDatabase::set_shape() {
  points_ = db_->size();
  universe_ = db_->bssid_universe().size();
  stride_ = simd::padded_stride(universe_);
}

void CompiledDatabase::build_rows() {
  set_shape();
  std::size_t trained = 0;
  for (const traindb::TrainingPoint& tp : db_->points()) {
    trained += tp.per_ap.size();
  }
  pairs_.reserve(trained);
  row_offsets_.reserve(points_ + 1);
  row_offsets_.push_back(0);
  for (const traindb::TrainingPoint& tp : db_->points()) {
    append_row(tp, db_->bssid_universe(), &pairs_);
    row_offsets_.push_back(static_cast<std::uint32_t>(pairs_.size()));
  }
}

std::shared_ptr<const CompiledDatabase> CompiledDatabase::delta_compile(
    const DatabaseDelta& delta) const {
  const std::vector<traindb::TrainingPoint>& old_points = db_->points();
  const std::vector<std::string>& old_universe = db_->bssid_universe();

  // Merge semantics (the oracle): replacements land in place, new
  // locations append in upsert order, later upserts for one location
  // win. upsert_of[row] is the winning upsert, or null when unchanged.
  std::vector<const traindb::TrainingPoint*> upsert_of(points_, nullptr);
  std::unordered_map<std::string_view, std::size_t> row_of;
  row_of.reserve(points_ + delta.upserts.size());
  for (std::size_t p = 0; p < points_; ++p) {
    row_of.emplace(old_points[p].location, p);
  }
  for (const traindb::TrainingPoint& up : delta.upserts) {
    const auto [it, inserted] = row_of.emplace(up.location, upsert_of.size());
    if (inserted) upsert_of.push_back(&up);
    upsert_of[it->second] = &up;
  }

  // The merged points: unchanged rows copied as they are, upserted
  // rows sorted exactly as from_points would sort them.
  std::vector<traindb::TrainingPoint> points;
  points.reserve(upsert_of.size());
  for (std::size_t p = 0; p < upsert_of.size(); ++p) {
    if (upsert_of[p] == nullptr) {
      points.push_back(old_points[p]);
    } else {
      points.push_back(*upsert_of[p]);
      points.back().sort_per_ap();
    }
  }

  // The merged universe: an old slot survives while an unchanged row
  // or an upsert trains it; upserts' unknown BSSIDs join it.
  std::vector<std::uint32_t> rows_on(universe_, 0);
  std::vector<std::string> added;
  for (std::size_t p = 0; p < upsert_of.size(); ++p) {
    if (upsert_of[p] == nullptr) {
      for (const TrainedPair& e : row(p)) ++rows_on[e.slot];
      continue;
    }
    for (const traindb::ApStatistics& s : points[p].per_ap) {
      const auto it =
          std::lower_bound(old_universe.begin(), old_universe.end(), s.bssid);
      if (it != old_universe.end() && *it == s.bssid) {
        ++rows_on[static_cast<std::size_t>(it - old_universe.begin())];
      } else {
        added.push_back(s.bssid);
      }
    }
  }
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());

  std::vector<std::string> universe;
  universe.reserve(universe_ + added.size());
  std::vector<std::uint32_t> new_slot(universe_, kNoSlot);
  bool same_universe = added.empty();
  for (std::size_t u = 0, a = 0; u < universe_ || a < added.size();) {
    if (u == universe_ || (a < added.size() && added[a] < old_universe[u])) {
      universe.push_back(std::move(added[a++]));
      continue;
    }
    if (rows_on[u] != 0) {
      new_slot[u] = static_cast<std::uint32_t>(universe.size());
      universe.push_back(old_universe[u]);
    } else {
      same_universe = false;
    }
    ++u;
  }

  // Unchanged rows copy their run under the monotonic remap (it keeps
  // slots ascending and never meets a dropped slot: a row that trains
  // a slot keeps it alive); upserted rows are interned afresh.
  std::vector<std::uint32_t> offsets;
  offsets.reserve(upsert_of.size() + 1);
  offsets.push_back(0);
  std::vector<TrainedPair> pairs;
  pairs.reserve(pairs_.size());
  for (std::size_t p = 0; p < upsert_of.size(); ++p) {
    if (upsert_of[p] == nullptr) {
      for (TrainedPair e : row(p)) {
        e.slot = new_slot[e.slot];
        pairs.push_back(e);
      }
    } else {
      append_row(points[p], universe, &pairs);
    }
    offsets.push_back(static_cast<std::uint32_t>(pairs.size()));
  }

  return std::shared_ptr<const CompiledDatabase>(new CompiledDatabase(
      traindb::TrainingDatabase::from_sorted_parts(
          std::move(points), std::move(universe), db_->site_name()),
      std::move(offsets), std::move(pairs),
      same_universe ? universe_id_ : next_universe_id()));
}

std::optional<std::uint32_t> CompiledDatabase::slot_of(
    const std::string& bssid) const {
  const auto idx = db_->bssid_index(bssid);
  if (!idx) return std::nullopt;
  return static_cast<std::uint32_t>(*idx);
}

CompiledObservation CompiledDatabase::compile_observation(
    const Observation& obs) const {
  CompiledObservation q;
  // Padded to the row stride so the kernels' aligned loads cover the
  // query vectors too; pad cells stay 0.0 / not-present.
  q.mean_dbm.assign(stride_, 0.0);
  q.present.assign(stride_, 0.0);
  q.total_aps = obs.ap_count();
  q.slots.reserve(obs.ap_count());
  q.slot_aps.reserve(obs.ap_count());
  merge_with_universe(
      obs, db_->bssid_universe(),
      [&q](std::uint32_t slot, const ObservedAp& ap) {
        q.mean_dbm[slot] = ap.mean_dbm;
        q.present[slot] = 1.0;
        q.slots.push_back(slot);
        q.slot_aps.push_back(&ap);
      },
      [&q] { ++q.outside_universe; });
  return q;
}

void CompiledDatabase::lower_observation(const Observation& obs,
                                         std::vector<SlotMean>* out) const {
  out->clear();
  merge_with_universe(
      obs, db_->bssid_universe(),
      [out](std::uint32_t slot, const ObservedAp& ap) {
        out->push_back({slot, ap.mean_dbm});
      },
      [] {});
}

std::shared_ptr<const CompiledDatabase> compile_collection(
    const wiscan::Collection& collection, const wiscan::LocationMap& map,
    const traindb::GeneratorConfig& config,
    traindb::GeneratorReport* report, concurrency::ThreadPool* pool) {
  return CompiledDatabase::compile_owned(
      traindb::generate_database(collection, map, config, report, pool));
}

std::shared_ptr<const CompiledDatabase> load_compiled_database(
    const std::filesystem::path& path) {
  return CompiledDatabase::compile_owned(traindb::read_database(path));
}

}  // namespace loctk::core
