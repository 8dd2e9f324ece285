#pragma once

/// \file compiled_db.hpp
/// Row-sparse, integer-keyed compilation of a TrainingDatabase.
///
/// Every fingerprint locator's inner loop walks <training point, AP>
/// pairs. The string-keyed form (`TrainingPoint::find`,
/// `Observation::mean_of`) pays a BSSID comparison per pair, which is
/// fine for the paper's 12-point house but dominates once the radio
/// map grows to campus scale. `CompiledDatabase` interns the BSSID
/// universe to integer slots once and stores the trained pairs as one
/// CSR: per training point, a run of (slot, mean, σ, weight) entries
/// in ascending slot order. A campus map is a few percent dense, so
/// the CSR holds a few percent of a points x universe matrix, and
/// every consumer (the scorer's postings, k-NN's and SSD's own dense
/// signatures, the drift monitor's per-pair state) is built from the
/// runs in O(trained pairs).
///
/// The compiled form is a *view plus derived data*: it keeps a
/// non-owning pointer to the source database (which must outlive it)
/// and the CSR. Locators share one compilation through
/// `std::shared_ptr<const CompiledDatabase>`.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/simd.hpp"
#include "core/observation.hpp"
#include "traindb/database.hpp"
#include "traindb/generator.hpp"

namespace loctk::core {

/// One observed AP on a compiled universe: its slot and mean. The
/// probabilistic scorer's query is these pairs in ascending slot
/// order, one per AP the universe knows.
struct SlotMean {
  std::uint32_t slot = 0;
  double mean_dbm = 0.0;
};

/// An Observation lowered onto a compiled universe for the locators
/// that read it densely: a mean vector and presence mask (k-NN and SSD
/// load them), plus the list of occupied slots. Produced by
/// `CompiledDatabase::compile_observation`; valid only against the
/// database that compiled it, and only while the source Observation is
/// alive (it keeps per-slot pointers for sample-level scoring).
struct CompiledObservation {
  /// Mean dBm per universe slot; 0.0 where the AP was not heard (the
  /// presence mask gates every use, so the fill value never leaks).
  /// 64-byte aligned and padded to the database's row stride so the
  /// SIMD kernels can use unmasked aligned loads.
  simd::AlignedDoubles mean_dbm;
  /// 1.0 where the slot was heard, 0.0 otherwise — kept as doubles so
  /// kernels can multiply instead of branch. Same alignment/padding
  /// as `mean_dbm`; pad cells are 0.0 (never present).
  simd::AlignedDoubles present;
  /// Occupied slot ids, ascending (== BSSID order).
  std::vector<std::uint32_t> slots;
  /// Source aggregate per occupied slot, aligned with `slots`.
  std::vector<const ObservedAp*> slot_aps;
  /// Observed APs whose BSSID is not in the training universe. They
  /// can never match any training point, so locators fold them into
  /// the missing-AP penalty as a per-observation constant.
  int outside_universe = 0;
  /// Total APs in the source observation.
  std::size_t total_aps = 0;

  /// Occupied slots inside the universe.
  int in_universe() const { return static_cast<int>(slots.size()); }
  bool empty() const { return total_aps == 0; }
};

/// One incremental update to a compiled radio map: training points to
/// add or replace, keyed by `TrainingPoint::location`. An upsert whose
/// location already exists replaces that point in place (same row
/// index); a new location appends. Later upserts for the same location
/// within one delta win. This is the unit the fingerprint lifecycle
/// produces — a resurveyed dwell, a crowd-sourced fix — and feeds to
/// `CompiledDatabase::delta_compile`.
struct DatabaseDelta {
  std::vector<traindb::TrainingPoint> upserts;

  bool empty() const { return upserts.empty(); }
};

/// One trained <point, AP> pair of the compiled map.
struct TrainedPair {
  /// Universe slot of the AP (its interned BSSID).
  std::uint32_t slot = 0;
  double mean_dbm = 0.0;
  double stddev_db = 0.0;
  /// Sample count as a double — the pooled-variance weight.
  double weight = 0.0;
};

/// Slot of a BSSID that is not in the target universe (`remap_slots`).
inline constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

/// Monotonic slot map between two sorted BSSID universes: entry `s` is
/// the slot in `to` of `from[s]`, or kNoSlot when `to` lacks it. One
/// two-pointer pass.
std::vector<std::uint32_t> remap_slots(const std::vector<std::string>& from,
                                       const std::vector<std::string>& to);

/// Row-sparse (CSR) form of a TrainingDatabase.
class CompiledDatabase {
 public:
  /// `db` must outlive the compiled form.
  explicit CompiledDatabase(const traindb::TrainingDatabase& db);

  /// Owning form: moves `db` in, so the compiled database is
  /// self-contained — the serve path keeps no string-keyed database
  /// alive anywhere else.
  explicit CompiledDatabase(traindb::TrainingDatabase&& db);

  /// Shared-ownership convenience so several locators reuse one
  /// compilation.
  static std::shared_ptr<const CompiledDatabase> compile(
      const traindb::TrainingDatabase& db) {
    return std::make_shared<const CompiledDatabase>(db);
  }

  /// Shared-ownership owning compilation.
  static std::shared_ptr<const CompiledDatabase> compile_owned(
      traindb::TrainingDatabase db) {
    return std::make_shared<const CompiledDatabase>(std::move(db));
  }

  /// Incremental recompilation: merges `delta` into this database and
  /// compiles the result without re-interning unchanged rows. The
  /// returned database is owning and **oracle-equal** to a from-scratch
  /// `compile_owned(TrainingDatabase::from_points(merged points))`:
  /// same point order (replacements in place, appends at the end), same
  /// sorted universe — new BSSIDs intern new slots; a BSSID whose last
  /// occurrence was replaced away leaves the universe, exactly as a
  /// full rebuild would drop it. Only the upserted rows are sorted and
  /// interned; the universe is the old one merged with their BSSIDs
  /// and unchanged rows' runs are copied under the monotonic old-slot
  /// → new-slot remap, so the cost is O(change + universe + trained
  /// pairs copied), with one copy of the string-keyed points. When no
  /// BSSID joins or leaves, the result keeps this map's `universe_id()`.
  std::shared_ptr<const CompiledDatabase> delta_compile(
      const DatabaseDelta& delta) const;

  const traindb::TrainingDatabase& database() const { return *db_; }
  /// Process-unique id of this map's BSSID universe: equal ids mean the
  /// same sorted universe, so a slot resolved against one map holds in
  /// the other. Ids come from a process-wide counter and are never
  /// reused, so a map freed and another built at its address still
  /// differ. Every compile takes a fresh id; `delta_compile` keeps its
  /// parent's when the merged universe neither gains nor loses a BSSID.
  std::uint64_t universe_id() const { return universe_id_; }
  std::size_t point_count() const { return points_; }
  std::size_t universe_size() const { return universe_; }
  /// Doubles per dense row: `universe_size()` rounded up to a multiple
  /// of 8 (one 64-byte cache line of doubles). The compiled query
  /// vectors and the dense layouts some locators build for their
  /// kernels (k-NN, SSD) use it so vector loads need no tail masking.
  std::size_t row_stride() const { return stride_; }
  bool empty() const { return points_ == 0; }

  /// Universe slot of `bssid` (the interned id); nullopt when unknown.
  std::optional<std::uint32_t> slot_of(const std::string& bssid) const;

  /// Lowers an observation onto this universe in one sorted merge.
  CompiledObservation compile_observation(const Observation& obs) const;

  /// The scorer's query: `obs`'s in-universe APs as (slot, mean) pairs
  /// in ascending slot order, by the same merge and with no dense
  /// fill. Reuses `out`'s capacity.
  void lower_observation(const Observation& obs,
                         std::vector<SlotMean>* out) const;

  /// The trained pairs of `point`, ascending by slot.
  std::span<const TrainedPair> row(std::size_t point) const {
    return {pairs_.data() + row_offsets_[point],
            pairs_.data() + row_offsets_[point + 1]};
  }
  /// CSR row offsets: row p is pairs()[row_offsets()[p] ..
  /// row_offsets()[p + 1]); point_count() + 1 entries.
  const std::vector<std::uint32_t>& row_offsets() const {
    return row_offsets_;
  }
  /// Every trained pair, row after row.
  const std::vector<TrainedPair>& pairs() const { return pairs_; }

  /// APs trained at `point` (the row's run length).
  int trained_count(std::size_t point) const {
    return static_cast<int>(row_offsets_[point + 1] - row_offsets_[point]);
  }

  /// Bytes of the compiled form itself: the CSR pairs and row offsets
  /// (the string-keyed source database is not counted).
  std::size_t memory_bytes() const {
    return pairs_.size() * sizeof(TrainedPair) +
           row_offsets_.size() * sizeof(std::uint32_t);
  }

  const traindb::TrainingPoint& point(std::size_t i) const {
    return db_->points()[i];
  }

 private:
  /// Delta build: takes the merged database and its already-built CSR.
  /// Used only by delta_compile.
  CompiledDatabase(traindb::TrainingDatabase&& merged,
                   std::vector<std::uint32_t> row_offsets,
                   std::vector<TrainedPair> pairs,
                   std::uint64_t universe_id);

  void build_rows();
  void set_shape();

  /// Set only by the owning constructors; db_ then points into it.
  std::shared_ptr<const traindb::TrainingDatabase> owned_;
  const traindb::TrainingDatabase* db_;  // non-owning
  std::uint64_t universe_id_;
  std::size_t points_ = 0;
  std::size_t universe_ = 0;
  /// Padded dense stride (simd::padded_stride(universe_)).
  std::size_t stride_ = 0;
  std::vector<std::uint32_t> row_offsets_;
  std::vector<TrainedPair> pairs_;
};

/// Direct ingest-to-serve build: aggregates a wi-scan collection into
/// training points (fanned out over `pool` when given), interns the
/// BSSID universe in one bulk pass, and compiles the CSR —
/// the string-keyed TrainingDatabase exists only as the owned
/// interior of the result, never as a separately managed intermediate.
/// Exactly equivalent to generate_database(...) + compile(...).
std::shared_ptr<const CompiledDatabase> compile_collection(
    const wiscan::Collection& collection, const wiscan::LocationMap& map,
    const traindb::GeneratorConfig& config = {},
    traindb::GeneratorReport* report = nullptr,
    concurrency::ThreadPool* pool = nullptr);

/// Serve-path bootstrap: maps a `.ltdb` file read-only, decodes it
/// out of the mapped buffer, and compiles — one call from cold disk
/// to a scoring-ready map. Throws traindb::CodecError on
/// missing/corrupt input.
std::shared_ptr<const CompiledDatabase> load_compiled_database(
    const std::filesystem::path& path);

}  // namespace loctk::core
