#include "core/probabilistic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/metrics.hpp"
#include "core/scan_window.hpp"
#include "stats/gaussian.hpp"

namespace loctk::core {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Last-constructed locator's scorer size against the dense
// points x universe cells it replaces.
metrics::Gauge& postings_gauge() {
  static metrics::Gauge& g = metrics::gauge("score.postings");
  return g;
}
metrics::Gauge& dense_cells_gauge() {
  static metrics::Gauge& g = metrics::gauge("score.dense_cells");
  return g;
}

/// Gaussian partial sums per row: slot s accumulates into lane s % 4
/// and the lanes fold as (l0 + l2) + (l1 + l3). That is the order the
/// 4-lane dense sweep this scorer replaced summed in (simd::Vec4d's
/// hsum tree), so scores, fixes and pinned reports keep their bits.
constexpr std::size_t kLanes = 4;

/// The scorer's per-thread scratch, reused across queries so a
/// steady-state locate never touches the allocator.
struct ScoreScratch {
  std::vector<SlotMean> query;
  std::vector<double> gauss;          // points x kLanes
  std::vector<std::uint32_t> common;  // points
};

ScoreScratch& score_scratch() {
  thread_local ScoreScratch scratch;
  return scratch;
}

}  // namespace

ProbabilisticLocator::ProbabilisticLocator(
    const traindb::TrainingDatabase& db, ProbabilisticConfig config)
    : ProbabilisticLocator(CompiledDatabase::compile(db), config) {}

ProbabilisticLocator::ProbabilisticLocator(
    std::shared_ptr<const CompiledDatabase> compiled,
    ProbabilisticConfig config)
    : compiled_(std::move(compiled)), config_(config) {
  build_scorer();
  postings_gauge().set(static_cast<double>(postings_.size()));
  dense_cells_gauge().set(static_cast<double>(
      compiled_->point_count() * compiled_->universe_size()));
}

void ProbabilisticLocator::build_scorer() {
  const std::size_t points = compiled_->point_count();
  const std::size_t universe = compiled_->universe_size();

  // One pass over the trained pairs: pooled per-AP sigma (the
  // sample-count-weighted RMS of the per-point sigmas, i.e. pooled
  // variance) and the postings count per slot. Rows are walked in
  // order, so each slot's sums accumulate in row order.
  pooled_sigma_.assign(universe, config_.sigma_floor_db);
  std::vector<double> var_sum(universe, 0.0);
  std::vector<double> weight(universe, 0.0);
  offsets_.assign(universe + 1, 0);
  for (const TrainedPair& e : compiled_->pairs()) {
    var_sum[e.slot] += e.weight * e.stddev_db * e.stddev_db;
    weight[e.slot] += e.weight;
    ++offsets_[e.slot + 1];
  }
  for (std::size_t u = 0; u < universe; ++u) {
    if (weight[u] > 0.0) {
      pooled_sigma_[u] = std::max(std::sqrt(var_sum[u] / weight[u]),
                                  config_.sigma_floor_db);
    }
    offsets_[u + 1] += offsets_[u];
  }

  // Second pass files each trained pair under its slot. Rows are
  // visited in order, so every slot's postings come out ascending.
  postings_.resize(offsets_[universe]);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t p = 0; p < points; ++p) {
    for (const TrainedPair& e : compiled_->row(p)) {
      const double sigma =
          config_.use_pooled_sigma
              ? pooled_sigma_[e.slot]
              : std::max(e.stddev_db, config_.sigma_floor_db);
      postings_[cursor[e.slot]++] = {
          .mean = e.mean_dbm,
          .log_norm = -0.5 * std::log(stats::kTwoPi * sigma * sigma),
          .inv_two_var = 0.5 / (sigma * sigma),
          .row = static_cast<std::uint32_t>(p)};
    }
  }
}

double ProbabilisticLocator::pooled_sigma_db(const std::string& bssid) const {
  const auto slot = compiled_->slot_of(bssid);
  if (!slot) return config_.sigma_floor_db;
  return pooled_sigma_[*slot];
}

double ProbabilisticLocator::log_likelihood(
    const Observation& obs, const traindb::TrainingPoint& point,
    int* common_aps, int* penalized_aps) const {
  double total = 0.0;
  int common = 0;
  int penalized = 0;

  // Both sides are sorted by BSSID: a single merge visits every AP
  // present on either side exactly once.
  const auto& trained = point.per_ap;
  const auto& observed = obs.aps();
  std::size_t t = 0, o = 0;
  while (t < trained.size() || o < observed.size()) {
    int cmp;
    if (t == trained.size()) {
      cmp = 1;
    } else if (o == observed.size()) {
      cmp = -1;
    } else {
      cmp = trained[t].bssid.compare(observed[o].bssid);
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
    }
    if (cmp == 0) {
      stats::Gaussian g = trained[t].gaussian(config_.sigma_floor_db);
      if (config_.use_pooled_sigma) {
        g.sigma = pooled_sigma_db(trained[t].bssid);
      }
      total += g.log_pdf(observed[o].mean_dbm);
      ++common;
      ++t;
      ++o;
    } else {
      // Trained-but-unheard or heard-but-untrained: either way the
      // AP's visibility disagrees.
      total += config_.missing_ap_log_penalty;
      ++penalized;
      cmp < 0 ? ++t : ++o;
    }
  }
  if (common_aps) *common_aps = common;
  if (penalized_aps) *penalized_aps = penalized;
  return total;
}

template <class Visit>
bool ProbabilisticLocator::score_rows(std::span<const SlotMean> query,
                                      std::size_t observed,
                                      Visit&& visit) const {
  const std::size_t points = compiled_->point_count();
  ScoreScratch& s = score_scratch();
  s.gauss.assign(points * kLanes, 0.0);
  s.common.assign(points, 0);

  // Slot-major accumulate: only the observed slots' postings are read.
  double* gauss = s.gauss.data();
  std::uint32_t* common = s.common.data();
  const Posting* postings = postings_.data();
  for (const SlotMean& q : query) {
    const double x = q.mean_dbm;
    if (!std::isfinite(x)) return false;
    double* lane = gauss + q.slot % kLanes;
    const Posting* end = postings + offsets_[q.slot + 1];
    for (const Posting* cell = postings + offsets_[q.slot]; cell != end;
         ++cell) {
      const double d = x - cell->mean;
      lane[cell->row * kLanes] += cell->log_norm - d * d * cell->inv_two_var;
      ++common[cell->row];
    }
  }

  // Epilogue over every row, so zero-overlap rows still get their
  // penalties (and min_common_aps = 0 can let them win). Penalties =
  // trained-only + observed-only (inside or outside the universe).
  const int heard = static_cast<int>(observed);
  const double penalty = config_.missing_ap_log_penalty;
  const int min_common = config_.min_common_aps;
  for (std::size_t r = 0; r < points; ++r) {
    const double* g = gauss + r * kLanes;
    const int c = static_cast<int>(common[r]);
    const int penalties = compiled_->trained_count(r) + heard - 2 * c;
    const double ll = ((g[0] + g[2]) + (g[1] + g[3])) +
                      penalty * static_cast<double>(penalties);
    visit(r, c < min_common ? kNegInf : ll, c);
  }
  return true;
}

std::vector<ScoredPoint> ProbabilisticLocator::score_all(
    const Observation& obs) const {
  std::vector<ScoredPoint> scores;
  scores.reserve(compiled_->point_count());
  std::vector<SlotMean>& query = score_scratch().query;
  compiled_->lower_observation(obs, &query);
  const bool finite = score_rows(
      query, obs.ap_count(), [&](std::size_t row, double ll, int common) {
        scores.push_back({&compiled_->point(row), ll, common});
      });
  if (!finite) {
    for (std::size_t r = 0; r < compiled_->point_count(); ++r) {
      scores.push_back({&compiled_->point(r), kNegInf, 0});
    }
  }
  return scores;
}

LocationEstimate ProbabilisticLocator::best_row(
    std::span<const SlotMean> query, std::size_t observed) const {
  std::size_t best_row = 0;
  double best_ll = kNegInf;
  int best_common = 0;
  score_rows(query, observed, [&](std::size_t row, double ll, int common) {
    if (ll > best_ll) {
      best_row = row;
      best_ll = ll;
      best_common = common;
    }
  });
  LocationEstimate est;
  if (best_ll == kNegInf) return est;
  const traindb::TrainingPoint& tp = compiled_->point(best_row);
  est.valid = true;
  est.position = tp.position;
  est.location_name = tp.location;
  est.score = best_ll;
  est.aps_used = best_common;
  return est;
}

LocationEstimate ProbabilisticLocator::locate(const Observation& obs) const {
  if (obs.empty()) return {};
  std::vector<SlotMean>& query = score_scratch().query;
  compiled_->lower_observation(obs, &query);
  return best_row(query, obs.ap_count());
}

LocationEstimate ProbabilisticLocator::locate_window(ScanWindow& window) const {
  if (window.ap_count() == 0) return {};
  std::vector<SlotMean>& query = score_scratch().query;
  window.query(*compiled_, &query);
  return best_row(query, window.ap_count());
}

}  // namespace loctk::core
