#include "testkit/differential.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "core/compiled_db.hpp"
#include "core/histogram_locator.hpp"
#include "core/knn.hpp"
#include "core/locator.hpp"
#include "core/place_recognition.hpp"
#include "core/probabilistic.hpp"
#include "core/ssd_locator.hpp"

namespace loctk::testkit {

namespace {

std::string describe(const char* what, double compiled, double reference) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: compiled %.12g vs reference %.12g",
                what, compiled, reference);
  return buf;
}

/// Training-point index matching an arg-max estimate (these snap to a
/// training point exactly, so position equality is exact).
std::optional<std::size_t> point_of_estimate(
    const traindb::TrainingDatabase& db, const core::LocationEstimate& est) {
  const auto& points = db.points();
  for (std::size_t p = 0; p < points.size(); ++p) {
    if (points[p].location == est.location_name &&
        points[p].position == est.position) {
      return p;
    }
  }
  return std::nullopt;
}

/// Arg-max oracle: the compiled winner must be reference-defensible —
/// its reference score within `score_tol` of the reference optimum.
/// `ref_score(p)` is the string-keyed score of training point p, or
/// -inf for points the locator skips.
template <typename RefScore>
std::optional<std::string> check_argmax(
    const traindb::TrainingDatabase& db, const core::Locator& locator,
    const core::Observation& obs, const DifferentialConfig& config,
    RefScore&& ref_score) {
  const core::LocationEstimate est = locator.locate(obs);

  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < db.points().size(); ++p) {
    best = std::max(best, ref_score(p));
  }
  const bool ref_valid =
      best != -std::numeric_limits<double>::infinity() && !obs.empty();

  if (est.valid != ref_valid) {
    return std::string("validity: compiled ") +
           (est.valid ? "valid" : "invalid") + " vs reference " +
           (ref_valid ? "valid" : "invalid");
  }
  if (!est.valid) return std::nullopt;

  const auto chosen = point_of_estimate(db, est);
  if (!chosen) {
    return "compiled estimate names no training point: '" +
           est.location_name + "'";
  }
  const double chosen_ref = ref_score(*chosen);
  if (best - chosen_ref > config.score_tol) {
    return describe("compiled winner loses by reference score", chosen_ref,
                    best);
  }
  if (std::abs(est.score - chosen_ref) > config.score_tol) {
    return describe("winning score", est.score, chosen_ref);
  }
  return std::nullopt;
}

/// k-NN-family oracle: reruns selection and weighting over the
/// reference distances. Distance summation order matches the compiled
/// kernels bit-for-bit, so the comparison is direct.
std::optional<std::string> check_knn_family(
    const traindb::TrainingDatabase& db, const core::Locator& locator,
    const core::Observation& obs, const DifferentialConfig& config, int k,
    bool inverse_weighting, double weighting_epsilon,
    const std::function<double(const traindb::TrainingPoint&)>& ref_distance) {
  const core::LocationEstimate est = locator.locate(obs);

  struct Neighbor {
    const traindb::TrainingPoint* point;
    double distance;
  };
  std::vector<Neighbor> neighbors;
  if (!obs.empty()) {
    for (const traindb::TrainingPoint& point : db.points()) {
      const double d = ref_distance(point);
      if (std::isinf(d)) continue;
      neighbors.push_back({&point, d});
    }
  }
  if (est.valid != !neighbors.empty()) {
    return std::string("validity: compiled ") +
           (est.valid ? "valid" : "invalid") + " vs reference " +
           (neighbors.empty() ? "invalid" : "valid");
  }
  if (!est.valid) return std::nullopt;

  const std::size_t kk =
      std::min<std::size_t>(static_cast<std::size_t>(k), neighbors.size());
  std::partial_sort(neighbors.begin(),
                    neighbors.begin() + static_cast<std::ptrdiff_t>(kk),
                    neighbors.end(),
                    [](const Neighbor& a, const Neighbor& b) {
                      return a.distance < b.distance;
                    });
  geom::Vec2 weighted;
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < kk; ++i) {
    const double w = inverse_weighting
                         ? 1.0 / (neighbors[i].distance + weighting_epsilon)
                         : 1.0;
    weighted += neighbors[i].point->position * w;
    weight_sum += w;
  }
  const geom::Vec2 ref_position = weighted / weight_sum;

  if (geom::distance(est.position, ref_position) > config.position_tol_ft) {
    return describe("position error (ft)",
                    geom::distance(est.position, ref_position), 0.0);
  }
  if (est.location_name != neighbors.front().point->location) {
    return "nearest-cell name: compiled '" + est.location_name +
           "' vs reference '" + neighbors.front().point->location + "'";
  }
  if (std::abs(est.score - (-neighbors.front().distance)) >
      config.score_tol) {
    return describe("score", est.score, -neighbors.front().distance);
  }
  return std::nullopt;
}

}  // namespace

std::string DifferentialReport::to_text() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "differential oracle: %llu observations, %llu comparisons, "
                "%zu mismatches\n",
                static_cast<unsigned long long>(observations),
                static_cast<unsigned long long>(comparisons),
                mismatches.size());
  std::string out = buf;
  for (const EstimateDiff& d : mismatches) {
    out += "  [" + d.locator + " #" + std::to_string(d.observation) + "] " +
           d.detail + "\n";
  }
  return out;
}

DifferentialReport run_differential_oracle(
    const traindb::TrainingDatabase& db,
    const std::vector<core::Observation>& observations,
    const DifferentialConfig& config) {
  DifferentialReport report;
  report.observations = observations.size();

  const auto compiled = core::CompiledDatabase::compile(db);
  const core::ProbabilisticLocator prob(compiled);
  const core::PlaceRecognitionLocator place(compiled);
  const core::KnnLocator nnss(compiled, {.k = 1});
  const core::KnnLocator knn3(compiled, {.k = 3});
  const core::SsdLocator ssd(compiled);
  std::unique_ptr<core::HistogramLocator> hist;
  if (db.has_samples()) {
    hist = std::make_unique<core::HistogramLocator>(compiled);
  }

  auto note = [&report](const std::string& locator, std::size_t i,
                        std::optional<std::string> diff) {
    ++report.comparisons;
    if (diff) report.mismatches.push_back({locator, i, std::move(*diff)});
  };

  for (std::size_t i = 0; i < observations.size(); ++i) {
    const core::Observation& obs = observations[i];

    note(prob.name(), i,
         check_argmax(db, prob, obs, config, [&](std::size_t p) {
           int common = 0;
           const double ll =
               prob.log_likelihood(obs, db.points()[p], &common);
           return common < prob.config().min_common_aps
                      ? -std::numeric_limits<double>::infinity()
                      : ll;
         }));

    note(place.name(), i,
         check_argmax(db, place, obs, config, [&](std::size_t p) {
           int common = 0;
           const double score = place.reference_score(obs, p, &common);
           return common < place.config().min_common_aps
                      ? -std::numeric_limits<double>::infinity()
                      : score;
         }));

    if (hist) {
      note(hist->name(), i,
           check_argmax(db, *hist, obs, config, [&](std::size_t p) {
             return hist->log_likelihood(obs, p);
           }));
    }

    note(nnss.name(), i,
         check_knn_family(db, nnss, obs, config, nnss.config().k,
                          nnss.config().inverse_distance_weighting,
                          nnss.config().weighting_epsilon,
                          [&](const traindb::TrainingPoint& point) {
                            return nnss.signal_distance(obs, point);
                          }));
    note(knn3.name(), i,
         check_knn_family(db, knn3, obs, config, knn3.config().k,
                          knn3.config().inverse_distance_weighting,
                          knn3.config().weighting_epsilon,
                          [&](const traindb::TrainingPoint& point) {
                            return knn3.signal_distance(obs, point);
                          }));
    note(ssd.name(), i,
         check_knn_family(db, ssd, obs, config, ssd.config().k,
                          ssd.config().inverse_distance_weighting,
                          ssd.config().weighting_epsilon,
                          [&](const traindb::TrainingPoint& point) {
                            return ssd.ssd_distance(obs, point);
                          }));
  }
  return report;
}

std::string CompiledDiffReport::to_text() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "compiled diff: %llu cells compared, %zu mismatches"
                " (%llu truncated)\n",
                static_cast<unsigned long long>(cells_compared),
                mismatches.size(),
                static_cast<unsigned long long>(truncated));
  std::string out = buf;
  for (const std::string& m : mismatches) {
    out += "  " + m + "\n";
  }
  return out;
}

CompiledDiffReport compare_compiled_databases(
    const core::CompiledDatabase& delta,
    const core::CompiledDatabase& rebuild) {
  constexpr std::size_t kMaxListed = 32;
  CompiledDiffReport report;
  auto note = [&](std::string text) {
    if (report.mismatches.size() < kMaxListed) {
      report.mismatches.push_back(std::move(text));
    } else {
      ++report.truncated;
    }
  };
  // Bit-exact contract, no tolerance: -0.0 vs 0.0 is a difference.
  // Messages are formatted only on a mismatch.
  auto value = [&](const char* what, std::size_t i, std::size_t j, double a,
                   double b) {
    if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
      return;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s[%zu][%zu]: delta %.17g vs rebuild %.17g",
                  what, i, j, a, b);
    note(buf);
  };
  auto count = [&](const char* what, std::size_t i, std::size_t a,
                   std::size_t b) {
    if (a == b) return;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %zu: delta %zu vs rebuild %zu", what,
                  i, a, b);
    note(buf);
  };

  if (delta.database() != rebuild.database()) {
    note("source TrainingDatabase differs (points/universe/site name)");
  }
  auto shape = [&](const char* what, std::size_t a, std::size_t b) {
    if (a == b) return;
    note(std::string(what) + ": delta " + std::to_string(a) + " vs rebuild " +
         std::to_string(b));
  };
  shape("point count", delta.point_count(), rebuild.point_count());
  shape("universe size", delta.universe_size(), rebuild.universe_size());
  shape("row stride", delta.row_stride(), rebuild.row_stride());
  shape("trained pairs", delta.pairs().size(), rebuild.pairs().size());
  if (!report.ok()) return report;  // shapes differ; rows are meaningless

  const auto& universe = delta.database().bssid_universe();
  for (std::size_t p = 0; p <= delta.point_count(); ++p) {
    count("row offset", p, delta.row_offsets()[p], rebuild.row_offsets()[p]);
  }
  for (std::size_t p = 0; p < delta.point_count(); ++p) {
    count("trained_count row", p,
          static_cast<std::size_t>(delta.trained_count(p)),
          static_cast<std::size_t>(rebuild.trained_count(p)));
    const std::span<const core::TrainedPair> a = delta.row(p);
    const std::span<const core::TrainedPair> b = rebuild.row(p);
    for (const auto* run : {&a, &b}) {
      for (std::size_t i = 0; i < run->size(); ++i) {
        if ((*run)[i].slot >= universe.size() ||
            (i > 0 && (*run)[i].slot <= (*run)[i - 1].slot)) {
          note("row " + std::to_string(p) + " of the " +
               (run == &a ? "delta" : "rebuild") +
               ": slots not ascending inside the universe at entry " +
               std::to_string(i));
        }
      }
    }
    // Merge by slot: a slot trained on one side only is the dense
    // compare's mask difference; a common slot compares every value.
    for (std::size_t i = 0, j = 0; i < a.size() || j < b.size();) {
      if (j == b.size() || (i < a.size() && a[i].slot < b[j].slot)) {
        note("row " + std::to_string(p) + " slot " +
             std::to_string(a[i].slot) + ": trained in the delta only");
        ++i;
      } else if (i == a.size() || b[j].slot < a[i].slot) {
        note("row " + std::to_string(p) + " slot " +
             std::to_string(b[j].slot) + ": trained in the rebuild only");
        ++j;
      } else {
        value("mean", p, a[i].slot, a[i].mean_dbm, b[j].mean_dbm);
        value("stddev", p, a[i].slot, a[i].stddev_db, b[j].stddev_db);
        value("weight", p, a[i].slot, a[i].weight, b[j].weight);
        ++i;
        ++j;
      }
    }
    report.cells_compared += 4 * delta.row_stride();
  }

  // The scorer each side serves: postings and pooled sigma per slot.
  const core::ProbabilisticLocator da(
      std::shared_ptr<const core::CompiledDatabase>(
          std::shared_ptr<const core::CompiledDatabase>{}, &delta));
  const core::ProbabilisticLocator rb(
      std::shared_ptr<const core::CompiledDatabase>(
          std::shared_ptr<const core::CompiledDatabase>{}, &rebuild));
  for (std::size_t u = 0; u < universe.size(); ++u) {
    value("pooled_sigma", u, u, da.pooled_sigmas()[u], rb.pooled_sigmas()[u]);
  }
  for (std::size_t u = 0; u <= universe.size(); ++u) {
    count("posting offset", u, da.posting_offsets()[u],
          rb.posting_offsets()[u]);
  }
  if (!report.ok()) return report;
  for (std::size_t k = 0; k < da.postings().size(); ++k) {
    const core::ProbabilisticLocator::Posting& x = da.postings()[k];
    const core::ProbabilisticLocator::Posting& y = rb.postings()[k];
    count("row of posting", k, x.row, y.row);
    value("posting mean", k, x.row, x.mean, y.mean);
    value("posting log_norm", k, x.row, x.log_norm, y.log_norm);
    value("posting inv_two_var", k, x.row, x.inv_two_var, y.inv_two_var);
  }
  return report;
}

}  // namespace loctk::testkit
