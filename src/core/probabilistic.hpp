#pragma once

/// \file probabilistic.hpp
/// The paper's §5.1 probabilistic (maximum-likelihood) locator.
///
/// Training stored, per <training point, AP>, the mean and standard
/// deviation of the RSSI samples. At working time the observed mean
/// vector is scored against every training point with
///
///   value = Π_AP  exp(-(obs - mean)^2 / 2σ²) / sqrt(2πσ²)     (paper eq. 1)
///
/// and the arg-max training point is returned: "this approach does
/// not return the coordinate values of the observed location, but
/// returns the most approximate training location instead."
///
/// We evaluate the product in log space (same arg-max, no underflow)
/// and expose the full per-point scores for the Bayes-grid and
/// tracking layers. `score_all`, `locate` (and through it the base
/// `locate_batch`) and the serve window's `try_locate` share one exact
/// sparse scorer: at construction the locator stores, per universe
/// slot, the CSR postings of the rows trained on it with their
/// Gaussian constants, so a query walks only the observed slots'
/// postings and closes every row with the missing-AP penalty, which is
/// closed-form in the trained, observed and common counts. A campus
/// map is a few percent dense, so this reads a few percent of what a
/// dense points x universe sweep reads. The query is the ascending
/// (slot, mean) list: an Observation is lowered to it by one merge
/// with the universe, and a serve window hands over its own, built
/// from slots it cached when each AP entered.
/// The per-point `log_likelihood` keeps the string-keyed form as the
/// readable reference implementation (the equivalence is pinned by
/// tests/core_compiled_db_test.cpp and tests/core_scoring_v2_test.cpp).

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/compiled_db.hpp"
#include "core/locator.hpp"

namespace loctk::core {

/// Tuning knobs for the likelihood.
struct ProbabilisticConfig {
  /// Lower bound on σ (dB). A training pair whose samples never
  /// varied would otherwise produce a delta-function that vetoes
  /// everything.
  double sigma_floor_db = 1.0;
  /// Log-penalty applied per AP that is present on exactly one side
  /// (heard now but not trained here, or vice versa). Encodes "this
  /// AP's visibility disagrees" without zeroing the product.
  double missing_ap_log_penalty = -6.0;
  /// Points sharing fewer than this many APs with the observation are
  /// skipped entirely.
  int min_common_aps = 1;
  /// Use one sigma per AP, pooled across all training points, instead
  /// of each point's own sample sigma. The paper's formula uses the
  /// per-point sigma; with ~90 samples that estimate is noisy enough
  /// that its -log(sigma) term can flip near-ties toward whichever
  /// cell happened to survey calm (a known fingerprinting pathology).
  /// Pooling removes that term from the decision.
  bool use_pooled_sigma = false;
};

/// One scored training point (for diagnostics and the Bayes layer).
struct ScoredPoint {
  const traindb::TrainingPoint* point = nullptr;
  double log_likelihood = 0.0;
  int common_aps = 0;
};

/// The §5.1 locator.
class ProbabilisticLocator : public Locator {
 public:
  /// `db` must outlive the locator. Compiles the database privately;
  /// prefer the shared-compilation overload when several locators sit
  /// on the same database.
  explicit ProbabilisticLocator(const traindb::TrainingDatabase& db,
                                ProbabilisticConfig config = {});

  /// Shares an existing compilation (the underlying database must
  /// outlive the locator).
  explicit ProbabilisticLocator(
      std::shared_ptr<const CompiledDatabase> compiled,
      ProbabilisticConfig config = {});

  /// The arg-max of `score_all`: the first row with the highest
  /// finite score. Invalid when the observation is empty, when every
  /// row is skipped, or when an in-universe AP carries a non-finite
  /// mean.
  LocationEstimate locate(const Observation& obs) const override;
  std::string name() const override { return "probabilistic-ml"; }

  /// Log-likelihood of `obs` against every training point, in
  /// database order. Skipped points carry -infinity, and so does every
  /// point when an in-universe AP carries a non-finite mean.
  std::vector<ScoredPoint> score_all(const Observation& obs) const;

  /// Log-likelihood of one observation at one training point —
  /// the string-keyed reference implementation (a sorted two-pointer
  /// merge over the observation and the point's per-AP list).
  /// `penalized_aps`, when given, receives the number of missing-AP
  /// penalty terms applied.
  double log_likelihood(const Observation& obs,
                        const traindb::TrainingPoint& point,
                        int* common_aps = nullptr,
                        int* penalized_aps = nullptr) const;

  const traindb::TrainingDatabase& database() const {
    return compiled_->database();
  }
  const CompiledDatabase& compiled() const { return *compiled_; }
  const ProbabilisticConfig& config() const { return config_; }

  /// Trained <row, slot> cells in the scorer's postings.
  std::size_t posting_count() const { return postings_.size(); }
  /// Bytes the scorer's postings and slot offsets occupy.
  std::size_t scorer_bytes() const {
    return postings_.size() * sizeof(Posting) +
           offsets_.size() * sizeof(std::uint32_t);
  }

  /// Pooled sigma for `bssid` (defined whether or not pooling is
  /// enabled); falls back to the floor for unknown BSSIDs.
  double pooled_sigma_db(const std::string& bssid) const;

  /// One trained cell, filed under its universe slot.
  struct Posting {
    double mean = 0.0;
    /// log_pdf(x) = log_norm - (x - mean)² · inv_two_var.
    double log_norm = 0.0;
    double inv_two_var = 0.0;
    std::uint32_t row = 0;
  };

  /// The scorer's tables, read by the delta-compile oracle
  /// (testkit::compare_compiled_databases): the postings, their slot
  /// offsets (universe_size() + 1 entries) and the pooled sigma per
  /// slot.
  const std::vector<Posting>& postings() const { return postings_; }
  const std::vector<std::uint32_t>& posting_offsets() const {
    return offsets_;
  }
  const std::vector<double>& pooled_sigmas() const { return pooled_sigma_; }

 protected:
  /// Scores the window's cached slot query (`ScanWindow::query`).
  LocationEstimate locate_window(ScanWindow& window) const override;

 private:
  void build_scorer();
  /// Scores `query` (ascending slots of an observation of `observed`
  /// APs) against every row and calls `visit(row, ll, common)` once per
  /// row in database order, `ll` already penalized and clamped.
  /// Returns false, visiting nothing, when a query mean is non-finite.
  template <class Visit>
  bool score_rows(std::span<const SlotMean> query, std::size_t observed,
                  Visit&& visit) const;
  /// The arg-max row of score_rows as an estimate.
  LocationEstimate best_row(std::span<const SlotMean> query,
                            std::size_t observed) const;

  std::shared_ptr<const CompiledDatabase> compiled_;
  ProbabilisticConfig config_;
  /// Aligned with database().bssid_universe().
  std::vector<double> pooled_sigma_;
  /// CSR postings: the rows trained on slot s, ascending, live at
  /// postings_[offsets_[s] .. offsets_[s + 1]).
  std::vector<Posting> postings_;
  std::vector<std::uint32_t> offsets_;
};

}  // namespace loctk::core
