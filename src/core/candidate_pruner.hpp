#pragma once

/// \file candidate_pruner.hpp
/// Coarse-to-fine candidate selection for the probabilistic locator.
///
/// Brute-force scoring visits every training point per observation.
/// On campus-scale maps almost all of those rows lose by a mile: a
/// training point that shares no AP with the observation cannot win
/// the likelihood arg-max. The pruner exploits that with an inverted
/// index specialized to the SoA scoring path:
///
///  1. At build time, a CSR postings list maps each universe slot to
///     the training rows trained on it.
///  2. Per query, walk the postings of EVERY finite observed slot to
///     collect candidate rows. The exact pass skips rows with zero
///     common APs (min_common_aps >= 1), so no row outside this union
///     can win the arg-max.
///  3. Coarse-rank each candidate with the consumer's own likelihood
///     gathered over the observed slots only — mathematically the
///     exact score (the dense kernel's Gaussian terms are zero off the
///     observation, and the penalty terms are closed-form in the
///     counts), at O(candidates x observed APs) cost. A sparsely
///     trained row (a corner room hearing a handful of APs, charged a
///     flat `missing_ap_log_penalty` per visibility disagreement) is
///     ranked exactly where the arg-max puts it, so the exact winner
///     can only leave the top-k on a sub-rounding-noise tie.
///  4. Keep the best `top_k` rows; the caller scores ONLY those with
///     the exact kernel, so every returned estimate is exactly scored
///     (pruning can change *which* rows compete, never their scores).
///
/// Degenerate-query contract: `select` returns an empty vector — and
/// the caller MUST fall back to the full exact pass — when the
/// database is small enough that pruning cannot shrink the work
/// (point_count <= top_k), or when no training row shares a finite
/// observed AP (an empty, fully out-of-universe, or non-finite
/// observation). Locators additionally fall back when the pruned pass
/// yields no valid estimate, so enabling pruning can never turn a
/// valid answer into an invalid one.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/compiled_db.hpp"

namespace loctk::core {

/// Per-cell Gaussian constants of the probabilistic kernel, row-major
/// points x row_stride() with exact zeros at untrained slots and in
/// the stride pad:
///   log_pdf(x) = log_norm - (x - mean)² · inv_two_var.
/// Owned by the locator that built them and shared with its pruner,
/// so copies of either stay valid.
struct GaussianTables {
  simd::AlignedDoubles log_norm;
  simd::AlignedDoubles inv_two_var;
};

struct PrunerConfig {
  /// Max candidate rows returned for exact scoring.
  int top_k = 32;
  /// The consumer's Gaussian tables; the coarse rank is the consumer's
  /// own restricted score built from these plus the two knobs below.
  std::shared_ptr<const GaussianTables> tables;
  /// The consumer's ProbabilisticConfig::missing_ap_log_penalty.
  double missing_penalty = -6.0;
  /// The consumer's ProbabilisticConfig::min_common_aps: rows below it
  /// coarse-score -infinity (the exact pass skips them, so they must
  /// not occupy candidate slots).
  int min_common_aps = 1;
};

class CandidatePruner {
 public:
  /// `config.tables` must be set and laid out over `compiled`'s rows.
  CandidatePruner(std::shared_ptr<const CompiledDatabase> compiled,
                  PrunerConfig config);

  /// Candidate training rows for `q`, sorted ascending (database
  /// order, so downstream scans stay deterministic and prefetchable).
  /// Empty means "degenerate — run the full pass" (see file comment).
  std::vector<std::uint32_t> select(const CompiledObservation& q) const;

  const PrunerConfig& config() const { return config_; }

 private:
  std::shared_ptr<const CompiledDatabase> compiled_;
  PrunerConfig config_;
  /// CSR postings: rows trained on slot s live at
  /// postings_[offsets_[s] .. offsets_[s + 1]).
  std::vector<std::uint32_t> postings_;
  std::vector<std::uint32_t> offsets_;
};

}  // namespace loctk::core
