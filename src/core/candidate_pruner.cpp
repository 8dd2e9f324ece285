#include "core/candidate_pruner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace loctk::core {

CandidatePruner::CandidatePruner(
    std::shared_ptr<const CompiledDatabase> compiled, PrunerConfig config)
    : compiled_(std::move(compiled)), config_(config) {
  config_.top_k = std::max(1, config_.top_k);

  const std::size_t points = compiled_->point_count();
  const std::size_t universe = compiled_->universe_size();
  offsets_.assign(universe + 1, 0);
  for (std::size_t p = 0; p < points; ++p) {
    const double* mask = compiled_->mask_row(p);
    for (std::size_t u = 0; u < universe; ++u) {
      if (mask[u] != 0.0) ++offsets_[u + 1];
    }
  }
  for (std::size_t u = 0; u < universe; ++u) {
    offsets_[u + 1] += offsets_[u];
  }
  postings_.resize(offsets_[universe]);
  std::vector<std::uint32_t> cursor(offsets_.begin(),
                                    offsets_.end() - 1);
  for (std::size_t p = 0; p < points; ++p) {
    const double* mask = compiled_->mask_row(p);
    for (std::size_t u = 0; u < universe; ++u) {
      if (mask[u] != 0.0) {
        postings_[cursor[u]++] = static_cast<std::uint32_t>(p);
      }
    }
  }
}

std::vector<std::uint32_t> CandidatePruner::select(
    const CompiledObservation& q) const {
  const std::size_t points = compiled_->point_count();
  const auto top_k = static_cast<std::size_t>(config_.top_k);
  // Pruning that cannot shrink the work is pure overhead: degenerate.
  if (points <= top_k) return {};

  // Every row sharing at least one finite observed slot is a
  // candidate: the exact pass skips rows with zero common APs
  // (min_common_aps >= 1), so no row outside this union can win the
  // arg-max, and every row inside it gets ranked by its true score.
  std::vector<std::uint8_t> seen(points, 0);
  std::vector<std::uint32_t> touched;
  for (const std::uint32_t slot : q.slots) {
    if (!std::isfinite(q.mean_dbm[slot])) continue;
    for (std::uint32_t i = offsets_[slot]; i < offsets_[slot + 1]; ++i) {
      const std::uint32_t p = postings_[i];
      if (!seen[p]) {
        seen[p] = 1;
        touched.push_back(p);
      }
    }
  }
  if (touched.empty()) return {};

  // The consumer's own likelihood, gathered over the observed slots
  // only. The dense kernel's Gaussian terms vanish off the
  // observation and its penalty count is closed-form in
  // (trained, observed, common), so this equals the exact score up to
  // summation order — a sparse row's flat penalties rank it exactly
  // where the arg-max will.
  const std::size_t stride = compiled_->row_stride();
  const GaussianTables& tables = *config_.tables;
  const double obs_count =
      static_cast<double>(q.in_universe() + q.outside_universe);
  std::vector<double> coarse(points, 0.0);
  for (const std::uint32_t p : touched) {
    const double* mean = compiled_->mean_row(p);
    const double* mask = compiled_->mask_row(p);
    const double* log_norm = tables.log_norm.data() + p * stride;
    const double* inv_two_var = tables.inv_two_var.data() + p * stride;
    double gauss = 0.0;
    int common = 0;
    for (const std::uint32_t slot : q.slots) {
      const double q_dbm = q.mean_dbm[slot];
      if (!std::isfinite(q_dbm) || mask[slot] == 0.0) continue;
      const double d = q_dbm - mean[slot];
      gauss += log_norm[slot] - inv_two_var[slot] * d * d;
      ++common;
    }
    if (common < config_.min_common_aps) {
      coarse[p] = -std::numeric_limits<double>::infinity();
      continue;
    }
    const double penalties =
        static_cast<double>(compiled_->trained_count(p)) + obs_count -
        2.0 * static_cast<double>(common);
    coarse[p] = gauss + config_.missing_penalty * penalties;
  }

  if (touched.size() > top_k) {
    std::nth_element(touched.begin(),
                     touched.begin() + static_cast<std::ptrdiff_t>(top_k),
                     touched.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return coarse[a] > coarse[b];
                     });
    touched.resize(top_k);
  }
  std::sort(touched.begin(), touched.end());
  return touched;
}

}  // namespace loctk::core
