#pragma once

/// \file score_kernels.hpp
/// The v2 scoring kernels, written once against the 4-lane vector
/// interface from base/simd.hpp and instantiated per backend.
///
/// Each kernel consumes 64-byte-aligned rows whose stride is a
/// multiple of simd::kLanes (compiled observations and the locators'
/// own dense signatures; see `CompiledDatabase::row_stride`), so
/// the loops below use aligned full-width loads with no scalar tail.
/// Pad cells carry mask = 0 and value 0.0, which makes every padded
/// term an exact +/-0.0 — they cannot perturb the sums.
///
/// Bit-compatibility contract: a kernel instantiated with the native
/// backend (simd::Vec4d) produces bit-identical results to the same
/// kernel instantiated with simd::ScalarVec4d, because lane semantics
/// and the hsum reduction tree are fixed across backends and the
/// build never enables FP contraction (tests/core_scoring_v2_test.cpp
/// pins this). Relative to the string-keyed reference forms the lane
/// split reassociates the sums, so those comparisons go through the
/// differential oracle's `score_tol` as they always have for the
/// transcendental-bearing paths.

#include <cstddef>

#include "base/simd.hpp"

namespace loctk::core::kernels {

/// Plain squared distance between two padded vectors (k-NN family;
/// both sides carry identical pad values so padded deltas are 0.0).
template <class V>
inline double sq_dist_row(const double* row, const double* query,
                          std::size_t stride) {
  V acc = V::zero();
  for (std::size_t u = 0; u < stride; u += simd::kLanes) {
    const V d = V::load(row + u) - V::load(query + u);
    acc = acc + d * d;
  }
  return acc.hsum();
}

/// First SSD pass: size and per-side sums of the common-AP subset.
struct SsdMoments {
  double n = 0.0;      ///< number of common APs
  double sum_o = 0.0;  ///< observed-side sum over common APs
  double sum_t = 0.0;  ///< trained-side sum over common APs
};

template <class V>
inline SsdMoments ssd_moments_row(const double* mean, const double* mask,
                                  const double* q_mean,
                                  const double* q_present,
                                  std::size_t stride) {
  V n = V::zero();
  V sum_o = V::zero();
  V sum_t = V::zero();
  for (std::size_t u = 0; u < stride; u += simd::kLanes) {
    const V m = V::load(mask + u) * V::load(q_present + u);
    n = n + m;
    sum_o = sum_o + m * V::load(q_mean + u);
    sum_t = sum_t + m * V::load(mean + u);
  }
  return {n.hsum(), sum_o.hsum(), sum_t.hsum()};
}

/// Second SSD pass: masked squared distance between the mean-centered
/// signatures. Mirrors `sum2 += m * d * d` with
/// d = (q_mean[u] - mo) - (mean[u] - mt).
template <class V>
inline double ssd_sq_dist_row(const double* mean, const double* mask,
                              const double* q_mean,
                              const double* q_present, double mo,
                              double mt, std::size_t stride) {
  const V vmo = V::broadcast(mo);
  const V vmt = V::broadcast(mt);
  V acc = V::zero();
  for (std::size_t u = 0; u < stride; u += simd::kLanes) {
    const V m = V::load(mask + u) * V::load(q_present + u);
    const V d = (V::load(q_mean + u) - vmo) - (V::load(mean + u) - vmt);
    acc = acc + m * d * d;
  }
  return acc.hsum();
}

/// acc[i] += a * col[i] over a padded column of `n` doubles
/// (histogram locator: one (bin, count) pair folded into the
/// per-point partial sums, points-major).
template <class V>
inline void axpy(double a, const double* col, double* acc, std::size_t n) {
  const V va = V::broadcast(a);
  for (std::size_t i = 0; i < n; i += simd::kLanes) {
    (V::load(acc + i) + va * V::load(col + i)).store(acc + i);
  }
}

/// Folds one scored slot into the histogram locator's per-point
/// accumulators: total[i] += mask[i] * (slot_sum[i] * inv_n) and
/// common[i] += mask[i]. Reproduces the per-point scalar order
/// (ap_sum * inv_n added once per slot, gated by the presence mask).
template <class V>
inline void hist_fold_slot(const double* slot_sum, const double* mask_col,
                           double inv_n, double* total, double* common,
                           std::size_t n) {
  const V scale = V::broadcast(inv_n);
  for (std::size_t i = 0; i < n; i += simd::kLanes) {
    const V m = V::load(mask_col + i);
    (V::load(total + i) + m * (V::load(slot_sum + i) * scale))
        .store(total + i);
    (V::load(common + i) + m).store(common + i);
  }
}

}  // namespace loctk::core::kernels
