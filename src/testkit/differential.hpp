#pragma once

/// \file differential.hpp
/// Compiled-vs-reference differential oracle.
///
/// Every fingerprint locator has two implementations of the same
/// math: the compiled path `locate()` actually runs, and the
/// readable string-keyed form (`log_likelihood`, `signal_distance`,
/// `ssd_distance`) kept as executable documentation. The oracle feeds
/// both sides the *same* observation batch (typically windows cut from
/// a recorded trace) and diffs the estimates, so any kernel, interning,
/// or ingest change that silently shifts answers fails conformance
/// instead of shipping.
///
/// For the arg-max locators the check is score-based: the compiled
/// choice must be within `score_tol` of the reference-optimal score
/// *as scored by the reference* — a genuine near-tie between training
/// points is not a defect, picking a reference-refutable point is.
/// For the k-NN family positions and scores are compared directly
/// under tight tolerances. The compiled paths sum in a different order
/// from the serial references (the probabilistic scorer folds four
/// partial sums per row, the SIMD kernels accumulate in four lanes),
/// so their sums sit within rounding noise, not bit-for-bit, of the
/// reference order. The bit-for-bit contracts live one level down:
/// native-backend kernels vs the scalar fallback lanes, and `locate`
/// vs the arg-max of `score_all` (tests/core_scoring_v2_test.cpp).

#include <cstdint>
#include <string>
#include <vector>

#include "core/knn.hpp"
#include "core/observation.hpp"
#include "core/probabilistic.hpp"
#include "traindb/database.hpp"

namespace loctk::core {
class CompiledDatabase;
}

namespace loctk::testkit {

/// One compiled-vs-reference disagreement.
struct EstimateDiff {
  std::string locator;
  std::size_t observation = 0;
  std::string detail;
};

struct DifferentialConfig {
  /// Max position disagreement (ft) for coordinate-valued estimates.
  double position_tol_ft = 1e-6;
  /// Max score disagreement (log-likelihood / negated distance units).
  double score_tol = 1e-6;
};

struct DifferentialReport {
  std::uint64_t observations = 0;
  /// locator x observation pairs checked.
  std::uint64_t comparisons = 0;
  std::vector<EstimateDiff> mismatches;

  bool ok() const { return mismatches.empty(); }
  std::string to_text() const;
};

/// Runs every dual-implementation locator (probabilistic, place
/// recognition, NNSS, k-NN, SSD, histogram — the last only when `db`
/// retains raw samples) over `observations`, compiled path vs
/// reference path.
DifferentialReport run_differential_oracle(
    const traindb::TrainingDatabase& db,
    const std::vector<core::Observation>& observations,
    const DifferentialConfig& config = {});

/// Exact structural diff of two compilations — the delta-compile
/// oracle gate. Zero tolerance: delta compilation copies or re-interns
/// the very same doubles a from-scratch build writes, so the source
/// database, universe, stride, CSR row offsets, every trained pair's
/// slot, mean, σ and weight (bitwise), the per-row trained counts, and
/// the postings and pooled σ of a ProbabilisticLocator built on each
/// side must be identical. A pair trained on one side only is
/// reported by row and slot. Any difference is a defect, never
/// rounding.
struct CompiledDiffReport {
  /// Dense-equivalent cells the compare covers: mean, σ, mask and
  /// weight over points x row_stride(), the cells a dense
  /// cell-for-cell compare would read (a slot absent from both runs is
  /// equal there by construction).
  std::uint64_t cells_compared = 0;
  /// Human-readable mismatch descriptions, capped at 32 entries
  /// (`truncated` reports the overflow).
  std::vector<std::string> mismatches;
  std::uint64_t truncated = 0;

  bool ok() const { return mismatches.empty() && truncated == 0; }
  std::string to_text() const;
};

CompiledDiffReport compare_compiled_databases(
    const core::CompiledDatabase& delta,
    const core::CompiledDatabase& rebuild);

}  // namespace loctk::testkit
