#include "testkit/golden.hpp"

#include "core/geometric.hpp"
#include "core/probabilistic.hpp"

namespace loctk::testkit {

PaperGoldenSummary run_paper_golden(int reruns) {
  PaperGoldenSummary summary;
  summary.reruns = reruns;
  if (reruns <= 0) return summary;

  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(reruns);
       ++seed) {
    // Same seed formula as bench/sec51_probabilistic.cpp.
    const PaperExperiment exp(seed * 7 + 100);
    const core::ProbabilisticLocator locator(exp.db);
    const core::EvaluationResult r =
        core::evaluate(locator, exp.db, exp.truths, exp.observations);
    summary.sec51_valid_rate += r.valid_estimation_rate();
    summary.sec51_mean_error_ft += r.mean_error_ft();
  }

  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(reruns);
       ++seed) {
    // Same seed formula as bench/sec52_geometric.cpp.
    const PaperExperiment exp(seed * 11 + 500);
    const core::GeometricLocator geo(exp.db, exp.testbed.environment());
    summary.sec52_mean_error_ft +=
        core::evaluate(geo, exp.db, exp.truths, exp.observations)
            .mean_error_ft();
    const core::ProbabilisticLocator prob(exp.db);
    summary.sec52_probabilistic_mean_error_ft +=
        core::evaluate(prob, exp.db, exp.truths, exp.observations)
            .mean_error_ft();
  }

  const double n = static_cast<double>(reruns);
  summary.sec51_valid_rate /= n;
  summary.sec51_mean_error_ft /= n;
  summary.sec52_mean_error_ft /= n;
  summary.sec52_probabilistic_mean_error_ft /= n;
  return summary;
}

}  // namespace loctk::testkit
