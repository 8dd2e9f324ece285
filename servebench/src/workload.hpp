#pragma once

/// \file workload.hpp
/// One benchmark run of one workload: set-up from wi-scan files, the
/// open-loop serve phase, the closed-loop capacity phase, the control
/// plane (janitor republish + frame render), and the output checks.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace servebench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t workers = 1;
  /// Scratch space for the generated survey files and the span dump.
  std::filesystem::path work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Output checks that failed, one line each.
  std::vector<std::string> problems;
  /// Provenance and run notes, printed before the result.
  std::vector<std::string> notes;
};

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options);

/// Digest of the inputs `spec` yields for `seed` (generated under
/// `dir`), for the determinism self-test.
std::uint64_t input_digest(const WorkloadSpec& spec, std::uint64_t seed,
                           double seconds, const std::filesystem::path& dir);

}  // namespace servebench
