// servebench — one command, two workloads, every loctk layer.
//
//   servebench --workload <office-fleet|campus-ops>
//              --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   servebench --self-test     same seed, same input bytes
//
// Prints provenance, the output checks that failed (if any) and every
// metric as `name value unit`, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the per-layer ones, taken from spans written under the work dir.
// See README.md in this directory.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "base/simd.hpp"
#include "workload.hpp"

namespace {

/// The seed no claim may be tuned on: a claimed gain must also hold
/// when the benchmark runs with it.
constexpr std::uint64_t kHeldOutSeed = 7919;

int usage() {
  std::fprintf(stderr,
               "usage: servebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n"
               "       servebench --self-test\n");
  return 2;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int self_test(const std::filesystem::path& dir) {
  int failures = 0;
  for (const std::string name : {"office-fleet", "campus-ops"}) {
    const servebench::WorkloadSpec spec = servebench::workload_spec(name);
    const auto a = servebench::input_digest(spec, 11, 1.0, dir / "a");
    const auto b = servebench::input_digest(spec, 11, 1.0, dir / "b");
    const auto c = servebench::input_digest(spec, kHeldOutSeed, 1.0, dir / "c");
    const bool ok = a == b && a != c;
    std::printf("%s: seed 11 -> %016llx, again -> %016llx, seed %llu -> %016llx: %s\n",
                name.c_str(), static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(kHeldOutSeed),
                static_cast<unsigned long long>(c), ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  }
  std::filesystem::remove_all(dir);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "servebench: refusing a build with assertions on (not Release)\n");
  return 3;
#endif
  if (std::strcmp(SERVEBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "servebench: refusing a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", SERVEBENCH_BUILD_TYPE);
    return 3;
  }

  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool have_seed = false;
  std::filesystem::path work_dir = ".bench_build/servebench-work";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test(work_dir / "self-test");
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--work-dir") {
        work_dir = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }

  try {
    const servebench::WorkloadSpec spec = servebench::workload_spec(workload);
    servebench::RunOptions options;
    options.seed = seed;
    options.seconds = seconds;
    options.trace = trace == 1;
    options.workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    options.work_dir = work_dir;

    std::printf("provenance: workload=%s seed=%llu seconds=%g trace=%d build=%s "
                "hardware_concurrency=%u simd=%s workers=%zu offered_rate=%g/s "
                "held_out_seed=%llu\n",
                workload.c_str(), static_cast<unsigned long long>(seed), seconds,
                trace, SERVEBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
                loctk::simd::backend(), options.workers, spec.offered_rate,
                static_cast<unsigned long long>(kHeldOutSeed));
    std::fflush(stdout);

    const servebench::RunResult result = servebench::run_workload(spec, options);
    for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
    for (const std::string& p : result.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
    const auto& metrics = options.trace ? result.per_layer : result.end_to_end;
    for (const servebench::Metric& m : metrics) {
      std::printf("%-28s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += result.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) json += ", ";
      json += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
              ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
