#pragma once

/// \file locator.hpp
/// The common interface every localization algorithm implements.
///
/// The paper's two-phase structure (train, then locate) makes the
/// approaches drop-in interchangeable: both §5.1 (probabilistic) and
/// §5.2 (geometric) consume an `Observation` and produce a position —
/// one snapped to a training point, one a free coordinate. The
/// estimate carries both forms plus a confidence score so evaluation
/// code and the Compositor treat all algorithms uniformly.

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "core/observation.hpp"
#include "geom/vec2.hpp"
#include "traindb/database.hpp"

namespace loctk::concurrency {
class ThreadPool;
}

namespace loctk::core {

class ScanWindow;

/// Result of a locate() call.
struct LocationEstimate {
  /// True when the locator produced any answer at all; the fields
  /// below are meaningless when false (observation empty, no overlap
  /// with the training universe, degenerate geometry...).
  bool valid = false;

  /// Estimated world position (feet).
  geom::Vec2 position;

  /// For fingerprint locators: the winning training-point location
  /// name ("kitchen"); empty for coordinate-valued locators.
  std::string location_name;

  /// Algorithm-specific confidence. Fingerprint locators report the
  /// winning log-likelihood; geometric locators report the negative
  /// RMS circle residual. Only comparable within one algorithm.
  double score = 0.0;

  /// How many APs contributed to the estimate.
  int aps_used = 0;
};

/// Abstract localization algorithm, trained at construction time.
class Locator {
 public:
  virtual ~Locator() = default;

  /// Estimates the client position for one observation.
  virtual LocationEstimate locate(const Observation& obs) const = 0;

  /// Taxonomy-speaking locate: instead of the ambiguous
  /// `valid = false`, degenerate inputs come back as a typed
  /// `loctk::Error` saying *why* there is no answer — kDegenerate for
  /// an empty observation, non-finite dBm, no overlap with the trained
  /// universe, or too few usable ranging circles; kInternal if the
  /// algorithm itself threw. Implemented once on top of the virtual
  /// locate(), so every locator (and every future one) gets the same
  /// degraded-mode contract for free.
  Result<LocationEstimate> try_locate(const Observation& obs) const;

  /// try_locate of a serve window's observation, the live service's
  /// per-scan call: the same answer, error and counters as
  /// `try_locate(window.observation())`. It goes through
  /// `locate_window`, so a locator can score the window's cached slot
  /// query instead of lowering the observation again.
  Result<LocationEstimate> try_locate(ScanWindow& window) const;

  /// Scores a batch of independent observations (many concurrent
  /// clients, or a replayed capture). With a pool, the batch is
  /// chunked across its workers via `concurrency::parallel_for`;
  /// results are index-aligned with `obs` and identical to calling
  /// locate() per element. locate() is const and training state is
  /// immutable after construction, so the default implementation is
  /// safe for every locator.
  virtual std::vector<LocationEstimate> locate_batch(
      std::span<const Observation> obs,
      concurrency::ThreadPool* pool = nullptr) const;

  /// Short algorithm name for reports ("probabilistic-ml", ...).
  virtual std::string name() const = 0;

 protected:
  /// locate() of a non-empty window's observation; by default exactly
  /// `locate(window.observation())`.
  virtual LocationEstimate locate_window(ScanWindow& window) const;
};

}  // namespace loctk::core
