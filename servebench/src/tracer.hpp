#pragma once

/// \file tracer.hpp
/// In-memory spans recorded by the benchmark around each call it makes
/// into a loctk layer.
///
/// A span holds its name (the layer-qualified call, e.g.
/// "core.from_scans"), start and end on the steady clock, the span
/// that caused it (same thread), and a request id: the device and the
/// scan index the call served. Spans stay in per-thread buffers until
/// the run ends; `write_tsv` then writes them out, and `self_times`
/// turns them into per-name self times (duration minus the part
/// covered by child spans).
///
/// A disabled tracer records nothing, and `Span` over it costs one
/// branch: the untraced run measures the end-to-end metrics.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Request id carried by every span: which device, which of its
/// scans. Spans that serve no single scan use kNoRequest.
struct RequestId {
  std::uint64_t device = 0;
  std::uint32_t scan = 0;
};
inline constexpr RequestId kNoRequest{~0ULL, ~0U};

struct SpanRecord {
  const char* name = nullptr;  ///< string literal, never freed
  std::int32_t parent = -1;    ///< index in the same thread's buffer
  RequestId request;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name aggregate of span self times.
struct SelfTime {
  std::vector<double> self_ns;  ///< one entry per span, sorted
  double median_ns() const;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its index.
  std::int32_t open(const char* name, RequestId request);
  void close(std::int32_t index);

  std::size_t span_count() const;
  /// Self time per span name, over every thread.
  std::map<std::string, SelfTime> self_times() const;
  /// One line per span: thread, id, parent, name, device, scan,
  /// start_ns, end_ns (start and end relative to the earliest span).
  void write_tsv(const std::filesystem::path& path) const;

 private:
  struct Buffer {
    std::vector<SpanRecord> spans;
    std::vector<std::int32_t> stack;
  };
  Buffer& local();

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span; a null or disabled tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const char* name, RequestId request = kNoRequest)
      : tracer_(tracer && tracer->enabled() ? tracer : nullptr),
        index_(tracer_ ? tracer_->open(name, request) : -1) {}
  ~Span() {
    if (tracer_) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

}  // namespace servebench
