#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace servebench {

double SelfTime::median_ns() const {
  if (self_ns.empty()) return 0.0;
  return self_ns[self_ns.size() / 2];
}

Tracer::Buffer& Tracer::local() {
  thread_local const Tracer* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->spans.reserve(1 << 16);
    owner = this;
  }
  return *buffer;
}

std::int32_t Tracer::open(const char* name, RequestId request) {
  Buffer& b = local();
  SpanRecord span;
  span.name = name;
  span.parent = b.stack.empty() ? -1 : b.stack.back();
  span.request = request;
  const auto index = static_cast<std::int32_t>(b.spans.size());
  b.stack.push_back(index);
  span.start_ns = now_ns();
  b.spans.push_back(span);
  return index;
}

void Tracer::close(std::int32_t index) {
  const std::int64_t end = now_ns();
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(index)].end_ns = end;
  b.stack.pop_back();
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

std::map<std::string, SelfTime> Tracer::self_times() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, SelfTime> out;
  for (const auto& b : buffers_) {
    std::vector<double> child_ns(b->spans.size(), 0.0);
    for (const SpanRecord& s : b->spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < b->spans.size(); ++i) {
      const SpanRecord& s = b->spans[i];
      const double self =
          static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
      out[s.name].self_ns.push_back(self);
    }
  }
  for (auto& [name, agg] : out) {
    std::sort(agg.self_ns.begin(), agg.self_ns.end());
  }
  return out;
}

void Tracer::write_tsv(const std::filesystem::path& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans) origin = std::min(origin, s.start_ns);
  }
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
  std::ofstream os(path);
  if (!os) throw std::runtime_error("tracer: cannot write " + path.string());
  os << "thread\tid\tparent\tname\tdevice\tscan\tstart_ns\tend_ns\n";
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    const auto& spans = buffers_[t]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const SpanRecord& s = spans[i];
      os << t << '\t' << i << '\t' << s.parent << '\t' << s.name << '\t';
      if (s.request.device == kNoRequest.device) {
        os << "-\t-";
      } else {
        os << s.request.device << '\t' << s.request.scan;
      }
      os << '\t' << (s.start_ns - origin) << '\t' << (s.end_ns - origin)
         << '\n';
    }
  }
}

}  // namespace servebench
