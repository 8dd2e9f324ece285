#include "wiscan/collection.hpp"

#include <algorithm>
#include <system_error>

#include "base/metrics.hpp"
#include "concurrency/parallel_for.hpp"
#include "wiscan/scan_buffer.hpp"

namespace loctk::wiscan {

namespace {

metrics::Counter& files_loaded_counter() {
  static metrics::Counter& c = metrics::counter("ingest.files_loaded");
  return c;
}
metrics::Counter& files_quarantined_counter() {
  static metrics::Counter& c =
      metrics::counter("ingest.files_quarantined");
  return c;
}
metrics::Counter& bytes_read_counter() {
  static metrics::Counter& c = metrics::counter("ingest.bytes_read");
  return c;
}
metrics::HistogramMetric& load_seconds_histogram() {
  static metrics::HistogramMetric& h =
      metrics::histogram("ingest.load_collection.seconds");
  return h;
}
metrics::Gauge& bytes_per_s_gauge() {
  static metrics::Gauge& g = metrics::gauge("ingest.bytes_per_s");
  return g;
}

// Shared epilogue for both load paths: attributes this call's file and
// byte totals, and derives throughput from the caller's wall time (the
// duration histogram itself is fed by the caller's ScopedTimer).
void record_load(std::size_t attempted, std::size_t kept,
                 std::uint64_t bytes, double elapsed_s) {
  files_loaded_counter().add(kept);
  files_quarantined_counter().add(attempted - kept);
  bytes_read_counter().add(bytes);
  if (elapsed_s > 0.0) {
    bytes_per_s_gauge().set(static_cast<double>(bytes) / elapsed_s);
  }
}

}  // namespace

const WiScanFile* Collection::find(const std::string& location) const {
  const auto it = std::find_if(
      files.begin(), files.end(),
      [&](const WiScanFile& f) { return f.location == location; });
  return it == files.end() ? nullptr : &*it;
}

std::size_t Collection::total_entries() const {
  std::size_t n = 0;
  for (const WiScanFile& f : files) n += f.entries.size();
  return n;
}

namespace {

bool has_wiscan_extension(const std::string& name) {
  static constexpr std::string_view kExt = ".wiscan";
  return name.size() > kExt.size() &&
         name.compare(name.size() - kExt.size(), kExt.size(), kExt) == 0;
}

// Ties in the by-location sort are broken by work-list index, so serial
// and parallel loads produce identical collections.
Collection load_sources(const CollectionSources& sources,
                        concurrency::ThreadPool* pool, LoadReport* report,
                        const metrics::ScopedTimer& timer) {
  Collection c;
  c.files = sources.parse_all<WiScanFile>(
      pool, report != nullptr ? &report->quarantined : nullptr,
      [](SourceText source) {
        return parse_wiscan_buffer(source.text, source.fallback_location);
      });
  if (report != nullptr) report->files_loaded += c.files.size();
  std::stable_sort(c.files.begin(), c.files.end(),
                   [](const WiScanFile& a, const WiScanFile& b) {
                     return a.location < b.location;
                   });
  record_load(sources.size(), c.files.size(), sources.total_bytes(),
              timer.elapsed_s());
  return c;
}

}  // namespace

CollectionSources::CollectionSources(const std::filesystem::path& source) {
  if (std::filesystem::is_directory(source)) {
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(source)) {
      if (!entry.is_regular_file()) continue;
      if (!has_wiscan_extension(entry.path().filename().string())) continue;
      sources_.push_back({entry.path().string(), entry.path(), nullptr});
      std::error_code ec;
      const auto size = std::filesystem::file_size(entry.path(), ec);
      if (!ec) total_bytes_ += size;
    }
    std::sort(sources_.begin(), sources_.end(),
              [](const Source& a, const Source& b) { return a.file < b.file; });
    return;
  }
  if (std::filesystem::is_regular_file(source) &&
      source.extension() == ".lar") {
    owned_archive_ = std::make_unique<const Archive>(Archive::read(source));
    add_archive_entries(*owned_archive_);
    return;
  }
  throw FormatError("load_collection: '" + source.string() +
                    "' is neither a directory nor a .lar archive");
}

CollectionSources::CollectionSources(const Archive& archive) {
  add_archive_entries(archive);
}

void CollectionSources::add_archive_entries(const Archive& archive) {
  for (const auto& [name, bytes] : archive.entries()) {
    if (!has_wiscan_extension(name)) continue;
    sources_.push_back({name, {}, &bytes});
    total_bytes_ += bytes.size();
  }
}

std::vector<std::optional<Error>> CollectionSources::visit(
    concurrency::ThreadPool* pool, bool quarantine,
    const std::function<void(std::size_t, SourceText)>& parse) const {
  std::vector<std::optional<Error>> errors(size());
  const auto one = [&](std::size_t i) {
    const Source& s = sources_[i];
    try {
      SourceText source;
      if (s.bytes != nullptr) {
        source.text = *s.bytes;
      } else {
        source.buffer = std::make_unique<FileBuffer>(s.file);
        source.text = source.buffer->view();
      }
      source.fallback_location = sanitize_location_name(
          std::filesystem::path(s.name).stem().string());
      parse(i, std::move(source));
    } catch (const BufferError& e) {
      if (!quarantine) {
        throw FormatError("load_collection: " + std::string(e.what()));
      }
      errors[i] = Error(ErrorCode::kIo, e.what())
                      .with_context("reading '" + s.name + "'");
    } catch (const FormatError& e) {
      if (!quarantine) throw;
      const char* prefix =
          s.bytes != nullptr ? "parsing archive entry '" : "parsing '";
      errors[i] = Error(ErrorCode::kParse, e.what())
                      .with_context(prefix + s.name + "'");
    }
  };
  if (pool != nullptr && size() > 1) {
    concurrency::parallel_for(*pool, 0, size(), one);
  } else {
    for (std::size_t i = 0; i < size(); ++i) one(i);
  }
  return errors;
}

Collection load_collection(const Archive& archive,
                           concurrency::ThreadPool* pool,
                           LoadReport* report) {
  const metrics::ScopedTimer timer(load_seconds_histogram());
  return load_sources(CollectionSources(archive), pool, report, timer);
}

Collection load_collection(const std::filesystem::path& source,
                           concurrency::ThreadPool* pool,
                           LoadReport* report) {
  const metrics::ScopedTimer timer(load_seconds_histogram());
  return load_sources(CollectionSources(source), pool, report, timer);
}

}  // namespace loctk::wiscan
