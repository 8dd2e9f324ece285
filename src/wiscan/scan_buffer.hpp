#pragma once

/// \file scan_buffer.hpp
/// Zero-copy ingest substrate: whole-file buffers and string_view
/// parsers.
///
/// The seed toolkit read every wi-scan file through `std::getline` +
/// `istringstream` token loops — one stream construction and several
/// heap allocations per row. At survey scale (the paper's 28 files)
/// that is invisible; at the ROADMAP's corpus scale it dominates
/// training-database builds. This layer loads each file into memory
/// exactly once (mmap where available, a single resize+read
/// otherwise) and parses by slicing `std::string_view`s with
/// `std::from_chars` — no streams, no per-token allocations. The path
/// readers in format.hpp / location_map.hpp / archive.hpp map the file
/// and hand its bytes to these parsers; in-memory text goes to them
/// directly.

#include <cstddef>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "base/error.hpp"
#include "wiscan/location_map.hpp"
#include "wiscan/record.hpp"

namespace loctk::wiscan {

/// I/O failure while buffering a file (open/stat/read/map). Callers
/// that promise their own error taxonomy (FormatError, ArchiveError,
/// CodecError) catch this and rethrow.
class BufferError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Reads a whole file into one string with a single allocation:
/// seek to end, `resize`, one `read`. Replaces the
/// `ostringstream << rdbuf()` double-copy idiom. Throws BufferError.
std::string read_file_bytes(const std::filesystem::path& path);

/// Read-only view of a whole file. On POSIX the file is mmap'd
/// (read-only, private) so parsing large corpora touches pages on
/// demand and never copies the bytes; elsewhere it falls back to
/// `read_file_bytes`. The view is valid for the buffer's lifetime.
class FileBuffer {
 public:
  /// Throws BufferError when the file cannot be opened/mapped.
  explicit FileBuffer(const std::filesystem::path& path);
  ~FileBuffer();

  FileBuffer(const FileBuffer&) = delete;
  FileBuffer& operator=(const FileBuffer&) = delete;

  std::string_view view() const {
    return map_ ? std::string_view(static_cast<const char*>(map_), size_)
                : std::string_view(heap_);
  }
  std::size_t size() const { return map_ ? size_ : heap_.size(); }

 private:
  void* map_ = nullptr;  // non-null iff mmap'd
  std::size_t size_ = 0;
  std::string heap_;  // fallback storage
};

/// Parses a complete number (optional sign, decimal or scientific)
/// from `text` via `std::from_chars`; the whole token must be
/// consumed. Returns nullopt on malformed input instead of throwing
/// so parsers can attach line diagnostics.
std::optional<double> parse_number(std::string_view text);

/// Iterates the lines of a buffer without allocating: each call
/// yields the next line (terminator removed, trailing '\r' stripped),
/// or nullopt at end of input. Tracks a 1-based line number for
/// diagnostics.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : text_(text) {}

  std::optional<std::string_view> next();
  std::size_t line_number() const { return line_no_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
};

/// One parsed wi-scan row. The string fields are views into the
/// scanned buffer — valid only while that buffer lives — so consumers
/// that aggregate in place never pay a per-row allocation.
struct WiScanRow {
  std::string_view bssid;
  std::string_view ssid;
  double timestamp_s = 0.0;
  double rssi_dbm = 0.0;
  int channel = 0;
};

/// Receiver for `scan_wiscan_buffer`. The virtual dispatch costs a
/// couple of ns per row; materializing a WiScanEntry costs an order
/// of magnitude more, which is exactly what push-parsing avoids.
class WiScanRowSink {
 public:
  virtual ~WiScanRowSink() = default;
  /// A non-empty `# location:` header comment (last one wins).
  virtual void on_location(std::string_view location) = 0;
  /// One data row, in file order. Rows without a time= key inherit
  /// the previous row's timestamp, matching WiScanEntry semantics.
  virtual void on_row(const WiScanRow& row) = 0;
};

/// Push-parses a wi-scan buffer into `sink`: same grammar, rules, and
/// diagnostics as `parse_wiscan_buffer`, but rows are delivered as
/// buffer views instead of being materialized, so callers such as the
/// training-database generator can aggregate without building a
/// WiScanFile first. Throws FormatError on malformed rows.
void scan_wiscan_buffer(std::string_view text, WiScanRowSink& sink);

/// Buffer-oriented wi-scan parser (the grammar of format.hpp), driven
/// by string_view slicing.
/// Throws FormatError (declared in format.hpp) with line numbers on
/// malformed rows.
WiScanFile parse_wiscan_buffer(std::string_view text,
                               std::string_view fallback_location = {});

/// Buffer-oriented location-map parser. Unlike the seed's
/// `istringstream >> double` loop it rejects trailing garbage after
/// the two coordinates with a line diagnostic. Throws
/// LocationMapError.
LocationMap parse_location_map_buffer(std::string_view text);

/// --- structured-error adapters ---------------------------------------
/// Taxonomy-speaking forms of the ingest entry points: I/O failures
/// come back as `loctk::Error` kIo and malformed text as kParse, so
/// batch loaders can quarantine one bad file and keep parsing.

Result<std::string> try_read_file_bytes(const std::filesystem::path& path);
Result<WiScanFile> try_parse_wiscan_buffer(
    std::string_view text, std::string_view fallback_location = {});
Result<LocationMap> try_parse_location_map_buffer(std::string_view text);

}  // namespace loctk::wiscan
