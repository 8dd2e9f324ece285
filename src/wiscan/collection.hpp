#pragma once

/// \file collection.hpp
/// Loading whole wi-scan collections.
///
/// The paper §4.3: the collection "is passed to the Training Database
/// Generator as a string representing either the name of a directory
/// containing the wi-scan files or a zip file containing the wi-scan
/// files", and the generator "must correctly deal with ... directory
/// structure and file format". We accept a directory tree (searched
/// recursively for `*.wiscan`) or a `.lar` archive, and label each
/// file by its `# location:` header or, failing that, its file stem.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "wiscan/archive.hpp"
#include "wiscan/format.hpp"
#include "wiscan/record.hpp"
#include "wiscan/scan_buffer.hpp"

namespace loctk::concurrency {
class ThreadPool;
}

namespace loctk::wiscan {

/// A loaded collection: one WiScanFile per survey location, sorted by
/// location name for deterministic downstream processing.
struct Collection {
  std::vector<WiScanFile> files;

  /// Pointer into `files` for `location`, or nullptr.
  const WiScanFile* find(const std::string& location) const;

  std::size_t total_entries() const;
};

/// One input skipped by a quarantining load: which source (file path
/// or archive entry name) and the structured reason.
struct QuarantinedFile {
  std::string source;
  Error error;
};

/// Outcome bookkeeping for a quarantining load.
struct LoadReport {
  /// Inputs skipped (work-list order: sorted paths / map entry order).
  std::vector<QuarantinedFile> quarantined;
  /// Inputs that parsed and made it into the collection.
  std::size_t files_loaded = 0;
};

/// One source handed to a `CollectionSources` parse: its bytes, the
/// location label it falls back on (its sanitized file stem) and, for
/// a directory file, the mapped buffer owning `text` — keep `buffer`
/// to keep views into `text` valid past the parse call.
struct SourceText {
  std::string_view text;
  std::string fallback_location;
  std::unique_ptr<FileBuffer> buffer;  // null for archive entries
};

/// The wi-scan sources of one collection in a fixed work-list order:
/// a directory tree's `*.wiscan` files (recursive, paths sorted, since
/// directory iteration order is filesystem-dependent) or an archive's
/// `*.wiscan` entries (map order). `load_collection` and
/// `traindb::generate_database_from_path` both walk collections here.
class CollectionSources {
 public:
  /// Dispatches on what `source` points at, mirroring the paper's
  /// string-argument interface. A `.lar` file is read (and owned)
  /// here. Throws FormatError when `source` is neither a directory nor
  /// a `.lar` file, ArchiveError when the archive cannot be read.
  explicit CollectionSources(const std::filesystem::path& source);
  /// The `.wiscan` entries of `archive`, which must outlive this.
  explicit CollectionSources(const Archive& archive);

  std::size_t size() const { return sources_.size(); }
  /// File path or archive entry name of source `i`.
  const std::string& name(std::size_t i) const { return sources_[i].name; }
  /// Summed source sizes (a file whose size cannot be read counts 0).
  std::uint64_t total_bytes() const { return total_bytes_; }

  /// Calls `parse(SourceText)` once per source, serially or across
  /// `pool`, each result landing in its own index slot, so the output
  /// does not depend on thread count or completion order. Returns the
  /// parsed slots in work-list order.
  ///
  /// Without `quarantined`, the first failure throws: an unreadable
  /// file as FormatError("load_collection: …"), malformed text as the
  /// parser's FormatError. With it, a failing source is skipped and
  /// its diagnostic — kIo "reading '…'", kParse "parsing '…'" or
  /// "parsing archive entry '…'" — is appended in work-list order,
  /// leaving exactly the slots a clean run over the surviving sources
  /// returns.
  template <typename T, typename Parse>
  std::vector<T> parse_all(concurrency::ThreadPool* pool,
                           std::vector<QuarantinedFile>* quarantined,
                           const Parse& parse) const {
    std::vector<T> slots(size());
    std::vector<std::optional<Error>> errors =
        visit(pool, quarantined != nullptr,
              [&](std::size_t i, SourceText source) {
                slots[i] = parse(std::move(source));
              });
    if (quarantined == nullptr) return slots;
    std::vector<T> kept;
    kept.reserve(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (errors[i]) {
        quarantined->push_back({name(i), std::move(*errors[i])});
      } else {
        kept.push_back(std::move(slots[i]));
      }
    }
    return kept;
  }

 private:
  struct Source {
    std::string name;
    std::filesystem::path file;         // directory sources
    const std::string* bytes = nullptr;  // archive entries
  };

  void add_archive_entries(const Archive& archive);
  // Runs `parse` over every source; per-index errors when quarantining.
  std::vector<std::optional<Error>> visit(
      concurrency::ThreadPool* pool, bool quarantine,
      const std::function<void(std::size_t, SourceText)>& parse) const;

  std::unique_ptr<const Archive> owned_archive_;
  std::vector<Source> sources_;
  std::uint64_t total_bytes_ = 0;
};

/// Loads from a directory tree (recursive, `*.wiscan` files only) or
/// from a `.lar` archive file — dispatch on what `source` points at,
/// mirroring the paper's string-argument interface. Throws
/// FormatError / ArchiveError on malformed content, and FormatError
/// when `source` is neither a directory nor a `.lar` file.
///
/// With `pool`, the files are parsed in parallel across its workers
/// into index-aligned slots (see `CollectionSources::parse_all`), so
/// the loaded collection is byte-identical to the serial path.
///
/// With `report`, per-file failures (unreadable file, malformed rows)
/// are *quarantined*: the bad file is skipped, a structured diagnostic
/// lands in `report->quarantined`, and the rest of the batch loads
/// deterministically — identical to a clean run over the surviving
/// files. Whole-batch failures (bad source path, unreadable archive)
/// still throw. Without `report`, the first failure throws as before.
Collection load_collection(const std::filesystem::path& source,
                           concurrency::ThreadPool* pool = nullptr,
                           LoadReport* report = nullptr);

/// Loads from an in-memory archive (entries whose names end in
/// `.wiscan`).
Collection load_collection(const Archive& archive,
                           concurrency::ThreadPool* pool = nullptr,
                           LoadReport* report = nullptr);

}  // namespace loctk::wiscan
