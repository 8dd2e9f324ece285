#include "traindb/generator.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "base/metrics.hpp"
#include "concurrency/parallel_for.hpp"
#include "stats/running_stats.hpp"
#include "wiscan/archive.hpp"
#include "wiscan/format.hpp"
#include "wiscan/scan_buffer.hpp"

namespace loctk::traindb {

namespace {

metrics::Counter& generate_files_counter() {
  static metrics::Counter& c =
      metrics::counter("traindb.generate.files_parsed");
  return c;
}
metrics::Counter& generate_quarantined_counter() {
  static metrics::Counter& c =
      metrics::counter("traindb.generate.files_quarantined");
  return c;
}
metrics::Counter& generate_points_counter() {
  static metrics::Counter& c =
      metrics::counter("traindb.generate.points_built");
  return c;
}
metrics::HistogramMetric& generate_seconds_histogram() {
  static metrics::HistogramMetric& h =
      metrics::histogram("traindb.generate.seconds");
  return h;
}

}  // namespace

std::vector<ApStatistics> summarize_aps(const wiscan::BucketTable& table,
                                        std::size_t scan_count,
                                        std::uint32_t min_samples_per_ap,
                                        bool keep_samples,
                                        std::size_t* dropped_pairs) {
  std::vector<ApStatistics> per_ap;
  per_ap.reserve(table.buckets.size());
  for (const wiscan::BucketTable::Bucket& bucket : table.buckets) {
    const std::size_t group_size = bucket.rows.size();
    if (group_size < min_samples_per_ap) {
      if (dropped_pairs) ++*dropped_pairs;
      continue;
    }
    stats::RunningStats rs;
    for (const double rssi : bucket.rows) rs.add(rssi);

    ApStatistics ap;
    ap.bssid = bucket.bssid;
    ap.mean_dbm = rs.mean();
    ap.stddev_db = rs.stddev();
    ap.sample_count = static_cast<std::uint32_t>(group_size);
    ap.scan_count = static_cast<std::uint32_t>(scan_count);
    ap.min_dbm = rs.min();
    ap.max_dbm = rs.max();
    if (keep_samples) {
      ap.samples_centi_dbm.reserve(group_size);
      for (const double rssi : bucket.rows) {
        ap.samples_centi_dbm.push_back(
            static_cast<std::int32_t>(std::lround(rssi * 100.0)));
      }
    }
    per_ap.push_back(std::move(ap));
  }
  return per_ap;
}

TrainingPoint build_training_point(const wiscan::WiScanFile& file,
                                   geom::Vec2 position,
                                   const GeneratorConfig& config,
                                   std::size_t* dropped_pairs) {
  const std::size_t scans = file.scan_count();
  wiscan::BucketTable table;
  for (const wiscan::WiScanEntry& e : file.entries) {
    table.add(e.bssid, e.rssi_dbm, scans);
  }
  return {file.location, position,
          summarize_aps(table, scans, config.min_samples_per_ap,
                        config.keep_samples, dropped_pairs)};
}

namespace {

// Shared front half: resolve positions, record mismatches, and return
// the indices of collection files that have map entries.
std::vector<std::size_t> plan_points(const wiscan::Collection& collection,
                                     const wiscan::LocationMap& map,
                                     GeneratorReport* report) {
  std::vector<std::size_t> usable;
  for (std::size_t i = 0; i < collection.files.size(); ++i) {
    if (map.find(collection.files[i].location)) {
      usable.push_back(i);
    } else if (report) {
      report->unmapped_locations.push_back(collection.files[i].location);
    }
  }
  if (report) {
    for (const wiscan::NamedLocation& loc : map.locations()) {
      if (collection.find(loc.name) == nullptr) {
        report->unsurveyed_locations.push_back(loc.name);
      }
    }
  }
  return usable;
}

TrainingDatabase assemble(const GeneratorConfig& config,
                          std::vector<TrainingPoint> built,
                          std::size_t dropped, GeneratorReport* report) {
  TrainingDatabase db =
      TrainingDatabase::from_points(std::move(built), config.site_name);
  if (report) {
    report->dropped_pairs += dropped;
    report->points_built = db.size();
  }
  return db;
}

}  // namespace

TrainingDatabase generate_database(const wiscan::Collection& collection,
                                   const wiscan::LocationMap& map,
                                   const GeneratorConfig& config,
                                   GeneratorReport* report,
                                   concurrency::ThreadPool* pool) {
  const std::vector<std::size_t> usable =
      plan_points(collection, map, report);

  // One slot per file: tasks write their own indices and the drop
  // counts fold left to right, so the assembled database (and its
  // serialized bytes) does not depend on the pool.
  std::vector<TrainingPoint> built(usable.size());
  std::vector<std::size_t> dropped_per(usable.size(), 0);
  const auto build = [&](std::size_t k) {
    const wiscan::WiScanFile& f = collection.files[usable[k]];
    built[k] = build_training_point(f, *map.find(f.location), config,
                                    &dropped_per[k]);
  };
  if (pool != nullptr) {
    concurrency::parallel_for(*pool, 0, usable.size(), build);
  } else {
    for (std::size_t k = 0; k < usable.size(); ++k) build(k);
  }

  std::size_t dropped = 0;
  for (const std::size_t d : dropped_per) dropped += d;
  return assemble(config, std::move(built), dropped, report);
}

namespace {

// --- streaming from-path pipeline -----------------------------------
// generate_database_from_path never materializes WiScanEntry vectors:
// rows stream out of scan_wiscan_buffer straight into per-BSSID
// buckets whose keys are views into the (mmap'd) file buffer. That
// skips two heap strings per row — the dominant cost of the
// materialized path once parsing itself is cheap. The aggregate keeps
// exactly what build_training_point consumes (capture-ordered RSSI
// samples per AP, scan transition count, final location), so the
// resulting database is byte-identical to load_collection +
// generate_database; the ingest round-trip tests pin that.

struct FileAggregate {
  // Owns the mapped bytes the bucket keys point into (null for
  // archive members, whose bytes the archive owns).
  std::unique_ptr<wiscan::FileBuffer> buffer;
  std::string location;
  wiscan::BucketTable table;
  std::size_t scans = 0;
};

class SampleAggregator final : public wiscan::WiScanRowSink {
 public:
  explicit SampleAggregator(std::string fallback_location) {
    result_.location = std::move(fallback_location);
  }

  void on_location(std::string_view location) override {
    result_.location.assign(location);
  }
  void on_row(const wiscan::WiScanRow& row) override {
    // Same transition count as WiScanFile::scan_count().
    if (first_ || row.timestamp_s != last_time_) {
      ++result_.scans;
      last_time_ = row.timestamp_s;
      first_ = false;
    }
    result_.table.add(row.bssid, row.rssi_dbm);
  }

  FileAggregate take() { return std::move(result_); }

 private:
  FileAggregate result_;
  double last_time_ = -1.0;
  bool first_ = true;
};

}  // namespace

TrainingDatabase generate_database_from_path(
    const std::filesystem::path& collection_source,
    const std::filesystem::path& location_map_file,
    const GeneratorConfig& config, GeneratorReport* report,
    concurrency::ThreadPool* pool) {
  metrics::ScopedTimer timer(generate_seconds_histogram());
  // Declared first so it outlives the aggregates: archive-member
  // bucket keys view its bytes.
  const wiscan::CollectionSources sources(collection_source);
  std::vector<wiscan::QuarantinedFile> quarantined;
  std::vector<FileAggregate> aggregates = sources.parse_all<FileAggregate>(
      pool, config.quarantine_corrupt_files ? &quarantined : nullptr,
      [](wiscan::SourceText source) {
        SampleAggregator aggregator(std::move(source.fallback_location));
        wiscan::scan_wiscan_buffer(source.text, aggregator);
        FileAggregate aggregate = aggregator.take();
        aggregate.buffer = std::move(source.buffer);
        return aggregate;
      });
  if (report) {
    for (wiscan::QuarantinedFile& q : quarantined) {
      report->quarantined.push_back(std::move(q));
    }
  }

  // Read after the collection so error precedence matches the
  // load_collection-then-map sequence.
  const wiscan::LocationMap map =
      wiscan::LocationMap::read(location_map_file);

  // Same order as load_collection: by location, work-list index ties.
  std::stable_sort(aggregates.begin(), aggregates.end(),
                   [](const FileAggregate& a, const FileAggregate& b) {
                     return a.location < b.location;
                   });

  std::vector<TrainingPoint> built;
  built.reserve(aggregates.size());
  std::size_t dropped = 0;
  for (const FileAggregate& aggregate : aggregates) {
    const auto position = map.find(aggregate.location);
    if (position) {
      built.push_back({aggregate.location, *position,
                       summarize_aps(aggregate.table, aggregate.scans,
                                     config.min_samples_per_ap,
                                     config.keep_samples, &dropped)});
    } else if (report) {
      report->unmapped_locations.push_back(aggregate.location);
    }
  }
  if (report) {
    for (const wiscan::NamedLocation& loc : map.locations()) {
      const bool surveyed = std::any_of(
          aggregates.begin(), aggregates.end(),
          [&](const FileAggregate& a) { return a.location == loc.name; });
      if (!surveyed) report->unsurveyed_locations.push_back(loc.name);
    }
  }
  generate_files_counter().add(aggregates.size());
  generate_quarantined_counter().add(sources.size() - aggregates.size());
  generate_points_counter().add(built.size());
  return assemble(config, std::move(built), dropped, report);
}

Result<TrainingDatabase> try_generate_database_from_path(
    const std::filesystem::path& collection_source,
    const std::filesystem::path& location_map_file,
    const GeneratorConfig& config, GeneratorReport* report,
    concurrency::ThreadPool* pool) {
  try {
    TrainingDatabase db = generate_database_from_path(
        collection_source, location_map_file, config, report, pool);
    if (db.size() == 0) {
      return Error(ErrorCode::kDegenerate,
                   "generator: no surveyed location matched the map")
          .with_context("building database from '" +
                        collection_source.string() + "'");
    }
    return db;
  } catch (const wiscan::BufferError& e) {
    return Error(ErrorCode::kIo, e.what());
  } catch (const wiscan::ArchiveError& e) {
    return Error(ErrorCode::kCorrupt, e.what());
  } catch (const wiscan::LocationMapError& e) {
    return Error(ErrorCode::kParse, e.what());
  } catch (const wiscan::FormatError& e) {
    return Error(ErrorCode::kParse, e.what());
  } catch (const DatabaseError& e) {
    return Error(ErrorCode::kCorrupt, e.what());
  } catch (const std::exception& e) {
    return Error(ErrorCode::kInternal, e.what());
  }
}

}  // namespace loctk::traindb
