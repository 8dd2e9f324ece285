#pragma once

/// \file location_map.hpp
/// The location map: named locations <-> world coordinates.
///
/// The paper's Training Database Generator takes "a location map (a
/// text file of location names and coordinates)" (§4.3). Format:
///
///     # location-map v1
///     kitchen        42.0  8.5
///     "Room D22"     10.0 30.0
///
/// Names with spaces are double-quoted; coordinates are feet in the
/// floor plan's world frame.

#include <filesystem>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "geom/vec2.hpp"

namespace loctk::wiscan {

class LocationMapError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One named location.
struct NamedLocation {
  std::string name;
  geom::Vec2 position;

  friend bool operator==(const NamedLocation&,
                         const NamedLocation&) = default;
};

/// Ordered collection of named locations with unique names.
class LocationMap {
 public:
  /// Adds a location; throws LocationMapError on duplicate names.
  void add(const std::string& name, geom::Vec2 position);

  /// Replaces or adds.
  void set(const std::string& name, geom::Vec2 position);

  bool contains(const std::string& name) const;
  std::optional<geom::Vec2> find(const std::string& name) const;

  /// Name of the location closest to `p`; nullopt when empty.
  std::optional<std::string> nearest(geom::Vec2 p) const;

  const std::vector<NamedLocation>& locations() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  void write(std::ostream& os) const;
  void write(const std::filesystem::path& path) const;
  static LocationMap read(const std::filesystem::path& path);

  friend bool operator==(const LocationMap&, const LocationMap&) = default;

 private:
  std::vector<NamedLocation> entries_;
};

}  // namespace loctk::wiscan
