// Unit tests for the location-map text format (names <-> coordinates).

#include "wiscan/location_map.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "wiscan/scan_buffer.hpp"

namespace loctk::wiscan {
namespace {

TEST(LocationMap, AddFindContains) {
  LocationMap map;
  map.add("kitchen", {42.0, 8.5});
  map.add("Room D22", {10.0, 30.0});
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.contains("kitchen"));
  EXPECT_FALSE(map.contains("attic"));
  ASSERT_TRUE(map.find("Room D22").has_value());
  EXPECT_EQ(*map.find("Room D22"), geom::Vec2(10.0, 30.0));
  EXPECT_FALSE(map.find("attic").has_value());
}

TEST(LocationMap, AddRejectsDuplicatesSetReplaces) {
  LocationMap map;
  map.add("a", {1.0, 1.0});
  EXPECT_THROW(map.add("a", {2.0, 2.0}), LocationMapError);
  map.set("a", {3.0, 3.0});
  EXPECT_EQ(*map.find("a"), geom::Vec2(3.0, 3.0));
  map.set("new", {4.0, 4.0});
  EXPECT_EQ(map.size(), 2u);
}

TEST(LocationMap, Nearest) {
  LocationMap map;
  EXPECT_FALSE(map.nearest({0.0, 0.0}).has_value());
  map.add("near", {1.0, 1.0});
  map.add("far", {40.0, 30.0});
  EXPECT_EQ(*map.nearest({2.0, 2.0}), "near");
  EXPECT_EQ(*map.nearest({39.0, 29.0}), "far");
}

TEST(LocationMap, RoundTripSimpleAndQuotedNames) {
  LocationMap map;
  map.add("kitchen", {42.0, 8.5});
  map.add("Room D22", {10.0, 30.0});
  map.add("has\"quote", {1.0, 2.0});
  map.add("back\\slash", {3.0, 4.0});

  std::ostringstream os;
  map.write(os);
  const LocationMap back = parse_location_map_buffer(os.str());
  EXPECT_EQ(back, map);
}

TEST(LocationMap, ParsesHandWrittenFile) {
  const std::string text =
      "# location-map v1\n"
      "\n"
      "kitchen\t42.0 8.5\n"
      "\"Center of Hallway\"  25 20\n"
      "  indented 1 2\n";
  const LocationMap map = parse_location_map_buffer(text);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(*map.find("Center of Hallway"), geom::Vec2(25.0, 20.0));
  EXPECT_EQ(*map.find("indented"), geom::Vec2(1.0, 2.0));
}

TEST(LocationMap, NegativeAndFractionalCoordinates) {
  const LocationMap map = parse_location_map_buffer("p -3.25 4.75\n");
  EXPECT_EQ(*map.find("p"), geom::Vec2(-3.25, 4.75));
}

TEST(LocationMap, MalformedLinesThrow) {
  auto parse = [](const std::string& text) {
    return parse_location_map_buffer(text);
  };
  EXPECT_THROW(parse("justaname\n"), LocationMapError);
  EXPECT_THROW(parse("name 1.0\n"), LocationMapError);
  EXPECT_THROW(parse("name abc def\n"), LocationMapError);
  EXPECT_THROW(parse("\"unterminated 1 2\n"), LocationMapError);
}

TEST(LocationMap, LaterDuplicateInFileWins) {
  // read() uses set(): a later line overrides (useful when a survey
  // revisits a location).
  const LocationMap map = parse_location_map_buffer("a 1 1\na 2 2\n");
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.find("a"), geom::Vec2(2.0, 2.0));
}

TEST(LocationMap, DiskRoundTrip) {
  const auto dir = std::filesystem::temp_directory_path() / "loctk_locmap";
  std::filesystem::create_directories(dir);
  LocationMap map;
  map.add("p10-10", {10.0, 10.0});
  const auto path = dir / "house.locmap";
  map.write(path);
  EXPECT_EQ(LocationMap::read(path), map);
  EXPECT_THROW(LocationMap::read(dir / "missing.locmap"),
               LocationMapError);
  std::filesystem::remove_all(dir);
}

TEST(LocationMap, OrderPreserved) {
  LocationMap map;
  map.add("z", {0.0, 0.0});
  map.add("a", {1.0, 1.0});
  ASSERT_EQ(map.locations().size(), 2u);
  EXPECT_EQ(map.locations()[0].name, "z");
  EXPECT_EQ(map.locations()[1].name, "a");
}

}  // namespace
}  // namespace loctk::wiscan
